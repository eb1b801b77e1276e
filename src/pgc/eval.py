"""CoQA-style scoring: EM, F1, and the O/G/E report splits.

Answers are compared after ``normalize`` (defined in ``pgc.corpus``,
which classifies answers with it, and importable from here).  Scores
are kept at full precision internally and rounded to one decimal only
for display.  A turn with more than one reference (``--multi-ref``) is
scored by CoQA's leave-one-out rule (``score_multi``).  A report's JSON
form is its fields in declaration order, with ``per_category`` rows as
objects.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from .corpus import CorpusError, check_fields, normalize, tighten_rationale
from .prompt import categorize


def em(pred: str, gold: str) -> int:
    """Exact match after normalisation."""
    return int(normalize(pred) == normalize(gold))


def f1(pred: str, gold: str) -> float:
    """Token-level F1 over normalised tokens (multiset overlap)."""
    pred_tokens = normalize(pred).split()
    gold_tokens = normalize(gold).split()
    if not pred_tokens or not gold_tokens:
        # Both empty counts as agreement; one empty as total miss.
        return float(pred_tokens == gold_tokens)
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2.0 * precision * recall / (precision + recall)


def score_multi(pred: str, references: list[str]) -> tuple[float, float]:
    """(EM, F1) as CoQA scores them: against a lone reference, the plain
    scores; with n > 1, each reference is left out in turn and the maxima
    over the other n - 1 are averaged."""
    if not references:
        raise CorpusError("a prediction needs at least one reference")
    scores = [(em(pred, ref), f1(pred, ref)) for ref in references]
    if len(scores) == 1:
        return scores[0]
    rests = [scores[:i] + scores[i + 1:] for i in range(len(scores))]
    return (sum(max(em_i for em_i, _ in rest) for rest in rests) / len(scores),
            sum(max(f1_i for _, f1_i in rest) for rest in rests) / len(scores))


@dataclass
class Prediction:
    """One predicted answer with its gold reference texts (primary first)."""
    story_id: str
    turn_id: int
    text: str
    references: list[str]

    def __post_init__(self):
        check_fields(self)
        if not self.references:
            raise CorpusError(f"prediction {self.story_id}/{self.turn_id} has no references")


@dataclass
class EvalReport:
    """EM/F1 percentages overall and per answer class, plus category F1s.

    Split scores are None when the corresponding split is empty.
    ``per_category`` rows are (category, mean F1 percent, count), sorted
    by count descending.  The scores cover ``n_overall`` of the
    ``n_examples`` examples; ``n_missing`` of them had no prediction.
    """
    o_em: float
    o_f1: float
    g_em: float | None
    g_f1: float | None
    e_em: float | None
    e_f1: float | None
    n_overall: int
    n_generative: int
    n_extractive: int
    n_examples: int
    n_missing: int
    per_category: list[tuple[str, float, int]]

    def to_dict(self) -> dict:
        return {**asdict(self), "per_category": [
            {"category": c, "f1": f, "count": n} for c, f, n in self.per_category]}

    def summary_lines(self) -> list[str]:
        def fmt(x):
            return "-" if x is None else f"{x:.1f}"

        return [
            f"O-EM {fmt(self.o_em)}  O-F1 {fmt(self.o_f1)}  (n={self.n_overall} of "
            f"{self.n_examples} examples, {self.n_missing} without a prediction)",
            f"G-EM {fmt(self.g_em)}  G-F1 {fmt(self.g_f1)}  (n={self.n_generative})",
            f"E-EM {fmt(self.e_em)}  E-F1 {fmt(self.e_f1)}  (n={self.n_extractive})",
        ]


def _mean_pct(values: list[float]) -> float | None:
    if not values:
        return None
    return 100.0 * sum(values) / len(values)


def evaluate(predictions: list[Prediction], examples, vocab=None, top_k: int = 10) -> EvalReport:
    """Score predictions against their examples, split by answer class.

    Every prediction must match an example by (story_id, turn_id), at
    most one per example, or ``CorpusError`` is raised.  Examples without
    a prediction are not scored; the report counts them in
    ``n_missing``.  ``vocab`` is a category vocabulary used for the
    per-category F1 breakdown (skipped if None).
    """
    by_key = {(ex.story_id, ex.turn.turn_id): ex for ex in examples}
    ems = {"Extractive": [], "Generative": []}
    f1s = {"Extractive": [], "Generative": []}
    cat_f1: dict[str, list[float]] = {}
    seen: set[tuple[str, int]] = set()
    for pred in predictions:
        key = (pred.story_id, pred.turn_id)
        if key not in by_key:
            raise CorpusError(f"prediction for unknown example {key[0]}/{key[1]}")
        if key in seen:
            raise CorpusError(f"second prediction for {key[0]}/{key[1]}")
        seen.add(key)
        ex = by_key[key]
        em_i, f1_i = score_multi(pred.text, pred.references)
        cls = ex.answer_class.value
        ems[cls].append(float(em_i))
        f1s[cls].append(f1_i)
        if vocab is not None:
            cat = categorize(ex.turn.question, vocab)
            cat_f1.setdefault(cat, []).append(f1_i)

    all_em = ems["Extractive"] + ems["Generative"]
    all_f1 = f1s["Extractive"] + f1s["Generative"]
    per_category = sorted(
        ((cat, _mean_pct(vals), len(vals)) for cat, vals in cat_f1.items()),
        key=lambda row: (-row[2], row[0]),
    )[:top_k]
    return EvalReport(
        o_em=_mean_pct(all_em) if all_em else 0.0,
        o_f1=_mean_pct(all_f1) if all_f1 else 0.0,
        g_em=_mean_pct(ems["Generative"]),
        g_f1=_mean_pct(f1s["Generative"]),
        e_em=_mean_pct(ems["Extractive"]),
        e_f1=_mean_pct(f1s["Extractive"]),
        n_overall=len(all_em),
        n_generative=len(ems["Generative"]),
        n_extractive=len(ems["Extractive"]),
        per_category=per_category,
        n_examples=len(by_key),
        n_missing=len(by_key) - len(seen),
    )


def raw_baseline(examples, tighten: bool = False, extra_references=None, vocab=None,
                 top_k: int = 10) -> EvalReport:
    """Score the annotated rationale itself as the predicted answer.

    With ``tighten``, extractive rationales are first cut down to the
    answer-matching sub-span, which forces EM/F1 of 1 on that split.
    ``extra_references`` maps (story_id, turn_id) to additional gold
    texts, scored with the primary answer by ``score_multi``.
    """
    extra_references = extra_references or {}
    predictions = []
    for ex in examples:
        source = tighten_rationale(ex) if tighten else ex
        refs = [ex.turn.answer] + list(extra_references.get((ex.story_id, ex.turn.turn_id), []))
        predictions.append(Prediction(
            story_id=ex.story_id, turn_id=ex.turn.turn_id,
            text=source.turn.rationale, references=refs,
        ))
    return evaluate(predictions, examples, vocab=vocab, top_k=top_k)


def write_report(report: EvalReport, path: Path, config: dict) -> None:
    payload = {**report.to_dict(), "config": config}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_category_csv(report: EvalReport, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "f1", "count"])
        for category, f1_value, count in report.per_category:
            writer.writerow([category, f"{f1_value:.6f}", count])

"""CoQA-format ingestion and answer-class bookkeeping.

Each conversation turn becomes one example carrying its full prior
history.  An answer is extractive when its normalised token sequence
appears contiguously inside the normalised rationale; everything else
(including unanswerable turns, which have no rationale) is generative.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .eval import normalize

_WHITESPACE_TOKEN = re.compile(r"\S+")


class CorpusError(ValueError):
    """Malformed or structurally inconsistent input data."""


class AnswerClass(Enum):
    EXTRACTIVE = "Extractive"
    GENERATIVE = "Generative"


@dataclass(frozen=True)
class ConversationTurn:
    """One question/answer pair with its annotated evidence span."""
    turn_id: int
    question: str
    rationale: str
    answer: str
    span_start: int = 0

    def __post_init__(self):
        if self.turn_id < 1:
            raise CorpusError(f"turn_id must be >= 1, got {self.turn_id}")
        if (self.rationale == "") != (self.span_start == -1):
            raise CorpusError(
                f"turn {self.turn_id}: rationale must be empty exactly when span_start is -1"
            )


@dataclass(frozen=True)
class DialogueExample:
    """A turn plus every earlier turn of the same dialogue, oldest first."""
    story_id: str
    turn: ConversationTurn
    history: tuple[ConversationTurn, ...]
    answer_class: AnswerClass

    def __post_init__(self):
        ids = [t.turn_id for t in self.history] + [self.turn.turn_id]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise CorpusError(f"{self.story_id}: history turn_ids must strictly increase")


@dataclass(frozen=True)
class CorpusStats:
    n_examples: int
    n_extractive: int
    n_generative: int
    extractive_fraction: float


def _normalized_word_spans(text: str) -> list[tuple[int, int, str]]:
    """Whitespace tokens with char offsets and their normalised forms.

    Normalising a whitespace token independently gives exactly its
    contribution to normalize(text): zero tokens (pure punctuation or an
    article) or one.
    """
    spans = []
    for m in _WHITESPACE_TOKEN.finditer(text):
        spans.append((m.start(), m.end(), normalize(m.group())))
    return spans


def _find_answer_window(answer: str, rationale: str) -> tuple[int, int] | None:
    """Char span of the shortest rationale slice normalising to the answer."""
    want = normalize(answer).split()
    if not want:
        return None
    spans = [(s, e, norm) for s, e, norm in _normalized_word_spans(rationale) if norm]
    have = [norm for _, _, norm in spans]
    best: tuple[int, int] | None = None
    for i in range(len(have) - len(want) + 1):
        if have[i:i + len(want)] == want:
            start, end = spans[i][0], spans[i + len(want) - 1][1]
            if best is None or end - start < best[1] - best[0]:
                best = (start, end)
    return best


def classify_answer(answer: str, rationale: str) -> AnswerClass:
    """Extractive iff the normalised answer occurs contiguously in the rationale."""
    if _find_answer_window(answer, rationale) is not None:
        return AnswerClass.EXTRACTIVE
    return AnswerClass.GENERATIVE


def tighten_rationale(example: DialogueExample) -> DialogueExample:
    """Cut an extractive rationale down to the answer-matching sub-span.

    Generative examples are returned unchanged.  Idempotent: the
    tightened rationale still normalises to the answer.
    """
    if example.answer_class is not AnswerClass.EXTRACTIVE:
        return example
    window = _find_answer_window(example.turn.answer, example.turn.rationale)
    if window is None:  # unreachable for a correctly classified example
        return example
    start, end = window
    new_turn = replace(example.turn, rationale=example.turn.rationale[start:end])
    return replace(example, turn=new_turn)


def compute_stats(examples: list[DialogueExample]) -> CorpusStats:
    n_ext = sum(1 for ex in examples if ex.answer_class is AnswerClass.EXTRACTIVE)
    n = len(examples)
    return CorpusStats(
        n_examples=n,
        n_extractive=n_ext,
        n_generative=n - n_ext,
        extractive_fraction=n_ext / n if n else 0.0,
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorpusError(message)


def _build_turn(question: dict, answer: dict, story_id: str) -> ConversationTurn:
    _require(question.get("turn_id") == answer.get("turn_id"),
             f"story {story_id}: question/answer turn_id mismatch "
             f"({question.get('turn_id')} vs {answer.get('turn_id')})")
    span_start = int(answer.get("span_start", -1))
    rationale = str(answer.get("span_text", ""))
    if span_start == -1:
        rationale = ""  # unanswerable turns carry no copyable evidence
    elif rationale == "":
        span_start = -1
    return ConversationTurn(
        turn_id=int(question["turn_id"]),
        question=str(question.get("input_text", "")),
        rationale=rationale,
        answer=str(answer.get("input_text", "")),
        span_start=span_start,
    )


def ingest(path: str | Path) -> list[DialogueExample]:
    """Read a CoQA-format JSON file into per-turn examples with history."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as err:
        raise CorpusError(f"{path}: malformed JSON at byte offset {err.pos}: {err.msg}") from err
    _require(isinstance(payload, dict) and isinstance(payload.get("data"), list),
             f"{path}: expected a top-level 'data' array")

    examples: list[DialogueExample] = []
    for item in payload["data"]:
        story_id = str(item.get("id", ""))
        _require("questions" in item and "answers" in item,
                 f"story {story_id}: missing questions or answers")
        questions, answers = item["questions"], item["answers"]
        _require(len(questions) == len(answers),
                 f"story {story_id}: {len(questions)} questions vs {len(answers)} answers")
        turns: list[ConversationTurn] = []
        for question, answer in zip(questions, answers):
            turns.append(_build_turn(question, answer, story_id))
        for i, turn in enumerate(turns):
            examples.append(DialogueExample(
                story_id=story_id,
                turn=turn,
                history=tuple(turns[:i]),
                answer_class=classify_answer(turn.answer, turn.rationale),
            ))
    return examples


def load_additional_answers(path: str | Path) -> dict[tuple[str, int], list[str]]:
    """Auxiliary human answers from a CoQA dev file, keyed by (story, turn).

    These never enter the example store; they are extra references for
    multi-reference scoring only.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    refs: dict[tuple[str, int], list[str]] = {}
    for item in payload.get("data", []):
        story_id = str(item.get("id", ""))
        for answer_set in (item.get("additional_answers") or {}).values():
            for answer in answer_set:
                key = (story_id, int(answer["turn_id"]))
                refs.setdefault(key, []).append(str(answer.get("input_text", "")))
    return refs


# -- line-delimited JSON example store --

def _turn_to_dict(turn: ConversationTurn) -> dict:
    return {
        "turn_id": turn.turn_id,
        "question": turn.question,
        "rationale": turn.rationale,
        "answer": turn.answer,
        "span_start": turn.span_start,
    }


def _turn_from_dict(d: dict) -> ConversationTurn:
    return ConversationTurn(
        turn_id=int(d["turn_id"]),
        question=d["question"],
        rationale=d["rationale"],
        answer=d["answer"],
        span_start=int(d["span_start"]),
    )


def example_to_dict(example: DialogueExample) -> dict:
    return {
        "story_id": example.story_id,
        "turn": _turn_to_dict(example.turn),
        "history": [_turn_to_dict(t) for t in example.history],
        "answer_class": example.answer_class.value,
    }


def example_from_dict(d: dict) -> DialogueExample:
    return DialogueExample(
        story_id=d["story_id"],
        turn=_turn_from_dict(d["turn"]),
        history=tuple(_turn_from_dict(t) for t in d["history"]),
        answer_class=AnswerClass(d["answer_class"]),
    )


def save_examples(examples: list[DialogueExample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for example in examples:
            fh.write(json.dumps(example_to_dict(example), ensure_ascii=False) + "\n")


def load_examples(path: str | Path) -> list[DialogueExample]:
    examples = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError("expected a JSON object")
                examples.append(example_from_dict(record))
            except (KeyError, TypeError, ValueError) as err:
                raise CorpusError(f"{path}:{line_no}: bad example record: {err}") from err
    return examples

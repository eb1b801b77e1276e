"""Output checks made apart from the program.

Each function returns a list of failure messages (empty when the check
holds), so the benchmark can report every failure of a run at once.
"""

from __future__ import annotations

import string

import numpy as np

DIST_TOL = 1e-6


_PUNCTUATION = set(string.punctuation)
_ARTICLES = {"a", "an", "the"}


def answer_words(text: str) -> list[str]:
    """Words as CoQA exact match compares them: lowercased, punctuation
    and the articles a/an/the dropped.  Coded apart from the program's
    scorer."""
    kept = "".join(ch for ch in text.lower() if ch not in _PUNCTUATION)
    return [w for w in kept.split() if w not in _ARTICLES]


def exact_matches(predictions: dict, expected: dict) -> int:
    """Predictions whose words equal the answer the generator built."""
    return sum(int(answer_words(predictions[key]) == answer_words(turn.answer))
               for key, turn in expected.items() if key in predictions)


def em_recount(predictions: dict, expected: dict, o_em: float) -> list[str]:
    """The scorer's O-EM equals the share of exact matches counted here."""
    if not expected:
        return ["no held-out answers to recount"]
    mine = 100.0 * exact_matches(predictions, expected) / len(expected)
    if abs(mine - o_em) > 1e-9:
        return [f"exact-match recount {mine:.4f}% != scorer O-EM {o_em:.4f}%"]
    return []


def coverage(predictions: dict, expected: dict, n_scored: int) -> list[str]:
    """One prediction per held-out turn, and every one of them scored."""
    failures = []
    if set(predictions) != set(expected):
        failures.append(f"{len(set(expected) - set(predictions))} held-out turns "
                        f"without a prediction, {len(set(predictions) - set(expected))} "
                        f"predictions for unknown turns")
    if n_scored != len(expected):
        failures.append(f"scorer covered {n_scored} of {len(expected)} held-out turns")
    return failures


def oov_from_source(emitted: list[str], in_vocab, source_tokens: list[str]) -> list[str]:
    """Every emitted word the generator cannot produce occurs in the source."""
    source = set(source_tokens)
    return [f"emitted {tok!r}, outside the vocabulary and the source"
            for tok in emitted if not in_vocab(tok) and tok not in source]


def yes_no_only(predictions: dict, yes_no_keys) -> list[str]:
    bad = [key for key in yes_no_keys if predictions.get(key) not in ("yes", "no")]
    if bad:
        return [f"{len(bad)} yes/no turns answered with something else, "
                f"e.g. {bad[0]}: {predictions.get(bad[0])!r}"]
    return []


def distributions(p_final: np.ndarray, p_gen: np.ndarray) -> list[str]:
    """Each row of ``p_final`` is a distribution and the gate lies in (0, 1)."""
    failures = []
    gap = float(np.max(np.abs(p_final.sum(axis=1) - 1.0)))
    if gap > DIST_TOL:
        failures.append(f"p_final row sums off by {gap:.2e}")
    if np.any(p_final < 0.0):
        failures.append("p_final has negative entries")
    if not np.all((p_gen > 0.0) & (p_gen < 1.0)):
        failures.append("p_gen outside (0, 1)")
    return failures


def stores_identical(a, b) -> list[str]:
    """Two parameter stores hold bit-identical parameters and Adam state."""
    if a.names() != b.names():
        return ["checkpoint parameter names differ"]
    if a.step != b.step:
        return [f"checkpoint step {b.step} != {a.step}"]
    for name in a.names():
        pairs = ((a[name].data, b[name].data), (a.adam_m[name], b.adam_m[name]),
                 (a.adam_v[name], b.adam_v[name]))
        if not all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in pairs):
            return [f"checkpoint round trip changed {name}"]
    return []

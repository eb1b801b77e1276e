"""CoQA-format ingestion, answer normalisation and classification, and
the example store.

Each conversation turn becomes one example carrying its full prior
history.  Answers are normalised as the official CoQA/SQuAD scorer does
(``normalize``).  An answer is extractive when its normalised token
sequence appears contiguously inside the normalised rationale;
everything else (including unanswerable turns, which have no rationale)
is generative.

Every whole-file JSON input (CoQA, config) is read by ``read_json``, and
the JSON header line of a checkpoint is parsed by ``parse_json``, the
part of ``read_json`` that parses bytes already read.  Every JSON-lines
file (store, prompts, predictions) is written by ``write_records`` and
read by ``read_records``: each line is a record that checks its own
field types, so a line that is not exactly one is a ``CorpusError``
naming ``path:line``.  A store line is a ``DialogueExample``'s fields in
order, its turns as ``ConversationTurn`` fields, its answer class as the value.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

_WHITESPACE_TOKEN = re.compile(r"\S+")
_ARTICLES = re.compile(r"\b(a|an|the)\b")
_DROP_PUNCT = str.maketrans("", "", string.punctuation)


class CorpusError(ValueError):
    """Any fault of the input: a file, a record in it, or predictions that do
    not fit the examples they score."""


class AnswerClass(Enum):
    EXTRACTIVE = "Extractive"
    GENERATIVE = "Generative"


@cache
def _typed_fields(cls) -> tuple[tuple[str, tuple[type, ...]], ...]:
    """Each ``int``, ``float``, ``str`` or ``bool`` field, or ``X | None`` one, and its types."""
    hints = ((name, get_args(t) if get_origin(t) in (Union, UnionType) else (t,))
             for name, t in get_type_hints(cls).items())
    return tuple(h for h in hints if set(h[1]) <= {int, float, str, bool, type(None)})


def check_fields(record) -> None:
    """Each such field holds exactly one of its types (a bool is no int), or
    else ``TypeError``; an int in a float field is stored as a float."""
    for name, allowed in _typed_fields(type(record)):
        value = getattr(record, name)
        if type(value) is int and float in allowed:
            object.__setattr__(record, name, float(value))   # the records are frozen
        elif type(value) not in allowed:
            expected = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            got = "null" if value is None else type(value).__name__
            raise TypeError(f"{name}: expected {expected}, got {got}")


@dataclass(frozen=True)
class ConversationTurn:
    """One question/answer pair with its annotated evidence span."""
    turn_id: int
    question: str
    rationale: str
    answer: str
    span_start: int

    def __post_init__(self):
        check_fields(self)
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
        check_fields(self)
        ids = [t.turn_id for t in self.history] + [self.turn.turn_id]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise CorpusError(f"{self.story_id}: history turn_ids must strictly increase")


@dataclass(frozen=True)
class CorpusStats:
    n_examples: int
    n_extractive: int
    n_generative: int
    extractive_fraction: float


def normalize(text: str) -> str:
    """Lowercase, strip punctuation, drop the articles a/an/the, collapse whitespace."""
    text = text.lower()
    text = text.translate(_DROP_PUNCT)
    text = _ARTICLES.sub(" ", text)
    return " ".join(text.split())


def _normalized_word_spans(text: str) -> list[tuple[int, int, str]]:
    """The tokens of normalize(text), each with the char span of the
    whitespace token it comes from.

    Normalising a whitespace token independently gives exactly its
    contribution to normalize(text): zero tokens (pure punctuation or an
    article) or more (``—the—kite`` gives ``—`` and ``—kite``).
    """
    return [(m.start(), m.end(), word) for m in _WHITESPACE_TOKEN.finditer(text)
            for word in normalize(m.group()).split()]


def _find_answer_window(answer: str, rationale: str) -> tuple[int, int] | None:
    """Char span of the shortest rationale slice normalising to the answer."""
    want = normalize(answer).split()
    if not want:
        return None
    spans = _normalized_word_spans(rationale)
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
    want, have = normalize(answer).split(), normalize(rationale).split()
    n = len(want)
    found = n > 0 and any(have[i:i + n] == want for i in range(len(have) - n + 1))
    return AnswerClass.EXTRACTIVE if found else AnswerClass.GENERATIVE


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


def _require(condition: bool, message: str, *args) -> None:
    if not condition:   # the message is built only on failure
        raise CorpusError(message.format(*args))


def _text(record: dict, key: str) -> str:
    """``record[key]``, which must be a string when present; absent, ``""``."""
    value = record.get(key, "")
    if type(value) is not str:   # the message is built only for a bad value
        raise CorpusError(f"{key} must be a string, got {json.dumps(value)}")
    return value


def _build_turn(question, answer) -> ConversationTurn:
    _require(isinstance(question, dict) and isinstance(answer, dict),
             "a question or answer is not an object")
    _require("turn_id" in question, "a question lacks turn_id")
    turn_id, span_start = question["turn_id"], answer.get("span_start", -1)
    _require(turn_id == answer.get("turn_id"), "question/answer turn_id mismatch ({} vs {})",
             turn_id, answer.get("turn_id"))
    _require(all(type(v) is int for v in (turn_id, answer["turn_id"], span_start)),
             "turn_id and span_start must be ints, got {!r} and {!r}", turn_id, span_start)
    rationale = _text(answer, "span_text")
    if span_start == -1:
        rationale = ""  # unanswerable turns carry no copyable evidence
    elif rationale == "":
        span_start = -1
    return ConversationTurn(
        turn_id=turn_id,
        question=_text(question, "input_text"),
        rationale=rationale,
        answer=_text(answer, "input_text"),
        span_start=span_start,
    )


def _per_story(path: str | Path, read_story) -> list:
    """``read_story(story_id, entry)``'s items for every story of a
    CoQA-format JSON file, in file order.  A malformed field is a
    ``CorpusError`` naming the file and the story."""
    payload = read_json(path)
    _require(isinstance(payload.get("data"), list), "{}: expected a top-level 'data' array", path)
    items, seen = [], set()
    for index, entry in enumerate(payload["data"]):
        _require(isinstance(entry, dict), "{}: data entry {} is not an object", path, index)
        story_id = entry.get("id", "")
        if type(story_id) is not str:
            raise CorpusError(f"{path}: data entry {index}: id must be a string, "
                              f"got {json.dumps(story_id)}")
        _require(story_id not in seen, "{}: story {} appears twice", path, story_id)
        seen.add(story_id)
        try:
            items += read_story(story_id, entry)
        except (TypeError, ValueError) as err:   # CorpusError is a ValueError
            raise CorpusError(f"{path}: story {story_id}: {err}") from err
    return items


def _story_examples(story_id: str, entry: dict) -> list[DialogueExample]:
    _require("questions" in entry and "answers" in entry, "missing questions or answers")
    questions, answers = entry["questions"], entry["answers"]
    _require(len(questions) == len(answers), "{} questions vs {} answers",
             len(questions), len(answers))
    turns = [_build_turn(question, answer) for question, answer in zip(questions, answers)]
    return [DialogueExample(story_id=story_id, turn=turn, history=tuple(turns[:i]),
                            answer_class=classify_answer(turn.answer, turn.rationale))
            for i, turn in enumerate(turns)]


def ingest(path: str | Path) -> list[DialogueExample]:
    """Read a CoQA-format JSON file into per-turn examples with history."""
    return _per_story(path, _story_examples)


def _story_additional_answers(story_id: str, entry: dict) -> list:
    extra = entry.get("additional_answers") or {}
    _require(isinstance(extra, dict), "additional_answers is not an object")
    answers = [answer for answer_set in extra.values() for answer in answer_set]
    _require(all(isinstance(a, dict) and "turn_id" in a for a in answers),
             "an additional answer lacks turn_id")
    bad = [a["turn_id"] for a in answers if type(a["turn_id"]) is not int]
    _require(not bad, "an additional answer's turn_id must be an int, got {}", bad[:1])
    return [((story_id, a["turn_id"]), _text(a, "input_text")) for a in answers]


def load_additional_answers(path: str | Path) -> dict[tuple[str, int], list[str]]:
    """Auxiliary human answers from a CoQA dev file, keyed by (story, turn).

    These never enter the example store; they are extra references for
    multi-reference scoring only.
    """
    refs: dict[tuple[str, int], list[str]] = {}
    for key, text in _per_story(path, _story_additional_answers):
        refs.setdefault(key, []).append(text)
    return refs


# -- JSON files and JSON lines --

def read_json(path: str | Path) -> dict:
    """The JSON object a whole file holds, as ``parse_json`` reads it."""
    return parse_json(path, Path(path).read_bytes())


def parse_json(path: str | Path, raw: bytes) -> dict:
    """The JSON object in ``raw``, bytes of ``path``.  A byte that is not UTF-8,
    malformed JSON (with its line) or another top-level value is a
    ``CorpusError`` naming the file."""
    try:   # decoded once with no newline translation
        payload = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:   # its "position" is the byte offset
        raise CorpusError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise CorpusError(f"{path}: malformed JSON at line {err.lineno}, byte offset "
                          f"{len(err.doc[:err.pos].encode())}: {err.msg}") from err
    _require(type(payload) is dict, "{}: expected a JSON object", path)
    return payload


def write_records(path: str | Path, records) -> None:
    """One ``json.dumps(record, ensure_ascii=False)`` line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_records(path: str | Path, build) -> list:
    """The items of the non-blank lines in file order; ``build(record)`` gives
    each line's ``(key, item)``, the key a ``(story_id, turn_id)`` pair.  A line
    that is no JSON object, repeats a key or makes ``build`` raise ``KeyError``,
    ``TypeError`` or ``ValueError`` is a ``CorpusError`` naming ``path:line``."""
    items = {}
    with open(path, "rb") as fh:   # decoded line by line, so a bad byte gets its line
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                _require(type(record) is dict, "expected a JSON object")
                key, item = build(record)
                _require(key not in items, "a second record for {}/{}", *key)
            except (KeyError, TypeError, ValueError) as err:
                raise CorpusError(f"{path}:{line_no}: bad record: {err}") from err
            items[key] = item
    return list(items.values())


def save_examples(examples: list[DialogueExample], path: str | Path) -> None:
    write_records(path, ({**vars(ex), "turn": vars(ex.turn),
                          "history": [vars(t) for t in ex.history],
                          "answer_class": ex.answer_class.value} for ex in examples))


def _example(record: dict) -> tuple[tuple[str, int], DialogueExample]:
    example = DialogueExample(**{
        **record, "turn": ConversationTurn(**record["turn"]),
        "history": tuple(ConversationTurn(**t) for t in record["history"]),
        "answer_class": AnswerClass(record["answer_class"])})
    derived = classify_answer(example.turn.answer, example.turn.rationale)
    _require(example.answer_class is derived, "answer_class {} contradicts the answer and "
             "rationale, which make it {}", example.answer_class.value, derived.value)
    return (example.story_id, example.turn.turn_id), example


def load_examples(path: str | Path) -> list[DialogueExample]:
    """The examples of a store in file order.  A line that repeats an
    earlier line's (story_id, turn_id), or whose answer_class is not
    ``classify_answer(answer, rationale)``, is a ``CorpusError`` too."""
    return read_records(path, _example)

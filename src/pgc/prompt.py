"""Prompt construction, question categories, and tokenisation.

Three prompt layouts turn an example into encoder input text:

  V1  "Question: {q} Rationale: {r}"
  V2  "{Category} Question: {q} Rationale: {r}"
  V3  history turns as worked examples, oldest first, each
      "{Cat} Question: {q} Rationale: {r} Answer: {a}", then the current
      turn ending in a bare "Answer:".

Categories are the most frequent question-opening interrogative words in
the training set; anything else maps to "Other".  The word-level
tokeniser is deliberately simple: lowercased alphanumeric runs plus
single punctuation marks.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable

from .corpus import CorpusError, DialogueExample

_TOKEN = re.compile(r"\w+|[^\w\s]", re.UNICODE)
_EDGE_PUNCT = re.compile(r"^\W+|\W+$", re.UNICODE)

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


class PromptVersionId(IntEnum):
    QUESTION_RATIONALE = 1
    QUESTION_DESCRIPTION = 2
    CONVERSATION_HISTORY = 3


@dataclass(frozen=True)
class PromptVersion:
    """Which template to use; history_depth matters only for version 3."""
    version: PromptVersionId
    history_depth: int = 1

    def __post_init__(self):
        if self.history_depth < 0:
            raise ValueError("history_depth must be >= 0")


@dataclass(frozen=True)
class CategoryVocab:
    """Interrogative words accepted as categories, most frequent first."""
    categories: tuple[str, ...]

    def __post_init__(self):
        if not self.categories:
            raise ValueError("category vocabulary is empty")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("category vocabulary has duplicates")


@dataclass
class PromptedExample:
    """Prompt text with its token/id view for the copy mechanism.

    ``source_ids`` are extended-vocabulary ids: generator-vocabulary ids
    where possible, then per-example ids past the vocabulary size for
    source tokens the generator cannot emit (``source_oov`` lists those
    in id order).
    """
    source_text: str
    target_text: str
    source_tokens: list[str]
    source_ids: list[int]
    origin: DialogueExample
    source_oov: list[str] = field(default_factory=list)


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs and single punctuation marks."""
    return _TOKEN.findall(text.lower())


def rationale_span(prompted: PromptedExample) -> tuple[int, int]:
    """Source positions ``[start, stop)`` of the last run of the current turn's
    rationale tokens (V3 puts the current turn last), or an empty range."""
    run, tokens = tokenize(prompted.origin.turn.rationale), prompted.source_tokens
    for start in range(len(tokens) - len(run), -1, -1):
        if tokens[start:start + len(run)] == run:
            return start, start + len(run)
    return 0, 0


def detokenize(tokens: Iterable[str]) -> str:
    return " ".join(tokens)


def _first_word(question: str) -> str:
    parts = question.split()
    if not parts:
        return ""
    return _EDGE_PUNCT.sub("", parts[0]).lower()


def build_category_vocab(examples: list[DialogueExample], k: int) -> CategoryVocab:
    """The k most frequent question-opening words, ties broken alphabetically;
    no example or no question word to rank is a ``CorpusError``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not examples:
        raise CorpusError("cannot build a category vocabulary from no examples")
    counts = Counter(w for w in (_first_word(ex.turn.question) for ex in examples) if w)
    if not counts:
        raise CorpusError("no question words found to build a category vocabulary")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return CategoryVocab(categories=tuple(word for word, _ in ranked[:k]))


def categorize(question: str, vocab: CategoryVocab) -> str:
    """First question word with an initial capital, or "Other"."""
    word = _first_word(question)
    if word and word in vocab.categories:
        return word[0].upper() + word[1:]
    return "Other"


class TokenVocab:
    """Fixed generator vocabulary plus per-example extended ids.

    Ids 0..3 are the special tokens; the rest are the most frequent
    tokens seen at build time, capped at ``max_size``.  Source tokens
    outside the vocabulary get temporary ids ``size, size+1, ...`` so
    the copy path can still emit them.
    """

    def __init__(self, tokens: Iterable[str]):
        self.tokens = list(SPECIAL_TOKENS) + [
            t for t in tokens if t not in SPECIAL_TOKENS
        ]
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("token vocabulary has duplicates")

    @classmethod
    def build(cls, token_lists: Iterable[Iterable[str]], max_size: int) -> "TokenVocab":
        if max_size <= len(SPECIAL_TOKENS):
            raise ValueError(f"max_size must exceed {len(SPECIAL_TOKENS)}")
        counts = Counter(t for tokens in token_lists for t in tokens)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        budget = max_size - len(SPECIAL_TOKENS)
        return cls(word for word, _ in ranked[:budget])

    @property
    def size(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def encode_source(self, tokens: list[str]) -> tuple[list[int], list[str]]:
        """Extended ids for source tokens plus the ordered OOV list."""
        ids, oov, oov_index = [], [], {}
        for token in tokens:
            if token in self.index:
                ids.append(self.index[token])
            else:
                if token not in oov_index:
                    oov_index[token] = self.size + len(oov)
                    oov.append(token)
                ids.append(oov_index[token])
        return ids, oov

    def encode_target(self, tokens: list[str], source_oov: list[str]) -> list[int]:
        """Extended ids for target tokens; true OOV (not in source) maps to UNK."""
        oov_index = {t: self.size + i for i, t in enumerate(source_oov)}
        return [self.index.get(t, oov_index.get(t, UNK)) for t in tokens]

    def to_generator_ids(self, extended_ids: Iterable[int]) -> list[int]:
        """Collapse extended ids to embeddable ones (OOV becomes UNK)."""
        return [i if i < self.size else UNK for i in extended_ids]

    def decode_extended(self, ids: Iterable[int], source_oov: list[str]) -> list[str]:
        return [self.tokens[i] if i < self.size else source_oov[i - self.size] for i in ids]


def _turn_segment(category: str, question: str, rationale: str, answer: str | None) -> str:
    segment = f"{category} Question: {question} Rationale: {rationale} Answer:"
    if answer is not None:
        segment += f" {answer}"
    return segment


def build_prompt(example: DialogueExample, version: PromptVersion, vocab: CategoryVocab,
                 token_vocab: TokenVocab | None = None) -> PromptedExample:
    """Render one example through the selected template.

    Asking for more history than the example has is not an error; all
    available turns are used.  Without a ``token_vocab`` every token is
    treated as out-of-vocabulary, which keeps ids well defined.
    """
    q, r = example.turn.question, example.turn.rationale
    if version.version is PromptVersionId.QUESTION_RATIONALE:
        text = f"Question: {q} Rationale: {r}"
    elif version.version is PromptVersionId.QUESTION_DESCRIPTION:
        text = f"{categorize(q, vocab)} Question: {q} Rationale: {r}"
    else:
        segments = []
        history = example.history[-version.history_depth:] if version.history_depth else ()
        for turn in history:
            segments.append(_turn_segment(
                categorize(turn.question, vocab), turn.question, turn.rationale, turn.answer))
        segments.append(_turn_segment(categorize(q, vocab), q, r, None))
        text = " ".join(segments)

    tokens = tokenize(text)
    ids, oov = (token_vocab or TokenVocab(())).encode_source(tokens)
    return PromptedExample(
        source_text=text,
        target_text=example.turn.answer,
        source_tokens=tokens,
        source_ids=ids,
        origin=example,
        source_oov=oov,
    )

"""Seeded input generators for the two workloads.

Both produce CoQA-format dictionaries (the layout of the official
``coqa-*.json`` files) plus the answer the generator intended for every
held-out turn, so that outputs can be checked against what was built
rather than against what the program says.

``copy``   one-turn dialogues from ``pgc.train.make_synthetic``: the
           answer repeats a 4-12 word rationale verbatim, and some of its
           words lie outside the generator vocabulary.
``dialog`` multi-turn dialogues whose turns either ask for the whole
           current rationale or ask a yes/no question whose answer
           words never occur in the prompt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pgc import train

SPAN, YESNO = "span", "yesno"

COPY_LEXICON = 300
COPY_TRAIN, COPY_HELDOUT = 576, 270      # multiples of the 9 answer lengths

DIALOG_LEXICON = 200                       # all of it fits the generator vocabulary
DIALOG_TRAIN, DIALOG_HELDOUT = 120, 80     # dialogues of 3-6 turns
DIALOG_TURNS = (3, 6)
DIALOG_RATIONALE = (2, 4)                  # words per rationale
MARKER = "marker"
# Span questions never use the words that open yes/no questions.
SPAN_QUESTIONS = ("what came after {w} ?", "who met {w} ?", "where went {w} ?",
                  "how about {w} ?", "when left {w} ?", "which one follows {w} ?")
# The yes/no question never contains MARKER itself.
YESNO_QUESTION = "is it marked ?"


@dataclass(frozen=True)
class Turn:
    question: str
    rationale: str
    answer: str
    kind: str          # SPAN or YESNO


@dataclass(frozen=True)
class Dialogue:
    story_id: str
    turns: tuple[Turn, ...]


def coqa_dict(dialogues: list[Dialogue]) -> dict:
    """CoQA JSON for the dialogues: each story is its rationales in order."""
    data = []
    for dialogue in dialogues:
        story, questions, answers = "", [], []
        for turn_id, turn in enumerate(dialogue.turns, start=1):
            if story:
                story += " . "
            start = len(story)
            story += turn.rationale
            questions.append({"input_text": turn.question, "turn_id": turn_id})
            answers.append({"span_start": start, "span_end": len(story),
                            "span_text": turn.rationale, "input_text": turn.answer,
                            "turn_id": turn_id})
        data.append({"id": dialogue.story_id, "story": story,
                     "questions": questions, "answers": answers})
    return {"version": "1.0", "data": data}


def expected_answers(dialogues: list[Dialogue]) -> dict[tuple[str, int], Turn]:
    """The generator's own record of every turn, keyed like the program's examples."""
    return {(d.story_id, turn_id): turn
            for d in dialogues for turn_id, turn in enumerate(d.turns, start=1)}


def copy_dialogues(seed: int, n: int, split: int) -> list[Dialogue]:
    """One-turn copy dialogues from the program's own synthetic task.

    The seed draws the words; every answer length from 4 to 12 occurs
    equally often (``n`` is a multiple of 9), so the length mix, which
    sets the cost of decoding, is the same for every seed.
    """
    lengths = range(4, 13)
    if n % len(lengths):
        raise ValueError("the copy set size must be a multiple of 9")
    spec = train.SyntheticSpec(task="copy", vocab_size=COPY_LEXICON, min_len=4,
                               max_len=12, n_examples=3 * n + 100, seed=2 * seed + split)
    per_length = dict.fromkeys(lengths, n // len(lengths))
    chosen = []
    for ex in train.make_synthetic(spec):
        length = len(ex.turn.answer.split())
        if per_length[length]:
            per_length[length] -= 1
            chosen.append(Dialogue(ex.story_id, (Turn(ex.turn.question, ex.turn.rationale,
                                                      ex.turn.answer, SPAN),)))
    if len(chosen) != n:
        raise ValueError(f"seed {seed}: too few copy examples of some length")
    return chosen


def _dialog_words() -> list[str]:
    return [f"v{i:03d}" for i in range(DIALOG_LEXICON)]


def dialog_dialogues(seed: int, n: int, split: int) -> list[Dialogue]:
    """Multi-turn dialogues mixing span turns and yes/no turns.

    The shape of dialogue ``d`` (its number of turns, which turns are
    yes/no, rationale lengths and question templates) depends on ``d``
    only, so every seed has the same mix of prompt and answer lengths;
    the seed draws the words and the yes/no answers.

    A rationale never repeats a word.  A yes/no turn's rationale contains
    MARKER exactly when the answer is yes; span rationales never contain
    it.  Two yes/no turns are never adjacent, so with one turn of history
    the prompt of a yes/no turn holds neither ``yes`` nor ``no`` and only
    the generator can answer.
    """
    rng = np.random.default_rng([seed, split, 7])
    words = _dialog_words()
    n_shapes = DIALOG_TURNS[1] - DIALOG_TURNS[0] + 1
    n_lengths = DIALOG_RATIONALE[1] - DIALOG_RATIONALE[0] + 1
    dialogues = []
    for d in range(n):
        turns, prev_yesno = [], False
        for k in range(DIALOG_TURNS[0] + d % n_shapes):
            length = DIALOG_RATIONALE[0] + (d + 2 * k) % n_lengths
            tokens = [words[j] for j in rng.choice(len(words), size=length, replace=False)]
            yesno = not prev_yesno and (d + k) % 3 == 1
            if yesno:
                has_marker = bool(rng.integers(0, 2))
                if has_marker:
                    tokens[int(rng.integers(0, length))] = MARKER
                question = YESNO_QUESTION
                answer = "yes" if has_marker else "no"
            else:
                template = SPAN_QUESTIONS[(d + k) % len(SPAN_QUESTIONS)]
                question = template.format(w=words[int(rng.integers(0, len(words)))])
                answer = " ".join(tokens)
            turns.append(Turn(question, " ".join(tokens), answer, YESNO if yesno else SPAN))
            prev_yesno = yesno
        dialogues.append(Dialogue(f"dialog-{seed}-{split}-{d:04d}", tuple(turns)))
    return dialogues

"""Ingestion, answer classification, tightening, stats, and the JSONL store."""

import json
import re
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pgc import corpus
from pgc.corpus import (AnswerClass, ConversationTurn, CorpusError,
                        DialogueExample, classify_answer, compute_stats,
                        ingest, normalize, tighten_rationale)
from pgc.eval import em

from helpers import tiny_coqa_dict


def make_example(answer, rationale, question="why?", turn_id=1, history=(),
                 story_id="s"):
    turn = ConversationTurn(turn_id=turn_id, question=question,
                            rationale=rationale, answer=answer,
                            span_start=0 if rationale else -1)
    return DialogueExample(story_id=story_id, turn=turn, history=tuple(history),
                           answer_class=classify_answer(answer, rationale))


class TestClassifyAnswer:
    def test_answer_inside_rationale_is_extractive(self):
        got = classify_answer("surgical anesthetic propofol",
                              "overdose of sedatives and the surgical anesthetic propofol")
        assert got is AnswerClass.EXTRACTIVE

    def test_rewritten_answer_is_generative(self):
        assert classify_answer("Five", "the fifth planet from the Sun") is AnswerClass.GENERATIVE

    def test_empty_answer_is_generative(self):
        assert classify_answer("", "anything at all") is AnswerClass.GENERATIVE

    def test_matching_is_token_level_not_character_level(self):
        # "fifth" must not match inside "fifths"
        assert classify_answer("fifth", "the fifths were sorted") is AnswerClass.GENERATIVE

    def test_articles_and_punctuation_ignored(self):
        assert classify_answer("a red kite!", "she flew the red kite") is AnswerClass.EXTRACTIVE

    def test_unanswerable_turn_is_generative(self):
        assert classify_answer("unknown", "") is AnswerClass.GENERATIVE


class TestTightenRationale:
    def test_tense_change_stays_generative_and_unchanged(self):
        ex = make_example("took a nap", "she was taking a nap on the couch")
        assert ex.answer_class is AnswerClass.GENERATIVE
        assert tighten_rationale(ex) == ex

    def test_extractive_rationale_shrinks_to_answer_span(self):
        ex = make_example("sedatives", "overdose of sedatives")
        assert ex.answer_class is AnswerClass.EXTRACTIVE
        assert tighten_rationale(ex).turn.rationale == "sedatives"

    def test_generative_example_is_identity(self):
        ex = make_example("no", "Gardner was nowhere to be found")
        assert tighten_rationale(ex) == ex

    def test_tightened_rationale_normalises_to_answer(self):
        ex = make_example("her brother", "and then her brother watched, from afar")
        tightened = tighten_rationale(ex)
        assert normalize(tightened.turn.rationale) == normalize("her brother")

    def test_minimal_window_is_chosen(self):
        # both "kite" occurrences match; the span must be a single word
        ex = make_example("kite", "the kite, that kite")
        assert tighten_rationale(ex).turn.rationale == "kite"

    words = st.lists(st.sampled_from(
        ["red", "kite", "dune", "wind", "rocks", "a", "the", "sat", "ran."]),
        min_size=1, max_size=8)

    def test_a_token_that_normalises_to_two_words_gets_its_window(self):
        ex = make_example("— —kite", "she flew —the—kite today")
        assert ex.answer_class is AnswerClass.EXTRACTIVE
        assert tighten_rationale(ex).turn.rationale == "—the—kite"

    @given(data=st.data(), rationale_words=st.lists(st.sampled_from(
        ["red", "kite", "the", "a", "—", "—the—kite", "a—red", "kite—", "ran.", "—a"]),
        min_size=1, max_size=8))
    def test_every_extractive_answer_has_a_window(self, data, rationale_words):
        """An answer made of a run of the rationale's normalised words is
        extractive, and tightening keeps it extractive."""
        rationale = " ".join(rationale_words)
        have = normalize(rationale).split()
        assume(have)
        i = data.draw(st.integers(0, len(have) - 1), label="start")
        j = data.draw(st.integers(i + 1, len(have)), label="end")
        ex = make_example(" ".join(have[i:j]), rationale)
        assert ex.answer_class is AnswerClass.EXTRACTIVE
        assert corpus._find_answer_window(ex.turn.answer, rationale) is not None
        tightened = tighten_rationale(ex).turn.rationale
        assert classify_answer(ex.turn.answer, tightened) is AnswerClass.EXTRACTIVE

    @given(answer_words=words, rationale_words=words)
    def test_idempotent(self, answer_words, rationale_words):
        ex = make_example(" ".join(answer_words), " ".join(rationale_words))
        once = tighten_rationale(ex)
        assert tighten_rationale(once) == once

    @given(answer_words=words, rationale_words=words)
    def test_exact_match_implies_extractive(self, answer_words, rationale_words):
        answer, rationale = " ".join(answer_words), " ".join(rationale_words)
        assume(normalize(answer) != "")
        if em(answer, rationale) == 1:
            assert classify_answer(answer, rationale) is AnswerClass.EXTRACTIVE


class TestIngest(object):
    def test_one_story_three_turns(self, tiny_examples):
        beach = [ex for ex in tiny_examples if ex.story_id == "beach-001"]
        assert len(beach) == 3
        assert len(beach[2].history) == 2
        assert beach[2].history[0].question == "What did Mara carry?"

    def test_history_turn_ids_are_contiguous(self, tiny_examples):
        for ex in tiny_examples:
            ids = [t.turn_id for t in ex.history] + [ex.turn.turn_id]
            assert ids == list(range(1, len(ids) + 1))

    def test_empty_data_array(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"data": []}))
        assert ingest(path) == []

    def test_answer_classes(self, tiny_examples):
        by_key = {(ex.story_id, ex.turn.turn_id): ex.answer_class for ex in tiny_examples}
        assert by_key[("beach-001", 1)] is AnswerClass.EXTRACTIVE
        assert by_key[("beach-001", 2)] is AnswerClass.GENERATIVE
        assert by_key[("lab-002", 1)] is AnswerClass.EXTRACTIVE
        assert by_key[("lab-002", 2)] is AnswerClass.GENERATIVE

    def test_unanswerable_turn_has_empty_rationale(self, tiny_examples):
        ex = next(e for e in tiny_examples
                  if e.story_id == "lab-002" and e.turn.turn_id == 3)
        assert ex.turn.rationale == ""
        assert ex.turn.span_start == -1
        assert ex.answer_class is AnswerClass.GENERATIVE

    def test_malformed_json_reports_byte_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"data": [}')
        with pytest.raises(CorpusError, match="byte offset"):
            ingest(path)

    def test_turn_id_mismatch_names_story(self, tmp_path):
        payload = tiny_coqa_dict()
        payload["data"][0]["answers"][1]["turn_id"] = 99
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusError, match="beach-001"):
            ingest(path)

    def test_missing_data_key(self, tmp_path):
        path = tmp_path / "nodata.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(CorpusError, match="data"):
            ingest(path)


class TestComputeStats:
    def test_empty_list(self):
        stats = compute_stats([])
        assert (stats.n_examples, stats.n_extractive, stats.n_generative) == (0, 0, 0)
        assert stats.extractive_fraction == 0.0

    def test_balanced_synthetic(self):
        examples = [make_example("red kite", "a red kite flew"),
                    make_example("dune wind", "dune wind blew"),
                    make_example("yes", "the sky was clear"),
                    make_example("no", "rain fell all day")]
        stats = compute_stats(examples)
        assert stats.n_extractive == 2
        assert stats.n_generative == 2
        assert stats.extractive_fraction == 0.5

    def test_ingest_then_stats_counts_exactly(self, tiny_examples):
        stats = compute_stats(tiny_examples)
        assert stats.n_examples == 6
        assert stats.n_extractive == 3
        assert stats.n_generative == 3


class TestTurnInvariants:
    GOOD = dict(turn_id=1, question="q", rationale="r", answer="a", span_start=0)

    @pytest.mark.parametrize("name,value", [
        ("turn_id", 2.5), ("turn_id", "1"), ("turn_id", True), ("span_start", 0.0),
        ("span_start", False), ("question", 7), ("rationale", None), ("answer", ["a"]),
    ])
    def test_field_types_are_checked(self, name, value):
        with pytest.raises(TypeError, match=f"^{name}: expected "):
            ConversationTurn(**{**self.GOOD, name: value})

    def test_story_id_must_be_a_string(self):
        with pytest.raises(TypeError, match="^story_id: expected str, got int$"):
            DialogueExample(story_id=7, turn=ConversationTurn(**self.GOOD), history=(),
                            answer_class=AnswerClass.GENERATIVE)

    def test_turn_id_must_be_positive(self):
        with pytest.raises(CorpusError):
            ConversationTurn(turn_id=0, question="q", rationale="r",
                             answer="a", span_start=0)

    def test_rationale_empty_iff_span_absent(self):
        with pytest.raises(CorpusError):
            ConversationTurn(turn_id=1, question="q", rationale="",
                             answer="a", span_start=5)
        with pytest.raises(CorpusError):
            ConversationTurn(turn_id=1, question="q", rationale="text",
                             answer="a", span_start=-1)

    def test_history_must_strictly_increase(self):
        t1 = ConversationTurn(turn_id=2, question="q", rationale="r",
                              answer="a", span_start=0)
        t2 = ConversationTurn(turn_id=2, question="q2", rationale="r2",
                              answer="a2", span_start=0)
        with pytest.raises(CorpusError):
            DialogueExample(story_id="s", turn=t2, history=(t1,),
                            answer_class=AnswerClass.GENERATIVE)


_TEXT = st.text(max_size=12)   # any unicode, newlines and U+2028 included


@st.composite
def _turn(draw, turn_id):
    if draw(st.booleans()):   # answerable
        rationale, span_start = draw(st.text(min_size=1, max_size=12)), draw(st.integers(0, 999))
    else:
        rationale, span_start = "", -1
    return ConversationTurn(turn_id=turn_id, question=draw(_TEXT), rationale=rationale,
                            answer=draw(_TEXT), span_start=span_start)


@st.composite
def _example(draw):
    ids = sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=4)))
    turns = [draw(_turn(i)) for i in ids]
    return DialogueExample(story_id=draw(_TEXT), turn=turns[-1], history=tuple(turns[:-1]),
                           answer_class=classify_answer(turns[-1].answer, turns[-1].rationale))


class TestJsonlStore:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_example(), max_size=5,
                    unique_by=lambda ex: (ex.story_id, ex.turn.turn_id)))
    def test_save_load_is_exact_and_save_is_stable(self, examples):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.jsonl"), Path(tmp, "second.jsonl")
            corpus.save_examples(examples, first)
            loaded = corpus.load_examples(first)
            corpus.save_examples(loaded, second)
            assert loaded == examples
            assert second.read_bytes() == first.read_bytes()

    def test_round_trip(self, tiny_examples, tmp_path):
        path = tmp_path / "store.jsonl"
        corpus.save_examples(tiny_examples, path)
        loaded = corpus.load_examples(path)
        assert loaded == tiny_examples

    def test_field_names_match_type_definition(self, tiny_examples, tmp_path):
        path = tmp_path / "store.jsonl"
        corpus.save_examples(tiny_examples, path)
        record = json.loads(path.read_text().splitlines()[0])
        assert set(record) == {"story_id", "turn", "history", "answer_class"}
        assert set(record["turn"]) == {"turn_id", "question", "rationale",
                                       "answer", "span_start"}

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"nope": 1}\n')
        with pytest.raises(CorpusError, match=":1"):
            corpus.load_examples(path)
        path.write_text('\n[1, 2]\n')
        with pytest.raises(CorpusError, match=r"store\.jsonl:2: .*JSON object"):
            corpus.load_examples(path)


class TestAdditionalAnswers:
    def test_loaded_by_story_and_turn(self, tiny_coqa_path):
        refs = corpus.load_additional_answers(tiny_coqa_path)
        assert refs[("beach-001", 1)] == ["red kite"]
        assert refs[("beach-001", 2)] == ["Yes."]
        assert ("lab-002", 1) not in refs


def official_normalize_answer(s):
    """``normalize_answer`` of the official CoQA evaluation script, kept as
    the reference the package's ``normalize`` must equal."""
    def remove_articles(text):
        regex = re.compile(r"\b(a|an|the)\b", re.UNICODE)
        return re.sub(regex, " ", text)

    def white_space_fix(text):
        return " ".join(text.split())

    def remove_punc(text):
        exclude = set(string.punctuation)
        return "".join(ch for ch in text if ch not in exclude)

    return white_space_fix(remove_articles(remove_punc(s.lower())))


_ARTICLE_SOUP = st.lists(st.sampled_from(
    ["a", "an", "the", "The", "A-", "'s", "ban", " ", "\t", "\n", ".", "\u2014", "\u2019",
     "\u201c", "\u00e9"])).map("".join)


class TestOfficialNormalization:
    @pytest.mark.parametrize("text,expected", [
        ("The  A-Team's", "ateams"),
        ("an\tanswer", "answer"),
        ("banana", "banana"),
        ("THE end.", "end"),
        ("\u201cthe\u201d \u2014 a dash\u2013", "\u201c \u201d \u2014 dash\u2013"),
        ("It\u2019s a well\u2010known \u2018quote\u2019",
         "it\u2019s well\u2010known \u2018quote\u2019"),
    ])
    def test_golden_strings(self, text, expected):
        """ASCII punctuation goes, non-ASCII dashes and quotes stay."""
        assert official_normalize_answer(text) == expected
        assert normalize(text) == expected

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(), _ARTICLE_SOUP))
    def test_equals_the_official_function(self, text):
        assert normalize(text) == official_normalize_answer(text)

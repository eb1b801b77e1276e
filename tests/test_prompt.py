"""Prompt templates, categorisation, tokeniser, and token vocabulary."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgc import prompt
from pgc.corpus import AnswerClass, ConversationTurn, DialogueExample
from pgc.prompt import (CategoryVocab, PromptVersion, PromptVersionId,
                        TokenVocab, build_category_vocab, build_prompt,
                        categorize, detokenize, tokenize)


def example_with(question, rationale, answer="x", history=()):
    turn = ConversationTurn(turn_id=len(history) + 1, question=question,
                            rationale=rationale, answer=answer, span_start=0)
    return DialogueExample(story_id="s", turn=turn, history=tuple(history),
                           answer_class=AnswerClass.GENERATIVE)


def question_only_examples(questions):
    return [example_with(q, "r") for q in questions]


class TestBuildCategoryVocab:
    def test_most_frequent_first_word_wins(self):
        examples = question_only_examples(
            ["What is it?", "What was that?", "Who came?"])
        assert build_category_vocab(examples, 1).categories == ("what",)

    def test_k_larger_than_distinct_words_saturates(self):
        examples = question_only_examples(["What is it?", "Who came?"])
        vocab = build_category_vocab(examples, 10)
        assert sorted(vocab.categories) == ["what", "who"]

    def test_ties_break_alphabetically(self):
        examples = question_only_examples(["why stop?", "how come?"])
        assert build_category_vocab(examples, 1).categories == ("how",)

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError):
            build_category_vocab([], 3)

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError):
            CategoryVocab(categories=("what", "what"))


DEFAULT_VOCAB = CategoryVocab(categories=(
    "what", "who", "how", "did", "was", "where", "when", "why", "is", "and"))


class TestCategorize:
    def test_count_question(self):
        q = "How many planets are there away from the Sun?"
        assert categorize(q, DEFAULT_VOCAB) == "How"

    def test_yes_no_question(self):
        assert categorize("Did she return safely?", DEFAULT_VOCAB) == "Did"

    def test_word_outside_vocab_falls_back(self):
        assert categorize("Name the two actors.", DEFAULT_VOCAB) == "Other"

    def test_empty_question_falls_back(self):
        assert categorize("", DEFAULT_VOCAB) == "Other"

    def test_single_word_question_with_punctuation(self):
        assert categorize("Why?", DEFAULT_VOCAB) == "Why"

    @given(st.text(alphabet="abcWHDo ?.", max_size=30))
    def test_case_insensitive(self, question):
        assert categorize(question, DEFAULT_VOCAB) == categorize(question.lower(), DEFAULT_VOCAB)


class TestBuildPrompt:
    q = "Did she return safely?"
    r = "Gardner was nowhere to be found"

    def v(self, n, depth=1):
        return PromptVersion(PromptVersionId(n), history_depth=depth)

    def test_version1_golden(self):
        got = build_prompt(example_with(self.q, self.r), self.v(1), DEFAULT_VOCAB)
        assert got.source_text == \
            "Question: Did she return safely? Rationale: Gardner was nowhere to be found"

    def test_version2_golden(self):
        got = build_prompt(example_with(self.q, self.r), self.v(2), DEFAULT_VOCAB)
        assert got.source_text == \
            "Did Question: Did she return safely? Rationale: Gardner was nowhere to be found"

    def test_version3_golden_with_one_history_turn(self):
        prior = ConversationTurn(turn_id=1, question="Of what?",
                                 rationale="overdose of sedatives",
                                 answer="sedatives", span_start=0)
        ex = example_with(
            "And what else?",
            "overdose of sedatives and the surgical anesthetic propofol",
            history=(prior,))
        got = build_prompt(ex, self.v(3), DEFAULT_VOCAB)
        assert got.source_text == (
            "Other Question: Of what? Rationale: overdose of sedatives Answer: sedatives "
            "And Question: And what else? Rationale: overdose of sedatives and the "
            "surgical anesthetic propofol Answer:")

    def test_version3_depth_zero_is_version2_plus_answer_tag(self):
        ex = example_with(self.q, self.r)
        v2 = build_prompt(ex, self.v(2), DEFAULT_VOCAB).source_text
        v3 = build_prompt(ex, self.v(3, depth=0), DEFAULT_VOCAB).source_text
        assert v3 == v2 + " Answer:"

    def test_version1_is_suffix_of_version2(self):
        for q in ("What now?", "Strange question here", "Did it work?"):
            ex = example_with(q, "some rationale text")
            v1 = build_prompt(ex, self.v(1), DEFAULT_VOCAB).source_text
            v2 = build_prompt(ex, self.v(2), DEFAULT_VOCAB).source_text
            assert v2.endswith(v1)
            assert v2.split(" ", 1)[1] == v1

    def test_depth_beyond_history_uses_all_of_it(self):
        prior = ConversationTurn(turn_id=1, question="Who?", rationale="the cat",
                                 answer="cat", span_start=0)
        ex = example_with(self.q, self.r, history=(prior,))
        deep = build_prompt(ex, self.v(3, depth=5), DEFAULT_VOCAB).source_text
        one = build_prompt(ex, self.v(3, depth=1), DEFAULT_VOCAB).source_text
        assert deep == one

    def test_target_is_gold_answer(self):
        ex = example_with(self.q, self.r, answer="no")
        assert build_prompt(ex, self.v(1), DEFAULT_VOCAB).target_text == "no"

    def test_tokens_match_text_and_ids_align(self):
        ex = example_with(self.q, self.r)
        got = build_prompt(ex, self.v(2), DEFAULT_VOCAB)
        assert got.source_tokens == tokenize(got.source_text)
        assert len(got.source_tokens) == len(got.source_ids)

    def test_rationale_span_is_the_current_turns_run(self):
        prior = ConversationTurn(turn_id=1, question="Of what?", answer="propofol",
                                 rationale="The surgical anesthetic", span_start=0)
        ex = example_with("And what else?", "the surgical anesthetic", history=(prior,))
        for n in (1, 2, 3):
            got = build_prompt(ex, self.v(n), DEFAULT_VOCAB)
            start, stop = prompt.rationale_span(got)
            assert got.source_tokens[start:stop] == ["the", "surgical", "anesthetic"]
            assert got.source_tokens[stop:] == (["answer", ":"] if n == 3 else [])

    def test_rationale_span_is_empty_without_a_run(self):
        got = build_prompt(example_with(self.q, self.r), self.v(1), DEFAULT_VOCAB)
        cut = replace(got, source_tokens=got.source_tokens[:-1])
        unanswerable = replace(got.origin, turn=replace(got.origin.turn, rationale="",
                                                        span_start=-1))
        for example in (cut, replace(got, origin=unanswerable)):
            start, stop = prompt.rationale_span(example)
            assert start == stop

    def test_negative_history_depth_rejected(self):
        with pytest.raises(ValueError):
            PromptVersion(PromptVersionId.CONVERSATION_HISTORY, history_depth=-1)


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("took a nap") == ["took", "a", "nap"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_splits(self):
        assert tokenize("Answer: yes.") == ["answer", ":", "yes", "."]

    @given(st.text(max_size=60))
    def test_idempotent_through_detokenize(self, text):
        once = tokenize(text)
        assert tokenize(detokenize(once)) == once


class TestTokenVocab:
    def test_build_caps_size_and_ranks_by_frequency(self):
        vocab = TokenVocab.build([["b", "a", "a"], ["c", "a", "b"]], max_size=6)
        assert vocab.size == 6
        assert vocab.tokens[4:] == ["a", "b"]  # most frequent after specials

    def test_encode_source_assigns_dense_extended_ids(self):
        vocab = TokenVocab(["red", "kite"])
        ids, oov = vocab.encode_source(["red", "dune", "kite", "dune", "wind"])
        assert ids == [4, 6, 5, 6, 7]
        assert oov == ["dune", "wind"]

    def test_encode_target_uses_source_oov_then_unk(self):
        vocab = TokenVocab(["red"])
        ids = vocab.encode_target(["red", "dune", "rocks"], source_oov=["dune"])
        assert ids == [4, vocab.size, prompt.UNK]

    def test_decode_extended_round_trip(self):
        vocab = TokenVocab(["red", "kite"])
        tokens = ["red", "dune", "kite"]
        ids, oov = vocab.encode_source(tokens)
        assert vocab.decode_extended(ids, oov) == tokens

    def test_to_generator_ids_collapses_oov(self):
        vocab = TokenVocab(["red"])
        assert vocab.to_generator_ids([4, vocab.size + 2, 1]) == [4, prompt.UNK, 1]

    def test_max_size_must_cover_specials(self):
        with pytest.raises(ValueError):
            TokenVocab.build([["a"]], max_size=4)

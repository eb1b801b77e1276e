"""Normalisation, EM/F1 oracles, multi-reference scoring, report splits."""

import csv
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgc import eval as evalmod
from pgc.corpus import CorpusError
from pgc.eval import (EvalReport, Prediction, em, evaluate, f1, normalize, raw_baseline,
                      score_multi)
from pgc.prompt import CategoryVocab

from test_corpus import make_example


class TestNormalize:
    def test_lowercases(self):
        assert normalize("Five") == "five"

    def test_articles_and_case(self):
        assert normalize("the fifth planet from the Sun") == "fifth planet from sun"

    def test_punctuation_and_whitespace(self):
        assert normalize("  no.  ") == "no"

    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        assert normalize(normalize(text)) == normalize(text)


class TestEm:
    def test_case_insensitive_match(self):
        assert em("Five", "five") == 1

    def test_unrelated_texts(self):
        assert em("no", "Gardner was nowhere to be found") == 0

    def test_article_removal_makes_match(self):
        assert em("the nap", "nap") == 1


class TestF1:
    def test_half_overlap_after_article_removal(self):
        # tokens {took, nap} vs {taking, nap}: overlap 1, p = r = 1/2
        assert f1("took a nap", "taking a nap") == 0.5

    def test_identical(self):
        assert f1("red kite", "red kite") == 1.0

    def test_disjoint(self):
        assert f1("red kite", "blue dune") == 0.0

    def test_both_empty_after_normalising(self):
        assert f1("the", "a") == 1.0

    def test_one_empty(self):
        assert f1("", "word") == 0.0

    words = st.lists(st.sampled_from(["red", "kite", "dune", "the", "a", "ran"]),
                     max_size=6).map(" ".join)

    @given(a=words, b=words)
    def test_symmetry(self, a, b):
        assert f1(a, b) == f1(b, a)

    @given(a=words, b=words)
    def test_exact_match_implies_full_f1(self, a, b):
        if em(a, b) == 1:
            assert f1(a, b) == 1.0


def coqa_turn_score(pred, references):
    """CoQA evaluate-v1.0's ``_compute_turn_score``, loop for loop."""
    em_sum = f1_sum = 0.0
    if len(references) > 1:
        for i in range(len(references)):
            rest = references[0:i] + references[i + 1:]
            em_sum += max(em(ref, pred) for ref in rest)
            f1_sum += max(f1(ref, pred) for ref in rest)
    else:
        em_sum += max(em(ref, pred) for ref in references)
        f1_sum += max(f1(ref, pred) for ref in references)
    return em_sum / max(1, len(references)), f1_sum / max(1, len(references))


class TestScoreMulti:
    """One reference gives the plain score; with n > 1, each reference is
    left out in turn and the maxima over the others are averaged."""

    words = st.lists(st.sampled_from(["red", "kite", "dune", "the", "a", "ran", "no"]),
                     max_size=4).map(" ".join)

    def test_one_reference_is_the_plain_score(self):
        assert score_multi("no", ["yes"]) == (0, 0.0)
        assert score_multi("took a nap", ["taking a nap"]) == (0, 0.5)

    def test_leave_one_out_golden_vectors(self):
        refs = ["red kite", "kite", "a kite ran"]
        assert score_multi("red", refs)[1] == pytest.approx(4 / 9)   # (0 + 2/3 + 2/3) / 3
        assert score_multi("red kite", refs)[0] == pytest.approx(2 / 3)
        assert score_multi("no", ["no", "No."]) == (1, 1.0)
        assert score_multi("no", ["yes", "no"]) == (0.5, 0.5)

    @given(pred=words, refs=st.lists(words, min_size=1, max_size=4))
    def test_matches_coqas_loop_and_lies_within_the_references(self, pred, refs):
        got = score_multi(pred, refs)
        assert got == coqa_turn_score(pred, refs)
        for score, metric in zip(got, (em, f1)):
            each = [metric(pred, ref) for ref in refs]
            assert min(each) - 1e-12 <= score <= max(each) + 1e-12   # a mean's rounding

    def test_no_references_rejected(self):
        with pytest.raises(CorpusError):
            score_multi("x", [])
        with pytest.raises(CorpusError):
            Prediction(story_id="s", turn_id=1, text="x", references=[])


def predictions_for(examples, texts):
    return [Prediction(story_id=ex.story_id, turn_id=ex.turn.turn_id,
                       text=text, references=[ex.turn.answer])
            for ex, text in zip(examples, texts)]


VOCAB = CategoryVocab(categories=("what", "why", "did"))


class TestEvaluate:
    def examples(self):
        ext = make_example("red kite", "a red kite flew", question="What flew?",
                           story_id="ext-1")
        gen = make_example("yes", "the sky was clear", question="Did it clear up?",
                           story_id="gen-1")
        return [ext, gen]

    def test_all_correct_scores_100(self):
        examples = self.examples()
        preds = predictions_for(examples, [ex.turn.answer for ex in examples])
        report = evaluate(preds, examples, vocab=VOCAB)
        assert (report.o_em, report.o_f1) == (100.0, 100.0)
        assert (report.g_em, report.g_f1) == (100.0, 100.0)
        assert (report.e_em, report.e_f1) == (100.0, 100.0)

    def test_empty_split_reported_as_absent(self):
        ext = make_example("red kite", "a red kite flew")
        report = evaluate(predictions_for([ext], ["wrong thing"]), [ext])
        assert report.e_em == 0.0
        assert report.g_em is None and report.g_f1 is None
        assert report.n_generative == 0

    def test_unknown_prediction_rejected(self):
        examples = self.examples()
        bad = Prediction(story_id="nope", turn_id=7, text="x", references=["x"])
        with pytest.raises(CorpusError):
            evaluate([bad], examples)

    def five_examples(self):
        return [make_example("red kite", "a red kite flew", question="What flew?",
                             story_id=f"s{i}") for i in range(5)]

    def test_duplicate_prediction_rejected(self):
        examples = self.five_examples()
        preds = predictions_for(examples[:1], ["red kite"]) * 3
        with pytest.raises(CorpusError, match="second prediction for s0/1"):
            evaluate(preds, examples)

    def test_examples_without_a_prediction_are_counted(self):
        examples = self.five_examples()
        report = evaluate(predictions_for(examples[:2], ["red kite", "red kite"]), examples)
        assert (report.o_em, report.n_overall) == (100.0, 2)
        assert (report.n_examples, report.n_missing) == (5, 3)
        assert report.to_dict()["n_examples"] == 5 and report.to_dict()["n_missing"] == 3
        assert "(n=2 of 5 examples, 3 without a prediction)" in report.summary_lines()[0]
        full = evaluate(predictions_for(examples, ["red kite"] * 5), examples)
        assert (full.n_examples, full.n_missing) == (5, 0)

    def test_overall_is_count_weighted_mean_of_splits(self):
        base = self.examples() * 3
        texts = ["red kite", "no", "kite", "yes", "dune", "maybe yes"]
        examples = [make_example(ex.turn.answer, ex.turn.rationale,
                                 question=ex.turn.question, story_id=f"s{i}")
                    for i, ex in enumerate(base)]
        preds = predictions_for(examples, texts)
        report = evaluate(preds, examples, vocab=VOCAB)
        weighted_em = ((report.e_em or 0) * report.n_extractive
                       + (report.g_em or 0) * report.n_generative) / report.n_overall
        weighted_f1 = ((report.e_f1 or 0) * report.n_extractive
                       + (report.g_f1 or 0) * report.n_generative) / report.n_overall
        assert abs(report.o_em - weighted_em) < 1e-9
        assert abs(report.o_f1 - weighted_f1) < 1e-9

    def test_f1_at_least_em_per_split(self):
        examples = self.examples()
        report = evaluate(predictions_for(examples, ["a red kite", "yes sir"]),
                          examples, vocab=VOCAB)
        assert report.o_f1 >= report.o_em
        assert report.e_f1 >= report.e_em
        assert report.g_f1 >= report.g_em

    def test_per_category_counts_and_order(self):
        examples = [
            make_example("red", "red sky", question="What color?", story_id="c0"),
            make_example("blue", "blue sea", question="What else?", story_id="c1"),
            make_example("yes", "it rained", question="Did it rain?", story_id="c2"),
        ]
        preds = predictions_for(examples, [ex.turn.answer for ex in examples])
        report = evaluate(preds, examples, vocab=VOCAB)
        assert report.per_category[0] == ("What", 100.0, 2)
        assert ("Did", 100.0, 1) in report.per_category


class TestRawBaseline:
    def corpus(self):
        return [
            make_example("red kite", "she flew a red kite today", story_id="r0"),
            make_example("three", "three of the nine failed", story_id="r1"),
            make_example("yes", "the wind pulled hard", story_id="r2"),
            make_example("no", "Gardner was nowhere to be found", story_id="r3"),
        ]

    def test_generative_em_is_exactly_zero_single_reference(self):
        report = raw_baseline(self.corpus())
        assert report.g_em == 0.0

    def test_tighten_forces_perfect_extractive_scores(self):
        report = raw_baseline(self.corpus(), tighten=True)
        assert report.e_em == 100.0
        assert report.e_f1 == 100.0
        assert report.g_em == 0.0

    def test_untightened_extractive_em_below_100_here(self):
        report = raw_baseline(self.corpus())
        assert report.e_em < 100.0

    def test_multi_reference_uses_extra_answers(self):
        examples = self.corpus()[:1]
        key = (examples[0].story_id, examples[0].turn.turn_id)
        extra = {key: ["she flew a red kite today"]}
        single = raw_baseline(examples)
        multi = raw_baseline(examples, extra_references=extra)
        assert single.e_em == 0.0
        assert multi.e_em == 50.0   # (1 without the answer + 0 without the extra one) / 2
        assert multi.e_f1 > single.e_f1


class TestReportOutput:
    def test_json_and_csv_round_trip(self, tmp_path):
        report = EvalReport(o_em=50.0, o_f1=75.0, g_em=0.0, g_f1=50.0,
                            e_em=100.0, e_f1=100.0, n_overall=2,
                            n_generative=1, n_extractive=1, n_examples=2, n_missing=0,
                            per_category=[("What", 75.0, 2)])
        json_path = tmp_path / "report.json"
        evalmod.write_report(report, json_path, config={"seed": 0})
        payload = json.loads(json_path.read_text())
        assert list(report.to_dict()) == [
            "o_em", "o_f1", "g_em", "g_f1", "e_em", "e_f1", "n_overall", "n_generative",
            "n_extractive", "n_examples", "n_missing", "per_category"]
        assert list(payload) == list(report.to_dict()) + ["config"]
        assert payload["per_category"] == [{"category": "What", "f1": 75.0, "count": 2}]
        assert payload["o_f1"] == 75.0
        assert payload["config"] == {"seed": 0}
        csv_path = tmp_path / "categories.csv"
        evalmod.write_category_csv(report, csv_path)
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == ["category", "f1", "count"]
        assert rows[1][0] == "What"

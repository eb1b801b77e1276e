"""Tests of the benchmark's own code (run: python3 -m pytest bench/tests -q)."""

import gc
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import timing
import workloads
from pgc import prompt
from timing import HostClock, Sample
import tracer
from tracer import Span, Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- normalisation --

def test_normalise_scales_by_nominal_over_measured():
    assert timing.normalise(10.0, 2.5, nominal_ms=2.0) == 8.0
    assert timing.normalise(3.0, 2.0, nominal_ms=2.0) == 3.0
    # a host twice as slow doubles both the work and the reference
    assert timing.normalise(2 * 7.0, 2 * 1.5, nominal_ms=1.5) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        timing.normalise(1.0, 0.0)


def test_clock_normalises_against_reference_median_in_window():
    clock = HostClock()
    mixed, serial = clock.refs["mixed"], clock.refs["serial"]
    mixed.t, mixed.ms = [0.0, 0.5, 1.0, 10.0], [2.0, 4.0, 3.0, 8.0]
    serial.t, serial.ms = [0.4], [5.0]
    clock.samples["x"] = [Sample(t=0.5, raw_s=0.3), Sample(t=10.2, raw_s=0.8),
                          Sample(t=0.5, raw_s=0.3, ref="serial")]
    clock.finish()
    near, far, other = clock.series("x")
    assert near.norm_s == pytest.approx(0.3 * timing.NOMINAL_REF_MS / 3.0)
    assert far.norm_s == pytest.approx(0.8 * timing.NOMINAL_REF_MS / 8.0)
    assert other.norm_s == pytest.approx(0.3 * timing.NOMINAL_SERIAL_MS / 5.0)


def test_clock_pairs_every_sample_with_references():
    clock = HostClock()
    assert clock.timed("a", lambda x: x + 1, 1) == 2
    clock.timed("a", sum, [1, 2], size=4, refs=3, ref="serial")
    assert len(clock.refs["mixed"].ms) == 1 and len(clock.refs["serial"].ms) == 3
    assert [(s.size, s.ref) for s in clock.series("a")] == [(1.0, "mixed"), (4, "serial")]


def test_reference_samples_run_with_the_collector_off():
    clock = HostClock()
    clock.reference()
    collections = []

    def callback(phase, _info):
        collections.append(phase)

    gc.callbacks.append(callback)
    try:
        for _ in range(5):
            clock.reference()
            clock.reference("serial")
    finally:
        gc.callbacks.remove(callback)
    assert collections == [] and gc.isenabled()


# -- operation counts --

def test_an_operation_that_raises_is_counted_as_failed(tmp_path):
    run = workloads.Run(workload=workloads.WORKLOADS["copy"], seed=0, seconds=0.0,
                        trace=False, out=tmp_path)
    assert run.timed("a", "bench.a", lambda n: n + 1, 1, ops=2) == (2, None)
    assert run.timed("a", "bench.a", lambda: 1 / 0) == (None, None)
    assert (run.attempted, run.failed, len(run.clock.series("a"))) == (3, 1, 1)
    assert "ZeroDivisionError" in run.errors[0] and run.failures == []


# -- percentiles --

def test_p90_needs_100_samples():
    with pytest.raises(ValueError, match="at least 100"):
        timing.percentile(list(range(99)), 0.9)
    values = list(range(100, 0, -1))          # 1..100, unordered
    assert timing.percentile(values, 0.9) == 90


def test_median_is_nearest_rank_and_always_allowed():
    assert timing.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert timing.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
    assert timing.percentile([5.0], 0.5) == 5.0
    with pytest.raises(ValueError):
        timing.percentile([], 0.5)


# -- independent exact-match recount --

def _turn(answer, kind=inputs.SPAN):
    return inputs.Turn("q ?", answer, answer, kind)


def test_exact_match_recount_on_hand_made_cases():
    expected = {("a", 1): _turn("w001 w002"), ("a", 2): _turn("w003"),
                ("b", 1): _turn("yes", inputs.YESNO), ("c", 1): _turn("w004 w005")}
    predictions = {("a", 1): "w001 w002", ("a", 2): "w003 w003",
                   ("b", 1): "yes", ("c", 1): "w005 w004"}
    assert checks.exact_matches(predictions, expected) == 2
    assert checks.em_recount(predictions, expected, 50.0) == []
    assert checks.em_recount(predictions, expected, 75.0)
    # punctuation and articles do not count, as in the CoQA scorer
    predictions[("a", 2)] = "the w003 ?"
    assert checks.exact_matches(predictions, expected) == 3
    assert checks.answer_words("An Apple, the pear.") == ["apple", "pear"]


def test_a_missing_prediction_fails_coverage():
    expected = {("a", 1): _turn("w001"), ("a", 2): _turn("w002")}
    assert checks.coverage({("a", 1): "w001", ("a", 2): "x"}, expected, 2) == []
    assert checks.coverage({("a", 1): "w001"}, expected, 1)
    assert checks.coverage({("a", 1): "w001", ("a", 2): "x"}, expected, 1)


def test_other_checks_flag_bad_outputs():
    assert checks.oov_from_source(["w1", "zz"], {"w1"}.__contains__, ["zz"]) == []
    assert checks.oov_from_source(["qq"], {"w1"}.__contains__, ["zz"])
    assert checks.yes_no_only({("a", 1): "no"}, [("a", 1)]) == []
    assert checks.yes_no_only({("a", 1): "w001"}, [("a", 1)])
    good = np.array([[0.25, 0.75], [1.0, 0.0]])
    assert checks.distributions(good, np.array([[0.5], [0.1]])) == []
    assert checks.distributions(good * 1.001, np.array([[0.5], [0.1]]))
    assert checks.distributions(good, np.array([[1.0], [0.1]]))


# -- inputs --

def test_inputs_are_a_function_of_the_seed():
    assert inputs.dialog_dialogues(3, 5, 0) == inputs.dialog_dialogues(3, 5, 0)
    assert inputs.dialog_dialogues(3, 5, 0) != inputs.dialog_dialogues(4, 5, 0)
    assert inputs.copy_dialogues(3, 18, 1) == inputs.copy_dialogues(3, 18, 1)
    assert inputs.copy_dialogues(3, 18, 0) != inputs.copy_dialogues(3, 18, 1)


def test_input_shapes_do_not_depend_on_the_seed():
    def shape(dialogues):
        return [[(len(t.rationale.split()), len(t.answer.split()), t.kind) for t in d.turns]
                for d in dialogues]

    assert shape(inputs.dialog_dialogues(1, 12, 1)) == shape(inputs.dialog_dialogues(2, 12, 1))
    assert sorted(shape(inputs.copy_dialogues(1, 27, 0))) == \
        sorted(shape(inputs.copy_dialogues(2, 27, 0)))


def test_dialog_yes_no_turns_are_answerable_only_by_generating():
    dialogues = inputs.dialog_dialogues(0, 40, 0)
    for d in dialogues:
        kinds = [t.kind for t in d.turns]
        assert not any(a == b == inputs.YESNO for a, b in zip(kinds, kinds[1:]))
        for i, turn in enumerate(d.turns):
            words = turn.rationale.split()
            assert len(set(words)) == len(words)
            if turn.kind == inputs.YESNO:
                assert (inputs.MARKER in words) == (turn.answer == "yes")
                history = " ".join(t.rationale + " " + t.answer for t in d.turns[i - 1:i])
                seen = prompt.tokenize(" ".join((turn.question, turn.rationale, history)))
                assert "yes" not in seen and "no" not in seen
            else:
                assert inputs.MARKER not in words and turn.answer == turn.rationale


def test_coqa_spans_point_at_the_rationales():
    for d, item in zip(inputs.dialog_dialogues(1, 5, 0),
                       inputs.coqa_dict(inputs.dialog_dialogues(1, 5, 0))["data"]):
        for turn, answer in zip(d.turns, item["answers"]):
            assert item["story"][answer["span_start"]:answer["span_end"]] == turn.rationale


# -- tracing --

def test_self_time_is_duration_minus_children():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 4.0, parent=0),
             Span("b", 5.0, 9.0, parent=0), Span("c", 2.0, 3.0, parent=1),
             Span("other", 11.0, 12.0)]
    assert tracer.self_times(spans) == [3.0, 2.0, 4.0, 1.0, 1.0]
    assert tracer.roots(spans) == [0, 0, 0, 0, 4]
    assert [s.name for s in tracer.by_phase(spans, "root")["c"]] == ["c"]
    assert "other" not in tracer.by_phase(spans, "root")


def test_tracer_restores_the_program_functions():
    from pgc import model, tensor
    before = (model.encode, tensor.Tensor.__init__, tensor.Tensor.backward)
    t = Tracer()
    with t.tracing():
        assert model.encode is not before[0]
        tensor.Tensor(np.zeros(2))
        model.encode([4, 5], model.init_params(model.ModelConfig(
            d_model=4, n_heads=1, vocab_size=8, max_source_len=4)),
            model.ModelConfig(d_model=4, n_heads=1, vocab_size=8, max_source_len=4))
    assert (model.encode, tensor.Tensor.__init__, tensor.Tensor.backward) == before
    assert t.tensors > 1 and [s.name for s in t.spans()] == ["model.encode"]
    assert t.spans()[0].duration > 0.0


# -- metric names --

def test_metric_names_follow_the_grammar_and_are_unique():
    s = spec()
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in s[section]]
    names += [w["name"] for w in s["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert sorted(w["name"] for w in s["workloads"]) == sorted(workloads.WORKLOADS)


def test_end_to_end_metrics_match_the_spec():
    clock = HostClock()
    clock.reference()
    for series, n in (("setup", 3), ("train", 4), ("decode", 100),
                      ("ckpt_save", 5), ("ckpt_load", 5)):
        clock.samples[series] = [Sample(t=0.0, raw_s=0.01 * (i + 1), size=8)
                                 for i in range(n)]
    clock.finish()
    figures = {"train_loss": 0.5, "ckpt_mb": 1.0, "peak_rss_mb": 100.0, "o_f1": 90.0}
    metrics = workloads.end_to_end(clock, figures, "norm_s")
    assert set(metrics) == {m["name"] for m in spec()["end_to_end"]}
    assert all(v > 0 for v in metrics.values())


def test_per_layer_metrics_of_a_small_traced_run_match_the_spec(tmp_path):
    tiny = replace(workloads.WORKLOADS["dialog"], n_train=14, n_heldout=2, epochs=1)
    run = workloads.Run(workload=tiny, seed=0, seconds=0.0, trace=True, out=tmp_path)
    workloads.execute(run)
    metrics = workloads.per_layer(run)
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]}
    assert all(np.isfinite(v) for v in metrics.values())
    assert metrics["model.decoder_rows_per_token"] >= 1.0

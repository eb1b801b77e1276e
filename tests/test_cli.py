"""End-to-end subcommand behaviour, exit codes, config precedence."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pgc
from pgc import cli, model as M
from pgc.cli import RunConfig
from pgc.corpus import AnswerClass, ConversationTurn, DialogueExample, check_fields
from pgc.eval import Prediction
from pgc.model import ModelConfig
from pgc.prompt import tokenize
from pgc.train import TrainConfig

from helpers import (CLOSES_ITS_FILES, VECTOR_KEYS, checkpoint_bytes, one_position_decode,
                     read_checkpoint, tiny_coqa_dict, write_checkpoint)


TINY_MODEL_FLAGS = [
    "--n-enc-layers", "1", "--n-dec-layers", "1", "--d-model", "16",
    "--n-heads", "2", "--vocab-size", "64", "--max-source-len", "24",
    "--max-target-len", "16", "--d-ff", "32",
]
TINY_TRAIN_FLAGS = TINY_MODEL_FLAGS + [
    "--epochs", "2", "--batch-size", "8", "--learning-rate", "1e-3",
]


@pytest.fixture
def store_path(tiny_coqa_path, tmp_path):
    path = tmp_path / "store.jsonl"
    assert cli.run(["ingest", "--input", str(tiny_coqa_path),
                    "--output", str(path)]) == 0
    return path


def train_small(tmp_path, out_name="ckpt.json", seed="0", n="48"):
    data = tmp_path / f"copy-{seed}.jsonl"
    assert cli.run(["synthetic", "--task", "copy", "--n", n, "--min-len", "2",
                    "--max-len", "4", "--lexicon-size", "48", "--seed", seed,
                    "--output", str(data)]) == 0
    ckpt = tmp_path / out_name
    assert cli.run(["train", "--input", str(data), "--output", str(ckpt),
                    "--seed", seed, *TINY_TRAIN_FLAGS]) == 0
    return data, ckpt


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One shared small training run for the read-only CLI tests."""
    root = tmp_path_factory.mktemp("trained")
    return train_small(root)


class TestIngestAndStats:
    def test_ingest_writes_store_and_sidecar(self, store_path):
        lines = store_path.read_text().splitlines()
        assert len(lines) == 6
        sidecar = json.loads((store_path.parent / "store.jsonl.run.json").read_text())
        assert sidecar["tighten"] is False

    def test_stats_reports_fraction(self, store_path, capsys):
        assert cli.run(["stats", "--input", str(store_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["n_examples", "n_extractive", "n_generative",
                             "extractive_fraction"]
        assert out["n_examples"] == 6
        assert out["n_extractive"] == 3
        assert out["extractive_fraction"] == 0.5

    def test_stats_accepts_raw_coqa_json(self, tiny_coqa_path, capsys):
        assert cli.run(["stats", "--input", str(tiny_coqa_path)]) == 0
        assert json.loads(capsys.readouterr().out)["n_examples"] == 6


class TestPrompts:
    def test_version2_lines(self, store_path, tmp_path, capsys):
        out = tmp_path / "prompts.jsonl"
        assert cli.run(["prompts", "--input", str(store_path), "--version", "2",
                        "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 6
        assert set(records[0]) == {"story_id", "turn_id", "version",
                                   "source_text", "target_text"}
        assert records[0]["version"] == 2
        assert records[0]["source_text"].startswith("What Question: What did Mara carry?")

    def test_version3_carries_history(self, store_path, tmp_path):
        out = tmp_path / "prompts3.jsonl"
        assert cli.run(["prompts", "--input", str(store_path), "--version", "3",
                        "--history-depth", "1", "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        third = next(r for r in records if r["turn_id"] == 3
                     and r["story_id"] == "beach-001")
        assert "Answer: yes" in third["source_text"]
        assert third["source_text"].endswith("Answer:")


class TestTrainPredictEval:
    def test_full_pipeline(self, trained, tmp_path, capsys):
        data, ckpt = trained
        preds = tmp_path / "preds.jsonl"
        assert cli.run(["predict", "--input", str(data), "--checkpoint", str(ckpt),
                        "--output", str(preds)]) == 0
        records = [json.loads(line) for line in preds.read_text().splitlines()]
        assert set(records[0]) == {"story_id", "turn_id", "text"}

        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "cats.csv"
        assert cli.run(["eval", "--predictions", str(preds), "--examples", str(data),
                        "--report", str(report_path),
                        "--category-csv", str(csv_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["n_overall"] == len(records)
        assert 0.0 <= report["o_f1"] <= 100.0
        assert report["config"]["seed"] == 0
        assert csv_path.read_text().splitlines()[0] == "category,f1,count"
        out = capsys.readouterr().out
        assert "O-EM" in out

    def test_checkpoint_bytes_are_deterministic(self, tmp_path):
        _, first = train_small(tmp_path, out_name="a.json")
        _, second = train_small(tmp_path, out_name="b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_prediction_bytes_are_deterministic(self, trained, tmp_path):
        data, ckpt = trained
        outs = []
        for name in ("p1.jsonl", "p2.jsonl"):
            path = tmp_path / name
            assert cli.run(["predict", "--input", str(data),
                            "--checkpoint", str(ckpt), "--output", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_prediction_bytes_equal_one_position_per_pass(self, tmp_path, monkeypatch):
        """Drafted decoding writes the bytes of the one-position reference
        decoder, on a checkpoint that copies well enough to accept drafts:
        some first drafts (the rationale) are accepted whole, and the
        yes/no answers reject theirs at the first id."""
        data = _synthetic_mix(tmp_path, "mix", 48, 16, seed=0)
        ckpt = tmp_path / "ckpt"
        assert cli.run(["train", "--input", str(data), "--output", str(ckpt),
                        *TINY_MODEL_FLAGS, "--epochs", "6", "--learning-rate", "1e-2"]) == 0
        passes, forward = [], M.forward_distributions   # (cache length, ids fed) per pass
        monkeypatch.setattr(M, "forward_distributions",
                            lambda *args: passes.append((args[4].length, list(args[0])))
                            or forward(*args))
        outputs = {}
        for name in ("drafted", "reference"):
            outputs[name] = tmp_path / f"{name}.jsonl"
            assert cli.run(["predict", "--input", str(data), "--checkpoint", str(ckpt),
                            "--output", str(outputs[name])]) == 0
            if name == "drafted":
                drafted = passes[:]
                monkeypatch.setattr(M, "greedy_decode", one_position_decode)
        assert outputs["drafted"].read_bytes() == outputs["reference"].read_bytes()
        words = sum(len(json.loads(line)["text"].split())
                    for line in outputs["drafted"].read_text().splitlines())
        assert len(drafted) < words
        # each decode starts at cache length 0, its first pass feeding BOS and the rationale
        firsts = [k for k, (start, fed) in enumerate(drafted) if start == 0]
        assert all(len(drafted[k][1]) > 1 for k in firsts)
        after = [drafted[k + 1][0] if k + 1 < len(drafted) else 0 for k in firsts]
        texts = [json.loads(line)["text"] for line in outputs["drafted"].read_text().splitlines()]
        assert len(texts) == len(firsts)
        accepted_whole = sum(n == 0 and len(text.split()) == len(drafted[k][1]) - 1
                             for k, n, text in zip(firsts, after, texts))
        assert accepted_whole > 0 and after.count(1) > 0

    def test_predict_names_skipped_examples(self, trained, tmp_path, capsys):
        data, ckpt = trained
        long_record = json.loads(data.read_text().splitlines()[0])
        long_record["story_id"] = "long-001"
        long_record["turn"]["rationale"] = " ".join(["w001"] * 30)   # max_source_len 24
        long_record["turn"]["answer"] = "w001"   # still Extractive, as the record says
        with_long = tmp_path / "with-long.jsonl"
        with_long.write_text(data.read_text() + json.dumps(long_record) + "\n")
        preds = tmp_path / "preds.jsonl"
        assert cli.run(["predict", "--input", str(with_long), "--checkpoint", str(ckpt),
                        "--output", str(preds)]) == 0
        assert "skipped 1 over-length examples" in capsys.readouterr().err
        sidecar = json.loads((tmp_path / "preds.jsonl.run.json").read_text())
        assert sidecar["skipped_over_length"] == [["long-001", 1]]
        assert "long-001" not in preds.read_text()

        plain = tmp_path / "plain.jsonl"
        assert cli.run(["predict", "--input", str(data), "--checkpoint", str(ckpt),
                        "--output", str(plain)]) == 0
        plain_sidecar = json.loads((tmp_path / "plain.jsonl.run.json").read_text())
        assert set(plain_sidecar) == {f.name for f in fields(RunConfig)}
        del sidecar["skipped_over_length"]
        assert plain_sidecar == sidecar

    def test_resume_flag_continues_training(self, trained, tmp_path, capsys):
        data, ckpt = trained
        resumed = tmp_path / "resumed.json"
        assert cli.run(["train", "--input", str(data), "--output", str(resumed),
                        "--resume", str(ckpt), "--seed", "0",
                        *TINY_MODEL_FLAGS,
                        "--epochs", "3", "--batch-size", "8",
                        "--learning-rate", "1e-3"]) == 0
        payload = read_checkpoint(resumed)
        assert payload["epochs_completed"] == 3

    def test_resume_to_fewer_epochs_is_refused_before_writing(self, trained, tmp_path,
                                                              capsys):
        data, ckpt = trained
        own = tmp_path / "own.json"
        own.write_bytes(ckpt.read_bytes())
        curve = tmp_path / "curve.csv"
        capsys.readouterr()
        assert cli.run(["train", "--input", str(data), "--output", str(own),
                        "--resume", str(own), "--epochs", "1",
                        "--loss-curve", str(curve)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: {own} has 2 epochs completed, more than the 1 epochs" in err
        assert own.read_bytes() == ckpt.read_bytes() and not curve.exists()

    @pytest.mark.parametrize("omitted", ["model flags", "--version"])
    def test_resume_adopts_checkpoint_settings(self, tmp_path, capsys, omitted):
        data = tmp_path / "copy.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--n", "32", "--min-len", "2",
                        "--max-len", "6", "--lexicon-size", "48", "--seed", "1",
                        "--output", str(data)]) == 0
        first = tmp_path / "first.json"
        # The later --max-source-len wins: the checkpoint's limit is 12.
        assert cli.run(["train", "--input", str(data), "--output", str(first),
                        *TINY_MODEL_FLAGS, "--max-source-len", "12",
                        "--version", "2", "--epochs", "1"]) == 0
        resumed, curve = tmp_path / "resumed.json", tmp_path / "curve.csv"
        given = (["--version", "1"] if omitted == "model flags"
                 else [*TINY_MODEL_FLAGS, "--max-source-len", "20"])
        capsys.readouterr()
        assert cli.run(["train", "--input", str(data), "--output", str(resumed),
                        "--resume", str(first), "--epochs", "2", "--loss-curve", str(curve),
                        *given]) == 0
        payload = read_checkpoint(resumed)
        assert payload["epochs_completed"] == 2
        assert payload["model_config"] == read_checkpoint(first)["model_config"]
        assert payload["train_config"]["prompt_version"] == 2
        assert payload["model_config"]["max_source_len"] == 12 and "extra" not in payload
        sidecar = json.loads((tmp_path / "curve.csv.run.json").read_text())
        assert (sidecar["max_source_len"], sidecar["prompt_version"]) == (12, 2)
        err = capsys.readouterr().err
        changed = "prompt_version 2, not 1" if omitted == "model flags" else \
            "max_source_len 12, not 20"
        assert f"{first}: using the checkpoint's {changed}" in err


def _synthetic_mix(tmp_path, name, n_copy, n_gate, seed):
    """A store of ``n_copy`` copy-task ("what ...") and ``n_gate`` gate-task
    ("did ...") examples."""
    lines = []
    for task, n, part_seed in (("copy", n_copy, seed), ("gate", n_gate, seed + 1)):
        part = tmp_path / f"{name}-{task}.jsonl"
        assert cli.run(["synthetic", "--task", task, "--n", str(n), "--min-len", "2",
                        "--max-len", "4", "--lexicon-size", "48", "--seed", str(part_seed),
                        "--output", str(part)]) == 0
        lines.append(part.read_text())
    path = tmp_path / f"{name}.jsonl"
    path.write_text("".join(lines))
    return path


def test_a_diverging_run_exits_1_quietly_and_writes_nothing(tmp_path, capsys):
    data = tmp_path / "copy.jsonl"
    assert cli.run(["synthetic", "--task", "copy", "--n", "16", "--output", str(data)]) == 0
    ckpt, curve = tmp_path / "ckpt", tmp_path / "curve.csv"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run(["train", "--input", str(data), "--output", str(ckpt),
                        "--loss-curve", str(curve), "--learning-rate", "1e30",
                        "--d-model", "8", "--n-heads", "2", "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "training diverged at step 2: non-finite gradient for embed"
    assert "data error" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not ckpt.exists() and not curve.exists()


@pytest.mark.parametrize("learning_rate", ["1e80", "1e300"])
def test_a_run_whose_forward_pass_overflows_exits_1_quietly(tmp_path, capsys, learning_rate):
    """Huge parameters overflow the attention logits, which can empty a
    row: that is a diverging run, not a fully masked row of bad input."""
    data = tmp_path / "copy.jsonl"
    assert cli.run(["synthetic", "--task", "copy", "--n", "16", "--output", str(data)]) == 0
    ckpt, curve = tmp_path / "ckpt", tmp_path / "curve.csv"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run(["train", "--input", str(data), "--output", str(ckpt),
                        "--loss-curve", str(curve), "--learning-rate", learning_rate,
                        "--d-model", "8", "--n-heads", "2", "--epochs", "3"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("training diverged at step ")
    assert "data error" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not ckpt.exists() and not curve.exists()


@pytest.fixture(scope="module")
def copy_16(tmp_path_factory):
    """A 16-example copy store at seed 1."""
    data = tmp_path_factory.mktemp("copy16") / "copy.jsonl"
    assert cli.run(["synthetic", "--task", "copy", "--seed", "1", "--n", "16",
                    "--output", str(data)]) == 0
    return data


NOT_POSITIVE_AND_FINITE = "learning_rate and clip_norm must be positive and finite"
# (setting, value) -> the last stderr line of a run that fails, or None
# for a run that trains.  0, -1, NaN and +-inf are no setting at all; a
# learning rate of 1e20 or 1e308 is one too large to train with.
NUMERIC_TRAIN_SETTINGS = {
    **{(setting, value): NOT_POSITIVE_AND_FINITE
       for setting in ("learning_rate", "clip_norm")
       for value in (0.0, -1.0, math.nan, math.inf, -math.inf)},
    ("learning_rate", 1e20): "training diverged at step 2: non-finite gradient norm inf",
    ("learning_rate", 1e308): "training diverged at step 2: overflow encountered in multiply",
    ("clip_norm", 1e20): None,
    ("clip_norm", 1e308): None,
}


# A config-file value of a wrong type: the JSON type named in the message.
WRONG_TYPE_VALUES = {"str": "1e-3", "bool": True, "list": [1], "null": None}


def numeric_train_cases():
    """One row per (source, setting, value): the exit code and the last
    stderr line, or None for a run that trains; ``{config}`` stands for the
    config file's path."""
    for source in ("flag", "config"):
        for (setting, value), line in NUMERIC_TRAIN_SETTINGS.items():
            code = 0 if line is None else 1
            if line == NOT_POSITIVE_AND_FINITE:
                code, line = ((1, f"usage error: {line}") if source == "flag"
                              else (2, f"data error: {{config}}: {line}"))
            yield pytest.param(source, setting, value, code, line,
                               id=f"{source}-{setting}={value!r}")
    for setting in ("learning_rate", "clip_norm"):
        flag = "--" + setting.replace("_", "-")
        yield pytest.param("flag", setting, "abc", 1,
                           f"usage error: argument {flag}: invalid float value: 'abc'",
                           id=f"flag-{setting}='abc'")
        for name, value in WRONG_TYPE_VALUES.items():
            yield pytest.param("config", setting, value, 2,
                               f"data error: {{config}}: {setting}: expected float, got {name}",
                               id=f"config-{setting}={value!r}")


@pytest.mark.parametrize("source,setting,value,code,expected", list(numeric_train_cases()))
def test_numeric_train_setting(copy_16, tmp_path, capsys, source, setting, value, code,
                               expected):
    """``learning_rate`` and ``clip_norm`` at 0, -1, NaN, +-inf, 1e20 and
    1e308, as a flag or in a config file, and of a wrong type.  A value
    that is not positive and finite, or not a float, is a usage error as a
    flag and a data error naming the file in a config file; a learning
    rate too large to train with diverges; anything else trains.  Never a
    traceback nor a RuntimeWarning, and on failure neither the checkpoint
    nor the loss curve is written."""
    ckpt, curve, config = tmp_path / "ckpt", tmp_path / "curve.csv", tmp_path / "config.json"
    argv = ["train", "--input", str(copy_16), "--output", str(ckpt), "--loss-curve",
            str(curve), "--d-model", "8", "--n-heads", "2", "--epochs", "3"]
    if source == "flag":
        argv.append(f"--{setting.replace('_', '-')}={value}")
    else:
        config.write_text(json.dumps({setting: value}))
        argv += ["--config", str(config)]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code:
        assert err.splitlines()[-1] == expected.replace("{config}", str(config))
        assert not ckpt.exists() and not curve.exists()
    else:
        assert read_checkpoint(ckpt)["train_config"][setting] == value


def test_a_store_with_every_example_over_the_limits_is_a_data_error(copy_16, tmp_path, capsys):
    ckpt, curve = tmp_path / "ckpt", tmp_path / "curve.csv"
    capsys.readouterr()
    assert cli.run(["train", "--input", str(copy_16), "--output", str(ckpt),
                    "--loss-curve", str(curve), "--max-source-len", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dropped 16 over-length examples\n")
    assert err.splitlines()[-1] == (f"data error: {copy_16}: "
                                    "every example exceeds the model's length limits")
    assert "Traceback" not in err and not ckpt.exists() and not curve.exists()


def test_a_value_error_in_decoding_is_no_data_error(tmp_path, capsys, monkeypatch):
    """Only a ``CorpusError`` or an ``OSError`` reads as bad input: a fault
    in the decoder ends in a traceback, not in exit 2."""
    data, ckpt = train_small(tmp_path)

    def broken(*args, **kwargs):
        raise ValueError("a fault in the decoder")

    monkeypatch.setattr(M, "greedy_decode", broken)
    capsys.readouterr()
    with pytest.raises(ValueError, match="a fault in the decoder"):
        cli.run(["predict", "--input", str(data), "--checkpoint", str(ckpt),
                 "--output", str(tmp_path / "preds.jsonl")])
    assert "data error" not in capsys.readouterr().err


class _Stopped(Exception):
    """Ends a training run from inside a checkpoint write."""


def test_train_refuses_an_empty_answer_before_the_first_step(tmp_path, capsys, monkeypatch):
    data = tmp_path / "copy.jsonl"
    assert cli.run(["synthetic", "--task", "copy", "--n", "64", "--min-len", "2",
                    "--max-len", "4", "--lexicon-size", "48", "--output", str(data)]) == 0
    lines = data.read_text(encoding="utf-8").splitlines()
    last = json.loads(lines[-1])
    last["turn"]["answer"], last["answer_class"] = "", "Generative"
    _write_lines(data, lines[:-1] + [json.dumps(last)])
    steps = []
    monkeypatch.setattr("pgc.train.train_loop", lambda *args, **kwargs: steps.append(args))
    ckpt = tmp_path / "ckpt.json"
    assert cli.run(["train", "--input", str(data), "--output", str(ckpt),
                    *TINY_TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert f"data error: {data}: example {last['story_id']}/1 has an empty answer" in err
    assert steps == [] and not ckpt.exists()


class TestIntervalCheckpoint:
    def test_stopped_run_predicts_with_the_training_categories(self, tmp_path,
                                                               monkeypatch):
        """A run stopped right after its first interval checkpoint leaves a
        file that ``pgc predict`` reads with the training run's categories,
        not ones ranked from its own input."""
        train_data = _synthetic_mix(tmp_path, "train", n_copy=24, n_gate=8, seed=3)
        ckpt = tmp_path / "ckpt.json"
        save = cli.trainmod.checkpoint_save

        def save_then_stop(*args, **kwargs):
            save(*args, **kwargs)
            raise _Stopped

        monkeypatch.setattr(cli.trainmod, "checkpoint_save", save_then_stop)
        with pytest.raises(_Stopped):
            cli.run(["train", "--input", str(train_data), "--output", str(ckpt),
                     *TINY_MODEL_FLAGS, "--version", "2", "--epochs", "2",
                     "--checkpoint-interval", "1"])
        monkeypatch.undo()
        payload = read_checkpoint(ckpt)
        assert payload["epochs_completed"] == 1
        assert payload["category_vocab"] == ["what", "did"]
        assert payload["train_config"]["prompt_version"] == 2
        assert payload["train_config"]["checkpoint_interval"] == 1
        assert "extra" not in payload

        predict_data = _synthetic_mix(tmp_path, "predict", n_copy=4, n_gate=12, seed=7)
        examples = cli.corpus.load_examples(predict_data)
        assert cli.prompt.build_category_vocab(examples, 10).categories == ("did", "what")
        used = []
        build = cli.prompt.build_prompt

        def recording(example, version, vocab, token_vocab=None):
            used.append(vocab.categories)
            return build(example, version, vocab, token_vocab)

        monkeypatch.setattr(cli.prompt, "build_prompt", recording)
        assert cli.run(["predict", "--input", str(predict_data), "--checkpoint", str(ckpt),
                        "--output", str(tmp_path / "preds.jsonl")]) == 0
        assert used == [("what", "did")] * len(examples)


class TestEvalInput:
    GOOD = {"story_id": "beach-001", "turn_id": 1, "text": "a red kite"}

    @pytest.mark.parametrize("second_line", [
        json.dumps(GOOD),
        json.dumps({"turn_id": 2, "text": "yes"}),
        json.dumps({"story_id": "beach-001", "text": "yes"}),
        json.dumps({"story_id": "beach-001", "turn_id": 2}),
        json.dumps({"story_id": "beach-001", "turn_id": 2, "text": 7}),
        json.dumps({"story_id": "beach-001", "turn_id": 2.9, "text": "yes"}),
        json.dumps({"story_id": "beach-001", "turn_id": True, "text": "yes"}),
        json.dumps({"story_id": 7, "turn_id": 2, "text": "yes"}),
        json.dumps([1, 2]),
        "{broken",
    ], ids=["duplicate", "no-story", "no-turn", "no-text", "text-not-string",
            "turn-not-int", "turn-is-bool", "story-not-string", "not-object", "malformed"])
    def test_bad_prediction_line_is_data_error(self, store_path, tmp_path, capsys,
                                               second_line):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps(self.GOOD) + "\n" + second_line + "\n")
        assert cli.run(["eval", "--predictions", str(preds),
                        "--examples", str(store_path)]) == 2
        assert f"{preds}:2: " in capsys.readouterr().err


def _drop_turn_ids(payload):
    for side in ("questions", "answers"):
        del payload["data"][0][side][1]["turn_id"]
    return payload


def _add_non_object_story(payload):
    payload["data"].append("lab-003")
    return payload


def _bad_span_start(payload):
    payload["data"][0]["answers"][0]["span_start"] = "x"
    return payload


def _set_first_turn(sides=("questions", "answers"), **changes):
    """A damage that sets fields of the first story's first turn."""
    def damage(payload):
        for side in sides:
            payload["data"][0][side][0].update(changes)
        return payload
    return damage


def _set_additional_turn_id(value):
    def damage(payload):
        payload["data"][0]["additional_answers"]["0"][0]["turn_id"] = value
        return payload
    return damage


def _drop_additional_turn_id(payload):
    del payload["data"][0]["additional_answers"]["0"][1]["turn_id"]
    return payload


def _set_story_id(value):
    def damage(payload):
        payload["data"][0]["id"] = value
        return payload
    return damage


def _set_additional_text(payload):
    payload["data"][0]["additional_answers"]["0"][0]["input_text"] = 7
    return payload


def _repeat_story(payload):
    payload["data"].append(payload["data"][0])
    return payload


class TestMalformedCoqa:
    """A malformed CoQA file ends in exit 2 with a message naming the file
    (and the story, where the fault is inside one), never in a traceback.
    The ``ingest`` cases are read by ingestion, the ``multi-ref`` ones by
    the loader of additional answers behind ``eval --multi-ref --coqa``."""

    @pytest.mark.parametrize("damage,reader,story", [
        (_drop_turn_ids, "ingest", "beach-001"),
        (_add_non_object_story, "ingest", "data entry 2"),
        (_bad_span_start, "ingest", "beach-001"),
        (_repeat_story, "ingest", "story beach-001 appears twice"),
        (_drop_additional_turn_id, "multi-ref", "beach-001"),
        (lambda payload: payload["data"], "multi-ref", ""),
        (_repeat_story, "multi-ref", "story beach-001 appears twice"),
        (_set_first_turn(turn_id=1.5), "ingest", "beach-001"),
        (_set_first_turn(turn_id="1"), "ingest", "beach-001"),
        (_set_first_turn(turn_id=True), "ingest", "beach-001"),
        (_set_first_turn(("answers",), span_start="75"), "ingest", "beach-001"),
        (_set_first_turn(("answers",), span_start=True), "ingest", "beach-001"),
        (_set_first_turn(("answers",), span_start="75", span_text=""), "ingest", "beach-001"),
        (_set_additional_turn_id(1.5), "multi-ref", "beach-001"),
        (_set_additional_turn_id("2"), "multi-ref", "beach-001"),
        (_set_first_turn(("questions",), input_text=None), "ingest", "beach-001"),
        (_set_first_turn(("answers",), span_text=[1, 2]), "ingest", "beach-001"),
        (_set_first_turn(("answers",), input_text=7), "ingest", "beach-001"),
        (_set_story_id(7), "ingest", "data entry 0"),
        (_set_story_id(None), "multi-ref", "data entry 0"),
        (_set_additional_text, "multi-ref", "beach-001"),
    ], ids=["turn-without-turn_id", "story-not-object", "span_start-not-int",
            "story-id-twice", "additional-answer-without-turn_id", "top-level-array",
            "additional-story-id-twice", "turn_id-float", "turn_id-string", "turn_id-bool",
            "span_start-numeric-string", "span_start-bool", "span_start-string-without-text",
            "additional-turn_id-float", "additional-turn_id-string", "question-text-null",
            "span_text-list", "answer-text-int", "story-id-int", "story-id-null",
            "additional-answer-text-int"])
    def test_exit_2_names_the_file(self, store_path, tmp_path, capsys, damage, reader,
                                   story):
        bad = tmp_path / "bad_coqa.json"
        bad.write_text(json.dumps(damage(tiny_coqa_dict())))
        if reader == "ingest":
            argv = ["ingest", "--input", str(bad), "--output", str(tmp_path / "s.jsonl")]
        else:
            preds = tmp_path / "preds.jsonl"
            preds.write_text(json.dumps(TestEvalInput.GOOD) + "\n")
            argv = ["eval", "--predictions", str(preds), "--examples", str(store_path),
                    "--multi-ref", "--coqa", str(bad)]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert f"data error: {bad}: " in err and story in err

    # Per object: the keys ingest does not read, and the keys it reads
    # with a default when they are absent ("" for text, -1 for span_start).
    UNREAD = {"story": {"story", "additional_answers"}, "question": set(),
              "answer": {"span_end"}}
    DEFAULTED = {"story": {"id"}, "question": {"input_text"},
                 "answer": {"span_start", "span_text", "input_text"}}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_story_exits_2(self, data):
        """Drop a key of a story, a question or an answer, or give it a
        value of another JSON type: exit 2 naming the file, with no
        traceback and nothing written, unless ingest does not read the key
        or the key is dropped and has a default."""
        payload = tiny_coqa_dict()
        story = data.draw(st.sampled_from(payload["data"]), label="story")
        turn = data.draw(st.integers(0, len(story["questions"]) - 1), label="turn")
        kind = data.draw(st.sampled_from(["story", "question", "answer"]), label="object")
        target = {"story": story, "question": story["questions"][turn],
                  "answer": story["answers"][turn]}[kind]
        key = data.draw(st.sampled_from(sorted(target)), label="key")
        how = data.draw(st.sampled_from(["drop", "retype"]), label="how")
        if how == "drop":
            del target[key]
        else:
            value = data.draw(st.sampled_from([1.5, "1", True, [1], None]), label="value")
            assume(type(value) is not type(target[key]))
            target[key] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            bad, out = Path(tmp, "bad_coqa.json"), Path(tmp, "s.jsonl")
            bad.write_text(json.dumps(payload))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.run(["ingest", "--input", str(bad), "--output", str(out)])
            written = out.exists()
        if key in self.UNREAD[kind] or (how == "drop" and key in self.DEFAULTED[kind]):
            assert code == 0 and written
        else:
            assert code == 2 and not written
            assert f"data error: {bad}: " in err.getvalue()
        assert "Traceback" not in err.getvalue()


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def store_lines(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    coqa, store = root / "coqa.json", root / "store.jsonl"
    coqa.write_text(json.dumps(tiny_coqa_dict()), encoding="utf-8")
    assert cli.run(["ingest", "--input", str(coqa), "--output", str(store)]) == 0
    return store.read_text(encoding="utf-8").splitlines()


class TestMalformedStore:
    """A store line that is not exactly a record ``pgc ingest`` writes ends
    in exit 2 naming ``path:line``, never in a traceback."""

    @pytest.mark.parametrize("change,line", [
        ({"question": 7}, 1), ({"turn_id": 2.5}, 1), ({"turn_id": "1"}, 1),
        ({"turn_id": True}, 1), ({"speaker": "A"}, 1), (None, 7),
    ], ids=["question-not-string", "turn_id-float", "turn_id-string", "turn_id-bool",
            "extra-key", "repeated-record"])
    def test_exit_2_names_the_line(self, store_lines, tmp_path, capsys, change, line):
        """``change`` is set in the first line's turn; None repeats that line."""
        record = json.loads(store_lines[0])
        if change is None:
            lines = store_lines + store_lines[:1]
        else:
            record["turn"].update(change)
            lines = [json.dumps(record), *store_lines[1:]]
        bad = _write_lines(tmp_path / "bad.jsonl", lines)
        assert cli.run(["prompts", "--input", str(bad),
                        "--output", str(tmp_path / "prompts.jsonl")]) == 2
        assert f"data error: {bad}:{line}: " in capsys.readouterr().err

    def test_undecodable_line_names_the_line(self, store_lines, tmp_path, capsys):
        bad = _write_lines(tmp_path / "bad.jsonl", store_lines)
        lines = bad.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"question": "', b'"question": "\xff', 1)
        bad.write_bytes(b"\n".join(lines))
        assert cli.run(["stats", "--input", str(bad)]) == 2
        assert f"data error: {bad}:3: " in capsys.readouterr().err

    def test_contradicted_answer_class_names_the_line(self, store_lines, tmp_path, capsys):
        record = json.loads(store_lines[0])
        assert record["answer_class"] == "Extractive"
        record["answer_class"] = "Generative"
        bad = _write_lines(tmp_path / "bad.jsonl", [json.dumps(record), *store_lines[1:]])
        assert cli.run(["stats", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {bad}:1: " in err and "answer_class Generative contradicts" in err

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_line_exits_2(self, store_lines, data):
        """Drop a key, add one, or give one field a value of another JSON
        type, at the top level, in the turn or in a history turn."""
        index = data.draw(st.integers(0, len(store_lines) - 1), label="line index")
        record = json.loads(store_lines[index])
        target = data.draw(st.sampled_from([record, record["turn"], *record["history"]]))
        key = data.draw(st.sampled_from(sorted(target)), label="key")
        how = data.draw(st.sampled_from(["drop", "add", "retype"]), label="how")
        if how == "drop":
            del target[key]
        elif how == "add":
            target[data.draw(st.text(min_size=1).filter(lambda k: k not in target))] = 1
        else:
            value = data.draw(st.sampled_from([1.5, "1", True, [1], None]), label="value")
            assume(type(value) is not type(target[key]))
            target[key] = value
        lines = list(store_lines)
        lines[index] = json.dumps(record, ensure_ascii=False)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            bad = _write_lines(Path(tmp, "bad.jsonl"), lines)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.run(["stats", "--input", str(bad)])
        assert code == 2
        assert f"data error: {bad}:{index + 1}: " in err.getvalue()
        assert "Traceback" not in err.getvalue()


def _predict_damaged(trained, payload) -> tuple[int, Path, str]:
    """``pgc predict`` with ``payload`` as the checkpoint, a dict that
    ``checkpoint_bytes`` writes or the file's bytes: (exit code,
    checkpoint path, stderr)."""
    data, _ = trained
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp, "damaged-ckpt.json")
        bad.write_bytes(payload if isinstance(payload, bytes) else checkpoint_bytes(payload))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(["predict", "--input", str(data), "--checkpoint", str(bad),
                            "--output", str(Path(tmp, "p.jsonl"))])
    return code, bad, err.getvalue()


def _entry(payload, name) -> list:
    """The ``[name, shape]`` entry of parameter ``name`` in the layout."""
    return next(entry for entry in payload["layout"] if entry[0] == name)


def _write_value(payload, key, name, index, value) -> None:
    """Write ``value`` at ``index`` of parameter ``name`` in vector ``key``."""
    names = [entry[0] for entry in payload["layout"]]
    offset = sum(math.prod(shape) for _, shape in payload["layout"][:names.index(name)])
    payload[key][offset + index] = value


class TestMalformedPredictions:
    """A predictions line that is not exactly ``story_id``, ``turn_id`` and
    ``text`` for a distinct example of the store ends in exit 2 naming
    ``path:line``, never in a traceback."""

    @pytest.mark.parametrize("key,value,detail", [
        ("story_id", [1], "story_id: expected str, got list"),
        ("story_id", {"id": 1}, "story_id: expected str, got dict"),
        ("turn_id", [1], "turn_id: expected int, got list"),
        ("turn_id", {"id": 1}, "turn_id: expected int, got dict"),
    ], ids=["story_id-list", "story_id-object", "turn_id-list", "turn_id-object"])
    def test_a_key_field_of_another_type_is_named(self, store_path, tmp_path, capsys,
                                                  key, value, detail):
        preds = _write_lines(tmp_path / "preds.jsonl", [
            json.dumps(TestEvalInput.GOOD), json.dumps({**TestEvalInput.GOOD, key: value})])
        assert cli.run(["eval", "--predictions", str(preds), "--examples", str(store_path)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {preds}:2: bad record: {detail}" in err
        assert "Traceback" not in err

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_line_exits_2(self, store_lines, data):
        """Drop a key, add one, give one a value of another JSON type,
        repeat the line, or replace it with no JSON object."""
        records = [{"story_id": r["story_id"], "turn_id": r["turn"]["turn_id"],
                    "text": r["turn"]["answer"]} for r in map(json.loads, store_lines)]
        lines = [json.dumps(r) for r in records]
        index = data.draw(st.integers(0, len(lines) - 1), label="line index")
        record, line = records[index], index + 1
        how = data.draw(st.sampled_from(["drop", "add", "retype", "repeat", "replace"]))
        if how == "drop":
            del record[data.draw(st.sampled_from(sorted(record)), label="key")]
        elif how == "add":
            record[data.draw(st.text(min_size=1).filter(lambda k: k not in record))] = 1
        elif how == "retype":
            key = data.draw(st.sampled_from(sorted(record)), label="key")
            value = data.draw(st.sampled_from([1.5, "1", True, [1], None]), label="value")
            assume(type(value) is not type(record[key]))
            record[key] = value
        lines[index] = json.dumps(record, ensure_ascii=False)
        if how == "repeat":
            lines.insert(index + 1, lines[index])
            line += 1
        elif how == "replace":
            lines[index] = data.draw(st.sampled_from(["[1]", "{broken"]))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            store = _write_lines(Path(tmp, "store.jsonl"), store_lines)
            bad = _write_lines(Path(tmp, "preds.jsonl"), lines)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.run(["eval", "--predictions", str(bad), "--examples", str(store)])
        assert code == 2
        assert f"data error: {bad}:{line}: " in err.getvalue()
        assert "Traceback" not in err.getvalue()


@CLOSES_ITS_FILES
class TestMalformedCheckpoint:
    """A checkpoint that ``pgc train`` could not have written ends in exit 2
    naming the file, never in a traceback or a silent decode."""

    @pytest.mark.parametrize("damage,detail", [
        (lambda p: p["layout"].remove(_entry(p, "gate.b")),
         'layout entry 36 is ["out.w_v", [16, 56]], expected ["gate.b", [1]]'),
        (lambda p: p["layout"].append(["gate.extra", [1]]),
         'layout entry 39 is ["gate.extra", [1]], expected nothing'),
        (lambda p: _entry(p, "gate.w_c").__setitem__(1, [3]),
         'is ["gate.w_c", [3]], expected ["gate.w_c", [16]]'),
        (lambda p: _entry(p, "gate.b").__setitem__(0, "gate.bias"),
         'is ["gate.bias", [1]], expected ["gate.b", [1]]'),
        (lambda p: _entry(p, "gate.b").__setitem__(1, [True]),
         'is ["gate.b", [true]], expected ["gate.b", [1]]'),
        (lambda p: p.update({"layout": {"gate.b": [1]}}), "layout is not a list"),
        (lambda p: _write_value(p, "params", "out.w_v", 5, float("nan")),
         "params: out.w_v holds NaN or inf"),
        (lambda p: _write_value(p, "adam_v", "embed", 0, float("inf")),
         "adam_v: embed holds NaN or inf"),
        (lambda p: _write_value(p, "adam_m", "copy.a_raw", 0, float("-inf")),
         "adam_m: copy.a_raw holds NaN or inf"),
        (lambda p: _entry(p, "gate.b").__setitem__(1, ["1"]),
         'is ["gate.b", ["1"]], expected ["gate.b", [1]]'),
        (lambda p: p.update({"adam_m": p["adam_m"][:-1]}),
         "180328 bytes follow the header, expected 3 vectors of 7514 float64 values "
         "(180336 bytes)"),
        (lambda p: p.update({"params": np.append(p["params"], 0.0)}),
         "180344 bytes follow the header, expected 3 vectors of 7514 float64 values"),
        (lambda p: checkpoint_bytes(p)[:-3],
         "180333 bytes follow the header, expected 3 vectors of 7514 float64 values"),
        (lambda p: checkpoint_bytes(p) + b"\n",
         "180337 bytes follow the header, expected 3 vectors of 7514 float64 values"),
        (lambda p: p.update({"params": p["params"].tolist()}),
         "unknown keys ['params'], missing keys []"),
        (lambda p: checkpoint_bytes(p).partition(b"\n")[0], "no newline after the header"),
        (lambda p: p.update({"format_version": 1}),
         "unsupported checkpoint format version 1"),
        (lambda p: p.update({"format_version": 2, "extra": {"run_config": {"seed": 0}}}),
         "unsupported checkpoint format version 2"),
        (lambda p: p.update({"step": -1}), "step and epochs_completed must be ints >= 0"),
        (lambda p: p.update({"token_vocab": p["token_vocab"][:3]}),
         "token_vocab must be 56 - 4 tokens"),
        (lambda p: p.update({"token_vocab": ["<pad>"] + p["token_vocab"][1:]}),
         "token_vocab must be 56 - 4 tokens"),
        (lambda p: p.update({"category_vocab": "what"}), "category_vocab must be lists"),
        (lambda p: p.update({"category_vocab": None}), "category_vocab must be lists"),
        (lambda p: p.update({"category_vocab": []}), "category vocabulary is empty"),
        (lambda p: p.update({"train_config": None}), "train_config is missing"),
        (lambda p: p["train_config"].update({"prompt_version": 7}),
         "train_config: 7 is not a valid PromptVersionId"),
        (lambda p: p.pop("epochs_completed"), "missing keys ['epochs_completed']"),
    ], ids=["missing-param", "extra-param", "misshaped-param", "renamed-param",
            "true-for-1-in-shape", "layout-object", "nan-param", "inf-adam_v",
            "minus-inf-adam_m", "string-value", "short-adam_m", "long-params",
            "vectors-cut-inside-a-value", "one-byte-too-many", "params-in-header",
            "no-newline-after-the-header", "format-version-1", "format-version-2",
            "negative-step", "short-token_vocab", "special-token",
            "category_vocab-string", "null-category_vocab", "empty-category_vocab",
            "null-train_config", "prompt_version-7", "no-epochs_completed"])
    def test_exit_2_names_the_file(self, trained, damage, detail):
        """``damage`` edits the checkpoint's sections, or gives the bytes to write."""
        payload = read_checkpoint(trained[1])
        raw = damage(payload)
        code, bad, err = _predict_damaged(trained, raw if isinstance(raw, bytes) else payload)
        assert code == 2
        assert f"data error: {bad}: " in err and detail in err
        assert "Traceback" not in err

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_damaged_section_exits_2(self, trained, data):
        """Drop a section, give a section (or a layout entry, its name, shape
        or a dimension) another JSON type, resize a vector, the layout or
        the token list, move a vector into the header as a JSON value, or
        write NaN/inf into a parameter's part of a vector."""
        payload = read_checkpoint(trained[1])
        how = data.draw(st.sampled_from(["drop", "retype", "resize", "into-header",
                                         "non-finite"]))
        detail = ""
        if how == "drop":
            del payload[data.draw(st.sampled_from(sorted(payload)))]
        elif how == "retype":
            container = payload
            key = data.draw(st.sampled_from(sorted(payload)), label="section")
            if key == "layout" and data.draw(st.booleans(), label="into an entry"):
                container, key = payload[key], data.draw(
                    st.integers(0, len(payload[key]) - 1), label="entry")
                if data.draw(st.booleans(), label="into a field"):
                    container, key = container[key], data.draw(st.sampled_from([0, 1]))
                    if key == 1 and data.draw(st.booleans(), label="into a dimension"):
                        container, key = container[key], data.draw(
                            st.integers(0, len(container[key]) - 1), label="dimension")
            value = data.draw(st.sampled_from([7, 1.5, "x", True, [1], ["x"], {"a": 1}, None]))
            assume(type(value) is not type(container[key]))
            container[key] = value
        elif how == "resize":
            key = data.draw(st.sampled_from([*VECTOR_KEYS, "layout", "token_vocab"]),
                            label="section")
            grow = data.draw(st.booleans(), label="grow")
            if key == "token_vocab":
                payload[key] = payload[key] + ["zz-new"] if grow else payload[key][:-1]
            elif key == "layout":
                payload[key] = payload[key] + [["zz.new", [1]]] if grow else payload[key][:-1]
            else:
                payload[key] = np.append(payload[key], 0.0) if grow else payload[key][:-1]
                detail = "bytes follow the header"
        elif how == "into-header":
            key = data.draw(st.sampled_from(VECTOR_KEYS), label="section")
            payload[key] = data.draw(st.sampled_from([payload[key].tolist(), "", None, 7]))
            detail = f"unknown keys ['{key}']"
        else:
            key = data.draw(st.sampled_from(VECTOR_KEYS), label="section")
            name, shape = data.draw(st.sampled_from(payload["layout"]), label="parameter")
            _write_value(payload, key, name, data.draw(st.integers(0, math.prod(shape) - 1)),
                         data.draw(st.sampled_from([float("nan"), float("inf"),
                                                    float("-inf")])))
            detail = f"{key}: {name} holds NaN or inf"
        code, bad, err = _predict_damaged(trained, payload)
        assert code == 2
        assert f"data error: {bad}: " in err and detail in err
        assert "Traceback" not in err

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_cut_grown_or_flipped_file_exits_2(self, trained, data):
        """Cut the file at any offset, append bytes, or change one header
        byte: flip its high bit (no longer UTF-8) or make it a newline (the
        header ends early)."""
        raw = trained[1].read_bytes()
        how = data.draw(st.sampled_from(["cut", "append", "flip"]))
        if how == "cut":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        elif how == "append":
            raw += data.draw(st.binary(min_size=1, max_size=32), label="tail")
        else:
            at = data.draw(st.integers(0, raw.index(b"\n") - 1), label="at")
            byte = data.draw(st.sampled_from([raw[at] ^ 0x80, ord("\n")]), label="byte")
            raw = raw[:at] + bytes([byte]) + raw[at + 1:]
        code, bad, err = _predict_damaged(trained, raw)
        assert code == 2
        assert err.startswith(f"data error: {bad}: ")
        assert "Traceback" not in err


class TestRawBaseline:
    def test_single_reference_generative_em_zero(self, tiny_coqa_path, tmp_path, capsys):
        report_path = tmp_path / "raw.json"
        assert cli.run(["raw-baseline", "--input", str(tiny_coqa_path),
                        "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["g_em"] == 0.0

    def test_tighten_forces_extractive_100(self, tiny_coqa_path, tmp_path):
        report_path = tmp_path / "raw_tight.json"
        assert cli.run(["raw-baseline", "--input", str(tiny_coqa_path), "--tighten",
                        "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["e_em"] == 100.0
        assert report["e_f1"] == 100.0

    def test_multi_ref_needs_coqa_json(self, store_path):
        assert cli.run(["raw-baseline", "--input", str(store_path),
                        "--multi-ref"]) == 1

    def test_multi_ref_with_coqa_json(self, tiny_coqa_path, tmp_path):
        report_path = tmp_path / "raw_multi.json"
        assert cli.run(["raw-baseline", "--input", str(tiny_coqa_path),
                        "--multi-ref", "--report", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["g_em"] == 0.0


class TestGradcheck:
    def test_passes_and_prints_error(self, capsys):
        assert cli.run(["gradcheck", "--seed", "0", "--coords", "4"]) == 0
        assert "max relative error" in capsys.readouterr().out


class TestExportAttention:
    def test_writes_one_csv_per_head(self, trained, tmp_path, capsys):
        data, ckpt = trained
        out_dir = tmp_path / "attn"
        assert cli.run(["export-attention", "--checkpoint", str(ckpt),
                        "--input", str(data), "--index", "0", "--layer", "0",
                        "--heads", "0,1", "--out-dir", str(out_dir)]) == 0
        files = sorted(out_dir.glob("*.csv"))
        assert len(files) == 2

    def test_csv_rows_are_distributions(self, trained, tmp_path, capsys):
        """Each file's header row is the example's source tokens; one row
        per token follows, labelled by it, and each row sums to 1."""
        data, ckpt = trained
        prompts, out_dir = tmp_path / "prompts.jsonl", tmp_path / "attn"
        assert cli.run(["prompts", "--input", str(data), "--output", str(prompts)]) == 0
        tokens = tokenize(json.loads(prompts.read_text().splitlines()[0])["source_text"])
        capsys.readouterr()
        assert cli.run(["export-attention", "--checkpoint", str(ckpt), "--input", str(data),
                        "--layer", "0", "--heads", "1,0", "--out-dir", str(out_dir)]) == 0
        paths = [out_dir / f"attention_layer0_head{head}.csv" for head in (1, 0)]
        assert capsys.readouterr().out == "".join(f"{path}\n" for path in paths)
        for path in paths:
            rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
            assert rows[0] == [""] + tokens
            assert [row[0] for row in rows[1:]] == tokens
            for row in rows[1:]:
                assert abs(sum(float(v) for v in row[1:]) - 1.0) < 1e-6

    def test_bad_head_list_is_usage_error(self, trained, tmp_path, capsys):
        data, ckpt = trained
        assert cli.run(["export-attention", "--checkpoint", str(ckpt),
                        "--input", str(data), "--layer", "0", "--heads", "0,x",
                        "--out-dir", str(tmp_path / "attn")]) == 1
        assert "usage error: argument --heads: invalid int_list value: '0,x'" in \
            capsys.readouterr().err
        assert not (tmp_path / "attn").exists()

    @pytest.mark.parametrize("flags,detail", [
        (["--layer", "9", "--heads", "0"], "--layer 9 out of range (0..0)"),
        (["--layer", "-1", "--heads", "0"], "--layer -1 out of range (0..0)"),
        (["--layer", "0", "--heads", "0,5"], "--heads [5] out of range (0..1)"),
        (["--layer", "0", "--heads", "-1"], "--heads [-1] out of range (0..1)"),
        (["--layer", "0", "--heads", ""], "argument --heads: invalid int_list value: ''"),
        (["--layer", "0", "--heads", ","], "argument --heads: invalid int_list value: ','"),
    ], ids=["layer-9", "layer-minus-1", "head-5", "head-minus-1", "no-head", "comma-only"])
    def test_flag_beyond_the_model_is_usage_error(self, trained, tmp_path, capsys, flags,
                                                  detail):
        data, ckpt = trained
        out_dir = tmp_path / "attn"
        assert cli.run(["export-attention", "--checkpoint", str(ckpt), "--input", str(data),
                        *flags, "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: {detail}" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_example_over_the_source_limit_is_data_error(self, trained, store_lines,
                                                          tmp_path, capsys):
        _, ckpt = trained
        record = json.loads(store_lines[1])
        record["turn"]["question"] = "what " * 30
        store = _write_lines(tmp_path / "store.jsonl", [store_lines[0], json.dumps(record)])
        out_dir = tmp_path / "attn"
        assert cli.run(["export-attention", "--checkpoint", str(ckpt), "--input", str(store),
                        "--index", "1", "--layer", "0", "--heads", "0",
                        "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {store}: example 1 has ")
        assert err.rstrip().endswith("source tokens, more than max_source_len 24")
        assert not out_dir.exists()

    def test_bad_index_is_data_error(self, trained, tmp_path, capsys):
        data, ckpt = trained
        assert cli.run(["export-attention", "--checkpoint", str(ckpt),
                        "--input", str(data), "--index", "999", "--layer", "0",
                        "--heads", "0", "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {data}: example index 999 out of range\n"
        assert not (tmp_path / "x").exists()


def _no_question_words(payload):
    for story in payload["data"]:
        for question in story["questions"]:
            del question["input_text"]


class TestStoreWithoutCategories:
    """A store with no examples, or none whose question has a word, leaves
    nothing to build the question categories from: exit 2, a data error
    naming the store, never a traceback."""

    COMMANDS = {
        "prompts": "prompts --input {store} --output {out}",
        "train": "train --input {store} --output {out}",
        "eval": "eval --predictions {preds} --examples {store}",
        "raw-baseline": "raw-baseline --input {store}",
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("kind", ["empty-jsonl", "empty-coqa", "punctuation-questions",
                                      "absent-questions"])
    def test_exit_2_names_the_store(self, store_lines, tmp_path, capsys, command, kind):
        payload = tiny_coqa_dict()
        if kind == "empty-jsonl":
            store = _write_lines(tmp_path / "store.jsonl", [])
        elif kind == "punctuation-questions":
            records = [json.loads(line) for line in store_lines]
            for record in records:
                record["turn"]["question"] = "?"
            store = _write_lines(tmp_path / "store.jsonl", map(json.dumps, records))
        else:
            if kind == "empty-coqa":
                payload["data"] = []
            else:
                _no_question_words(payload)
            store = tmp_path / "coqa.json"
            store.write_text(json.dumps(payload), encoding="utf-8")
        preds = _write_lines(tmp_path / "preds.jsonl", [])
        out = tmp_path / "out"
        argv = self.COMMANDS[command].format(store=store, preds=preds, out=out)
        assert cli.run(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {store}: ") and "Traceback" not in err
        assert not out.exists()


class TestWholeFileFaults:
    """A byte that is not UTF-8, or malformed JSON, in a CoQA file, a config
    file or a checkpoint ends in exit 2 with a message that starts with the
    file's name, and malformed JSON also gives its line.  A checkpoint's
    JSON is its first line only."""

    COMMANDS = {
        "ingest": "ingest --input {bad} --output {out}",
        "stats": "stats --input {bad}",
        "eval-coqa": "eval --predictions {store} --examples {store} --multi-ref --coqa {bad}",
        "config": "stats --input {store} --config {bad}",
        "predict": "predict --input {store} --checkpoint {bad} --output {out}",
        "resume": "train --input {store} --resume {bad} --output {out}",
    }

    CHECKPOINT_COMMANDS = {"predict", "resume"}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("fault,detail,header_detail", [
        (b'{"data": [\xff]}', "'utf-8' codec can't decode byte 0xff in position 10",
         "'utf-8' codec can't decode byte 0xff in position 10"),
        (b'{\n  "data": [}', "malformed JSON at line 2, byte offset 13",
         "malformed JSON at line 1, byte offset 1"),
    ], ids=["byte-0xff", "malformed"])
    def test_exit_2_starts_with_the_file(self, trained, tmp_path, capsys, command, fault,
                                         detail, header_detail):
        """``header_detail`` is the message for a checkpoint, whose header ends
        at the first newline."""
        data, _ = trained
        if command in self.CHECKPOINT_COMMANDS:
            detail = header_detail
        bad = tmp_path / "bad.json"
        bad.write_bytes(fault)
        argv = self.COMMANDS[command].format(bad=bad, store=data, out=tmp_path / "out")
        assert cli.run(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: {detail}")
        assert "Traceback" not in err


@pytest.fixture
def config_from_file(monkeypatch):
    """Reads a config file the way every command does: the settings of
    ``--config path`` alone, with PGC_SEED unset."""
    monkeypatch.delenv("PGC_SEED", raising=False)

    def read(path) -> RunConfig:
        args = cli.build_parser().parse_args(["stats", "--input", "x", "--config", str(path)])
        return cli.effective_config(args)
    return read


class TestExitCodesAndConfig:
    def test_usage_error_is_exit_1(self):
        assert cli.run(["prompts"]) == 1          # missing required flags
        assert cli.run(["no-such-command"]) == 1

    def test_missing_file_is_exit_2(self, tmp_path):
        assert cli.run(["stats", "--input", str(tmp_path / "absent.json")]) == 2

    def test_malformed_input_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli.run(["stats", "--input", str(bad)]) == 2

    @pytest.mark.parametrize("flag", ["--input", "--config"])
    def test_directory_for_a_file_is_exit_2(self, tmp_path, capsys, flag):
        assert cli.run(["stats", "--input", "whatever", flag, str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(tmp_path) in err

    def test_unknown_config_key_listed(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 2, "not_a_key": 1}))
        code = cli.run(["stats", "--input", "whatever", "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {config}: " in err and "not_a_key" in err

    @pytest.mark.parametrize("key,value,expected", [
        ("epochs", "2", "int"),
        ("d_model", True, "int"),
        ("learning_rate", "0.1", "float"),
        ("tighten", 1, "bool"),
        ("d_k", 2.5, "int or null"),
    ])
    def test_ill_typed_config_value_is_data_error(self, tmp_path, capsys, key, value,
                                                  expected):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code = cli.run(["synthetic", "--task", "copy", "--n", "3", "--config", str(config),
                        "--output", str(tmp_path / "s.jsonl")])
        assert code == 2
        assert (f"{config}: {key}: expected {expected}, got {type(value).__name__}"
                in capsys.readouterr().err)

    def test_int_config_value_taken_for_float(self, tmp_path, config_from_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": 1, "d_k": None}))
        loaded = config_from_file(config)
        assert loaded.learning_rate == 1.0 and isinstance(loaded.learning_rate, float)

    def test_bad_checkpoint_config_is_data_error(self, trained, tmp_path, capsys):
        data, ckpt = trained
        payload = read_checkpoint(ckpt)
        payload["model_config"]["bogus"] = 1
        bad = write_checkpoint(tmp_path / "bad-ckpt.json", payload)
        code = cli.run(["predict", "--input", str(data), "--checkpoint", str(bad),
                        "--output", str(tmp_path / "p.jsonl")])
        assert code == 2
        assert f"{bad}: model_config: unknown keys ['bogus']" in capsys.readouterr().err

    def test_empty_config_file_gives_defaults(self, tmp_path, config_from_file):
        config = tmp_path / "empty.json"
        config.write_text("{}")
        assert config_from_file(config) == RunConfig()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        out = tmp_path / "s.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--n", "3",
                        "--config", str(config), "--seed", "9",
                        "--output", str(out)]) == 0
        sidecar = json.loads((tmp_path / "s.jsonl.run.json").read_text())
        assert sidecar["seed"] == 9

    def test_sidecar_reloads_to_identical_config(self, tmp_path, config_from_file):
        out = tmp_path / "s.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--n", "3", "--seed", "4",
                        "--output", str(out)]) == 0
        sidecar_path = tmp_path / "s.jsonl.run.json"
        reloaded = config_from_file(sidecar_path)
        assert reloaded == RunConfig(seed=4)

    def test_every_model_and_train_field_is_a_setting(self, tmp_path, config_from_file):
        def changed(f):   # valid alone and together: 8 heads divide d_model 64 and 128
            return 4 if f.default is None else f.default * 2 or 1

        settings = {f.name: changed(f)
                    for section in (ModelConfig, TrainConfig) for f in fields(section)}
        parser = cli.build_parser()
        for name, value in settings.items():
            flag = "--version" if name == "prompt_version" else "--" + name.replace("_", "-")
            args = parser.parse_args(["train", "--input", "x", "--output", "y",
                                      flag, str(value)])
            assert getattr(cli.effective_config(args), name) == value, flag
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        out = tmp_path / "s.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--n", "3",
                        "--config", str(config), "--output", str(out)]) == 0
        sidecar = json.loads((tmp_path / "s.jsonl.run.json").read_text())
        assert {name: sidecar[name] for name in settings} == settings
        assert config_from_file(config) == RunConfig(**settings)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PGC_SEED", "17")
        out_env = tmp_path / "env.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--n", "5",
                        "--output", str(out_env)]) == 0
        monkeypatch.delenv("PGC_SEED")
        out_flag = tmp_path / "flag.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--n", "5", "--seed", "17",
                        "--output", str(out_flag)]) == 0
        assert out_env.read_text() == out_flag.read_text()

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PGC_SEED", "17")
        out = tmp_path / "s.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--n", "3", "--seed", "2",
                        "--output", str(out)]) == 0
        sidecar = json.loads((tmp_path / "s.jsonl.run.json").read_text())
        assert sidecar["seed"] == 2


_TURN = dict(turn_id=1, question="q", rationale="r", answer="a", span_start=0)


@dataclass
class _WithContainers:
    name: str
    count: int
    refs: list[str]
    counts: dict[str, int]

    def __post_init__(self):
        check_fields(self)


class TestOneFieldCheck:
    """Records and settings share one field-type check, run from each
    class's own ``__post_init__``."""

    @pytest.mark.parametrize("make,name", [
        (lambda: ConversationTurn(**{**_TURN, "turn_id": True}), "turn_id"),
        (lambda: DialogueExample(story_id=True, turn=ConversationTurn(**_TURN), history=(),
                                 answer_class=AnswerClass.EXTRACTIVE), "story_id"),
        (lambda: ModelConfig(d_model=True), "d_model"),
        (lambda: TrainConfig(epochs=True), "epochs"),
        (lambda: RunConfig(top_k_categories=True), "top_k_categories"),
        (lambda: Prediction(story_id="s", turn_id=True, text="t", references=["a"]), "turn_id"),
    ], ids=["ConversationTurn", "DialogueExample", "ModelConfig", "TrainConfig", "RunConfig",
            "Prediction"])
    def test_bool_is_refused(self, make, name):
        with pytest.raises(TypeError, match=f"^{name}: expected (int|str), got bool$"):
            make()

    @pytest.mark.parametrize("cls", [TrainConfig, RunConfig])
    def test_int_is_stored_as_float(self, cls):
        value = cls(learning_rate=1).learning_rate
        assert value == 1.0 and type(value) is float

    def test_bool_in_checkpoint_model_config_names_the_file(self, trained):
        payload = read_checkpoint(trained[1])
        payload["model_config"]["d_model"] = True
        code, bad, err = _predict_damaged(trained, payload)
        assert code == 2
        assert f"data error: {bad}: model_config: d_model: expected int, got bool" in err
        assert "Traceback" not in err

    def test_container_fields_are_left_to_their_record(self):
        """``list[str]`` is no ``str`` field, and ``dict[str, int]`` no ``str | int`` one."""
        record = _WithContainers(name="a", count=1, refs=["x", "y"], counts={"x": 1})
        assert record.refs == ["x", "y"] and record.counts == {"x": 1}
        prediction = Prediction(story_id="s", turn_id=1, text="t", references=["a", "b"])
        assert prediction.references == ["a", "b"]

    @pytest.mark.parametrize("changes,message", [
        ({"name": ["a"]}, "name: expected str, got list"),
        ({"count": True}, "count: expected int, got bool"),
        ({"name": None}, "name: expected str, got null"),
    ], ids=["list-in-str", "bool-in-int", "null-in-str"])
    def test_scalar_fields_beside_containers_are_checked(self, changes, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            _WithContainers(**{"name": "a", "count": 1, "refs": [], "counts": {}, **changes})


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["pgc", "pgc.cli"])
    def test_python_m_runs_the_cli(self, tmp_path, module):
        src = str(Path(pgc.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = tmp_path / "s.jsonl"
        done = subprocess.run([sys.executable, "-m", module, "synthetic", "--task", "copy",
                               "--n", "3", "--output", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3
        assert "Warning" not in done.stderr


class TestSettingSource:
    """A bad setting is reported where it came from, before anything is
    written: a config file's value exits 2 naming the file, a flag's or
    ``PGC_SEED``'s is a usage error (exit 1)."""

    @pytest.mark.parametrize("settings,detail", [
        ({"prompt_version": 7}, "7 is not a valid PromptVersionId"),
        ({"history_depth": -1}, "history_depth must be >= 0"),
        ({"n_heads": 3}, "d_model must be divisible by n_heads"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"top_k_categories": 0}, "top_k_categories must be >= 1"),
        ({"vocab_size": 4}, "vocab_size must exceed the 4 special tokens"),
    ], ids=["prompt_version", "history_depth", "n_heads", "seed", "top_k_categories",
            "vocab_size"])
    def test_bad_config_value_names_the_file(self, tmp_path, capsys, settings, detail):
        config, out = tmp_path / "config.json", tmp_path / "s.jsonl"
        config.write_text(json.dumps(settings))
        assert cli.run(["synthetic", "--task", "copy", "--n", "3", "--config", str(config),
                        "--output", str(out)]) == 2
        assert f"data error: {config}: {detail}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[]", "null"])
    def test_config_that_is_no_object_is_data_error(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert cli.run(["stats", "--input", "whatever", "--config", str(config)]) == 2
        assert f"data error: {config}: expected a JSON object" in capsys.readouterr().err

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_config_exits_2_unless_the_field_takes_it(self, data):
        """Add an unknown key, give one setting a value of another JSON type,
        truncate the JSON or make its top level no object.  The run exits 2
        naming the file, or 0 when the setting's type hint takes the new
        value (``1.5`` in a float field, ``null`` in an optional one)."""
        valid = {**asdict(RunConfig()), "d_k": 8, "d_ff": 32}
        text, accepted = json.dumps(valid), False
        how = data.draw(st.sampled_from(["add", "retype", "truncate", "top-level"]))
        if how == "add":
            key = data.draw(st.text(min_size=1).filter(lambda k: k not in valid))
            text = json.dumps({**valid, key: 1})
        elif how == "retype":
            key = data.draw(st.sampled_from(sorted(valid)), label="key")
            value = data.draw(st.sampled_from([1.5, "1", True, [1], None]), label="value")
            assume(type(value) is not type(valid[key]))
            hint = cli._SETTING_TYPES[key]
            accepted = type(value) in (typing.get_args(hint) or (hint,))
            text = json.dumps({**valid, key: value})
        elif how == "truncate":
            text = text[:data.draw(st.integers(0, len(text) - 1), label="length")]
        else:
            text = data.draw(st.sampled_from(["[]", "null"]))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp, "config.json")
            config.write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.run(["synthetic", "--task", "copy", "--n", "3", "--config",
                                str(config), "--output", str(Path(tmp, "s.jsonl"))])
        assert code == (0 if accepted else 2), err.getvalue()
        if not accepted:
            assert f"data error: {config}: " in err.getvalue()
        assert "Traceback" not in err.getvalue()

    def test_bad_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PGC_SEED", "x")
        out = tmp_path / "s.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--n", "3", "--output", str(out)]) == 1
        assert "usage error: PGC_SEED must be an int, got 'x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,detail", [
        ("--n-heads", "3", "d_model must be divisible by n_heads"),
        ("--d-k", "0", "all model dimensions must be >= 1"),
        ("--clip-norm", "-1", "learning_rate and clip_norm must be positive"),
        ("--checkpoint-interval", "-1",
         "batch_size and epochs must be >= 1, checkpoint_interval >= 0"),
        ("--top-k-categories", "0", "top_k_categories must be >= 1"),
        ("--seed", "-1", "seed must be >= 0"),
        ("--vocab-size", "3", "vocab_size must exceed the 4 special tokens"),
    ], ids=["n_heads", "d_k", "clip_norm", "checkpoint_interval", "top_k_categories", "seed",
            "vocab_size"])
    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
    def test_bad_flag_is_usage_error(self, trained, tmp_path, capsys, resume, flag, value,
                                     detail):
        data, ckpt = trained
        out = tmp_path / "ckpt.json"
        argv = ["train", "--input", str(data), "--output", str(out), flag, value]
        assert cli.run(argv + (["--resume", str(ckpt)] if resume else [])) == 1
        assert f"usage error: {detail}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,detail", [
        (["--seed", "-1"], "seed must be >= 0"),
        (["--n", "0"], "vocab_size and n_examples must be positive"),
        (["--lexicon-size", "1"], "vocab_size and n_examples must be positive"),
        (["--min-len", "5", "--max-len", "4"], "need 1 <= min_len <= max_len"),
    ], ids=["seed", "n", "lexicon_size", "lengths"])
    def test_bad_synthetic_flag_is_usage_error(self, tmp_path, capsys, flags, detail):
        out = tmp_path / "s.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--output", str(out), *flags]) == 1
        assert f"usage error: {detail}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_settings_rebuild_the_run(self, trained, tmp_path):
        """``model_config``, ``train_config`` and the vocabularies fix the run:
        training again with the stored vocabulary sizes as the budgets
        writes the same bytes."""
        data, ckpt = trained
        payload = read_checkpoint(ckpt)
        flags = ["--top-k-categories", str(len(payload["category_vocab"]))]
        for name, value in {**payload["model_config"], **payload["train_config"]}.items():
            flag = "--version" if name == "prompt_version" else "--" + name.replace("_", "-")
            flags += [] if value is None else [flag, str(value)]
        again = tmp_path / "again.json"
        assert cli.run(["train", "--input", str(data), "--output", str(again), *flags]) == 0
        assert again.read_bytes() == ckpt.read_bytes()

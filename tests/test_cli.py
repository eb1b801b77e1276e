"""End-to-end subcommand behaviour, exit codes, config precedence."""

import json
from dataclasses import fields

import pytest

from pgc import cli
from pgc.cli import RunConfig, load_config
from pgc.model import ModelConfig
from pgc.train import TrainConfig


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

    def test_resume_flag_continues_training(self, trained, tmp_path, capsys):
        data, ckpt = trained
        resumed = tmp_path / "resumed.json"
        assert cli.run(["train", "--input", str(data), "--output", str(resumed),
                        "--resume", str(ckpt), "--seed", "0",
                        *TINY_MODEL_FLAGS,
                        "--epochs", "3", "--batch-size", "8",
                        "--learning-rate", "1e-3"]) == 0
        payload = json.loads(resumed.read_text())
        assert payload["epochs_completed"] == 3

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
        resumed = tmp_path / "resumed.json"
        given = (["--version", "1"] if omitted == "model flags"
                 else [*TINY_MODEL_FLAGS, "--max-source-len", "20"])
        capsys.readouterr()
        assert cli.run(["train", "--input", str(data), "--output", str(resumed),
                        "--resume", str(first), "--epochs", "2", *given]) == 0
        payload = json.loads(resumed.read_text())
        assert payload["epochs_completed"] == 2
        assert payload["model_config"] == json.loads(first.read_text())["model_config"]
        assert payload["train_config"]["prompt_version"] == 2
        assert payload["extra"]["run_config"]["max_source_len"] == 12
        err = capsys.readouterr().err
        changed = "prompt_version 2, not 1" if omitted == "model flags" else \
            "max_source_len 12, not 20"
        assert f"{first}: using the checkpoint's {changed}" in err


class TestEvalInput:
    GOOD = {"story_id": "beach-001", "turn_id": 1, "text": "a red kite"}

    @pytest.mark.parametrize("second_line", [
        json.dumps(GOOD),
        json.dumps({"turn_id": 2, "text": "yes"}),
        json.dumps({"story_id": "beach-001", "text": "yes"}),
        json.dumps({"story_id": "beach-001", "turn_id": 2}),
        json.dumps({"story_id": "beach-001", "turn_id": 2, "text": 7}),
        json.dumps([1, 2]),
        "{broken",
    ], ids=["duplicate", "no-story", "no-turn", "no-text", "text-not-string",
            "not-object", "malformed"])
    def test_bad_prediction_line_is_data_error(self, store_path, tmp_path, capsys,
                                               second_line):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps(self.GOOD) + "\n" + second_line + "\n")
        assert cli.run(["eval", "--predictions", str(preds),
                        "--examples", str(store_path)]) == 2
        assert f"{preds}:2: " in capsys.readouterr().err


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

    def test_bad_index_is_data_error(self, trained, tmp_path):
        data, ckpt = trained
        assert cli.run(["export-attention", "--checkpoint", str(ckpt),
                        "--input", str(data), "--index", "999", "--layer", "0",
                        "--heads", "0", "--out-dir", str(tmp_path / "x")]) == 2


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

    def test_unknown_config_key_listed(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 2, "not_a_key": 1}))
        code = cli.run(["stats", "--input", "whatever", "--config", str(config)])
        assert code == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_empty_config_file_gives_defaults(self, tmp_path):
        config = tmp_path / "empty.json"
        config.write_text("{}")
        assert load_config(config) == RunConfig()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        out = tmp_path / "s.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--n", "3",
                        "--config", str(config), "--seed", "9",
                        "--output", str(out)]) == 0
        sidecar = json.loads((tmp_path / "s.jsonl.run.json").read_text())
        assert sidecar["seed"] == 9

    def test_sidecar_reloads_to_identical_config(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert cli.run(["synthetic", "--task", "copy", "--n", "3", "--seed", "4",
                        "--output", str(out)]) == 0
        sidecar_path = tmp_path / "s.jsonl.run.json"
        reloaded = load_config(sidecar_path)
        assert reloaded == RunConfig(seed=4)

    def test_every_model_and_train_field_is_a_setting(self, tmp_path):
        def changed(f):
            if f.default is None:
                return 4
            return f.default * 2 if isinstance(f.default, float) else f.default + 1

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
        assert load_config(config) == RunConfig(**settings)

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

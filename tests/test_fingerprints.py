"""Golden output fingerprints: one small end-to-end flow through ``cli.run``
gives the same checkpoint, loss curve, predictions and attention CSVs,
byte for byte.

A change that means to move these bytes updates the constants and says
which ones changed and why; this test is never loosened to let it pass.
"""

import hashlib

import numpy as np

from pgc import cli, model as M, train as TR

# Taken with this numpy version; a failure names it beside the one in use.
FINGERPRINT_NUMPY = "2.4.6"
FINGERPRINTS = {
    "checkpoint": "7ebf2e45fadf74fa4a26f542656655585008894a346a6496b6e20c8954a77aad",
    "loss curve": "7d0c8436773373787f9e41937db2ea4a161895732fab7b2a75b6b84ad8edf1bf",
    "predictions": "a3f26b0d03ea30693146c9c01427fca07a84ee8b803545e3f016b305a98b8b8b",
    "init_params store at seed 0": (
        "7e09178d36b592228000a575ead10b18f912ad83f9f636a2d0b7bf4f99a8c650"),
    "attention CSVs": "4855192f9fc5f000bb0cd193b49a708433391e3f5cc5df8e4a7b53b3e60dd06a",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_synthetic_train_predict_flow_is_bit_identical(tmp_path, monkeypatch, capsys):
    """48 copy examples at seed 0 and 16 gate examples at seed 1 (lexicon
    48, lengths 2-4) in one store; six epochs of a two-layer encoder at
    learning rate 1e-2, then greedy predictions on the same store and the
    encoder's last-layer attention of both heads on its first example."""
    monkeypatch.delenv("PGC_SEED", raising=False)
    for task, seed, n in (("copy", "0", "48"), ("gate", "1", "16")):
        assert cli.run(["synthetic", "--task", task, "--seed", seed, "--n", n,
                        "--lexicon-size", "48", "--min-len", "2", "--max-len", "4",
                        "--output", str(tmp_path / f"{task}.jsonl")]) == 0
    data, ckpt = tmp_path / "mix.jsonl", tmp_path / "ckpt.json"
    curve, preds, attn = tmp_path / "curve.csv", tmp_path / "preds.jsonl", tmp_path / "attn"
    data.write_bytes((tmp_path / "copy.jsonl").read_bytes()
                     + (tmp_path / "gate.jsonl").read_bytes())
    assert cli.run(["train", "--input", str(data), "--output", str(ckpt), "--d-model", "16",
                    "--n-heads", "2", "--n-enc-layers", "2", "--n-dec-layers", "1",
                    "--epochs", "6", "--learning-rate", "1e-2",
                    "--loss-curve", str(curve)]) == 0
    assert cli.run(["predict", "--input", str(data), "--checkpoint", str(ckpt),
                    "--output", str(preds)]) == 0
    assert cli.run(["export-attention", "--input", str(data), "--checkpoint", str(ckpt),
                    "--layer", "1", "--heads", "0,1", "--out-dir", str(attn)]) == 0
    capsys.readouterr()
    model_config = TR.checkpoint_load(ckpt)[1]
    got = {
        "checkpoint": sha256(ckpt.read_bytes()),
        "loss curve": sha256(curve.read_bytes()),
        "predictions": sha256(preds.read_bytes()),
        "init_params store at seed 0": sha256(M.init_params(model_config, seed=0).flat.tobytes()),
        "attention CSVs": sha256(b"".join((attn / f"attention_layer1_head{head}.csv").read_bytes()
                                          for head in (0, 1))),
    }
    changed = [name for name in FINGERPRINTS if got[name] != FINGERPRINTS[name]]
    assert not changed, (f"changed: {', '.join(changed)}; fingerprints taken with numpy "
                         f"{FINGERPRINT_NUMPY}, run with numpy {np.__version__}")

"""Shared fixtures: a tiny CoQA-format file and a small model setup."""

import json

import pytest

from pgc import corpus, model as M

from helpers import tiny_coqa_dict


@pytest.fixture
def tiny_coqa_path(tmp_path):
    path = tmp_path / "tiny_coqa.json"
    path.write_text(json.dumps(tiny_coqa_dict()), encoding="utf-8")
    return path


@pytest.fixture
def tiny_examples(tiny_coqa_path):
    return corpus.ingest(tiny_coqa_path)


SMALL_CONFIG = M.ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=8, n_heads=2,
                             vocab_size=12, max_source_len=10, max_target_len=8,
                             d_ff=16)


@pytest.fixture
def small_config():
    return SMALL_CONFIG


@pytest.fixture
def small_params(small_config):
    return M.init_params(small_config, seed=0)

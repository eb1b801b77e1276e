"""Loss, training loop determinism, synthetic tasks, checkpoints."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pgc import model as M
from pgc import prompt as P
from pgc import tensor as T
from pgc import train as TR
from pgc.corpus import AnswerClass
from pgc.model import ModelConfig
from pgc.prompt import PromptVersion, PromptVersionId, TokenVocab
from pgc.tensor import Tensor
from pgc.train import (CheckpointError, SyntheticSpec, TrainConfig,
                       checkpoint_load, checkpoint_save, make_synthetic,
                       teacher_forced_loss, token_accuracy,
                       train_loop)

TINY_MODEL = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=16, n_heads=2,
                         vocab_size=40, max_source_len=24, max_target_len=16,
                         d_ff=32)


def tiny_setup(task="copy", n=24, seed=5, lexicon=48):
    """Synthetic examples prompted and vocabularised for TINY_MODEL."""
    spec = SyntheticSpec(task=task, vocab_size=lexicon, min_len=2, max_len=4,
                         n_examples=n, seed=seed)
    examples = make_synthetic(spec)
    cat = P.build_category_vocab(examples, 5)
    version = PromptVersion(PromptVersionId.QUESTION_RATIONALE)
    bare = [P.build_prompt(ex, version, cat) for ex in examples]
    lists = [p.source_tokens for p in bare] + [P.tokenize(p.target_text) for p in bare]
    vocab = TokenVocab.build(lists, TINY_MODEL.vocab_size)
    prompted = [P.build_prompt(ex, version, cat, vocab) for ex in examples]
    return prompted, vocab


class TestMakeSynthetic:
    def test_copy_answers_are_extractive_by_construction(self):
        for ex in make_synthetic(SyntheticSpec(task="copy", n_examples=20, seed=1)):
            assert ex.answer_class is AnswerClass.EXTRACTIVE
            assert ex.turn.answer == ex.turn.rationale

    def test_gate_answers_are_generative_by_construction(self):
        examples = make_synthetic(SyntheticSpec(task="gate", n_examples=40, seed=2))
        for ex in examples:
            assert ex.answer_class is AnswerClass.GENERATIVE
            assert ex.turn.answer in ("yes", "no")
            assert (ex.turn.answer == "yes") == (TR.GATE_MARKER in ex.turn.rationale.split())
        assert {ex.turn.answer for ex in examples} == {"yes", "no"}

    def test_gate_questions_start_with_did(self):
        for ex in make_synthetic(SyntheticSpec(task="gate", n_examples=5, seed=3)):
            assert ex.turn.question.split()[0] == "did"

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(task="copy", n_examples=15, seed=9)
        assert make_synthetic(spec) == make_synthetic(spec)

    def test_lengths_respect_bounds(self):
        spec = SyntheticSpec(task="copy", min_len=3, max_len=5, n_examples=50, seed=4)
        for ex in make_synthetic(spec):
            assert 3 <= len(ex.turn.rationale.split()) <= 5

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(task="copy", min_len=5, max_len=3)
        with pytest.raises(ValueError):
            SyntheticSpec(task="nope")


class TestLoss:
    def test_uniform_rows_cost_log_of_width(self):
        rows = Tensor(np.full((3, 8), 1.0 / 8.0))
        loss = T.sequence_nll(rows, [0, 3, 7])
        assert abs(loss.item() - math.log(8)) < 1e-12

    def test_certain_rows_cost_zero(self):
        rows = np.zeros((2, 5))
        rows[0, 1] = 1.0
        rows[1, 4] = 1.0
        assert T.sequence_nll(Tensor(rows), [1, 4]).item() == 0.0

    def test_empty_target_rejected(self):
        prompted, vocab = tiny_setup(n=1)
        prompted[0].target_text = ""
        params = M.init_params(TINY_MODEL, seed=0)
        with pytest.raises(ValueError):
            teacher_forced_loss(prompted[0], params, TINY_MODEL, vocab)

    def test_loss_matches_stepwise_hand_computation(self):
        # independent route: per-step distributions, then NLL by hand
        prompted, vocab = tiny_setup(n=3)
        params = M.init_params(TINY_MODEL, seed=1)
        for p in prompted[:3]:
            loss = teacher_forced_loss(p, params, TINY_MODEL, vocab).item()
            gold = TR.target_ids(p, vocab)
            prefix = [P.BOS] + [g if g < vocab.size else P.UNK for g in gold[:-1]]
            stack = M.encode(p.source_ids, params, TINY_MODEL)
            rows = M.forward_distributions(prefix, stack, params, TINY_MODEL).p_final.data
            by_hand = -sum(math.log(max(row[g], 1e-12))
                           for row, g in zip(rows, gold)) / len(gold)
            assert abs(loss - by_hand) < 1e-12

    def test_loss_finite_for_random_parameter_draws(self):
        prompted, vocab = tiny_setup(n=2)
        for seed in range(5):
            params = M.init_params(TINY_MODEL, seed=seed)
            value = teacher_forced_loss(prompted[0], params, TINY_MODEL, vocab).item()
            assert math.isfinite(value)

    def test_gold_tokens_in_source_use_extended_ids(self):
        prompted, vocab = tiny_setup(n=40, lexicon=80)
        with_oov = [p for p in prompted if p.source_oov]
        assert with_oov, "expected some generator-OOV source tokens"
        gold = TR.target_ids(with_oov[0], vocab)
        assert any(g >= vocab.size for g in gold)
        assert gold[-1] == P.EOS

    def test_full_loss_passes_sampled_gradient_check(self):
        prompted, vocab = tiny_setup(n=1)
        params = M.init_params(TINY_MODEL, seed=2)

        def f(store):
            return teacher_forced_loss(prompted[0], store, TINY_MODEL, vocab)

        err = T.grad_check(f, params, max_coords_per_param=3,
                           rng=np.random.default_rng(0))
        assert err < 1e-4


class TestTrainLoop:
    def test_loss_decreases_monotonically_on_repeated_example(self):
        prompted, vocab = tiny_setup(n=1)
        params = M.init_params(TINY_MODEL, seed=3)
        config = TrainConfig(learning_rate=1e-3, batch_size=1, epochs=30, seed=0)
        result = train_loop(prompted, params, config, TINY_MODEL, vocab)
        losses = [loss for _, _, loss in result.curve]
        for before, after in zip(losses[10:], losses[11:]):
            assert after <= before + 1e-9

    def test_identical_seeds_give_bit_identical_parameters(self):
        def run():
            prompted, vocab = tiny_setup(n=12)
            params = M.init_params(TINY_MODEL, seed=4)
            config = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=7)
            result = train_loop(prompted, params, config, TINY_MODEL, vocab)
            return params, result

        first_params, first = run()
        second_params, second = run()
        assert first.curve == second.curve
        for name in first_params.names():
            assert np.array_equal(first_params[name].data, second_params[name].data)

    def test_empty_dataset_rejected(self):
        params = M.init_params(TINY_MODEL, seed=0)
        _, vocab = tiny_setup(n=1)
        with pytest.raises(ValueError):
            train_loop([], params, TrainConfig(), TINY_MODEL, vocab)

    def test_loss_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        TR.write_loss_curve([(0, 1, 0.5), (0, 2, 0.25)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,step,loss"
        assert lines[1] == "0,1,0.5"


class TestCheckpoints:
    def make_trained(self, tmp_path, epochs=2):
        prompted, vocab = tiny_setup(n=8)
        params = M.init_params(TINY_MODEL, seed=6)
        config = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=epochs, seed=11)
        train_loop(prompted, params, config, TINY_MODEL, vocab)
        return prompted, vocab, params, config

    def test_round_trip_is_bit_exact(self, tmp_path):
        _, vocab, params, config = self.make_trained(tmp_path)
        path = tmp_path / "ckpt.json"
        checkpoint_save(path, params, TINY_MODEL, config, vocab, epochs_completed=2)
        loaded, model_config, train_config, loaded_vocab, meta = checkpoint_load(path)
        assert model_config == TINY_MODEL
        assert train_config == config
        assert loaded_vocab.tokens == vocab.tokens
        assert loaded.step == params.step
        assert meta["epochs_completed"] == 2
        for name in params.names():
            assert np.array_equal(loaded[name].data, params[name].data)
            assert np.array_equal(loaded.adam_m[name], params.adam_m[name])
            assert np.array_equal(loaded.adam_v[name], params.adam_v[name])

    def test_config_mismatch_rejected(self, tmp_path):
        _, vocab, params, config = self.make_trained(tmp_path)
        path = tmp_path / "ckpt.json"
        checkpoint_save(path, params, TINY_MODEL, config, vocab)
        other = replace(TINY_MODEL, d_model=32)
        with pytest.raises(CheckpointError):
            checkpoint_load(path, expected_config=other)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        prompted, vocab = tiny_setup(n=12)

        full_params = M.init_params(TINY_MODEL, seed=8)
        full_config = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=4, seed=13)
        full = train_loop(prompted, full_params, full_config, TINY_MODEL, vocab)

        half_params = M.init_params(TINY_MODEL, seed=8)
        half_config = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=13)
        train_loop(prompted, half_params, half_config, TINY_MODEL, vocab)
        path = tmp_path / "half.json"
        checkpoint_save(path, half_params, TINY_MODEL, half_config, vocab,
                        epochs_completed=2)
        resumed_params, _, _, resumed_vocab, meta = checkpoint_load(path)
        resumed = train_loop(prompted, resumed_params, full_config, TINY_MODEL,
                             resumed_vocab, start_epoch=meta["epochs_completed"])

        assert full.curve[len(full.curve) // 2:] == resumed.curve
        for name in full_params.names():
            assert np.array_equal(full_params[name].data, resumed_params[name].data)


class TestAccuracyAndGate:
    def test_token_accuracy_bounds(self):
        prompted, vocab = tiny_setup(n=4)
        params = M.init_params(TINY_MODEL, seed=9)
        acc = token_accuracy(prompted, params, TINY_MODEL, vocab)
        assert 0.0 <= acc <= 1.0

    def test_gate_statistics_split_copyable_and_generated(self):
        copy_prompted, vocab = tiny_setup(task="copy", n=4)
        params = M.init_params(TINY_MODEL, seed=10)
        mean_copy, mean_gen = TR.gate_statistics(copy_prompted, params,
                                                 TINY_MODEL, vocab)
        # copy-task gold tokens all occur in the source
        assert not math.isnan(mean_copy)
        assert 0.0 < mean_copy < 1.0

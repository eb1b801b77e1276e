"""Loss, training loop determinism, synthetic tasks, checkpoints."""

import base64
import functools
import inspect
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgc import model as M
from pgc import prompt as P
from pgc import tensor as T
from pgc import train as TR
from pgc.corpus import AnswerClass, CorpusError
from pgc.model import ModelConfig
from pgc.prompt import PromptVersion, PromptVersionId, TokenVocab
from pgc.tensor import Tensor
from pgc.train import (SyntheticSpec, TrainConfig,
                       checkpoint_load, checkpoint_save, make_synthetic,
                       teacher_forced_loss, token_accuracy,
                       train_loop)

from helpers import (CLOSES_ITS_FILES, make_prompted, random_copy_batch, read_checkpoint,
                     tensor_constructions, write_checkpoint)

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
            teacher_forced_loss([prompted[0]], params, TINY_MODEL, vocab)

    def test_loss_matches_stepwise_hand_computation(self):
        # independent route: per-step distributions, then NLL by hand
        prompted, vocab = tiny_setup(n=3)
        params = M.init_params(TINY_MODEL, seed=1)
        for p in prompted[:3]:
            loss = teacher_forced_loss([p], params, TINY_MODEL, vocab).item()
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
            value = teacher_forced_loss([prompted[0]], params, TINY_MODEL, vocab).item()
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
            return teacher_forced_loss([prompted[0]], store, TINY_MODEL, vocab)

        err = T.grad_check(f, params, max_coords_per_param=3,
                           rng=np.random.default_rng(0))
        assert err < 1e-4


class TestTrainLoop:
    def test_loss_decreases_monotonically_on_repeated_example(self):
        prompted, vocab, model = fitted_setup(n=1)
        params = M.init_params(model, seed=3)
        config = TrainConfig(learning_rate=1e-3, batch_size=1, epochs=30, seed=0)
        result = train_loop(prompted, params, config, model, vocab)
        losses = [loss for _, _, loss in result.curve]
        for before, after in zip(losses[10:], losses[11:]):
            assert after <= before + 1e-9

    def test_identical_seeds_give_bit_identical_parameters(self):
        def run():
            prompted, vocab, model = fitted_setup(n=12)
            params = M.init_params(model, seed=4)
            config = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=7)
            result = train_loop(prompted, params, config, model, vocab)
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

    def test_vocabulary_of_another_size_rejected(self, tmp_path):
        prompted, vocab = tiny_setup(n=4)
        assert vocab.size != TINY_MODEL.vocab_size
        params = M.init_params(TINY_MODEL, seed=0)
        with pytest.raises(ValueError, match="vocab_size 40"):
            train_loop(prompted, params, TrainConfig(), TINY_MODEL, vocab)
        with pytest.raises(ValueError, match="vocab_size 40"):
            checkpoint_save(tmp_path / "ckpt.json", params, TINY_MODEL, TrainConfig(), vocab,
                            CATEGORIES, 0)
        assert not (tmp_path / "ckpt.json").exists()

    def test_loss_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        TR.write_loss_curve([(0, 1, 0.5), (0, 2, 0.25)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,step,loss"
        assert lines[1] == "0,1,0.5"


CATEGORIES = P.CategoryVocab(("what", "did"))


def fitted_setup(n):
    """``tiny_setup`` with TINY_MODEL's vocab_size set to the size of the
    vocabulary, as ``pgc train`` sets it and a checkpoint must keep it."""
    prompted, vocab = tiny_setup(n=n)
    return prompted, vocab, replace(TINY_MODEL, vocab_size=vocab.size)


@CLOSES_ITS_FILES
class TestCheckpoints:
    def make_trained(self, tmp_path, epochs=2):
        prompted, vocab, model = fitted_setup(n=8)
        params = M.init_params(model, seed=6)
        config = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=epochs, seed=11)
        train_loop(prompted, params, config, model, vocab)
        return model, vocab, params, config

    def test_round_trip_is_bit_exact(self, tmp_path):
        model, vocab, params, config = self.make_trained(tmp_path)
        path = tmp_path / "ckpt.json"
        checkpoint_save(path, params, model, config, vocab, CATEGORIES, epochs_completed=2)
        loaded, model_config, train_config, loaded_vocab, meta = checkpoint_load(path)
        assert model_config == model
        assert train_config == config
        assert loaded_vocab.tokens == vocab.tokens
        assert meta["category_vocab"] == CATEGORIES
        assert loaded.step == params.step
        assert meta["epochs_completed"] == 2
        for name in params.names():
            assert np.array_equal(loaded[name].data, params[name].data)
            assert np.array_equal(loaded.adam_m[name], params.adam_m[name])
            assert np.array_equal(loaded.adam_v[name], params.adam_v[name])

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        """The store is built from ``param_shapes`` and the file alone."""
        model, vocab, params, config = self.make_trained(tmp_path)
        path = tmp_path / "ckpt.json"
        checkpoint_save(path, params, model, config, vocab, CATEGORIES, epochs_completed=2)

        def no_draws(*args, **kwargs):
            raise AssertionError("checkpoint_load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = checkpoint_load(path)[0]
        for flat in ("flat", "flat_m", "flat_v"):
            assert getattr(loaded, flat).tobytes() == getattr(params, flat).tobytes()

    def test_config_mismatch_rejected(self, tmp_path):
        model, vocab, params, config = self.make_trained(tmp_path)
        path = tmp_path / "ckpt.json"
        checkpoint_save(path, params, model, config, vocab, CATEGORIES, 2)
        other = replace(model, d_model=32)
        with pytest.raises(CorpusError):
            checkpoint_load(path, expected_config=other)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(CorpusError):
            checkpoint_load(path)

    @pytest.mark.parametrize("damage", [
        "unknown model key", "missing model key", "ill-typed model value",
        "bad model value", "unknown train key", "ill-typed train value",
        "no params", "no adam_m", "no adam_v", "adam_v entry missing", "no step",
        "no token_vocab",
    ])
    def test_damaged_checkpoint_names_the_path(self, tmp_path, damage):
        path = tmp_path / "ckpt.json"
        checkpoint_save(path, M.init_params(TINY_MODEL, seed=0), TINY_MODEL, TrainConfig(),
                        TokenVocab([f"w{i}" for i in range(TINY_MODEL.vocab_size - 4)]),
                        CATEGORIES, 0)
        checkpoint_load(path)   # only the damage makes it unloadable
        payload = read_checkpoint(path)
        model, train = payload["model_config"], payload["train_config"]
        if damage == "unknown model key":
            model["bogus"] = 1
        elif damage == "missing model key":
            del model["d_model"]
        elif damage == "ill-typed model value":
            model["n_heads"] = "2"
        elif damage == "bad model value":
            model["n_heads"] = 3
        elif damage == "unknown train key":
            train["bogus"] = 1
        elif damage == "ill-typed train value":
            train["epochs"] = True
        elif damage == "adam_v entry missing":   # one value short
            payload["adam_v"] = payload["adam_v"][:-1]
        else:
            del payload[damage.split()[1]]
        write_checkpoint(path, payload)
        with pytest.raises(CorpusError, match=str(path)):
            checkpoint_load(path)

    def test_extreme_values_round_trip_byte_exactly(self, tmp_path):
        store = M.init_params(TINY_MODEL, seed=0)
        extremes = [-0.0, 5e-324, 1.7976931348623157e308, -5e-324, -1.7976931348623157e308]
        for flat in (store.flat, store.flat_m, store.flat_v):
            flat[:len(extremes)] = extremes
        path = tmp_path / "ckpt.json"
        checkpoint_save(path, store, TINY_MODEL, TrainConfig(),
                        TokenVocab([f"w{i}" for i in range(TINY_MODEL.vocab_size - 4)]),
                        CATEGORIES, 0)
        loaded = checkpoint_load(path)[0]
        for name in ("flat", "flat_m", "flat_v"):
            assert getattr(loaded, name).tobytes() == getattr(store, name).tobytes()

    def test_every_byte_value_round_trips_bit_exactly(self, tmp_path):
        """Vectors whose bytes hold every value 0x00-0xFF, the newline 0x0A
        among them, load back bit-exactly: the loader finds them by length
        after the header and never searches them."""
        store = M.init_params(TINY_MODEL, seed=0)
        rng = np.random.default_rng(1)
        for flat in (store.flat, store.flat_m, store.flat_v):
            raw = flat.view(np.uint8).reshape(-1, 8)
            raw[:] = rng.integers(0, 256, size=raw.shape, dtype=np.uint8)
            raw[:, 7] &= 0xBF   # the exponent's top bit clear: every value finite
            raw[:256, 0] = np.arange(256, dtype=np.uint8)
        path = tmp_path / "ckpt.json"
        checkpoint_save(path, store, TINY_MODEL, TrainConfig(),
                        TokenVocab([f"w{i}" for i in range(TINY_MODEL.vocab_size - 4)]),
                        CATEGORIES, 0)
        vectors = path.read_bytes().partition(b"\n")[2]
        assert set(vectors) == set(range(256)) and vectors.count(b"\n") > 3
        loaded = checkpoint_load(path)[0]
        for name in ("flat", "flat_m", "flat_v"):
            assert getattr(loaded, name).tobytes() == getattr(store, name).tobytes()

    def test_format_3_file_is_refused(self, tmp_path):
        """A format-3 file, one JSON object with the vectors as base64
        strings and no newline, names its version."""
        store = M.init_params(TINY_MODEL, seed=0)
        path = tmp_path / "ckpt.json"
        checkpoint_save(path, store, TINY_MODEL, TrainConfig(),
                        TokenVocab([f"w{i}" for i in range(TINY_MODEL.vocab_size - 4)]),
                        CATEGORIES, 0)
        payload = read_checkpoint(path)
        payload["format_version"] = 3
        for key in ("params", "adam_m", "adam_v"):
            payload[key] = base64.b64encode(payload[key].tobytes()).decode("ascii")
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CorpusError) as refused:
            checkpoint_load(path)
        assert str(refused.value) == f"{path}: unsupported checkpoint format version 3"

    def test_repeated_round_trips_on_one_path(self, tmp_path):
        """21 saves and loads on one path, as the benchmark does them, the
        store changed by an Adam step before each save: every loaded store
        keeps the values saved with it after later saves overwrite the
        file, its vectors are writable, no two stores share memory, and an
        Adam step on it equals one on the saved store."""
        model, vocab, store, config = self.make_trained(tmp_path, epochs=1)
        path = tmp_path / "ckpt.json"
        rng = np.random.default_rng(2)
        saved, loaded = [], []
        for _ in range(21):
            store.flat_grad[:] = rng.normal(size=store.n_values())
            T.adam_step(store, 1e-3)
            checkpoint_save(path, store, model, config, vocab, CATEGORIES, 1)
            saved.append(state_bytes(store))
            loaded.append(checkpoint_load(path)[0])
        assert len(loaded) == 21
        for state, copy in zip(saved, loaded):
            assert state_bytes(copy) == state
            for flat in (copy.flat, copy.flat_m, copy.flat_v):
                assert flat.flags.writeable
        vectors = [(i, flat) for i, one in enumerate([store, *loaded])
                   for flat in (one.flat, one.flat_grad, one.flat_m, one.flat_v)]
        for (i, a), (j, b) in itertools.combinations(vectors, 2):
            assert not np.shares_memory(a, b), (i, j)
        grad = rng.normal(size=store.n_values())
        for one in (store, loaded[-1]):
            one.flat_grad[:] = grad
            T.adam_step(one, 1e-3)
        assert state_bytes(loaded[-1]) == state_bytes(store)

    def test_a_file_cut_short_names_where(self, tmp_path):
        """Cut inside the header line, the header is malformed JSON; cut
        inside a vector, the file is short by the bytes it lost."""
        path = tmp_path / "ckpt.json"
        store = M.init_params(TINY_MODEL, seed=0)
        checkpoint_save(path, store, TINY_MODEL, TrainConfig(),
                        TokenVocab([f"w{i}" for i in range(TINY_MODEL.vocab_size - 4)]),
                        CATEGORIES, 0)
        raw, n = path.read_bytes(), store.n_values()
        in_header = raw.index(b", ") + 2
        mid_vector = raw.index(b"\n") + 1 + 8 * n + 4   # inside adam_m's first value
        for cut, detail in [
            (in_header, f"malformed JSON at line 1, byte offset {in_header}: "
                        f"Expecting property name enclosed in double quotes"),
            (mid_vector, f"{8 * n + 4} bytes follow the header, expected 3 vectors of "
                         f"{n} float64 values ({24 * n} bytes)"),
        ]:
            path.write_bytes(raw[:cut])
            with pytest.raises(CorpusError) as refused:
                checkpoint_load(path)
            assert str(refused.value) == f"{path}: {detail}"

    def test_bench_copy_shape_is_written_as_bytes_under_2_mb(self, tmp_path):
        """The parameters and Adam moments are raw float64 bytes after a
        JSON header that holds no float list, so the 60,131-value bench
        copy model takes 24 bytes a value plus a header under 8 KB."""
        model = ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=32, n_heads=2,
                            vocab_size=256, max_source_len=24, max_target_len=14)
        store = M.init_params(model, seed=0)
        rng = np.random.default_rng(0)
        store.flat_m[:] = rng.normal(0.0, 1e-3, store.n_values())
        store.flat_v[:] = rng.normal(0.0, 1e-3, store.n_values()) ** 2
        path = tmp_path / "ckpt.json"
        checkpoint_save(path, store, model, TrainConfig(),
                        TokenVocab([f"w{i}" for i in range(model.vocab_size - 4)]),
                        CATEGORIES, 0)

        def holds_float_list(value) -> bool:
            children = value.values() if isinstance(value, dict) else \
                value if isinstance(value, list) else ()
            return (isinstance(value, list) and any(type(v) is float for v in value)) or \
                any(holds_float_list(child) for child in children)

        header = json.loads(path.read_bytes().partition(b"\n")[0])
        assert store.n_values() == 60131
        assert [key for key, value in header.items() if holds_float_list(value)] == []
        assert path.stat().st_size - 24 * store.n_values() < 8192

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        prompted, vocab, model = fitted_setup(n=12)

        full_params = M.init_params(model, seed=8)
        full_config = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=4, seed=13)
        full = train_loop(prompted, full_params, full_config, model, vocab)

        half_params = M.init_params(model, seed=8)
        half_config = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=13)
        train_loop(prompted, half_params, half_config, model, vocab)
        path = tmp_path / "half.json"
        checkpoint_save(path, half_params, model, half_config, vocab, CATEGORIES,
                        epochs_completed=2)
        resumed_params, _, _, resumed_vocab, meta = checkpoint_load(path)
        resumed = train_loop(prompted, resumed_params, full_config, model,
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

    def test_batched_scores_match_a_per_example_recount(self):
        prompted, vocab = tiny_setup(n=40, lexicon=80)   # two evaluation batches
        params = M.init_params(TINY_MODEL, seed=11)
        hits = total = 0
        copied, generated = [], []
        for p in prompted:
            gold = TR.target_ids(p, vocab)
            prefix = [P.BOS] + vocab.to_generator_ids(gold[:-1])
            fwd = M.forward_distributions(prefix, M.encode(p.source_ids, params, TINY_MODEL),
                                          params, TINY_MODEL)
            hits += int(np.sum(np.argmax(fwd.p_final.data, axis=1) == gold))
            total += len(gold)
            for gate, g in zip(fwd.p_gen.data[:, 0], gold[:-1]):
                (copied if g in p.source_ids else generated).append(gate)
        assert token_accuracy(prompted, params, TINY_MODEL, vocab) == hits / total
        got = TR.gate_statistics(prompted, params, TINY_MODEL, vocab)
        assert abs(got[0] - np.mean(copied)) < 1e-12
        assert (math.isnan(got[1]) and not generated) or abs(got[1] - np.mean(generated)) < 1e-12


BATCH_MODEL = ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=8, n_heads=2,
                          vocab_size=12, max_source_len=8, max_target_len=6, d_ff=16)
BATCH_VOCAB = TokenVocab([f"w{i}" for i in range(BATCH_MODEL.vocab_size - 4)])


def gradients(params):
    return {name: params[name].grad.copy() for name in params.names()}


class TestBatchedLoss:
    """A padded mini-batch is one graph with the per-example results."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_batch_equals_mean_of_single_examples(self, seed):
        rng = np.random.default_rng(seed)
        batch = random_copy_batch(rng, BATCH_VOCAB, BATCH_MODEL.max_source_len,
                                  BATCH_MODEL.max_target_len)
        params = M.init_params(BATCH_MODEL, seed=int(rng.integers(1 << 31)))
        for name in ("gate.b", "copy.a_raw"):
            params[name].data[:] = rng.normal(size=params[name].data.shape) * 3
        losses, grads = [], []
        for p in batch:
            params.zero_grad()
            loss = teacher_forced_loss([p], params, BATCH_MODEL, BATCH_VOCAB)
            loss.backward()
            losses.append(loss.item())
            grads.append(gradients(params))
        params.zero_grad()
        loss = teacher_forced_loss(batch, params, BATCH_MODEL, BATCH_VOCAB)
        loss.backward()
        assert abs(loss.item() - np.mean(losses)) < 1e-12
        for name, g in gradients(params).items():
            want = np.mean([single[name] for single in grads], axis=0)
            assert np.max(np.abs(g - want), initial=0.0) < 1e-12, name

    def test_padded_rows_match_single_rows_and_extra_columns_are_zero(self):
        params = M.init_params(BATCH_MODEL, seed=3)
        sources = [[4, 13, 6, 12, 7], [5, 12, 0, 0, 0]]   # extended sizes 14 and 13
        prefixes = [[P.BOS, 5, P.UNK], [P.BOS, 0, 0]]
        batched = M.forward_distributions(prefixes, M.encode(sources, params, BATCH_MODEL),
                                          params, BATCH_MODEL)
        assert batched.p_final.data.shape == (2, 3, 14)
        for b, (source, prefix, n_source, n_prefix) in enumerate(
                zip(sources, prefixes, (5, 2), (3, 1))):
            single = M.forward_distributions(
                prefix[:n_prefix], M.encode(source[:n_source], params, BATCH_MODEL),
                params, BATCH_MODEL)
            width = single.p_final.data.shape[1]
            for name in ("p_final", "p_copy"):
                rows = getattr(batched, name).data[b, :n_prefix]
                assert np.max(np.abs(rows[:, :width] - getattr(single, name).data)) < 1e-12
                assert np.all(rows[:, width:] == 0.0)
            for name in ("p_vocab", "p_gen"):
                gap = getattr(batched, name).data[b, :n_prefix] - getattr(single, name).data
                assert np.max(np.abs(gap)) < 1e-12
            assert np.max(np.abs(batched.alpha.data[b, :n_prefix, :n_source]
                                 - single.alpha.data)) < 1e-12
            assert np.all(batched.alpha.data[b, :, n_source:] == 0.0)

    def test_batch_of_eight_builds_few_tensors_and_scans_none(self):
        """One training graph of a batch of 8 on the benchmark copy model's
        shape, counted by wrapping ``Tensor.__init__``.  Copy-only source
        words widen the extended vocabulary past the generator's, which
        costs one ``pad_cols`` node more."""
        config = ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=32, n_heads=2,
                             vocab_size=64, max_source_len=24, max_target_len=14)
        params = M.init_params(config, seed=0)
        vocab = TokenVocab([f"w{i}" for i in range(60)])
        rng = np.random.default_rng(0)
        for oov, cap in (([], 87), (["z"], 88)):
            batch = [make_prompted([int(i) for i in rng.integers(4, 64, size=6)]
                                   + [64] * len(oov), oov=oov,
                                   target_text=" ".join(["w3", "w5"] + oov))
                     for _ in range(8)]
            with tensor_constructions() as built:
                teacher_forced_loss(batch, params, config, vocab)
            assert 0 < len(built) <= cap
            assert not any(built)

    def test_same_seed_runs_write_byte_identical_checkpoints(self, tmp_path):
        paths = []
        for run in range(2):
            prompted, vocab, model = fitted_setup(n=12)
            params = M.init_params(model, seed=4)
            config = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=7)
            train_loop(prompted, params, config, model, vocab)
            paths.append(tmp_path / f"run{run}.json")
            checkpoint_save(paths[-1], params, model, config, vocab, CATEGORIES,
                            epochs_completed=2)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def state_bytes(params):
    return (params.step, [(params[name].data.tobytes(), params.adam_m[name].tobytes(),
                           params.adam_v[name].tobytes()) for name in params.names()])


class TestFiniteStep:
    """Op results are not scanned one by one; a non-finite value still
    stops a training step before Adam and fails decoding."""

    def trained_one_epoch(self):
        prompted, vocab, model = fitted_setup(n=8)
        params = M.init_params(model, seed=6)
        train_loop(prompted, params, TrainConfig(batch_size=4, epochs=1), model, vocab)
        return prompted, vocab, model, params

    def assert_step_refused(self, prompted, vocab, model, params, match, error=ValueError):
        before = state_bytes(params)
        with pytest.raises(error, match=match):
            train_loop(prompted, params, TrainConfig(batch_size=4, epochs=2), model,
                       vocab, start_epoch=1)
        assert state_bytes(params) == before

    def test_nan_parameter(self):
        prompted, vocab, model, params = self.trained_one_epoch()
        params["out.w_v"].data[3, 5] = float("nan")
        self.assert_step_refused(prompted, vocab, model, params, "non-finite")
        with pytest.raises(ValueError):
            M.greedy_decode(prompted[0], params, model)

    def test_nan_input(self, monkeypatch):
        prompted, vocab, model, params = self.trained_one_epoch()
        table = M.sinusoidal_positions(model.max_source_len, model.d_model).copy()
        table[0, 0] = float("nan")
        monkeypatch.setattr(M, "sinusoidal_positions", lambda n, d: table)
        self.assert_step_refused(prompted, vocab, model, params, "non-finite")
        with pytest.raises(ValueError):
            M.greedy_decode(prompted[0], params, model)

    def test_non_finite_gradient_of_a_finite_loss(self, monkeypatch):
        prompted, vocab, model, params = self.trained_one_epoch()
        loss_of = TR.teacher_forced_loss
        gate = params["gate.b"]

        def with_bad_gradient(*args):
            spike = Tensor(0.0, (gate,), lambda g: gate.accumulate_grad(np.full(1, np.inf)))
            return loss_of(*args) + spike

        monkeypatch.setattr(TR, "teacher_forced_loss", with_bad_gradient)
        self.assert_step_refused(prompted, vocab, model, params,
                                 "training diverged at step 3: non-finite gradient for gate.b",
                                 FloatingPointError)


BENCH_SHAPES = {
    "copy": ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=32, n_heads=2,
                        vocab_size=256, max_source_len=24, max_target_len=14),
    "dialog": ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=32, n_heads=2,
                          vocab_size=256, max_source_len=40, max_target_len=8),
}


def oracle_train(prompted, params, config, model_config, vocab):
    """``train_loop``'s steps with the clip and Adam of a store of separate
    arrays, one parameter at a time: the oracle of the flat store.  Each
    step copies the oracle's values into ``params`` for the forward and
    backward pass.  Returns the loss curve, the number of clipped steps
    and the values, first and second moments by name."""
    names = params.names()
    values = {name: params[name].data.copy() for name in names}
    m = {name: np.zeros_like(values[name]) for name in names}
    v = {name: np.zeros_like(values[name]) for name in names}
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, config.learning_rate
    curve, clipped, t = [], 0, 0
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(len(prompted))
        for lo in range(0, len(order), config.batch_size):
            for name in names:
                params[name].data[...] = values[name]
            batch = [prompted[j] for j in order[lo:lo + config.batch_size]]
            loss = teacher_forced_loss(batch, params, model_config, vocab)
            params.zero_grad()
            loss.backward()
            grads = {name: params[name].grad.copy() for name in names}
            total = 0.0
            for g in grads.values():
                total += float((g * g).sum())
            norm = math.sqrt(total)
            if norm > config.clip_norm:
                scale = config.clip_norm / (norm + 1e-12)
                grads = {name: g * scale for name, g in grads.items()}
                clipped += 1
            t += 1
            for name, g in grads.items():
                m[name] = beta1 * m[name] + (1.0 - beta1) * g
                v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
                m_hat = m[name] / (1.0 - beta1 ** t)
                v_hat = v[name] / (1.0 - beta2 ** t)
                values[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            curve.append((epoch, t, loss.item()))
    return curve, clipped, values, m, v


class TestFlatStoreExactness:
    """Clip and Adam over the flat vectors give the bytes of the
    per-parameter clip and Adam, step after step."""

    @pytest.mark.parametrize("shape", ["tiny", "copy", "dialog"])
    def test_training_matches_the_per_parameter_oracle(self, shape):
        if shape == "tiny":
            prompted, vocab, model = fitted_setup(n=12)
        else:
            model = BENCH_SHAPES[shape]
            vocab = TokenVocab([f"w{i}" for i in range(model.vocab_size - 4)])
            rng = np.random.default_rng(21)
            prompted = [p for _ in range(8) for p in random_copy_batch(
                rng, vocab, model.max_source_len, model.max_target_len)]
        config = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=3, seed=3,
                             clip_norm=2.0)
        flat = M.init_params(model, seed=5)
        result = train_loop(prompted, flat, config, model, vocab)
        curve, clipped, values, m, v = oracle_train(prompted, M.init_params(model, seed=5),
                                                    config, model, vocab)
        assert 0 < clipped < len(curve)
        assert result.curve == curve and flat.step == len(curve)
        for name in flat.names():
            for got, want in ((flat[name].data, values[name]), (flat.adam_m[name], m[name]),
                              (flat.adam_v[name], v[name])):
                assert got.tobytes() == want.tobytes(), name


class TestTelemetry:
    def epoch_lines(self, monkeypatch, clip_norm):
        """The epoch lines of a run, and the pre-clip norm of each step."""
        norms = []
        clip = T.ParamStore.clip_grad_norm
        monkeypatch.setattr(T.ParamStore, "clip_grad_norm",
                            lambda store, max_norm: norms.append(clip(store, max_norm))
                            or norms[-1])
        prompted, vocab, model = fitted_setup(n=8)
        params = M.init_params(model, seed=6)
        lines = []
        config = TrainConfig(batch_size=4, epochs=2, clip_norm=clip_norm)
        result = train_loop(prompted, params, config, model, vocab, log=lines.append)
        return lines, result, norms

    def test_epoch_line_reports_max_pre_clip_norm_and_clipped_steps(self, monkeypatch):
        lines, result, norms = self.epoch_lines(monkeypatch, clip_norm=2.9)
        assert len(lines) == 2 and len(norms) == 4
        for epoch, line in enumerate(lines):
            losses = [loss for e, _, loss in result.curve if e == epoch]
            steps = norms[2 * epoch:2 * epoch + 2]
            clipped = sum(norm > 2.9 for norm in steps)
            assert line == (f"epoch {epoch}: mean loss {np.mean(losses):.4f}, max grad norm "
                            f"{max(steps):.4f}, clipped {clipped}/2 steps")
        assert [line[-17:] for line in lines] == ["clipped 1/2 steps", "clipped 0/2 steps"]

    def test_epoch_lines_are_deterministic(self, monkeypatch):
        assert (self.epoch_lines(monkeypatch, clip_norm=1.0)[0]
                == self.epoch_lines(monkeypatch, clip_norm=1.0)[0])


class TestKernelCoverage:
    def test_every_public_kernel_function_is_reached(self, monkeypatch):
        """One training step, one greedy decode and a sampled gradient
        check call every public function of ``pgc.tensor``; a function
        none of them reaches is dead code."""
        called = set()

        def recording(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return wrapper

        public = [name for name, fn in vars(T).items()
                  if inspect.isfunction(fn) and fn.__module__ == T.__name__
                  and not name.startswith("_")]
        for name in public:
            monkeypatch.setattr(T, name, recording(name, getattr(T, name)))
        prompted, vocab, model = fitted_setup(n=4)
        params = M.init_params(model, seed=0)
        train_loop(prompted, params, TrainConfig(learning_rate=1e-3, batch_size=4, epochs=1),
                   model, vocab)
        M.greedy_decode(prompted[0], params, model)
        TR.gradcheck(0, max_coords_per_param=1)
        assert sorted(public) == [
            "adam_step", "add", "as_tensor", "attention", "concat", "contract_first",
            "embed_rows", "grad_check", "layer_norm", "matmul", "mul", "no_grad", "pad_cols",
            "relu", "reshape", "scatter_add_cols", "sequence_nll", "sigmoid", "softmax"]
        assert sorted(set(public) - called) == []

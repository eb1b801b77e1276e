"""Encoder stack, copy head, gate, mixture, decoding, attention export."""

import csv
import math
from dataclasses import asdict

import numpy as np
import pytest

from pgc import model as M
from pgc import tensor as T
from pgc.model import EncoderStack, ModelConfig
from pgc.prompt import BOS, EOS, PAD, UNK
from pgc.tensor import ParamStore, Tensor

from helpers import make_prompted, random_small_config


def manual_stack(layer_arrays, ext_ids=None, extended_size=None):
    """EncoderStack from raw arrays, for head-level unit tests."""
    n = layer_arrays[0].shape[0]
    ext = np.arange(4, 4 + n) if ext_ids is None else np.asarray(ext_ids)
    return EncoderStack(
        layers=[Tensor(a) for a in layer_arrays],
        attn_maps=[],
        pad_mask=np.zeros(n, dtype=bool),
        source_ext_ids=ext,
        extended_size=extended_size or int(ext.max()) + 1,
    )


class TestModelConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, n_heads=4)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(n_enc_layers=0)

    def test_default_key_dim(self):
        assert ModelConfig(d_model=64, n_heads=4).copy_d_k == 16
        assert ModelConfig(d_model=64, n_heads=4, d_k=8).copy_d_k == 8

    def test_round_trip(self):
        config = ModelConfig(d_model=16, n_heads=2)
        assert ModelConfig(**asdict(config)) == config


class TestEncode:
    def test_single_token_source(self, small_params, small_config):
        stack = M.encode([4], small_params, small_config)
        assert all(layer.data.shape == (1, small_config.d_model)
                   for layer in stack.layers)

    def test_layer_count_matches_config(self):
        for n in (1, 2, 6):
            config = ModelConfig(n_enc_layers=n, n_dec_layers=1, d_model=8,
                                 n_heads=2, vocab_size=12, max_source_len=8,
                                 max_target_len=8, d_ff=16)
            params = M.init_params(config, seed=0)
            stack = M.encode([4, 5], params, config)
            assert len(stack.layers) == n
            assert len(stack.attn_maps) == n
            assert all(len(maps) == config.n_heads for maps in stack.attn_maps)

    def test_padding_does_not_change_unpadded_outputs(self, small_params, small_config):
        plain = M.encode([4, 5, 6], small_params, small_config)
        padded = M.encode([4, 5, 6, PAD, PAD], small_params, small_config)
        for a, b in zip(plain.layers, padded.layers):
            assert np.max(np.abs(a.data - b.data[:3])) < 1e-6

    def test_empty_source_rejected(self, small_params, small_config):
        with pytest.raises(ValueError):
            M.encode([], small_params, small_config)

    def test_over_length_source_rejected(self, small_params, small_config):
        with pytest.raises(ValueError):
            M.encode([4] * (small_config.max_source_len + 1), small_params, small_config)

    def test_all_padding_rejected(self, small_params, small_config):
        with pytest.raises(ValueError):
            M.encode([PAD, PAD], small_params, small_config)

    def test_extended_ids_embed_like_unk(self, small_params, small_config):
        ext = M.encode([4, small_config.vocab_size + 3], small_params, small_config)
        unk = M.encode([4, UNK], small_params, small_config)
        assert np.array_equal(ext.layers[-1].data, unk.layers[-1].data)


def plain_attention(state, hidden, w_s, w_h, pad_mask):
    """Independent single-view scaled dot-product attention oracle."""
    dk = w_s.shape[1]
    q = state @ w_s
    keys = hidden @ w_h
    logits = keys @ q / math.sqrt(dk)
    logits = np.where(pad_mask, -np.inf, logits)
    e = np.exp(logits - logits[~pad_mask].max())
    e = np.where(pad_mask, 0.0, e)
    return e / e.sum()


class TestCopyAttention:
    def test_single_layer_reduces_to_plain_attention(self):
        rng = np.random.default_rng(0)
        d, dk, length = 6, 3, 5
        hidden = rng.normal(size=(length, d))
        state = rng.normal(size=d)
        store = ParamStore()
        w_s = store.add("copy.w_s", rng.normal(size=(d, dk)))
        w_h = store.add("copy.w_h0", rng.normal(size=(d, dk)))
        store.add("copy.a_raw", np.zeros(1))
        stack = manual_stack([hidden])
        got = M.copy_attention(state, stack, store)
        want = plain_attention(state, hidden, w_s.data, w_h.data, stack.pad_mask)
        assert np.max(np.abs(got.data - want)) < 1e-10

    def test_equal_logits_give_uniform_attention(self):
        rng = np.random.default_rng(1)
        d, dk = 4, 2
        row = rng.normal(size=d)
        hidden = np.stack([row, row])  # identical source positions
        store = ParamStore()
        store.add("copy.w_s", rng.normal(size=(d, dk)))
        store.add("copy.w_h0", rng.normal(size=(d, dk)))
        store.add("copy.a_raw", np.zeros(1))
        got = M.copy_attention(rng.normal(size=d), manual_stack([hidden]), store)
        assert np.allclose(got.data, [0.5, 0.5], atol=1e-12)

    def test_two_views_combine_convexly(self):
        # per-layer attentions are exactly [1,0] and [0,1]; weights 1/4, 3/4
        store = ParamStore()
        store.add("copy.w_s", np.array([[1.0]]))
        store.add("copy.w_h0", np.array([[1.0]]))
        store.add("copy.w_h1", np.array([[1.0]]))
        store.add("copy.a_raw", np.log([0.25, 0.75]))
        stack = manual_stack([np.array([[1000.0], [0.0]]),
                              np.array([[0.0], [1000.0]])])
        got = M.copy_attention(np.array([1.0]), stack, store)
        assert np.allclose(got.data, [0.25, 0.75], atol=1e-12)

    def test_rows_are_distributions_and_pads_are_zero(self, small_params, small_config):
        stack = M.encode([4, 5, 6, PAD], small_params, small_config)
        states = np.random.default_rng(2).normal(size=(3, small_config.d_model))
        alpha = M.copy_attention(states, stack, small_params)
        assert np.allclose(alpha.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(alpha.data[:, 3] == 0.0)

    def test_layer_weights_stay_on_the_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            store = ParamStore()
            store.add("copy.a_raw", rng.normal(size=rng.integers(1, 7)) * 5)
            w = M.layer_weights(store).data
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-9

    def test_empty_stack_rejected(self, small_params):
        empty = EncoderStack(layers=[], attn_maps=[], pad_mask=np.zeros(0, bool),
                             source_ext_ids=np.zeros(0, np.int64), extended_size=12)
        with pytest.raises(ValueError):
            M.copy_attention(np.zeros(8), empty, small_params)


class TestScatterCopy:
    def test_repeated_tokens_accumulate(self):
        got = M.scatter_copy(np.array([0.2, 0.5, 0.3]), [7, 8, 7], 10)
        assert got.data[7] == pytest.approx(0.5)
        assert got.data[8] == pytest.approx(0.5)
        assert got.data.sum() == pytest.approx(1.0)

    def test_distinct_tokens_reindex_alpha(self):
        alpha = np.array([0.1, 0.6, 0.3])
        got = M.scatter_copy(alpha, [5, 2, 9], 10)
        assert got.data[5] == 0.1 and got.data[2] == 0.6 and got.data[9] == 0.3

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            width = int(rng.integers(4, 10))
            ids = rng.integers(0, width, size=n)
            alpha = rng.dirichlet(np.ones(n))
            got = M.scatter_copy(alpha, ids, width).data
            # brute force: one explicit sum per vocabulary entry
            want = np.array([sum(alpha[l] for l in range(n) if ids[l] == v)
                             for v in range(width)])
            assert np.array_equal(got, want)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            M.scatter_copy(np.array([0.5, 0.5]), [1], 4)


class TestGenerationGate:
    def test_zero_parameters_give_half(self):
        store = ParamStore()
        store.add("gate.w_c", np.zeros(4))
        store.add("gate.w_s", np.zeros(4))
        store.add("gate.b", np.zeros(1))
        stack = manual_stack([np.random.default_rng(0).normal(size=(3, 4))])
        gate = M.generation_gate(np.zeros(4), np.array([0.2, 0.3, 0.5]), stack, store)
        assert gate.data[0] == 0.5

    def test_large_bias_saturates_towards_generation(self):
        store = ParamStore()
        store.add("gate.w_c", np.zeros(4))
        store.add("gate.w_s", np.zeros(4))
        store.add("gate.b", np.full(1, 1e9))
        stack = manual_stack([np.ones((2, 4))])
        gate = M.generation_gate(np.zeros(4), np.array([0.5, 0.5]), stack, store)
        assert gate.data[0] > 1.0 - 1e-9
        assert gate.data[0] < 1.0

    def test_two_position_case_matches_hand_arithmetic(self):
        store = ParamStore()
        store.add("gate.w_c", np.array([0.1, -0.2]))
        store.add("gate.w_s", np.array([0.05, 0.02]))
        store.add("gate.b", np.array([0.3]))
        hidden = np.array([[1.0, 2.0], [3.0, 4.0]])
        alpha = np.array([0.3, 0.7])
        state = np.array([0.5, -1.0])
        context = 0.3 * hidden[0] + 0.7 * hidden[1]
        logit = (0.1 * context[0] - 0.2 * context[1]
                 + 0.05 * state[0] + 0.02 * state[1] + 0.3)
        want = 1.0 / (1.0 + math.exp(-logit))
        got = M.generation_gate(state, alpha, manual_stack([hidden]), store)
        assert abs(got.data[0] - want) < 1e-12


class TestVocabDistribution:
    def make_store(self, d, v, w=None, b=None):
        store = ParamStore()
        store.add("out.w_v", np.zeros((d, v)) if w is None else w)
        store.add("out.b_v", np.zeros(v) if b is None else b)
        return store

    def test_zero_parameters_give_uniform(self):
        got = M.vocab_distribution(np.ones(3), self.make_store(3, 5))
        assert np.allclose(got.data, 0.2, atol=1e-12)

    def test_argmax_invariant_under_logit_shift(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 5))
        state = rng.normal(size=3)
        base = M.vocab_distribution(state, self.make_store(3, 5, w=w))
        shifted = M.vocab_distribution(state, self.make_store(3, 5, w=w,
                                                              b=np.full(5, 3.7)))
        assert np.argmax(base.data) == np.argmax(shifted.data)

    def test_three_way_hand_softmax(self):
        w = np.array([[1.0, 0.0, -1.0]])
        got = M.vocab_distribution(np.array([2.0]), self.make_store(1, 3, w=w))
        z = np.array([2.0, 0.0, -2.0])
        want = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        assert np.max(np.abs(got.data - want)) < 1e-12


class TestMix:
    def test_pure_generation(self):
        got = M.mix(1.0, np.array([0.25, 0.75]), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(got.data, [0.25, 0.75, 0.0], atol=1e-12)

    def test_pure_copy(self):
        got = M.mix(0.0, np.array([0.25, 0.75]), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(got.data, [0.0, 0.0, 1.0], atol=1e-12)

    def test_interpolation_arithmetic(self):
        got = M.mix(0.4, np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert got.data[0] == pytest.approx(0.4 * 0.5 + 0.6 * 0.25)

    def test_extended_slots_get_no_generation_mass(self):
        got = M.mix(1.0, np.array([0.5, 0.5]), np.array([0.0, 0.0, 0.5, 0.5]))
        assert np.array_equal(got.data[2:], [0.0, 0.0])

    def test_copy_side_narrower_than_vocab_rejected(self):
        with pytest.raises(ValueError):
            M.mix(0.5, np.array([0.5, 0.5]), np.array([1.0]))


class TestDecodeStep:
    """The next-token distributions: the last row of a full pass."""

    def test_deterministic(self, small_params, small_config):
        stack = M.encode([4, 5, 13], small_params, small_config)
        a = M.forward_distributions([BOS, 4], stack, small_params, small_config)
        b = M.forward_distributions([BOS, 4], stack, small_params, small_config)
        assert np.array_equal(a.p_final.data[-1], b.p_final.data[-1])
        assert a.p_gen.data[-1, 0] == b.p_gen.data[-1, 0]

    def test_invariants_over_random_draws(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            config = random_small_config(rng)
            params = M.init_params(config, seed=int(rng.integers(1 << 31)))
            length = int(rng.integers(1, 9))
            n_oov = int(rng.integers(0, 3))
            ids = list(rng.integers(4, config.vocab_size + n_oov, size=length))
            stack = M.encode(ids, params, config)
            prefix = [BOS] + list(rng.integers(4, config.vocab_size,
                                               size=int(rng.integers(0, 4))))
            fwd = M.forward_distributions(prefix, stack, params, config)
            p_final, p_gen = fwd.p_final.data[-1], fwd.p_gen.data[-1, 0]
            assert abs(p_final.sum() - 1.0) < 1e-6
            assert np.all(p_final >= 0.0)
            assert abs(fwd.alpha.data[-1].sum() - 1.0) < 1e-6
            assert 0.0 < p_gen < 1.0

    def test_copy_only_argmax_is_a_source_id(self, small_config):
        params = M.init_params(small_config, seed=7)
        params["gate.b"].data[:] = -1e9  # force the copy path
        source = [5, 9, 13, 6]
        stack = M.encode(source, params, small_config)
        fwd = M.forward_distributions([BOS], stack, params, small_config)
        assert int(np.argmax(fwd.p_final.data[-1])) in set(source)

    def test_over_length_prefix_rejected(self, small_params, small_config):
        stack = M.encode([4, 5], small_params, small_config)
        with pytest.raises(ValueError):
            M.forward_distributions([BOS] * (small_config.max_target_len + 1),
                                    stack, small_params, small_config)


def copy_wired_params(config):
    """Zero transformer + identity copy maps: attention follows position."""
    store = M.init_params(config, seed=0)
    for name, t in store.items():
        if name.startswith(("enc", "dec")) and not name.endswith(".g"):
            t.data[:] = 0.0
        if name == "embed":
            t.data[:] = 0.0
    store["copy.w_s"].data[:] = np.eye(config.d_model) * 40.0
    for i in range(config.n_enc_layers):
        store[f"copy.w_h{i}"].data[:] = np.eye(config.d_model)
    store["gate.b"].data[:] = -1e9
    return store


class TestGreedyDecode:
    wired_config = ModelConfig(n_enc_layers=2, n_dec_layers=2, d_model=16,
                               n_heads=2, d_k=16, vocab_size=12,
                               max_source_len=12, max_target_len=12)

    def test_copy_wired_model_reproduces_source_prefix(self):
        params = copy_wired_params(self.wired_config)
        source = [4, 7, 5, 9, 6, 8]
        out = M.greedy_decode(make_prompted(source), params, self.wired_config,
                              max_len=5)
        assert out == source[:5]

    def test_copy_wired_model_emits_extended_ids(self):
        params = copy_wired_params(self.wired_config)
        source = [4, 13, 14, 5]  # two source-only ids past the vocabulary
        out = M.greedy_decode(make_prompted(source, oov=["x", "y"]),
                              params, self.wired_config, max_len=4)
        assert out == source

    def test_max_len_one_emits_at_most_one_token(self, small_params, small_config):
        out = M.greedy_decode(make_prompted([4, 5, 6]), small_params,
                              small_config, max_len=1)
        assert len(out) <= 1

    def test_exact_tie_breaks_to_lowest_id(self, small_config):
        # zeroed weights make the copy attention exactly uniform; equal
        # vocabulary biases on ids 6 and 9 tie the two paths bit-for-bit
        params = M.init_params(small_config, seed=0)
        for name, t in params.items():
            t.data[:] = 0.0 if not name.endswith(".g") else 1.0
        params["out.b_v"].data[6] = 1000.0
        params["out.b_v"].data[9] = 1000.0
        out = M.greedy_decode(make_prompted([6, 9]), params, small_config, max_len=3)
        assert out == [6, 6, 6]

    def test_stops_at_eos(self, small_config):
        params = M.init_params(small_config, seed=0)
        params["gate.b"].data[:] = 1e9
        params["out.b_v"].data[:] = 0.0
        params["out.b_v"].data[EOS] = 1e4
        out = M.greedy_decode(make_prompted([4, 5]), params, small_config)
        assert out == []


class TestExportAttention:
    def test_csv_rows_are_distributions(self, small_params, small_config, tmp_path):
        tokens = ["alpha", "beta", "gamma", "delta"]
        paths = M.export_attention(tokens, [4, 5, 6, 7], small_params, small_config,
                                   layer=1, heads=[0, 1], out_dir=tmp_path)
        assert len(paths) == 2
        for path in paths:
            rows = list(csv.reader(path.read_text().splitlines()))
            assert rows[0] == [""] + tokens
            assert len(rows) == 1 + len(tokens)
            for row in rows[1:]:
                assert row[0] in tokens
                assert abs(sum(float(v) for v in row[1:]) - 1.0) < 1e-6

    def test_matrix_shape_is_square_in_source_length(self, small_params, small_config):
        stack = M.encode([4, 5, 6], small_params, small_config)
        assert stack.attn_maps[0][0].shape == (3, 3)

    def test_bad_layer_or_head_rejected(self, small_params, small_config, tmp_path):
        with pytest.raises(ValueError):
            M.export_attention(["a"], [4], small_params, small_config,
                               layer=9, heads=[0], out_dir=tmp_path)
        with pytest.raises(ValueError):
            M.export_attention(["a"], [4], small_params, small_config,
                               layer=0, heads=[5], out_dir=tmp_path)

"""Encoder stack, copy head, gate, mixture, decoding, attention maps."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from pgc import model as M
from pgc import tensor as T
from pgc.model import EncoderStack, ModelConfig
from pgc.prompt import BOS, EOS, PAD, UNK, rationale_span
from pgc.tensor import Tensor

from helpers import (make_prompted, one_position_decode, random_model_draws, rationale_draft,
                     random_small_config, store_of, tensor_constructions, weighted_total)


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


def former_init_params(config, seed):
    """``init_params`` as it was written before ``param_shapes``: the
    reference for the draw order."""
    rng = np.random.default_rng(seed)
    d, v, dff, dk = config.d_model, config.vocab_size, config.ffn_dim, config.copy_d_k

    def glorot(n_in, n_out):
        limit = math.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-limit, limit, size=(n_in, n_out))

    arrays = {"embed": rng.normal(0.0, 0.02, size=(v, d))}

    def add_attention(prefix):
        for name in ("wq", "wk", "wv", "wo"):
            arrays[f"{prefix}.{name}"] = glorot(d, d)

    def add_block(prefix, n_norms):
        arrays[f"{prefix}.ffn.w1"] = glorot(d, dff)
        arrays[f"{prefix}.ffn.b1"] = np.zeros(dff)
        arrays[f"{prefix}.ffn.w2"] = glorot(dff, d)
        arrays[f"{prefix}.ffn.b2"] = np.zeros(d)
        for k in range(1, n_norms + 1):
            arrays[f"{prefix}.ln{k}.g"] = np.ones(d)
            arrays[f"{prefix}.ln{k}.b"] = np.zeros(d)

    for i in range(config.n_enc_layers):
        add_attention(f"enc{i}.self")
        add_block(f"enc{i}", n_norms=2)
    for i in range(config.n_dec_layers):
        add_attention(f"dec{i}.self")
        add_attention(f"dec{i}.cross")
        add_block(f"dec{i}", n_norms=3)
    arrays["copy.w_s"] = glorot(d, dk)
    for i in range(config.n_enc_layers):
        arrays[f"copy.w_h{i}"] = glorot(d, dk)
    arrays["copy.a_raw"] = np.zeros(config.n_enc_layers)
    arrays["gate.w_c"] = np.zeros(d)
    arrays["gate.w_s"] = np.zeros(d)
    arrays["gate.b"] = np.zeros(1)
    arrays["out.w_v"] = glorot(d, v)
    arrays["out.b_v"] = np.zeros(v)
    return arrays


class TestInitParams:
    def test_byte_equal_to_the_former_draws(self):
        """The desk shape, the benchmark's shape (its two workloads differ
        only in length limits, which hold no parameters) and random small
        shapes, each at two seeds: names, shapes and bytes unchanged, and
        ``param_shapes`` is the store's layout."""
        bench = ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=32, n_heads=2,
                            vocab_size=256, max_source_len=24, max_target_len=14)
        rng = np.random.default_rng(8)
        configs = [ModelConfig(), bench, replace(bench, max_source_len=40, max_target_len=8),
                   ModelConfig(d_model=16, n_heads=2, d_k=8, d_ff=24, vocab_size=20),
                   *(random_small_config(rng) for _ in range(20))]
        for config in configs:
            for seed in (0, 3):
                store, want = M.init_params(config, seed), former_init_params(config, seed)
                assert list(M.param_shapes(config).items()) == [(n, a.shape)
                                                                for n, a in want.items()]
                assert store.names() == list(want)
                assert store.flat.tobytes() == b"".join(a.tobytes() for a in want.values())


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


def per_layer_copy_attention(states, stack, params):
    """The copy head as a loop over encoder layers: one attention op per
    layer's own keys, weighted by that layer's entry of ``layer_weights``
    and summed in layer order."""
    n = len(stack.layers)
    q = states @ params["copy.w_s"]
    weights = M.layer_weights(params)
    alpha = None
    for i, layer in enumerate(stack.layers):
        view, _ = T.attention(q, layer @ params[f"copy.w_h{i}"], None,
                              stack.pad_mask[..., None, :])
        view = T.reshape(view, states.data.shape[:-1] + (view.data.shape[-1],))
        term = view * weighted_total(weights, np.eye(n)[i])
        alpha = term if alpha is None else alpha + term
    return alpha


class TestCopyAttention:
    def test_single_layer_reduces_to_plain_attention(self):
        rng = np.random.default_rng(0)
        d, dk, length = 6, 3, 5
        hidden = rng.normal(size=(length, d))
        state = rng.normal(size=d)
        store = store_of({"copy.w_s": rng.normal(size=(d, dk)),
                          "copy.w_h0": rng.normal(size=(d, dk)), "copy.a_raw": np.zeros(1)})
        w_s, w_h = store["copy.w_s"], store["copy.w_h0"]
        stack = manual_stack([hidden])
        got = M.copy_attention(Tensor(state[None]), stack, store)
        want = plain_attention(state, hidden, w_s.data, w_h.data, stack.pad_mask)
        assert got.data.shape == (1, length)
        assert np.max(np.abs(got.data[0] - want)) < 1e-10

    def test_equal_logits_give_uniform_attention(self):
        rng = np.random.default_rng(1)
        d, dk = 4, 2
        row = rng.normal(size=d)
        hidden = np.stack([row, row])  # identical source positions
        store = store_of({"copy.w_s": rng.normal(size=(d, dk)),
                          "copy.w_h0": rng.normal(size=(d, dk)), "copy.a_raw": np.zeros(1)})
        got = M.copy_attention(Tensor(rng.normal(size=(1, d))), manual_stack([hidden]), store)
        assert np.allclose(got.data, [[0.5, 0.5]], atol=1e-12)

    def test_two_views_combine_convexly(self):
        # per-layer attentions are exactly [1,0] and [0,1]; weights 1/4, 3/4
        store = store_of({"copy.w_s": np.array([[1.0]]), "copy.w_h0": np.array([[1.0]]),
                          "copy.w_h1": np.array([[1.0]]), "copy.a_raw": np.log([0.25, 0.75])})
        stack = manual_stack([np.array([[1000.0], [0.0]]),
                              np.array([[0.0], [1000.0]])])
        got = M.copy_attention(Tensor([[1.0]]), stack, store)
        assert np.allclose(got.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_are_distributions_and_pads_are_zero(self, small_params, small_config):
        stack = M.encode([4, 5, 6, PAD], small_params, small_config)
        states = Tensor(np.random.default_rng(2).normal(size=(3, small_config.d_model)))
        alpha = M.copy_attention(states, stack, small_params)
        assert np.allclose(alpha.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(alpha.data[:, 3] == 0.0)

    def test_layer_weights_stay_on_the_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            store = store_of({"copy.a_raw": rng.normal(size=rng.integers(1, 7)) * 5})
            w = M.layer_weights(store).data
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("n_layers", [1, 2, 3, 4])
    def test_stacked_head_matches_the_per_layer_sum(self, n_layers):
        """One attention op over the stacked keys and one contraction give
        the per-layer loop's rows within 1e-12 relative, and gradients
        within 1e-12 of the largest; only the order of the sum over
        layers may differ."""
        rng = np.random.default_rng(20 + n_layers)
        d, dk, batch, rows, length = 6, 3, 3, 2, 5
        pad_mask = np.zeros((batch, length), dtype=bool)
        pad_mask[1, 3:] = pad_mask[2, 4] = True
        upstream = rng.normal(size=(batch, rows, length))
        arrays = {"copy.w_s": rng.normal(size=(d, dk)), "copy.a_raw": rng.normal(size=n_layers),
                  **{f"copy.w_h{i}": rng.normal(size=(d, dk)) for i in range(n_layers)}}
        hidden = rng.normal(size=(n_layers, batch, length, d))
        states = rng.normal(size=(batch, rows, d))
        results = []
        for head in (M.copy_attention, per_layer_copy_attention):
            store = store_of(arrays)
            stack = EncoderStack(layers=[Tensor(h) for h in hidden], attn_maps=[],
                                 pad_mask=pad_mask, source_ext_ids=np.full((batch, length), 4),
                                 extended_size=5)
            s = Tensor(states)
            alpha = head(s, stack, store)
            weighted_total(alpha, upstream).backward()
            grads = [store[name].grad for name in arrays] + [s.grad]
            results.append((alpha.data, grads + [layer.grad for layer in stack.layers]))
        (got, got_grads), (want, want_grads) = results
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.all(got[pad_mask[:, None, :].repeat(rows, axis=1)] == 0.0)
        scale = max(np.max(np.abs(g)) for g in want_grads)
        for a, b in zip(got_grads, want_grads):
            assert np.max(np.abs(a - b)) <= 1e-12 * scale

    def test_empty_stack_rejected(self, small_params):
        empty = EncoderStack(layers=[], attn_maps=[], pad_mask=np.zeros(0, bool),
                             source_ext_ids=np.zeros(0, np.int64), extended_size=12)
        with pytest.raises(ValueError):
            M.copy_attention(Tensor(np.zeros((1, 8))), empty, small_params)


class TestKeyMask:
    def test_present_only_when_a_position_is_padding(self, small_params, small_config):
        assert M.encode([4, 5, 6], small_params, small_config).key_mask is None
        assert M.encode([[4, 5, 6], [7, 8, 9]], small_params, small_config).key_mask is None
        padded = M.encode([[4, 5, 6], [7, PAD, PAD]], small_params, small_config)
        assert padded.key_mask.tolist() == [[[False] * 3], [[False, True, True]]]
        assert manual_stack([np.zeros((3, 4))]).key_mask is None

    def test_a_forced_all_false_mask_changes_no_bit(self):
        """Over criterion 4's draws, a stack whose ``key_mask`` is forced
        to the unpadded source's all-False mask gives the same
        distributions and parameter gradients, bit for bit."""
        for config, params, source, prefix in random_model_draws(seed=42, n=300):
            results = []
            for forced in (False, True):
                params.zero_grad()
                stack = M.encode(source, params, config)
                assert stack.key_mask is None
                if forced:
                    stack.key_mask = stack.pad_mask[..., None, :]
                fwd = M.forward_distributions(prefix, stack, params, config)
                T.sequence_nll(fwd.p_final, prefix[1:] + [EOS]).backward()
                results.append([fwd.p_final.data, fwd.alpha.data, fwd.p_gen.data,
                                params.flat_grad.copy()])
            for got, want in zip(*results):
                assert np.array_equal(got, want)


class TestScatterCopy:
    def test_repeated_tokens_accumulate(self):
        got = M.scatter_copy(Tensor([[0.2, 0.5, 0.3]]), [7, 8, 7], 10)
        assert got.data.shape == (1, 10)
        assert got.data[0, 7] == pytest.approx(0.5)
        assert got.data[0, 8] == pytest.approx(0.5)
        assert got.data.sum() == pytest.approx(1.0)

    def test_distinct_tokens_reindex_alpha(self):
        alpha = Tensor([[0.1, 0.6, 0.3]])
        got = M.scatter_copy(alpha, [5, 2, 9], 10).data[0]
        assert got[5] == 0.1 and got[2] == 0.6 and got[9] == 0.3

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            width = int(rng.integers(4, 10))
            ids = rng.integers(0, width, size=n)
            alpha = rng.dirichlet(np.ones(n))
            got = M.scatter_copy(Tensor(alpha[None]), ids, width).data[0]
            # brute force: one explicit sum per vocabulary entry
            want = np.array([sum(alpha[l] for l in range(n) if ids[l] == v)
                             for v in range(width)])
            assert np.array_equal(got, want)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            M.scatter_copy(Tensor([[0.5, 0.5]]), [1], 4)


class TestGenerationGate:
    def test_zero_parameters_give_half(self):
        store = store_of({"gate.w_c": np.zeros(4), "gate.w_s": np.zeros(4),
                          "gate.b": np.zeros(1)})
        stack = manual_stack([np.random.default_rng(0).normal(size=(3, 4))])
        gate = M.generation_gate(Tensor(np.zeros((1, 4))), Tensor([[0.2, 0.3, 0.5]]), stack,
                                 store)
        assert gate.data.shape == (1, 1)
        assert gate.data[0, 0] == 0.5

    def test_large_bias_saturates_towards_generation(self):
        store = store_of({"gate.w_c": np.zeros(4), "gate.w_s": np.zeros(4),
                          "gate.b": np.full(1, 1e9)})
        stack = manual_stack([np.ones((2, 4))])
        gate = M.generation_gate(Tensor(np.zeros((1, 4))), Tensor([[0.5, 0.5]]), stack, store)
        assert gate.data[0, 0] > 1.0 - 1e-9
        assert gate.data[0, 0] < 1.0

    def test_two_position_case_matches_hand_arithmetic(self):
        store = store_of({"gate.w_c": np.array([0.1, -0.2]),
                          "gate.w_s": np.array([0.05, 0.02]), "gate.b": np.array([0.3])})
        hidden = np.array([[1.0, 2.0], [3.0, 4.0]])
        alpha = np.array([0.3, 0.7])
        state = np.array([0.5, -1.0])
        context = 0.3 * hidden[0] + 0.7 * hidden[1]
        logit = (0.1 * context[0] - 0.2 * context[1]
                 + 0.05 * state[0] + 0.02 * state[1] + 0.3)
        want = 1.0 / (1.0 + math.exp(-logit))
        got = M.generation_gate(Tensor(state[None]), Tensor(alpha[None]),
                                manual_stack([hidden]), store)
        assert abs(got.data[0, 0] - want) < 1e-12


class TestVocabDistribution:
    def make_store(self, d, v, w=None, b=None):
        return store_of({"out.w_v": np.zeros((d, v)) if w is None else w,
                         "out.b_v": np.zeros(v) if b is None else b})

    def test_zero_parameters_give_uniform(self):
        got = M.vocab_distribution(Tensor(np.ones((1, 3))), self.make_store(3, 5))
        assert got.data.shape == (1, 5)
        assert np.allclose(got.data, 0.2, atol=1e-12)

    def test_argmax_invariant_under_logit_shift(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 5))
        state = Tensor(rng.normal(size=(1, 3)))
        base = M.vocab_distribution(state, self.make_store(3, 5, w=w))
        shifted = M.vocab_distribution(state, self.make_store(3, 5, w=w,
                                                              b=np.full(5, 3.7)))
        assert np.argmax(base.data) == np.argmax(shifted.data)

    def test_three_way_hand_softmax(self):
        w = np.array([[1.0, 0.0, -1.0]])
        got = M.vocab_distribution(Tensor([[2.0]]), self.make_store(1, 3, w=w))
        z = np.array([2.0, 0.0, -2.0])
        want = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        assert np.max(np.abs(got.data[0] - want)) < 1e-12


def mix_rows(p_gen, p_vocab, p_copy):
    """``M.mix`` on one row: a gate value and two distributions."""
    return M.mix(Tensor([[p_gen]]), Tensor([p_vocab]), Tensor([p_copy])).data[0]


class TestMix:
    def test_pure_generation(self):
        got = mix_rows(1.0, [0.25, 0.75], [1.0, 0.0, 0.0])
        assert np.allclose(got, [0.25, 0.75, 0.0], atol=1e-12)

    def test_pure_copy(self):
        got = mix_rows(0.0, [0.25, 0.75], [0.0, 0.0, 1.0])
        assert np.allclose(got, [0.0, 0.0, 1.0], atol=1e-12)

    def test_interpolation_arithmetic(self):
        got = mix_rows(0.4, [0.5, 0.5], [0.25, 0.75])
        assert got[0] == pytest.approx(0.4 * 0.5 + 0.6 * 0.25)

    def test_extended_slots_get_no_generation_mass(self):
        got = mix_rows(1.0, [0.5, 0.5], [0.0, 0.0, 0.5, 0.5])
        assert np.array_equal(got[2:], [0.0, 0.0])

    def test_copy_side_narrower_than_vocab_rejected(self):
        with pytest.raises(ValueError):
            mix_rows(0.5, [0.5, 0.5], [1.0])


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
        cache = M.DecoderCache()
        for _ in range(small_config.max_target_len):
            M.forward_distributions([BOS], stack, small_params, small_config, cache)
        with pytest.raises(ValueError):
            M.forward_distributions([BOS], stack, small_params, small_config, cache)


def per_head_attention(x_query, x_keyval, w, n_heads, key_mask):
    """Independent multi-head attention oracle: one head at a time."""
    head_dim = x_query.shape[1] // n_heads
    q, k, v = x_query @ w["wq"], x_keyval @ w["wk"], x_keyval @ w["wv"]
    outputs = []
    for h in range(n_heads):
        cols = slice(h * head_dim, (h + 1) * head_dim)
        logits = q[:, cols] @ k[:, cols].T / math.sqrt(head_dim)
        logits = np.where(key_mask, -np.inf, logits)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        outputs.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    return np.concatenate(outputs, axis=1) @ w["wo"]


class TestFusedAttention:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_matches_per_head_oracle(self, n_heads, masked):
        rng = np.random.default_rng(n_heads)
        config = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=8, n_heads=n_heads,
                             vocab_size=12, max_source_len=8, max_target_len=8)
        params = M.init_params(config, seed=3)
        x_query, x_keyval = rng.normal(size=(3, 8)), rng.normal(size=(5, 8))
        key_mask = np.array([False, masked, False, False, masked])
        keys, values = M._keys_values(Tensor(x_keyval), "dec0.cross", params)
        out, weights = M._multi_head_attention(Tensor(x_query), keys, values, "dec0.cross",
                                               params, config, key_mask[None, :])
        w = {name: params[f"dec0.cross.{name}"].data for name in ("wq", "wk", "wv", "wo")}
        want = per_head_attention(x_query, x_keyval, w, n_heads, key_mask)
        assert np.max(np.abs(out.data - want)) < 1e-12
        assert weights.shape == (n_heads, 3, 5)
        assert np.all(weights[:, :, key_mask] == 0.0)


class TestIncrementalDecoding:
    def test_cached_steps_match_full_prefix_rows(self):
        """Over criterion 4's draws, feeding one id at a time against a
        decoder cache in no-grad mode gives the rows of the full pass."""
        worst = 0.0
        for config, params, source, prefix in random_model_draws(seed=42, n=1000):
            full = M.forward_distributions(prefix, M.encode(source, params, config),
                                           params, config)
            with T.no_grad():
                stack = M.encode(source, params, config)
                cache = M.DecoderCache()
                for t, token in enumerate(prefix):
                    step = M.forward_distributions([token], stack, params, config, cache)
                    for name in ("p_final", "alpha", "p_gen"):
                        gap = np.abs(getattr(step, name).data[0] - getattr(full, name).data[t])
                        worst = max(worst, float(gap.max()))
            assert cache.length == len(prefix)
            assert step.p_final._parents == ()
        assert worst < 1e-12


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
        out = M.greedy_decode(make_prompted(source), params,
                              replace(self.wired_config, max_target_len=5))
        assert out == source[:5]

    def test_copy_wired_model_emits_extended_ids(self):
        params = copy_wired_params(self.wired_config)
        source = [4, 13, 14, 5]  # two source-only ids past the vocabulary
        out = M.greedy_decode(make_prompted(source, oov=["x", "y"]),
                              params, replace(self.wired_config, max_target_len=4))
        assert out == source

    def test_max_len_one_emits_at_most_one_token(self, small_params, small_config):
        out = M.greedy_decode(make_prompted([4, 5, 6]), small_params,
                              replace(small_config, max_target_len=1))
        assert len(out) <= 1

    def test_max_len_is_bounded_by_max_target_len(self, small_config):
        config = replace(small_config, max_target_len=4)
        params = M.init_params(config, seed=0)
        params["gate.b"].data[:] = 1e9
        params["out.b_v"].data[EOS] = -1e4      # never stops early
        assert len(M.greedy_decode(make_prompted([4, 5]), params, config)) == 4

    def test_exact_tie_breaks_to_lowest_id(self, small_config):
        # zeroed weights make the copy attention exactly uniform; equal
        # vocabulary biases on ids 6 and 9 tie the two paths bit-for-bit
        params = M.init_params(small_config, seed=0)
        for name, t in params.items():
            t.data[:] = 0.0 if not name.endswith(".g") else 1.0
        params["out.b_v"].data[6] = 1000.0
        params["out.b_v"].data[9] = 1000.0
        out = M.greedy_decode(make_prompted([6, 9]), params,
                              replace(small_config, max_target_len=3))
        assert out == [6, 6, 6]

    def test_parameter_only_values_computed_once_per_decode(self, small_config,
                                                            monkeypatch):
        params = M.init_params(small_config, seed=0)
        params["gate.b"].data[:] = 1e9
        params["out.b_v"].data[EOS] = -1e4      # never stops early
        calls, key_stacks = [], []
        original, original_keys = M.layer_weights, M._copy_keys
        monkeypatch.setattr(M, "layer_weights", lambda p: calls.append(1) or original(p))
        monkeypatch.setattr(M, "_copy_keys",
                            lambda *args: key_stacks.append(1) or original_keys(*args))
        out = M.greedy_decode(make_prompted([4, 5, 6]), params, small_config)
        assert len(out) == small_config.max_target_len
        assert len(calls) == 1 and len(key_stacks) == 1

    def test_cached_step_builds_few_tensors_and_scans_none(self):
        """One cached greedy step of a 2-encoder-layer model, counted by
        wrapping ``Tensor.__init__`` as the benchmark tracer does."""
        config = ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=32, n_heads=2,
                             vocab_size=64, max_source_len=24, max_target_len=14)
        params = M.init_params(config, seed=0)
        with T.no_grad():
            stack = M.encode([[5, 6, 7, 70, 8, 9]], params, config)
            cache = M.DecoderCache()
            M.forward_distributions([[BOS]], stack, params, config, cache)
            with tensor_constructions() as built:
                M.forward_distributions([[9]], stack, params, config, cache)
        assert 0 < len(built) <= 44
        assert not any(built)

    def test_cached_step_does_no_mask_or_backward_work(self, monkeypatch):
        """One cached greedy step of an unpadded source calls none of the
        numpy functions that only a mask or a backward pass needs."""
        config = ModelConfig(n_enc_layers=2, n_dec_layers=2, d_model=32, n_heads=2,
                             vocab_size=64, max_source_len=24, max_target_len=14)
        params = M.init_params(config, seed=0)
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        with T.no_grad():
            stack = M.encode([[5, 6, 7, 70, 8, 9]], params, config)
            cache = M.DecoderCache()
            M.forward_distributions([[BOS]], stack, params, config, cache)
            for name in ("where", "isneginf", "cumsum", "broadcast_to"):
                monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
            M.forward_distributions([[9]], stack, params, config, cache)
            assert cache.length == 2 and calls == []
            M.encode([[5, 6], [7, PAD]], params, config)    # the counters do see the kernel
        assert calls.count("where") == 1 + config.n_enc_layers

    def test_stops_at_eos(self, small_config):
        params = M.init_params(small_config, seed=0)
        params["gate.b"].data[:] = 1e9
        params["out.b_v"].data[:] = 0.0
        params["out.b_v"].data[EOS] = 1e4
        out = M.greedy_decode(make_prompted([4, 5]), params, small_config)
        assert out == []



def decode_with_passes(prompted, params, config):
    """``M.greedy_decode``'s ids, and per decoder pass the cache length
    before it, the ids fed and the ``p_final`` rows."""
    passes, forward = [], M.forward_distributions

    def recorded(ids, stack, params, config, cache):
        start = cache.length
        fwd = forward(ids, stack, params, config, cache)
        passes.append((start, list(ids), fwd.p_final.data))
        return fwd

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(M, "forward_distributions", recorded)
        ids = M.greedy_decode(prompted, params, config)
    return ids, passes


def check_drafted(prompted, params, config) -> dict:
    """Assert that the drafted decoder emits the one-position decoder's ids,
    that every row of every pass is within 1e-12 of that position's row
    fed one position per pass after the accepted ids, that the first pass
    feeds BOS and the rationale's draft (``helpers.rationale_draft``), and
    that each later draft is the source's ids after the first position
    holding the token just emitted, both cut to the budget.  Returns
    counts of the drafts and of those rejected at their first id, for the
    first pass (``first``, ``first_rejected``) and the later ones."""
    want = one_position_decode(prompted, params, config)
    got, passes = decode_with_passes(prompted, params, config)
    assert got == want, f"argmax flip: drafted {got}, one position per pass {want}"
    limit = config.max_target_len
    source = list(prompted.source_ids)
    accepted = [BOS] + [i if i < config.vocab_size else UNK for i in got]
    counts = dict(drafts=0, rejected_first=0, first=0, first_rejected=0)
    with T.no_grad():
        stack, reference = M.encode(source, params, config), M.DecoderCache()
        for k, (start, ids, p_final) in enumerate(passes):
            while reference.length < start:   # each accepted position is fed once per draw
                M.forward_distributions([accepted[reference.length]], stack, params, config,
                                        reference)
            fork = M.DecoderCache(list(reference.layers))
            rows = np.concatenate([M.forward_distributions([i], stack, params, config,
                                                           fork).p_final.data for i in ids])
            assert ids[0] == accepted[start] and np.abs(p_final - rows).max() <= 1e-12
            if k == 0:
                draft, keys = rationale_draft(prompted, limit), ("first", "first_rejected")
            else:
                pos = source.index(got[start - 1]) if got[start - 1] in source else len(source)
                draft, keys = source[pos + 1:pos + limit - start], ("drafts", "rejected_first")
            assert ids[1:] == [i if i < config.vocab_size else UNK for i in draft]
            counts[keys[0]] += bool(draft)
            counts[keys[1]] += (bool(draft) and k + 1 < len(passes)
                                and passes[k + 1][0] == start + 1)
    return counts


def random_rationale(rng, source) -> str:
    """The tokens of a random run of ``source``; one time in four with a
    token no source holds (``t0``, PAD's) appended, so no run matches."""
    lo = int(rng.integers(0, len(source)))
    words = [f"t{i}" for i in source[lo:int(rng.integers(lo + 1, len(source) + 1))]]
    return " ".join(words + ["t0"] * (rng.random() < 0.25))


class TestDrafting:
    """Greedy decoding checks a draft copied from the source in one pass;
    the reference is one position per pass (``helpers.one_position_decode``)."""

    def test_equal_to_one_position_per_pass_over_random_draws(self):
        rng = np.random.default_rng(3)
        totals = dict(drafts=0, rejected_first=0, first=0, first_rejected=0)
        for config, params, source, prefix in random_model_draws(seed=42, n=100):
            prompted = make_prompted(source, rationale=random_rationale(rng, source))
            for limit in (config.max_target_len, len(prefix)):
                counts = check_drafted(prompted, params, replace(config, max_target_len=limit))
                for key, value in counts.items():
                    totals[key] += value
        assert totals["drafts"] > totals["rejected_first"] > 0
        assert totals["first"] > totals["first_rejected"] > 0

    @pytest.mark.parametrize("n_dec_layers", [1, 2])
    def test_repeated_source_tokens(self, n_dec_layers):
        config = replace(TestGreedyDecode.wired_config, n_dec_layers=n_dec_layers,
                         max_target_len=6)
        prompted = make_prompted([4, 7, 4, 9, 4, 6])
        ids, passes = decode_with_passes(prompted, copy_wired_params(config), config)
        assert ids == prompted.source_ids
        assert [fed for _, fed, _ in passes] == [[BOS], [4, 7, 4, 9, 4]]
        check_drafted(prompted, copy_wired_params(config), config)

    def test_oov_copies_are_fed_as_unk(self):
        config = replace(TestGreedyDecode.wired_config, max_target_len=5)
        source = [4, 13, 14, 5, 13]   # source-only ids past the vocabulary of 12
        prompted = make_prompted(source, oov=["x", "y"])
        ids, passes = decode_with_passes(prompted, copy_wired_params(config), config)
        assert ids == source
        assert [fed for _, fed, _ in passes] == [[BOS], [4, UNK, UNK, 5]]   # cut to 3
        check_drafted(prompted, copy_wired_params(config), config)

    def test_draft_cut_by_max_len(self):
        config = replace(TestGreedyDecode.wired_config, max_target_len=3)
        source = [4, 7, 5, 9, 6, 8]
        ids, passes = decode_with_passes(make_prompted(source), copy_wired_params(config),
                                         config)
        assert ids == source[:3]
        assert [fed for _, fed, _ in passes] == [[BOS], [4, 7]]

    def test_draft_cut_by_max_target_len(self):
        config = replace(TestGreedyDecode.wired_config, max_target_len=4)
        source = [4, 7, 5, 9, 6, 8, 10, 11]
        prompted = make_prompted(source)
        ids, passes = decode_with_passes(prompted, copy_wired_params(config), config)
        assert ids == source[:4]
        assert [fed for _, fed, _ in passes] == [[BOS], [4, 7, 5]]
        check_drafted(prompted, copy_wired_params(config), config)

    def test_draft_rejected_at_its_first_id(self, small_config):
        # the exact tie of test_exact_tie_breaks_to_lowest_id: 6 follows 6,
        # so each draft [9] is refused at once and rolled back
        params = M.init_params(small_config, seed=0)
        for name, t in params.items():
            t.data[:] = 0.0 if not name.endswith(".g") else 1.0
        params["out.b_v"].data[6] = 1000.0
        params["out.b_v"].data[9] = 1000.0
        prompted, config = make_prompted([6, 9]), replace(small_config, max_target_len=4)
        ids, passes = decode_with_passes(prompted, params, config)
        assert ids == [6, 6, 6, 6]
        assert [(start, fed) for start, fed, _ in passes] == [
            (0, [BOS]), (1, [6, 9]), (2, [6, 9]), (3, [6])]   # the last draft is cut to 0
        assert check_drafted(prompted, params, config)["rejected_first"] == 2

    def test_eos_inside_a_fully_matching_draft(self):
        config = TestGreedyDecode.wired_config
        prompted = make_prompted([4, 7, EOS, 5, 6])
        ids, passes = decode_with_passes(prompted, copy_wired_params(config), config)
        assert ids == [4, 7]
        assert [fed for _, fed, _ in passes] == [[BOS], [4, 7, EOS, 5, 6]]
        check_drafted(prompted, copy_wired_params(config), config)


class TestRationaleDraft:
    """The first pass drafts the current turn's rationale: the source ids
    under the last run of its tokens, cut to the budget."""

    def fed(self, prompted, config=TestGreedyDecode.wired_config, params=None):
        """The ids and, per pass, the cache length before it and the ids fed;
        the drafting oracle holds on the same decode."""
        params = copy_wired_params(config) if params is None else params
        ids, passes = decode_with_passes(prompted, params, config)
        check_drafted(prompted, params, config)
        return ids, [(start, fed) for start, fed, _ in passes]

    @pytest.mark.parametrize("n_dec_layers", [1, 2])
    def test_a_rationale_accepted_whole_takes_one_pass(self, n_dec_layers):
        config = replace(TestGreedyDecode.wired_config, n_dec_layers=n_dec_layers)
        prompted = make_prompted([4, 7, 5, EOS, 6], rationale="t4 t7 t5")
        assert self.fed(prompted, config) == ([4, 7, 5], [(0, [BOS, 4, 7, 5])])

    def test_a_rationale_rejected_at_its_first_id(self):
        prompted = make_prompted([4, 7, 5, 9, EOS], rationale="t5 t9")
        assert self.fed(prompted) == ([4, 7, 5, 9], [(0, [BOS, 5, 9]), (1, [4, 7, 5, 9, EOS])])
        config = TestGreedyDecode.wired_config
        assert check_drafted(prompted, copy_wired_params(config), config)["first_rejected"] == 1

    @pytest.mark.parametrize("rationale", ["t8", "t7 t4", "", "r"])
    def test_no_run_drafts_nothing(self, rationale):
        prompted = make_prompted([4, 7, EOS], rationale=rationale)
        assert rationale_draft(prompted, 12) == []
        assert self.fed(prompted) == ([4, 7], [(0, [BOS]), (1, [4, 7, EOS])])

    def test_cut_by_max_len(self):
        prompted = make_prompted([4, 7, 5, 9, 6, 8], rationale="t4 t7 t5 t9 t6 t8")
        config = TestGreedyDecode.wired_config
        assert self.fed(prompted, replace(config, max_target_len=3)) == (
            [4, 7, 5], [(0, [BOS, 4, 7])])
        assert self.fed(prompted, replace(config, max_target_len=1)) == ([4], [(0, [BOS])])

    def test_cut_by_max_target_len(self):
        config = replace(TestGreedyDecode.wired_config, max_target_len=4)
        prompted = make_prompted([4, 7, 5, 9, 6, 8, 10, 11], rationale="t4 t7 t5 t9 t6 t8")
        assert self.fed(prompted, config) == ([4, 7, 5, 9], [(0, [BOS, 4, 7, 5])])

    def test_the_last_run_is_drafted(self):
        prompted = make_prompted([4, 7, 5, 4, 7, EOS], rationale="t4 t7")
        assert rationale_span(prompted) == (3, 5)
        assert self.fed(prompted) == ([4, 7, 5, 4, 7], [(0, [BOS, 4, 7]), (3, [5, 4, 7, EOS])])

    def test_oov_ids_are_fed_as_unk(self):
        prompted = make_prompted([4, 13, 14, 5], oov=["x", "y"], rationale="t4 t13 t14 t5")
        config = replace(TestGreedyDecode.wired_config, max_target_len=4)
        assert self.fed(prompted, config) == ([4, 13, 14, 5], [(0, [BOS, 4, UNK, UNK])])

    def test_blind_to_the_answer(self):
        """Other words in ``target_text`` and ``turn.answer``, the
        rationale's own among them, change no id and no id fed."""
        rng = np.random.default_rng(11)
        for config, params, source, _ in random_model_draws(seed=5, n=40):
            prompted = make_prompted(source, rationale=random_rationale(rng, source))
            want = self.fed(prompted, config, params=params)
            for answer in ("zz", prompted.origin.turn.rationale, f"t{source[-1]} t{source[0]}"):
                turn = replace(prompted.origin.turn, answer=answer)
                other = replace(prompted, target_text=answer,
                                origin=replace(prompted.origin, turn=turn))
                assert self.fed(other, config, params=params) == want


class TestDecoderCacheRollback:
    def test_next_pass_matches_a_cache_that_never_held_the_dropped_positions(self):
        worst = 0.0
        for config, params, source, prefix in random_model_draws(seed=7, n=200):
            with T.no_grad():
                stack = M.encode(source, params, config)
                rolled, clean = M.DecoderCache(), M.DecoderCache()
                M.forward_distributions(prefix + [5, 4], stack, params, config, rolled)
                rolled.rollback(len(prefix))
                M.forward_distributions(prefix, stack, params, config, clean)
                got = M.forward_distributions([6, 4], stack, params, config, rolled)
                want = M.forward_distributions([6, 4], stack, params, config, clean)
            assert rolled.length == clean.length == len(prefix) + 2
            worst = max(worst, float(np.abs(got.p_final.data - want.p_final.data).max()))
        assert worst <= 1e-12

    def test_a_length_above_the_current_one_is_refused(self, small_params, small_config):
        with T.no_grad():
            stack = M.encode([4, 5], small_params, small_config)
            cache = M.DecoderCache()
            M.forward_distributions([BOS, 4], stack, small_params, small_config, cache)
        kept = cache.layers
        for length in (3, -1):
            with pytest.raises(ValueError, match=f"back to {length}"):
                cache.rollback(length)
        cache.rollback(2)
        assert cache.layers is kept
        cache.rollback(0)
        assert cache.length == 0


class TestExportAttention:
    def test_matrix_shape_is_square_in_source_length(self, small_params, small_config):
        stack = M.encode([4, 5, 6], small_params, small_config)
        assert stack.attn_maps[0][0].shape == (3, 3)


class TestPositions:
    def test_one_read_only_table_per_shape_whose_rows_do_not_depend_on_its_length(self):
        table = M.sinusoidal_positions(64, 16)
        assert M.sinusoidal_positions(64, 16) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
        for n in (1, 5, 16, 63):
            assert np.array_equal(M.sinusoidal_positions(n, 16), table[:n])

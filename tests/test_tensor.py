"""Numeric kernel: op-level oracles, backward correctness, Adam, grad_check."""

import gc
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest

from pgc import model as M, prompt as P, tensor as T, train as TR
from pgc.tensor import ParamStore, Tensor

from helpers import make_prompted, store_of, tensor_constructions, weighted_total


def naive_matmul(a, b):
    """Independent triple-loop product used as the matmul oracle."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = T.matmul(Tensor(np.eye(2)), Tensor(x))
        assert np.array_equal(out.data, x)

    def test_small_known_product(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = T.matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - naive_matmul(a, b))) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 2))))
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2, 3))))

    def test_stacked_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(3, 4, 5))
        out = T.matmul(Tensor(a), Tensor(b))
        want = np.stack([naive_matmul(a[i], b[i]) for i in range(3)])
        assert np.max(np.abs(out.data - want)) < 1e-12


class TestSoftmax:
    """Softmax, and the masked softmax that is the attention op's weights."""

    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_large_logit_stability(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0] - 1.0) < 1e-6
        assert out.data[1] < 1e-6

    def test_masked_row_by_hand(self):
        out, _ = T.attention(Tensor([[1.0]]), Tensor([[1.0], [2.0], [3.0]]), None,
                             np.array([False, False, True]))
        e = math.e
        assert out.data.shape == (1, 1, 3)       # one head, one row, three keys
        assert np.allclose(out.data[0, 0], [1 / (1 + e), e / (1 + e), 0.0], atol=1e-12)
        assert out.data[0, 0, 2] == 0.0

    def test_fully_masked_row_rejected(self):
        with pytest.raises(ValueError, match="fully masked"):
            T.attention(Tensor([[1.0]]), Tensor([[1.0], [2.0]]), None, np.array([True, True]))

    def test_a_row_emptied_by_overflow_is_no_masked_row(self):
        """Logits that overflow to -inf leave the row with no key, but the
        mask kept one: numpy flags the arithmetic, the mask check is quiet."""
        with np.errstate(all="ignore", invalid="raise"), pytest.raises(FloatingPointError):
            T.attention(Tensor([[1e200]]), Tensor([[-1e200], [2.0]]), None,
                        np.array([False, True]))

    def test_last_axis_of_a_stack(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2, 5))
        mask = np.zeros((2, 5), dtype=bool)
        mask[0, 3:] = True
        eye = Tensor(np.eye(5))      # keys I: the weights are the masked softmax of x / sqrt(5)
        out = T.attention(Tensor(x), eye, None, mask)[1]
        assert out.shape == (3, 1, 2, 5)
        for h in range(3):
            assert np.allclose(out[h], T.attention(Tensor(x[h]), eye, None, mask)[1],
                               atol=1e-15)
            assert np.allclose(T.softmax(Tensor(x)).data[h], T.softmax(Tensor(x[h])).data,
                               atol=1e-15)
        assert np.all(out[:, 0, 0, 3:] == 0.0)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.normal(size=(4, 6)) * 10
            out = T.softmax(Tensor(x))
            assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(out.data >= 0)
            shifted = T.softmax(Tensor(x + 13.7))
            assert np.allclose(out.data, shifted.data, atol=1e-12)


HEAD_COUNTS = (1, 2, 4)


def split_heads(x, n_heads):
    """``[..., R, n_heads * dh] -> [..., n_heads, R, dh]``, as a numpy view."""
    *lead, rows, width = x.shape
    return np.swapaxes(x.reshape(*lead, rows, n_heads, width // n_heads), -3, -2)


def merge_heads(x):
    """The inverse of ``split_heads``."""
    *lead, n_heads, rows, head_dim = x.shape
    return np.swapaxes(x, -3, -2).reshape(*lead, rows, n_heads * head_dim)


def per_head_oracle(q, k, v, mask, n_heads):
    """Independent multi-head attention, one head at a time on its column
    block: the output (the weights when ``v`` is None) and the weights
    ``[..., n_heads, R, L]``."""
    dh = q.shape[-1] // n_heads
    dv = 0 if v is None else v.shape[-1] // n_heads
    outputs, weights = [], []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        logits = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / math.sqrt(dh)
        if mask is not None:
            logits = np.where(mask, -np.inf, logits)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        weights.append(e / e.sum(axis=-1, keepdims=True))
        if v is not None:
            outputs.append(weights[-1] @ v[..., h * dv:(h + 1) * dv])
    weights = np.stack(weights, axis=-3)
    return (weights if v is None else np.concatenate(outputs, axis=-1)), weights


def composed_attention(qh, keys_t, values, mask, scale):
    """The chain the attention op replaces, built from separate ops on
    head-layout Tensors.  A masked key gets a -1e30 logit, whose
    exponential is exactly 0."""
    logits = (qh @ keys_t) * scale + Tensor(np.where(mask, -1e30, 0.0))
    return T.softmax(logits) @ values


def attention_case(name, rng, n_heads=1):
    """(q, k, values or None, mask) row arrays for one shape of use, with
    ``n_heads`` heads of 2 columns each; masks broadcast to ``[..., R, L]``."""
    width = 2 * n_heads
    if name == "self_causal":        # decoder self-attention: 3 steps
        q, k, v = (rng.normal(size=(3, width)) for _ in range(3))
        return q, k, v, np.triu(np.ones((3, 3), dtype=bool), k=1)
    pad = np.array([[False] * 4, [False, False, True, True]])
    if name == "cross_padded":       # a padded batch of 2, 3 queries, 4 keys
        q, k, v = (rng.normal(size=(2, 3, width)), rng.normal(size=(2, 4, width)),
                   rng.normal(size=(2, 4, 3 * n_heads)))
        return q, k, v, pad[:, None, :]
    # copy views: one q [B, R, dk] against a stack of 3 key sets [3, B, L, dk]
    return (rng.normal(size=(2, 3, width)), rng.normal(size=(3, 2, 4, width)), None,
            pad[:, None, :])


ATTENTION_CASES = ["self_causal", "cross_padded", "views"]


class TestAttention:
    @pytest.mark.parametrize("case", ATTENTION_CASES)
    def test_matches_composed_ops(self, case):
        """For 1, 2 and 4 heads, both forms match the per-head numpy loop
        within 1e-12, and the value form is bit-identical to the composed
        chain on the head-layout arrays, output and gradients."""
        for n_heads in HEAD_COUNTS:
            rng = np.random.default_rng(11 + n_heads)
            q, k, v, mask = attention_case(case, rng, n_heads)
            fused = [Tensor(a) for a in (q, k, v) if a is not None]
            out, weights = T.attention(*fused[:2], fused[2] if v is not None else None,
                                       mask, n_heads)
            want, want_weights = per_head_oracle(q, k, v, mask, n_heads)
            assert out.data.shape == want.shape
            assert np.max(np.abs(out.data - want)) < 1e-12
            assert np.max(np.abs(weights - want_weights)) < 1e-12
            assert np.all(weights[np.broadcast_to(mask[..., None, :, :], weights.shape)] == 0.0)
            if v is None:
                continue
            qh, keys_t, vh = (Tensor(split_heads(q, n_heads)),
                              Tensor(np.swapaxes(split_heads(k, n_heads), -1, -2)),
                              Tensor(split_heads(v, n_heads)))
            composed = composed_attention(qh, keys_t, vh, mask[..., None, :, :],
                                          1.0 / math.sqrt(q.shape[-1] // n_heads))
            upstream = rng.normal(size=out.data.shape)
            weighted_total(out, upstream).backward()
            weighted_total(composed, split_heads(upstream, n_heads)).backward()
            assert np.array_equal(out.data, merge_heads(composed.data))
            assert np.array_equal(fused[0].grad, merge_heads(qh.grad))
            assert np.array_equal(fused[1].grad, merge_heads(np.swapaxes(keys_t.grad, -1, -2)))
            assert np.array_equal(fused[2].grad, merge_heads(vh.grad))

    @pytest.mark.parametrize("case", ATTENTION_CASES)
    def test_gradient_check(self, case):
        for n_heads in HEAD_COUNTS:
            rng = np.random.default_rng(12 + n_heads)
            arrays = attention_case(case, rng, n_heads)
            mask = arrays[3]
            store = store_of({name: a for name, a in zip("qkv", arrays[:3])
                              if a is not None})
            upstream = rng.normal(size=T.attention(*arrays[:3], mask, n_heads)[0].data.shape)

            def f(s):
                out, _ = T.attention(s["q"], s["k"], s["v"] if "v" in s.names() else None,
                                     mask, n_heads)
                return weighted_total(T.sigmoid(out * 3.0), upstream)

            assert T.grad_check(f, store) < 1e-4

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("case", ["cross_padded", "views"])
    def test_no_mask_is_bit_equal_to_an_all_false_mask(self, case, n_heads):
        """An unpadded source passes no mask: the output, the weights and
        every input gradient equal an all-False mask's exactly, in the
        value form and in the weights form over a stack of key sets."""
        rng = np.random.default_rng(14 + n_heads)
        q, k, v, mask = attention_case(case, rng, n_heads)
        results = []
        for m in (None, np.zeros_like(mask)):
            inputs = [Tensor(a) for a in (q, k, v) if a is not None]
            out, weights = T.attention(*inputs[:2], inputs[2] if v is not None else None,
                                       m, n_heads)
            weighted_total(out, np.random.default_rng(15).normal(size=out.data.shape)).backward()
            results.append([out.data, weights, *(t.grad for t in inputs)])
        assert len(results[0]) == (5 if v is not None else 4)
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_fully_masked_row_in_a_batch_rejected(self):
        q, k, v, mask = attention_case("cross_padded", np.random.default_rng(13), 2)
        mask = mask.copy()
        mask[1] = True
        with pytest.raises(ValueError, match="fully masked"):
            T.attention(Tensor(q), Tensor(k), Tensor(v), mask, 2)


class TestContractFirst:
    def test_matches_an_in_order_loop(self):
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 5):
            w, x = rng.dirichlet(np.ones(n)), rng.normal(size=(n, 2, 3, 4))
            want = w[0] * x[0]
            for i in range(1, n):
                want = want + w[i] * x[i]
            assert np.array_equal(T.contract_first(Tensor(w), Tensor(x)).data, want)

    def test_gradient_check(self):
        rng = np.random.default_rng(15)
        store = store_of({"w": rng.normal(size=3), "x": rng.normal(size=(3, 2, 4))})

        def f(s):
            mixed = T.contract_first(T.softmax(s["w"]), s["x"])
            return T.sequence_nll(T.softmax(mixed), [0, 3])

        assert T.grad_check(f, store) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            T.contract_first(Tensor(np.ones(2)), Tensor(np.ones((3, 4))))
        with pytest.raises(ValueError):
            T.contract_first(Tensor(np.ones((2, 1))), Tensor(np.ones((2, 4))))


def two_pass_layer_norm(x, gain, bias, g, eps=1e-5):
    """The former formula (mean and variance each taking the mean), with its
    gradients for an upstream gradient ``g``: (out, dx, dgain, dbias)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    axes = tuple(range(g.ndim - 1))
    return xhat * gain + bias, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


class TestLayerNorm:
    def test_single_pass_is_byte_equal_to_the_two_pass_formula(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(2, 17)))
            x, gain, bias = (Tensor(rng.normal(size=shape) * rng.uniform(0.1, 10)),
                             Tensor(rng.normal(size=shape[-1])), Tensor(rng.normal(size=shape[-1])))
            g = rng.normal(size=shape)
            out = T.layer_norm(x, gain, bias)
            weighted_total(out, g).backward()
            want = two_pass_layer_norm(x.data, gain.data, bias.data, g)
            for got, expected in zip((out.data, x.grad, gain.grad, bias.grad), want):
                assert got.tobytes() == expected.tobytes()


class TestScalarOperands:
    def test_numbers_stay_plain_floats(self):
        """An op with a number builds one Tensor, its unscanned result
        (``1.0 - x`` too)."""
        x = Tensor([1.0, -2.0])
        with tensor_constructions() as scans:
            outs = [x * 2.0, 3.0 * x, x + 1.5, 0.5 + x, x + -0.25, 1.0 - x]
        assert scans == [False] * 6
        assert all(out._parents == (x,) for out in outs)
        assert np.array_equal(np.stack([out.data for out in outs]),
                              [[2, -4], [3, -6], [2.5, -0.5], [1.5, -1.5], [0.75, -2.25],
                               [0, 3]])
        weighted_total(outs[0] + outs[1] + outs[2] + outs[3] + outs[4] + outs[5]).backward()
        assert np.array_equal(x.grad, np.full(2, (2 + 3 + 1 + 1 + 1 - 1) / 2))

    def test_non_finite_number_rejected(self):
        x = Tensor([1.0])
        for op in (lambda: x + float("nan"), lambda: float("inf") * x,
                   lambda: x * float("-inf"), lambda: float("-inf") + x):
            with pytest.raises(ValueError, match="non-finite"):
                op()


class TestSigmoid:
    def test_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_large_input_strictly_below_one(self):
        value = T.sigmoid(Tensor(1e9)).item()
        assert value < 1.0
        assert T.sigmoid(Tensor(-1e9)).item() > 0.0

    def test_quarter_point(self):
        assert abs(T.sigmoid(Tensor(-math.log(3.0))).item() - 0.25) < 1e-12

    def test_a_saturated_input_overflows_nothing(self):
        """Training's forward pass raises on overflow; an input far past
        saturation is clipped first, so it is no divergence."""
        with np.errstate(over="raise", invalid="raise"):
            low, high = T.sigmoid(Tensor([-800.0, 800.0])).data
        assert low == T.sigmoid(Tensor(-30.0)).item() and 0.0 < low < 1e-13
        assert high == T.sigmoid(Tensor(30.0)).item() < 1.0


class TestCrossEntropy:
    """The sequence NLL on one row is the cross-entropy of that row."""

    def test_certain_prediction(self):
        assert T.sequence_nll(Tensor([[0.0, 1.0, 0.0]]), [1]).item() == 0.0

    def test_half_probability(self):
        assert abs(T.sequence_nll(Tensor([[0.5, 0.5]]), [0]).item() - math.log(2)) < 1e-12

    def test_zero_probability_floored(self):
        loss = T.sequence_nll(Tensor([[1.0, 0.0]]), [1]).item()
        assert abs(loss - (-math.log(1e-12))) < 1e-9

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError):
            T.sequence_nll(Tensor([[0.5, 0.5]]), [2])


def former_nll_chain(p, gold, w):
    """The sequence NLL as the four ops it was once built from (pick the
    gold column, log of the floored value, negate, weighted sum), in numpy
    and in their order of float operations: (loss, gradient of ``p``)."""
    index = gold[..., None]
    picked = np.take_along_axis(p, index, axis=-1)[..., 0]
    clamped = np.maximum(picked, 1e-12)
    loss = ((np.log(clamped) * -1.0) * w).sum()
    dpicked = ((np.ones(()) * w) * -1.0) * np.where(picked > 1e-12, 1.0 / clamped, 0.0)
    grad = np.zeros_like(p)
    np.put_along_axis(grad, index, dpicked[..., None], axis=-1)
    return loss, grad


class TestSequenceNll:
    def test_byte_equal_to_the_former_chain_on_padded_batches(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            b, steps, width = (int(rng.integers(1, 5)), int(rng.integers(1, 7)),
                               int(rng.integers(2, 9)))
            p = rng.dirichlet(np.ones(width), size=(b, steps))
            p[rng.uniform(size=p.shape) < 0.2] = 0.0   # exact zeros take the floor
            gold = rng.integers(0, width, size=(b, steps))
            lengths = rng.integers(1, steps + 1, size=b)
            mask = np.arange(steps) < lengths[:, None]
            gold[~mask] = 0
            weights = mask / (b * mask.sum(axis=1, keepdims=True))
            x = Tensor(p)
            loss = T.sequence_nll(x, gold, weights)
            loss.backward()
            want_loss, want_grad = former_nll_chain(p, gold, weights)
            assert loss.data.tobytes() == want_loss.tobytes()
            assert x.grad.tobytes() == want_grad.tobytes()

    def test_no_weights_is_the_mean_over_rows(self):
        rng = np.random.default_rng(18)
        p = rng.dirichlet(np.ones(5), size=7)
        gold = rng.integers(0, 5, size=7)
        x = Tensor(p)
        loss = T.sequence_nll(x, gold)
        loss.backward()
        nll = -np.log(p[np.arange(7), gold])
        assert abs(loss.item() - nll.mean()) <= 1e-15 * nll.mean()
        assert x.grad.tobytes() == former_nll_chain(p, gold, np.full(7, 1.0 / 7))[1].tobytes()

    def test_weights_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="weights of shape"):
            T.sequence_nll(Tensor(np.full((2, 3), 1.0 / 3)), [0, 1], np.ones(3))


class TestBackward:
    def test_linear_map_gradient_is_input_broadcast(self):
        w = store_of({"w": np.zeros((2, 3))})["w"]
        x = np.array([[1.0], [2.0], [3.0]])
        weighted_total(w @ Tensor(x)).backward()
        assert np.array_equal(w.grad, np.tile(x.T, (2, 1)) / 2.0)

    def test_unused_parameter_has_zero_gradient(self):
        store = store_of({"used": np.ones((2, 2)), "unused": np.ones((2, 2))})
        weighted_total(store["used"] * store["used"]).backward()
        assert np.array_equal(store["unused"].grad, np.zeros((2, 2)))

    def test_sum_of_losses_is_sum_of_gradients(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(3, 3))
        x1 = Tensor(data)
        weighted_total(T.relu(x1 @ x1)).backward()
        g_first = x1.grad.copy()
        x2 = Tensor(data)
        weighted_total(T.sigmoid(x2) * 2.0).backward()
        g_second = x2.grad.copy()

        x3 = Tensor(data)
        combined = weighted_total(T.relu(x3 @ x3)) + weighted_total(T.sigmoid(x3) * 2.0)
        combined.backward()
        assert np.max(np.abs(x3.grad - (g_first + g_second))) < 1e-10

    def test_gradients_accumulate_across_backward_calls(self):
        w = store_of({"w": np.ones(4)})["w"]
        weighted_total(w * 2.0).backward()
        weighted_total(w * 3.0).backward()
        assert np.array_equal(w.grad, np.full(4, 5.0 / 4.0))

    @pytest.mark.parametrize("node", ["leaf", "op result"])
    def test_accumulating_never_writes_an_array_it_was_given(self, node):
        """A node may keep the first gradient it gets, which another node
        can hold too (``a + b`` hands both one array), so it never adds
        into it."""
        x = Tensor([1.0, 2.0])
        t = x if node == "leaf" else T.relu(x)
        first = np.ones(2)
        t.accumulate_grad(first)
        t.accumulate_grad(np.full(2, 2.0))
        assert np.array_equal(first, [1.0, 1.0]) and np.array_equal(t.grad, [3.0, 3.0])

    def test_backward_needs_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).backward()


class TestGradCheck:
    def test_quadratic(self):
        store = store_of({"theta": np.array([1.0, -2.0, 0.5])})

        def f(s):
            return weighted_total(s["theta"] * s["theta"])

        assert T.grad_check(f, store) < 1e-8

    def test_softmax_cross_entropy_layer(self):
        store = store_of({"w": np.random.default_rng(0).normal(size=(4, 3))})
        x = np.array([[0.3], [-1.2], [0.7], [2.0]])

        def f(s):
            logits = Tensor(x.T) @ s["w"]
            return T.sequence_nll(T.softmax(logits), [1])

        assert T.grad_check(f, store) < 1e-6

    def test_layer_norm_and_scatter(self):
        rng = np.random.default_rng(1)
        store = store_of({"x": rng.normal(size=(2, 5)), "g": rng.normal(size=5),
                          "b": rng.normal(size=5)})

        def f(s):
            normed = T.layer_norm(s["x"], s["g"], s["b"])
            probs = T.softmax(normed)
            scattered = T.scatter_add_cols(probs, np.array([0, 1, 0, 2, 1]), 4)
            return T.sequence_nll(scattered, [0, 2])

        assert T.grad_check(f, store) < 1e-6

    def test_concat_of_unequal_parts_on_a_middle_axis(self):
        """Each part gets its own slice of the gradient back."""
        rng = np.random.default_rng(10)
        store = store_of({name: rng.normal(size=(2, n, 3))
                          for name, n in (("a", 1), ("b", 3), ("c", 2))})
        gold = np.array([[0, 1, 2, 0, 1, 2], [2, 2, 1, 0, 0, 1]])

        def f(s):
            joined = T.concat([s["a"], s["b"], s["c"]], axis=1)      # [2, 6, 3]
            return T.sequence_nll(T.softmax(joined * 2.0), gold)

        assert T.grad_check(f, store) < 1e-6

    @pytest.mark.parametrize("op", ["matmul3d", "split_heads", "merge_heads", "softmax3d"])
    def test_head_ops(self, op):
        """Stacked matmul, and attention splitting rows into two heads and
        joining them (value form), two heads of weights, and a stack of
        one-head weights."""
        rng = np.random.default_rng(6)
        store = store_of({"x": rng.normal(size=(3, 4)), "y": rng.normal(size=(2, 3, 2))})
        causal = np.triu(np.ones((3, 3), dtype=bool), k=1)

        def f(s):
            x, y = s["x"], s["y"]
            if op == "matmul3d":
                out = T.reshape(y @ T.reshape(x, (2, 2, 3)), (3, 6))
            elif op == "split_heads":
                out = T.attention(x, x, x, causal, 2)[0] @ T.reshape(y, (4, 3))   # [3, 3]
            elif op == "merge_heads":
                out = T.reshape(T.attention(x, T.reshape(y, (3, 4)), None, causal, 2)[0],
                                (3, 6))
            else:
                out = T.reshape(T.attention(y, y, None, causal)[0], (3, 6))
            return T.sequence_nll(T.softmax(out), [0, 1, 2])

        assert T.grad_check(f, store) < 1e-6

    def test_batch_axis_ops(self):
        """Shared-weight matmul, two-head attention on a batch, 2-D
        embedding ids, per-example scatter, zero-padded columns and a
        weighted per-row pick."""
        rng = np.random.default_rng(9)
        store = store_of({"x": rng.normal(size=(2, 3, 4)), "w": rng.normal(size=(4, 4)),
                          "table": rng.normal(size=(5, 4))})
        ids = np.array([[0, 4, 4], [2, 1, 0]])
        cols = np.array([[0, 5, 0], [1, 2, 3]])
        gold = np.array([[5, 0, 1], [3, 3, 2]])
        weights = rng.uniform(size=(2, 3))

        def f(s):
            h = (s["x"] + T.embed_rows(s["table"], ids)) @ s["w"]
            y, _ = T.attention(h, h, h, None, 2)                         # [2, 3, 4]
            alpha = T.reshape(T.attention(y, s["x"])[0], (2, 3, 3))
            mixed = T.pad_cols(T.softmax(y), 6) * 0.5 + T.scatter_add_cols(alpha, cols, 6) * 0.5
            return T.sequence_nll(mixed, gold, weights)

        assert T.grad_check(f, store) < 1e-6


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        store = store_of({"p": np.array([1.0, 2.0])})
        p = store["p"]
        before = p.data.copy()
        T.adam_step(store, lr=0.1)
        assert np.array_equal(p.data, before)

    def test_constant_gradient_moves_against_its_sign(self):
        store = store_of({"p": np.zeros(2)})
        p = store["p"]
        for _ in range(50):
            p.grad[:] = [1.0, -1.0]
            T.adam_step(store, lr=0.01)
        assert p.data[0] < 0 < p.data[1]

    def test_first_step_from_zero_state_moves_by_lr(self):
        # bias correction makes m_hat = g and v_hat = g^2 on step one
        store = store_of({"p": np.zeros(3)})
        p = store["p"]
        p.grad[:] = 1.0
        lr = 2e-5
        T.adam_step(store, lr=lr)
        assert np.max(np.abs(p.data - (-lr))) < 1e-12
        assert store.step == 1

    def test_deterministic_given_state_and_gradients(self):
        def run():
            store = store_of({"p": np.array([0.3, -0.7])})
            p = store["p"]
            for k in range(5):
                p.grad[:] = [0.1 * k, -0.2]
                T.adam_step(store, lr=1e-3)
            return p.data.copy()

        assert np.array_equal(run(), run())


class TestParamStore:
    def test_every_view_shares_its_flat_vector_in_store_order(self):
        """On a drawn store and on one built from the layout alone, which
        is all zero."""
        config = M.ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=8, n_heads=2,
                               vocab_size=12, d_ff=16)
        built = ParamStore(M.param_shapes(config))
        assert not any(flat.any() for flat in
                       (built.flat, built.flat_grad, built.flat_m, built.flat_v))
        for store in (M.init_params(config, seed=0), built):
            views = [(t.data, t.grad, store.adam_m[name], store.adam_v[name])
                     for name, t in store.items()]
            flats = (store.flat, store.flat_grad, store.flat_m, store.flat_v)
            offset = 0
            for group in views:
                for view, flat in zip(group, flats):
                    assert view.dtype == np.float64 and view.flags.c_contiguous
                    assert np.shares_memory(view, flat)
                    assert view.__array_interface__["data"][0] == (
                        flat.__array_interface__["data"][0] + 8 * offset)
                offset += group[0].size
            assert offset == store.n_values() == store.flat.size
            assert np.array_equal(np.concatenate([g[0].reshape(-1) for g in views]), store.flat)
            for (i, a), (j, b) in itertools.combinations(enumerate(views), 2):
                for x in a:
                    assert not any(np.shares_memory(x, y) for y in b), (i, j)
            for x, y in itertools.combinations(flats, 2):
                assert not np.shares_memory(x, y)

    def test_backward_writes_the_flat_gradient_and_zero_grad_clears_it(self):
        store = store_of({"a": np.array([1.0, 2.0]), "b": np.array([[3.0]])})
        grad = store.flat_grad
        weighted_total(store["a"] * store["a"]).backward()
        weighted_total(store["a"] * 2.0 + store["b"]).backward()
        assert store.flat_grad is grad
        assert np.array_equal(grad, [1.0 + 1.0, 2.0 + 1.0, 1.0])
        store.zero_grad()
        assert store.flat_grad is grad and not grad.any()

    def test_adam_updates_the_views_in_place_and_uses_the_gradients_up(self):
        store = store_of({"p": np.array([0.3, -0.7]), "q": np.ones((2, 2))})
        data, m = store["q"].data, store.adam_m["q"]
        store.flat_grad[:] = 0.5
        T.adam_step(store, lr=0.1)
        assert store["q"].data is data and store.adam_m["q"] is m
        assert np.all(data < 1.0) and np.all(m > 0.0)
        assert not store.flat_grad.any()   # the step uses the gradients up

    def test_adam_moment_dicts_are_made_once_and_follow_adam_step(self):
        """``adam_m`` and ``adam_v`` are made on first read and then the same
        dict of views, which show every Adam step."""
        store = store_of({"p": np.array([0.3, -0.7]), "q": np.ones((2, 2))})
        m, v = store.adam_m, store.adam_v
        assert store.adam_m is m and store.adam_v is v
        assert list(m) == list(v) == store.names()
        for step in range(1, 3):
            store.flat_grad[:] = 0.5 * step
            T.adam_step(store, lr=0.1)
            assert store.adam_m is m and store.adam_v is v
            for moments, flat in ((m, store.flat_m), (v, store.flat_v)):
                assert np.array_equal(np.concatenate([a.reshape(-1) for a in moments.values()]),
                                      flat)
                assert flat.any()
            assert m["q"].shape == v["q"].shape == (2, 2)

    def test_a_given_state_is_adopted_without_a_copy(self):
        """The ``(3, n)`` state becomes ``flat``, ``flat_m`` and ``flat_v``;
        only the gradients start zeroed.  Any other shape is refused."""
        shapes = {"p": (2,), "q": (1, 3)}
        state = np.arange(15.0).reshape(3, 5)
        store = ParamStore(shapes, state)
        state += 0.5   # seen through the store's vectors: none is a copy
        for flat, row in zip((store.flat, store.flat_m, store.flat_v), state):
            assert np.shares_memory(flat, row) and np.array_equal(flat, row)
        assert np.array_equal(store["q"].data, [[2.5, 3.5, 4.5]])
        assert np.array_equal(store.adam_v["p"], [10.5, 11.5])
        assert not store.flat_grad.any() and not np.shares_memory(store.flat_grad, state)
        for bad in (np.zeros((3, 4)), np.zeros((4, 5)), np.zeros(15)):
            with pytest.raises(ValueError, match="for 3 vectors of 5 values"):
                ParamStore(shapes, bad)

    def test_clip_grad_norm(self):
        store = store_of({"p": np.zeros(2), "q": np.zeros(2)})
        store["p"].grad[:] = [3.0, 0.0]
        store["q"].grad[:] = [0.0, 4.0]
        norm = store.clip_grad_norm(1.0)
        assert abs(norm - 5.0) < 1e-12
        assert abs(store.global_grad_norm() - 1.0) < 1e-9

    @pytest.mark.parametrize("grad", [[1e200, 0.0], [1e154, 1e154], [np.inf, 0.0]],
                             ids=["square-overflows", "sum-overflows", "inf"])
    def test_a_non_finite_norm_is_refused_quietly_and_clips_nothing(self, grad):
        """Finite gradients whose squares, or the sum of them, pass float64's
        range have no finite norm either: no factor would clip them."""
        store = store_of({"p": np.zeros(1), "q": np.zeros(1)})
        store.flat_grad[:] = grad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="non-finite gradient norm inf"):
                store.clip_grad_norm(1.0)
        assert np.array_equal(store.flat_grad, grad)

    def test_clip_is_noop_below_threshold(self):
        store = store_of({"p": np.zeros(2)})
        p = store["p"]
        p.grad[:] = [0.3, 0.4]
        store.clip_grad_norm(1.0)
        assert np.array_equal(p.grad, [0.3, 0.4])


class TestGraphLifetime:
    def test_dropped_training_graph_is_freed_without_the_cyclic_collector(self):
        config = M.ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=8, n_heads=2,
                               vocab_size=12, max_source_len=8, max_target_len=8, d_ff=16)
        params = M.init_params(config, seed=0)
        vocab = P.TokenVocab(["w"])
        prompted = make_prompted([4, 5, 12], oov=["w9"], target_text="w w9")
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            loss = TR.teacher_forced_loss([prompted], params, config, vocab)
            loss.backward()
            node = weakref.ref(loss)
            inner = weakref.ref(loss._parents[0])
            del loss
            assert node() is None and inner() is None
        finally:
            if was_enabled:
                gc.enable()


class TestNoGrad:
    def test_ops_record_no_graph(self):
        x = Tensor(np.ones((2, 2)))
        with T.no_grad():
            out = T.softmax(x @ x + 1.0)
        assert out._parents == () and out._backward is None
        assert (x @ x)._parents == (x, x)

    def test_mode_restored_after_an_exception(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            with T.no_grad():
                with T.no_grad():
                    pass
                assert (x * 2.0)._parents == ()
                raise RuntimeError("inside")
        assert (x * 2.0)._parents != ()

    def test_non_finite_values_still_rejected(self):
        with T.no_grad():
            with pytest.raises(ValueError):
                Tensor([float("nan")])
            with pytest.raises(ValueError):
                T.relu(Tensor([1.0])) * float("inf")


class TestFiniteness:
    def test_nan_rejected_at_boundary(self):
        with pytest.raises(ValueError):
            Tensor([1.0, float("nan")])

    def test_inf_rejected_at_boundary(self):
        with pytest.raises(ValueError):
            Tensor([float("inf")])

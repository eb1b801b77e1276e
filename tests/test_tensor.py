"""Numeric kernel: op-level oracles, backward correctness, Adam, grad_check."""

import math

import numpy as np
import pytest

from pgc import tensor as T
from pgc.tensor import ParamStore, Tensor


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


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_large_logit_stability(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0] - 1.0) < 1e-6
        assert out.data[1] < 1e-6

    def test_masked_row_by_hand(self):
        out = T.softmax(Tensor([1.0, 2.0, 3.0]), mask=np.array([False, False, True]))
        e = math.e
        assert np.allclose(out.data, [1 / (1 + e), e / (1 + e), 0.0], atol=1e-12)
        assert out.data[2] == 0.0

    def test_fully_masked_row_rejected(self):
        with pytest.raises(ValueError):
            T.softmax(Tensor([1.0, 2.0]), mask=np.array([True, True]))

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.normal(size=(4, 6)) * 10
            out = T.softmax(Tensor(x))
            assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(out.data >= 0)
            shifted = T.softmax(Tensor(x + 13.7))
            assert np.allclose(out.data, shifted.data, atol=1e-12)


class TestSigmoid:
    def test_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_large_input_strictly_below_one(self):
        value = T.sigmoid(Tensor(1e9)).item()
        assert value < 1.0
        assert T.sigmoid(Tensor(-1e9)).item() > 0.0

    def test_quarter_point(self):
        assert abs(T.sigmoid(Tensor(-math.log(3.0))).item() - 0.25) < 1e-12


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


class TestBackward:
    def test_linear_map_gradient_is_input_broadcast(self):
        store = ParamStore()
        w = store.add("w", np.zeros((2, 3)))
        x = np.array([[1.0], [2.0], [3.0]])
        T.vmean(w @ Tensor(x)).backward()
        assert np.array_equal(w.grad, np.tile(x.T, (2, 1)) / 2.0)

    def test_unused_parameter_has_zero_gradient(self):
        store = ParamStore()
        used = store.add("used", np.ones((2, 2)))
        store.add("unused", np.ones((2, 2)))
        T.vmean(used * used).backward()
        assert np.array_equal(store.gradient("unused"), np.zeros((2, 2)))

    def test_sum_of_losses_is_sum_of_gradients(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(3, 3))
        x1 = Tensor(data)
        T.vmean(T.relu(x1 @ x1.T)).backward()
        g_first = x1.grad.copy()
        x2 = Tensor(data)
        T.vmean(T.sigmoid(x2) * 2.0).backward()
        g_second = x2.grad.copy()

        x3 = Tensor(data)
        combined = T.vmean(T.relu(x3 @ x3.T)) + T.vmean(T.sigmoid(x3) * 2.0)
        combined.backward()
        assert np.max(np.abs(x3.grad - (g_first + g_second))) < 1e-10

    def test_gradients_accumulate_across_backward_calls(self):
        store = ParamStore()
        w = store.add("w", np.ones(4))
        T.vmean(w * 2.0).backward()
        T.vmean(w * 3.0).backward()
        assert np.array_equal(w.grad, np.full(4, 5.0 / 4.0))

    def test_backward_needs_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).backward()


class TestGradCheck:
    def test_quadratic(self):
        store = ParamStore()
        store.add("theta", np.array([1.0, -2.0, 0.5]))

        def f(s):
            return T.vmean(s["theta"] * s["theta"])

        assert T.grad_check(f, store) < 1e-8

    def test_softmax_cross_entropy_layer(self):
        store = ParamStore()
        store.add("w", np.random.default_rng(0).normal(size=(4, 3)))
        x = np.array([[0.3], [-1.2], [0.7], [2.0]])

        def f(s):
            logits = (s["w"].T @ Tensor(x)).T
            return T.sequence_nll(T.softmax(logits), [1])

        assert T.grad_check(f, store) < 1e-6

    def test_layer_norm_and_scatter(self):
        store = ParamStore()
        rng = np.random.default_rng(1)
        store.add("x", rng.normal(size=(2, 5)))
        store.add("g", rng.normal(size=5))
        store.add("b", rng.normal(size=5))

        def f(s):
            normed = T.layer_norm(s["x"], s["g"], s["b"])
            probs = T.softmax(normed)
            scattered = T.scatter_add_cols(probs, np.array([0, 1, 0, 2, 1]), 4)
            return T.sequence_nll(scattered, [0, 2])

        assert T.grad_check(f, store) < 1e-6


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        store = ParamStore()
        p = store.add("p", np.array([1.0, 2.0]))
        before = p.data.copy()
        T.adam_step(store, lr=0.1)
        assert np.array_equal(p.data, before)

    def test_constant_gradient_moves_against_its_sign(self):
        store = ParamStore()
        p = store.add("p", np.zeros(2))
        for _ in range(50):
            p.grad = np.array([1.0, -1.0])
            T.adam_step(store, lr=0.01)
        assert p.data[0] < 0 < p.data[1]

    def test_first_step_from_zero_state_moves_by_lr(self):
        # bias correction makes m_hat = g and v_hat = g^2 on step one
        store = ParamStore()
        p = store.add("p", np.zeros(3))
        p.grad = np.ones(3)
        lr = 2e-5
        T.adam_step(store, lr=lr)
        assert np.max(np.abs(p.data - (-lr))) < 1e-12
        assert store.step == 1

    def test_deterministic_given_state_and_gradients(self):
        def run():
            store = ParamStore()
            p = store.add("p", np.array([0.3, -0.7]))
            for k in range(5):
                p.grad = np.array([0.1 * k, -0.2])
                T.adam_step(store, lr=1e-3)
            return p.data.copy()

        assert np.array_equal(run(), run())


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("p", np.zeros(2))
        with pytest.raises(ValueError):
            store.add("p", np.zeros(2))

    def test_clip_grad_norm(self):
        store = ParamStore()
        p = store.add("p", np.zeros(2))
        q = store.add("q", np.zeros(2))
        p.grad = np.array([3.0, 0.0])
        q.grad = np.array([0.0, 4.0])
        norm = store.clip_grad_norm(1.0)
        assert abs(norm - 5.0) < 1e-12
        assert abs(store.global_grad_norm() - 1.0) < 1e-9

    def test_clip_is_noop_below_threshold(self):
        store = ParamStore()
        p = store.add("p", np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        store.clip_grad_norm(1.0)
        assert np.array_equal(p.grad, [0.3, 0.4])


class TestFiniteness:
    def test_nan_rejected_at_boundary(self):
        with pytest.raises(ValueError):
            Tensor([1.0, float("nan")])

    def test_inf_rejected_at_boundary(self):
        with pytest.raises(ValueError):
            Tensor([float("inf")])

"""Dense numeric kernel with reverse-mode differentiation.

Covers exactly what the encoder-decoder and its copy head need: linear
maps, masked softmax, elementwise nonlinearities, layer normalisation,
gather/scatter for embeddings and copy distributions, the sequence
negative log-likelihood, gradient checking, and a bias-corrected Adam
step.  Everything runs in float64 so analytic gradients can be
validated against central finite differences.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

# Inputs with |x| above this are saturated before the sigmoid so the
# result stays strictly inside (0, 1) in float64.
_SIGMOID_CLIP = 30.0
_LOG_FLOOR = 1e-12


class Tensor:
    """A node in a reverse-mode differentiation graph.

    ``data`` is a float64 ndarray.  ``grad`` is filled by ``backward``
    and accumulates across calls for leaf tensors (parameters), which is
    what batch-level gradient accumulation relies on.  Non-finite values
    are rejected at construction, i.e. at every operation boundary.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite values entering the computation graph")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = _parents
        self._backward: Callable[[], None] | None = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar node.

        Gradients of leaves are accumulated (+=) so separate losses can
        share parameters; call ``ParamStore.zero_grad`` between batches.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar node")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()

    # -- operator sugar --

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -as_tensor(other))

    def __rsub__(self, other):
        return add(as_tensor(other), -self)

    def __truediv__(self, scalar):
        return mul(self, 1.0 / float(scalar))

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out the axes numpy broadcasting introduced or stretched."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, (a, b))

    def backward():
        a.accumulate_grad(_unbroadcast(out.grad, a.data.shape))
        b.accumulate_grad(_unbroadcast(out.grad, b.data.shape))

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, (a, b))

    def backward():
        a.accumulate_grad(_unbroadcast(out.grad * b.data, a.data.shape))
        b.accumulate_grad(_unbroadcast(out.grad * a.data, b.data.shape))

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def backward():
        a.accumulate_grad(out.grad @ b.data.T)
        b.accumulate_grad(a.data.T @ out.grad)

    out._backward = backward
    return out


def transpose(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.T, (a,))

    def backward():
        a.accumulate_grad(out.grad.T)

    out._backward = backward
    return out


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), (a,))

    def backward():
        a.accumulate_grad(out.grad.reshape(a.data.shape))

    out._backward = backward
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), (a,))

    def backward():
        a.accumulate_grad(out.grad * (a.data > 0.0))

    out._backward = backward
    return out


def sigmoid(a) -> Tensor:
    """Logistic function, saturated so outputs stay strictly in (0, 1)."""
    a = as_tensor(a)
    x = np.clip(a.data, -_SIGMOID_CLIP, _SIGMOID_CLIP)
    y = 1.0 / (1.0 + np.exp(-x))
    out = Tensor(y, (a,))

    def backward():
        a.accumulate_grad(out.grad * y * (1.0 - y))

    out._backward = backward
    return out


def softmax(x, mask=None) -> Tensor:
    """Row-wise softmax with max-subtraction; masked entries are exactly 0.

    ``mask`` is boolean with ``x``'s shape (or broadcastable to it);
    True marks positions excluded from the distribution.  Every row must
    keep at least one unmasked entry.  1-D input is treated as one row.
    """
    x = as_tensor(x)
    one_dim = x.data.ndim == 1
    data = x.data[None, :] if one_dim else x.data
    if data.ndim != 2:
        raise ValueError(f"softmax expects a 1-D or 2-D input, got shape {x.data.shape}")
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), data.shape)
        if np.any(mask.all(axis=1)):
            raise ValueError("softmax row is fully masked")
        shifted = np.where(mask, -np.inf, data)
        shifted = shifted - shifted.max(axis=1, keepdims=True)
        e = np.where(mask, 0.0, np.exp(np.where(mask, 0.0, shifted)))
    else:
        shifted = data - data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y[0] if one_dim else y, (x,))

    def backward():
        g = out.grad[None, :] if one_dim else out.grad
        inner = (g * y).sum(axis=1, keepdims=True)
        dx = y * (g - inner)
        if mask is not None:
            dx = np.where(mask, 0.0, dx)
        x.accumulate_grad(dx[0] if one_dim else dx)

    out._backward = backward
    return out


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Per-row normalisation with learnable gain and bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data, (x, gain, bias))

    def backward():
        g = out.grad
        dxhat = g * gain.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        x.accumulate_grad(dx)
        axes = tuple(range(g.ndim - 1))
        gain.accumulate_grad((g * xhat).sum(axis=axes))
        bias.accumulate_grad(g.sum(axis=axes))

    out._backward = backward
    return out


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), tuple(parts))
    widths = [p.data.shape[1] for p in parts]

    def backward():
        offset = 0
        for p, w in zip(parts, widths):
            p.accumulate_grad(out.grad[:, offset:offset + w])
            offset += w

    out._backward = backward
    return out


def slice_cols(x, lo: int, hi: int) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data[:, lo:hi], (x,))

    def backward():
        g = np.zeros_like(x.data)
        g[:, lo:hi] = out.grad
        x.accumulate_grad(g)

    out._backward = backward
    return out


def embed_rows(table, ids) -> Tensor:
    """Gather rows of an embedding table: out[i] = table[ids[i]]."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("embed_rows expects a 1-D id list")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError("embedding id out of range")
    out = Tensor(table.data[ids], (table,))

    def backward():
        g = np.zeros_like(table.data)
        np.add.at(g, ids, out.grad)
        table.accumulate_grad(g)

    out._backward = backward
    return out


def scatter_add_cols(weights, col_ids, n_cols: int) -> Tensor:
    """Sum each row's weights into columns: out[r, col_ids[c]] += w[r, c]."""
    weights = as_tensor(weights)
    col_ids = np.asarray(col_ids, dtype=np.int64)
    rows, cols = weights.data.shape
    if col_ids.shape != (cols,):
        raise ValueError("col_ids length must match the number of weight columns")
    if col_ids.size and (col_ids.min() < 0 or col_ids.max() >= n_cols):
        raise ValueError("scatter column id out of range")
    data = np.zeros((rows, n_cols))
    np.add.at(data, (slice(None), col_ids), weights.data)
    out = Tensor(data, (weights,))

    def backward():
        weights.accumulate_grad(out.grad[:, col_ids])

    out._backward = backward
    return out


def pick_cols(p, ids) -> Tensor:
    """One entry per row: out[r] = p[r, ids[r]]."""
    p = as_tensor(p)
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.arange(p.data.shape[0])
    if ids.shape != (p.data.shape[0],):
        raise ValueError("pick_cols needs one id per row")
    if ids.size and (ids.min() < 0 or ids.max() >= p.data.shape[1]):
        raise ValueError("pick_cols id out of range")
    out = Tensor(p.data[rows, ids], (p,))

    def backward():
        g = np.zeros_like(p.data)
        g[rows, ids] = out.grad
        p.accumulate_grad(g)

    out._backward = backward
    return out


def log_clamped(x, floor: float = _LOG_FLOOR) -> Tensor:
    """log(max(x, floor)); the floor keeps exact-zero probabilities finite."""
    x = as_tensor(x)
    clamped = np.maximum(x.data, floor)
    out = Tensor(np.log(clamped), (x,))

    def backward():
        x.accumulate_grad(out.grad * np.where(x.data > floor, 1.0 / clamped, 0.0))

    out._backward = backward
    return out


def vmean(x) -> Tensor:
    x = as_tensor(x)
    n = x.data.size
    out = Tensor(x.data.mean(), (x,))

    def backward():
        x.accumulate_grad(np.full_like(x.data, out.grad.item() / n))

    out._backward = backward
    return out


def sequence_nll(p_rows, gold_ids, floor: float = _LOG_FLOOR) -> Tensor:
    """Mean negative log-probability of gold ids, one per distribution row."""
    return vmean(-log_clamped(pick_cols(p_rows, gold_ids), floor))


class ParamStore:
    """Named trainable arrays plus their gradients and Adam state."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, name: str, values) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(values)
        self._params[name] = t
        self.adam_m[name] = np.zeros_like(t.data)
        self.adam_v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def n_values(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def gradient(self, name: str) -> np.ndarray:
        t = self._params[name]
        return t.grad if t.grad is not None else np.zeros_like(t.data)

    def global_grad_norm(self) -> float:
        total = 0.0
        for name in self._params:
            g = self.gradient(name)
            total += float((g * g).sum())
        return math.sqrt(total)

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so the global norm is at most ``max_norm``."""
        norm = self.global_grad_norm()
        if norm > max_norm:
            scale = max_norm / (norm + 1e-12)
            for t in self._params.values():
                if t.grad is not None:
                    t.grad = t.grad * scale
        return norm


def adam_step(store: ParamStore, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> ParamStore:
    """Bias-corrected Adam update over every parameter in the store."""
    store.step += 1
    t = store.step
    for name, param in store.items():
        g = store.gradient(name)
        m = store.adam_m[name] = beta1 * store.adam_m[name] + (1.0 - beta1) * g
        v = store.adam_v[name] = beta2 * store.adam_v[name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        param.data = param.data - lr * m_hat / (np.sqrt(v_hat) + eps)
    return store


def grad_check(f: Callable[[ParamStore], Tensor], store: ParamStore,
               eps: float = 1e-5, max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the store to a scalar Tensor.  Every coordinate is probed
    unless ``max_coords_per_param`` caps the sample per parameter.
    The relative error is |g_a - g_n| / max(|g_a|, |g_n|, 1e-8).
    """
    store.zero_grad()
    f(store).backward()
    analytic = {name: store.gradient(name).copy() for name in store.names()}
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for name, param in store.items():
        size = param.data.size
        if max_coords_per_param is not None and size > max_coords_per_param:
            coords = rng.choice(size, size=max_coords_per_param, replace=False)
        else:
            coords = range(size)
        flat = param.data.reshape(-1)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + eps
            f_plus = f(store).data.item()
            flat[idx] = original - eps
            f_minus = f(store).data.item()
            flat[idx] = original
            numeric = (f_plus - f_minus) / (2.0 * eps)
            exact = analytic[name].reshape(-1)[idx]
            rel = abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst

"""Dense numeric kernel with reverse-mode differentiation.

Covers exactly what the encoder-decoder and its copy head need: linear
maps (against one shared matrix, or stacked with one matrix per leading
index), softmax, masked multi-head attention on rows as one op, a
weighted sum over a leading axis, elementwise nonlinearities, layer
normalisation, gather/scatter for embeddings and copy distributions,
the sequence negative log-likelihood as one op, gradient checking,
and a bias-corrected Adam step.  Every op takes any number of leading axes (a
mini-batch, a stack of encoder layers, or both).  Everything runs in
float64 so analytic gradients can be validated against central finite
differences.

Each op's backward closure holds its inputs but not its output, so a
graph has no reference cycles and is freed as soon as its last handle
goes.  Inside ``no_grad()`` ops record no inputs and no closure at all.

A ``ParamStore`` keeps all parameters in one contiguous vector, and
their gradients and Adam moments in three more of the same layout; each
named parameter is a reshaped view into them.  Backward adds a
parameter's gradient into its view in place, and zeroing, clipping,
the finiteness check and Adam are each a few whole-vector numpy calls
that write in place: a parameter's ``data`` array is updated, never
replaced.

NaN/inf is rejected where values enter: by a public ``Tensor(...)``, by
``add``/``mul`` for a Python number, which stays a plain float, and by
``train.checkpoint_load``; a ``ParamStore`` is built zeroed and filled
only there and by ``model.init_params``, whose draws are finite.  Op
results are not scanned; the model checks its output distributions once
per forward pass and training checks the loss and gradients each step.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

# Inputs with |x| above this are saturated before the sigmoid so the
# result stays strictly inside (0, 1) in float64.
_SIGMOID_CLIP = 30.0
# Probabilities below this are read as it by ``sequence_nll``.
_LOG_FLOOR = 1e-12
# Added to the variance in ``layer_norm``.
_LAYER_NORM_EPS = 1e-5
# Adam's beta1, beta2 (moment decay rates) and eps (the denominator's offset).
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# Half the width of ``grad_check``'s central differences.
_FD_STEP = 1e-5
# False inside ``no_grad``; read by ``_result`` at every op.
_recording = True


@contextmanager
def no_grad():
    """Ops inside the block record no graph: results are plain values.

    The previous mode is restored on exit, also when the block raises.
    """
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


class Tensor:
    """A node in a reverse-mode differentiation graph.

    ``data`` is a float64 ndarray.  ``grad`` is filled by ``backward``
    and accumulates across calls for leaf tensors (parameters), which is
    what batch-level gradient accumulation relies on.  Non-finite values
    are rejected at construction; op results (``_check=False``) skip
    that scan.  ``_backward(g)`` adds this node's share of the output
    gradient ``g`` to each parent.
    """

    __slots__ = ("data", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, _parents=(), _backward=None, _check=True):
        arr = np.asarray(data, dtype=np.float64)
        if _check and not np.isfinite(arr).all():
            raise ValueError("non-finite values entering the computation graph")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = _parents
        self._backward: Callable[[np.ndarray], None] | None = _backward

    def item(self) -> float:
        return self.data.item()

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``grad``.  An op result keeps its first ``g`` and
        adds later ones out of place, never writing an array another node
        holds; a leaf owns its gradient (a view into a ``ParamStore``'s
        ``flat_grad``, or a copy of its first ``g``) and adds in place."""
        if self._backward is not None:
            self.grad = g if self.grad is None else self.grad + g
        elif self.grad is None:
            self.grad = np.array(g)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar node.

        Gradients of leaves are accumulated (+=) so separate losses can
        share parameters; call ``ParamStore.zero_grad`` between batches.
        An interior node's gradient is dropped once it has been passed
        on to the node's parents.
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
                node._backward(node.grad)
                node.grad = None

    # -- operator sugar --

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __rsub__(self, c):
        """``c - self`` for a number ``c``, one op whose backward passes ``-g``."""
        x, c = _operands(self, c)
        return _result(c - x.data, (x,), lambda g: x.accumulate_grad(-g))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output, not scanned for NaN/inf: a graph node, or a plain
    value inside ``no_grad``."""
    return Tensor(data, parents, backward, False) if _recording else Tensor(data, (), None, False)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out the axes numpy broadcasting introduced or stretched."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _operands(a, b) -> tuple[Tensor, Tensor | float]:
    """A commutative op's operands, Tensor first; a Python number stays a float."""
    if isinstance(a, (int, float)):
        a, b = b, a
    if not isinstance(b, (int, float)):
        return as_tensor(a), as_tensor(b)
    if not math.isfinite(b):
        raise ValueError("non-finite values entering the computation graph")
    return as_tensor(a), float(b)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    if isinstance(b, float):
        return _result(a.data + b, (a,), a.accumulate_grad)

    def backward(g):
        a.accumulate_grad(_unbroadcast(g, a.data.shape))
        b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _result(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    if isinstance(b, float):
        return _result(a.data * b, (a,), lambda g: a.accumulate_grad(g * b))

    def backward(g):
        a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return _result(a.data * b.data, (a, b), backward)


def _swap_last(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes: ``[..., i, k] @ [k, j]``
    against one shared matrix, or ``[..., i, k] @ [..., k, j]`` with one
    product per leading index."""
    a, b = as_tensor(a), as_tensor(b)
    x, w = a.data, b.data
    shared = w.ndim == 2
    if x.ndim < 2 or not (shared or w.shape[:-2] == x.shape[:-2]):
        raise ValueError(f"matmul expects [..., i, k] @ [k, j] or stacks with equal "
                         f"leading axes, got {x.shape} @ {w.shape}")
    if x.shape[-1] != w.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {w.shape}")

    def backward(g):
        a.accumulate_grad(g @ _swap_last(w))
        if shared:   # sum over every leading index
            b.accumulate_grad(x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        else:
            b.accumulate_grad(_swap_last(x) @ g)

    return _result(x @ w, (a, b), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate_grad(g.reshape(a.data.shape))

    return _result(a.data.reshape(shape), (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate_grad(g * (a.data > 0.0))

    return _result(np.maximum(a.data, 0.0), (a,), backward)


def sigmoid(a) -> Tensor:
    """Logistic function, saturated so outputs stay strictly in (0, 1)."""
    a = as_tensor(a)
    x = np.clip(a.data, -_SIGMOID_CLIP, _SIGMOID_CLIP)
    y = 1.0 / (1.0 + np.exp(-x))

    def backward(g):
        a.accumulate_grad(g * y * (1.0 - y))

    return _result(y, (a,), backward)


def softmax(x) -> Tensor:
    """Softmax over the last axis with max-subtraction."""
    x = as_tensor(x)
    if x.data.ndim == 0:
        raise ValueError("softmax needs at least one axis")
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        x.accumulate_grad(y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _result(y, (x,), backward)


def _split_array(x: np.ndarray, n_heads: int) -> np.ndarray:
    """``[..., R, n_heads * dh] -> [..., n_heads, R, dh]``, a view."""
    return x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)).swapaxes(-3, -2)


def _merge_array(x: np.ndarray) -> np.ndarray:
    """``[..., n_heads, R, dh] -> [..., R, n_heads * dh]``."""
    return x.swapaxes(-3, -2).reshape(x.shape[:-3] + (x.shape[-2], x.shape[-3] * x.shape[-1]))


def attention(q, k, v=None, mask=None, n_heads: int = 1) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention of ``n_heads`` heads as one op: the
    output rows, and the weights array ``[..., n_heads, R, L]``.

    ``q`` is ``[..., R, n_heads * dh]``, ``k`` ``[..., L, n_heads * dh]``,
    ``v`` ``[..., L, n_heads * dv]``; head h takes columns ``h * dh`` to
    ``(h + 1) * dh`` into ``softmax(q_h @ k_h^T / sqrt(dh)) @ v_h``, joined
    back into rows.  With ``v=None`` the output is the weights.  Leading
    axes broadcast, so one ``q`` can read a stack of key sets.  ``mask``
    (bool, broadcastable to ``[..., R, L]``) gives True keys weight 0;
    every row must keep one key, which is checked only when a mask is
    given: without one no row can lose all its keys."""
    q, k = as_tensor(q), as_tensor(k)
    v = None if v is None else as_tensor(v)
    if q.data.shape[-1] % n_heads or k.data.shape[-1] != q.data.shape[-1]:
        raise ValueError(f"cannot attend {q.data.shape} to {k.data.shape} with {n_heads} heads")
    scale = 1.0 / math.sqrt(q.data.shape[-1] // n_heads)
    qh, kh = _split_array(q.data, n_heads), _split_array(k.data, n_heads)
    vh = None if v is None else _split_array(v.data, n_heads)
    logits = (qh @ _swap_last(kh)) * scale
    if mask is not None:
        mask = np.asarray(mask)
        logits = np.where(mask[..., None, :, :] if mask.ndim > 1 else mask, -np.inf, logits)
        if mask.all(axis=-1).any():
            raise ValueError("attention row is fully masked")
    top = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - top)
    w = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if v is not None:
            g = _split_array(g, n_heads)
            v.accumulate_grad(_merge_array(_unbroadcast(_swap_last(w) @ g, vh.shape)))
            g = g @ _swap_last(vh)
        dl = w * (g - (g * w).sum(axis=-1, keepdims=True)) * scale
        q.accumulate_grad(_merge_array(_unbroadcast(dl @ kh, qh.shape)))
        dk = _swap_last(_swap_last(qh) @ dl)
        k.accumulate_grad(_merge_array(_unbroadcast(dk, kh.shape)))

    if v is None:
        return _result(w, (q, k), backward), w
    return _result(_merge_array(w @ vh), (q, k, v), backward), w


def contract_first(weights, x) -> Tensor:
    """``sum_i weights[i] * x[i]`` over the first axis of ``x``, in index order."""
    weights, x = as_tensor(weights), as_tensor(x)
    if x.data.ndim == 0 or x.data.shape[:1] != weights.data.shape:
        raise ValueError(f"cannot contract {weights.data.shape} with {x.data.shape}")
    w = weights.data.reshape((-1,) + (1,) * (x.data.ndim - 1))

    def backward(g):
        prod = x.data * g
        if prod.ndim > 3:   # batch axes, then rows: the order a per-slice scalar sums in
            prod = prod.reshape(len(w), -1, *prod.shape[-2:]).sum(axis=1)
        weights.accumulate_grad(prod.reshape(len(w), -1).sum(axis=1))
        x.accumulate_grad(w * g)

    return _result((w * x.data).sum(axis=0), (weights, x), backward)


def layer_norm(x, gain, bias) -> Tensor:
    """Per-row normalisation with learnable gain and bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.data.shape[-1]
    centred = x.data - x.data.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((centred * centred).sum(axis=-1, keepdims=True) / n + _LAYER_NORM_EPS)
    xhat = centred * inv

    def backward(g):
        dxhat = g * gain.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        x.accumulate_grad(dx)
        axes = tuple(range(g.ndim - 1))
        gain.accumulate_grad((g * xhat).sum(axis=axes))
        bias.accumulate_grad(g.sum(axis=axes))

    return _result(xhat * gain.data + bias.data, (x, gain, bias), backward)


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    """Join tensors along ``axis``; the other axes must agree."""
    parts = [as_tensor(p) for p in parts]

    def backward(g):
        bounds = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
        for p, piece in zip(parts, np.split(g, bounds, axis=axis)):
            p.accumulate_grad(piece)

    return _result(np.concatenate([p.data for p in parts], axis=axis), tuple(parts),
                   backward)


def pad_cols(x, n_cols: int) -> Tensor:
    """Zero columns appended on the last axis up to ``n_cols`` in all."""
    x = as_tensor(x)
    width = x.data.shape[-1]
    if n_cols < width:
        raise ValueError(f"cannot pad {width} columns to {n_cols}")
    if n_cols == width:
        return x
    data = np.zeros(x.data.shape[:-1] + (n_cols,))
    data[..., :width] = x.data

    def backward(g):
        x.accumulate_grad(g[..., :width])

    return _result(data, (x,), backward)


def embed_rows(table, ids) -> Tensor:
    """Gather rows of an embedding table: out[..., i] = table[ids[..., i]]."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 0:
        raise ValueError("embed_rows expects an id list")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError("embedding id out of range")

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, full.shape[-1]))
        table.accumulate_grad(full)

    return _result(table.data[ids], (table,), backward)


def scatter_add_cols(weights, col_ids, n_cols: int) -> Tensor:
    """Sum each row's weights into columns: out[..., r, col_ids[..., c]] +=
    w[..., r, c], adding in column order.  ``weights`` is ``[..., R, C]``
    and ``col_ids`` ``[..., C]``, one id list per leading index."""
    weights = as_tensor(weights)
    col_ids = np.asarray(col_ids, dtype=np.int64)
    *lead, rows, cols = weights.data.shape
    if col_ids.shape != (*lead, cols):
        raise ValueError("col_ids length must match the number of weight columns")
    if col_ids.size and (col_ids.min() < 0 or col_ids.max() >= n_cols):
        raise ValueError("scatter column id out of range")
    slots = (np.arange(weights.data.size // cols).reshape(*lead, rows, 1) * n_cols
             + col_ids[..., None, :])
    data = np.bincount(slots.reshape(-1), weights.data.reshape(-1),
                       minlength=slots.size // cols * n_cols)

    def backward(g):
        weights.accumulate_grad(np.take_along_axis(g, col_ids[..., None, :], axis=-1))

    return _result(data.reshape(*lead, rows, n_cols), (weights,), backward)


def sequence_nll(p_rows, gold_ids, weights=None) -> Tensor:
    """Negative log-probability of gold ids, one per distribution row,
    summed with ``weights`` (one per row; weight 0 leaves a row out).
    Without weights every row weighs 1/n: the mean over the rows.  A
    probability below ``_LOG_FLOOR`` is read as the floor, with no
    gradient."""
    p = as_tensor(p_rows)
    ids = np.asarray(gold_ids, dtype=np.int64)
    if ids.shape != p.data.shape[:-1]:
        raise ValueError("sequence_nll needs one gold id per row")
    if ids.size and (ids.min() < 0 or ids.max() >= p.data.shape[-1]):
        raise ValueError("sequence_nll gold id out of range")
    if weights is None:
        weights = np.full(ids.shape, 1.0 / ids.size)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != ids.shape:
        raise ValueError(f"weights of shape {weights.shape} for rows of shape {ids.shape}")
    index = ids[..., None]
    gold = np.take_along_axis(p.data, index, axis=-1)[..., 0]
    clamped = np.maximum(gold, _LOG_FLOOR)

    def backward(g):
        full = np.zeros_like(p.data)
        dgold = g * weights * -1.0 * np.where(gold > _LOG_FLOOR, 1.0 / clamped, 0.0)
        np.put_along_axis(full, index, dgold[..., None], axis=-1)
        p.accumulate_grad(full)

    return _result((np.log(clamped) * -1.0 * weights).sum(), (p,), backward)


class ParamStore:
    """Named trainable arrays plus their gradients and Adam state, built
    zeroed from their layout (a name -> shape dict): views, in its order,
    into the vectors ``flat``, ``flat_grad``, ``flat_m`` and ``flat_v``.
    A fifth vector of that size is scratch space for the norm and Adam."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        n = sum(math.prod(shape) for shape in shapes.values())
        self.flat, self.flat_grad, self.flat_m, self.flat_v = np.zeros((4, n))
        self._scratch = np.empty(n)
        self._params: dict[str, Tensor] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self._slices: list[slice] = []
        lo = 0
        for name, shape in shapes.items():
            part = slice(lo, lo + math.prod(shape))
            data, grad, m, v = (flat[part].reshape(shape) for flat in
                                (self.flat, self.flat_grad, self.flat_m, self.flat_v))
            param = self._params[name] = Tensor(data, _check=False)
            param.grad = grad
            self.adam_m[name], self.adam_v[name] = m, v
            self._slices.append(part)
            lo = part.stop
        self.step = 0

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def n_values(self) -> int:
        return self.flat.size

    def non_finite(self, flat: np.ndarray) -> str | None:
        """The first parameter whose part of ``flat`` (one of the store's
        vectors) holds NaN or inf, or None."""
        if np.isfinite(flat).all():
            return None
        return next(name for name, part in zip(self._params, self._slices)
                    if not np.isfinite(flat[part]).all())

    def zero_grad(self) -> None:
        self.flat_grad.fill(0.0)

    def global_grad_norm(self) -> float:
        """The Euclidean norm of all gradients, summed in store order over
        each parameter's own sum of squares."""
        squares = np.multiply(self.flat_grad, self.flat_grad, out=self._scratch)
        return math.sqrt(sum(float(squares[part].sum()) for part in self._slices))

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so the global norm is at most ``max_norm``."""
        norm = self.global_grad_norm()
        if norm > max_norm:
            self.flat_grad *= max_norm / (norm + 1e-12)
        return norm


def adam_step(store: ParamStore, lr: float) -> ParamStore:
    """Bias-corrected Adam update of every parameter, in place over the
    store's flat vectors:
    ``p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)``.

    The gradients are used up: once read, ``flat_grad`` holds the step,
    and it is left zeroed."""
    store.step += 1
    t = store.step
    g, m, v, scratch = store.flat_grad, store.flat_m, store.flat_v, store._scratch
    v *= _ADAM_BETA2
    v += np.multiply(np.multiply(g, 1.0 - _ADAM_BETA2, out=scratch), g, out=scratch)
    m *= _ADAM_BETA1
    m += np.multiply(g, 1.0 - _ADAM_BETA1, out=g)   # the last read of the gradients
    step = np.divide(m, 1.0 - _ADAM_BETA1 ** t, out=g)
    step *= lr
    denom = np.divide(v, 1.0 - _ADAM_BETA2 ** t, out=scratch)
    np.sqrt(denom, out=denom)
    denom += _ADAM_EPS
    step /= denom
    store.flat -= step
    step.fill(0.0)
    return store


def grad_check(f: Callable[[ParamStore], Tensor], store: ParamStore,
               max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the store to a scalar Tensor.  Every coordinate is probed
    unless ``max_coords_per_param`` caps the sample per parameter.
    The relative error is |g_a - g_n| / max(|g_a|, |g_n|, 1e-8).
    """
    store.zero_grad()
    f(store).backward()
    analytic = store.flat_grad.copy()
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for part in store._slices:
        size = part.stop - part.start
        if max_coords_per_param is not None and size > max_coords_per_param:
            coords = part.start + rng.choice(size, size=max_coords_per_param, replace=False)
        else:
            coords = range(part.start, part.stop)
        for idx in coords:
            original = store.flat[idx]
            store.flat[idx] = original + _FD_STEP
            f_plus = f(store).data.item()
            store.flat[idx] = original - _FD_STEP
            f_minus = f(store).data.item()
            store.flat[idx] = original
            numeric = (f_plus - f_minus) / (2.0 * _FD_STEP)
            exact = analytic[idx]
            rel = abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst

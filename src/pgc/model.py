"""Encoder-decoder with a multi-view copy head and a generation gate.

The backbone is a standard transformer at configurable toy scale.  On
top of the final decoder state sit four pieces:

  * a copy attention that is a learnable convex combination of scaled
    dot-product attentions over *every* encoder layer's outputs;
  * a scatter step turning that attention into a distribution over the
    extended vocabulary (generator vocabulary + per-example ids for
    source tokens the generator cannot produce);
  * a sigmoid gate deciding between generating and copying, driven by
    the copy-weighted context vector and the decoder state;
  * a vocabulary softmax, mixed with the copy distribution by the gate.

Training and inference share one forward pass.  Every function takes
one example or a padded mini-batch of them on a leading axis; training
passes a whole batch at once, and greedy decoding is the batch of one.
Inference is greedy (ties go to the lowest id) and incremental: it runs
without a graph, computes the encoder-side projections and the
parameter-only values once per source and feeds the decoder one new
position per step against cached self-attention keys and values.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .prompt import BOS, EOS, PAD, UNK, PromptedExample
from .tensor import ParamStore, Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the network.  Defaults are the desk-scale setting."""
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    d_k: int | None = None
    vocab_size: int = 512
    max_source_len: int = 64
    max_target_len: int = 16
    d_ff: int | None = None

    def __post_init__(self):
        counts = (self.n_enc_layers, self.n_dec_layers, self.d_model,
                  self.n_heads, self.vocab_size, self.max_source_len,
                  self.max_target_len)
        if any(c < 1 for c in counts):
            raise ValueError("all model dimensions must be >= 1")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")

    @property
    def copy_d_k(self) -> int:
        return self.d_k if self.d_k is not None else self.d_model // self.n_heads

    @property
    def ffn_dim(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.d_model


@dataclass
class EncoderStack:
    """Every encoder layer's output, kept for the multi-view copy head.

    A stack holds one source, or a padded batch of sources on a leading
    axis ``...``.  ``extended_size`` is the largest extended vocabulary
    among them; the columns past an example's own size stay zero.

    ``cached`` keeps what depends only on the source and the parameters
    (all copy keys as one stack, the cross-attention keys and values, the
    layer weights, the gate's weight columns), so a stack computes each
    once however many decoder passes read it.  A stack is valid for the
    parameter values it was encoded with.
    """
    layers: list[Tensor]                  # each [..., source_len, d_model]
    attn_maps: list[np.ndarray]           # per layer [..., n_heads, L, L]
    pad_mask: np.ndarray                  # [..., L] bool, True at padding
    source_ext_ids: np.ndarray            # [..., L] extended-vocabulary ids
    extended_size: int
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def source_len(self) -> int:
        return int(self.source_ext_ids.shape[-1])

    def cached(self, key: str, make):
        """``make()`` on the first call for ``key``, the same value after."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = make()
        return value


@dataclass
class DecoderCache:
    """Decoder self-attention keys and values of the positions decoded so
    far, per layer: keys transposed, ``[..., n_heads, head_dim, length]``,
    values ``[..., n_heads, length, head_dim]``."""
    keys_t: list[Tensor] = field(default_factory=list)
    values: list[Tensor] = field(default_factory=list)

    @property
    def length(self) -> int:
        return self.values[0].data.shape[-2] if self.values else 0

    def extend(self, layer: int, keys_t: Tensor, values: Tensor) -> tuple[Tensor, Tensor]:
        """Append new positions to ``layer``'s keys and values; returns all of them."""
        if layer < len(self.values):
            keys_t = T.concat([self.keys_t[layer], keys_t], axis=-1)
            values = T.concat([self.values[layer], values], axis=-2)
            self.keys_t[layer], self.values[layer] = keys_t, values
        else:
            self.keys_t.append(keys_t)
            self.values.append(values)
        return keys_t, values


@dataclass
class Forward:
    """Handles for one forward pass, one row per decoder position passed
    (per example of a batch, on the leading axis)."""
    states: Tensor
    alpha: Tensor
    p_gen: Tensor
    p_vocab: Tensor
    p_copy: Tensor
    p_final: Tensor


def sinusoidal_positions(n: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos position table, one row per position."""
    positions = np.arange(n)[:, None].astype(np.float64)
    dims = np.arange(d_model)[None, :].astype(np.float64)
    angles = positions / np.power(10000.0, 2.0 * (dims // 2) / d_model)
    return np.where(dims % 2 == 0, np.sin(angles), np.cos(angles))


def _glorot(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


def init_params(config: ModelConfig, seed: int = 0) -> ParamStore:
    """Fresh parameter store for the given shape."""
    rng = np.random.default_rng(seed)
    d, v, dff, dk = config.d_model, config.vocab_size, config.ffn_dim, config.copy_d_k
    store = ParamStore()
    store.add("embed", rng.normal(0.0, 0.02, size=(v, d)))

    def add_attention(prefix: str) -> None:
        for name in ("wq", "wk", "wv", "wo"):
            store.add(f"{prefix}.{name}", _glorot(rng, d, d))

    def add_block(prefix: str, n_norms: int) -> None:
        store.add(f"{prefix}.ffn.w1", _glorot(rng, d, dff))
        store.add(f"{prefix}.ffn.b1", np.zeros(dff))
        store.add(f"{prefix}.ffn.w2", _glorot(rng, dff, d))
        store.add(f"{prefix}.ffn.b2", np.zeros(d))
        for k in range(1, n_norms + 1):
            store.add(f"{prefix}.ln{k}.g", np.ones(d))
            store.add(f"{prefix}.ln{k}.b", np.zeros(d))

    for i in range(config.n_enc_layers):
        add_attention(f"enc{i}.self")
        add_block(f"enc{i}", n_norms=2)
    for i in range(config.n_dec_layers):
        add_attention(f"dec{i}.self")
        add_attention(f"dec{i}.cross")
        add_block(f"dec{i}", n_norms=3)

    store.add("copy.w_s", _glorot(rng, d, dk))
    for i in range(config.n_enc_layers):
        store.add(f"copy.w_h{i}", _glorot(rng, d, dk))
    store.add("copy.a_raw", np.zeros(config.n_enc_layers))
    store.add("gate.w_c", np.zeros(d))
    store.add("gate.w_s", np.zeros(d))
    store.add("gate.b", np.zeros(1))
    store.add("out.w_v", _glorot(rng, d, v))
    store.add("out.b_v", np.zeros(v))
    return store


def _heads(x: Tensor, name: str, params: ParamStore, config: ModelConfig) -> Tensor:
    """``x @ params[name]`` split into heads, ``[..., n_heads, L, head_dim]``."""
    return T.split_heads(x @ params[name], config.n_heads)


def _keys_values(x: Tensor, prefix: str, params: ParamStore,
                 config: ModelConfig) -> tuple[Tensor, Tensor]:
    """Transposed keys ``[..., n_heads, head_dim, L]`` and values of ``x``."""
    return (_heads(x, f"{prefix}.wk", params, config).T,
            _heads(x, f"{prefix}.wv", params, config))


def _multi_head_attention(x_query: Tensor, keys_t: Tensor, values: Tensor, prefix: str,
                          params: ParamStore, config: ModelConfig,
                          mask) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention of every head at once.

    Returns the output rows and the weights ``[..., n_heads, L_query, L_key]``.
    """
    q = _heads(x_query, f"{prefix}.wq", params, config)
    out, weights = T.attention(q, keys_t, values, mask, 1.0 / math.sqrt(q.data.shape[-1]))
    return T.merge_heads(out) @ params[f"{prefix}.wo"], weights


@functools.lru_cache(maxsize=None)
def _position_table(n: int, d_model: int) -> np.ndarray:
    table = sinusoidal_positions(n, d_model)
    table.flags.writeable = False
    return table


def _embed_with_positions(ids: np.ndarray, params: ParamStore, config: ModelConfig,
                          start: int = 0) -> Tensor:
    """Scaled embeddings plus the position rows ``start`` onwards."""
    x = T.embed_rows(params["embed"], ids) * math.sqrt(config.d_model)
    rows = max(config.max_source_len, config.max_target_len)
    positions = _position_table(rows, config.d_model)[start:start + ids.shape[-1]]
    return x + Tensor(positions, _check=False)   # read-only rows; a NaN shows in the output


def _ffn(x: Tensor, prefix: str, params: ParamStore) -> Tensor:
    hidden = T.relu(x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"])
    return hidden @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]


def _ln(x: Tensor, prefix: str, params: ParamStore) -> Tensor:
    return T.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def encode(source_ids, params: ParamStore, config: ModelConfig) -> EncoderStack:
    """Run the encoder, retaining every layer's output.

    ``source_ids`` is one id list, or a batch ``[B, L]`` of them padded
    with PAD.  Ids may be extended-vocabulary ids; ids outside the
    generator vocabulary embed as UNK.  Padding positions are excluded
    from every attention support.
    """
    ext_ids = np.asarray(source_ids, dtype=np.int64)
    if ext_ids.ndim not in (1, 2) or ext_ids.size == 0:
        raise ValueError("encode expects a non-empty id list or [B, L] batch of them")
    if ext_ids.shape[-1] > config.max_source_len:
        raise ValueError(f"source length {ext_ids.shape[-1]} exceeds max_source_len "
                         f"{config.max_source_len}")
    gen_ids = np.where(ext_ids >= config.vocab_size, UNK, ext_ids)
    pad_mask = gen_ids == PAD
    if pad_mask.all(axis=-1).any():
        raise ValueError("source is entirely padding")

    x = _embed_with_positions(gen_ids, params, config)
    key_mask = pad_mask[..., None, None, :]
    layers, attn_maps = [], []
    for i in range(config.n_enc_layers):
        keys_t, values = _keys_values(x, f"enc{i}.self", params, config)
        attn_out, weights = _multi_head_attention(x, keys_t, values, f"enc{i}.self",
                                                  params, config, key_mask)
        x = _ln(x + attn_out, f"enc{i}.ln1", params)
        x = _ln(x + _ffn(x, f"enc{i}.ffn", params), f"enc{i}.ln2", params)
        layers.append(x)
        attn_maps.append(weights)
    extended_size = max(config.vocab_size, int(ext_ids.max()) + 1)
    return EncoderStack(layers=layers, attn_maps=attn_maps, pad_mask=pad_mask,
                        source_ext_ids=ext_ids, extended_size=extended_size)


def decoder_states(prefix_ids, stack: EncoderStack, params: ParamStore,
                   config: ModelConfig, cache: DecoderCache | None = None) -> Tensor:
    """Decoder output states for a generator-id prefix (BOS first).

    ``prefix_ids`` is one id list, or a ``[B, L]`` batch of them for a
    batched ``stack``; a padded tail is harmless, since each position
    attends only to itself and earlier ones.  With a ``cache``,
    ``prefix_ids`` are only the ids that follow the ``cache.length``
    positions already in it: they are embedded at their positions, attend
    to the cached positions and themselves, and are added to the cache.
    One row is returned per id passed.
    """
    ids = np.asarray(prefix_ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.size == 0:
        raise ValueError("decoder prefix must be a non-empty id list or [B, L] batch")
    start = cache.length if cache is not None else 0
    n = ids.shape[-1]
    if start + n > config.max_target_len:
        raise ValueError(f"prefix length {start + n} exceeds max_target_len "
                         f"{config.max_target_len}")
    # New position r sees keys 0 .. start + r, so a single new position sees all.
    causal = np.triu(np.ones((n, start + n), dtype=bool), k=start + 1) if n > 1 else None
    x = _embed_with_positions(ids, params, config, start)
    for i in range(config.n_dec_layers):
        keys_t, values = _keys_values(x, f"dec{i}.self", params, config)
        if cache is not None:
            keys_t, values = cache.extend(i, keys_t, values)
        self_out, _ = _multi_head_attention(x, keys_t, values, f"dec{i}.self",
                                            params, config, causal)
        x = _ln(x + self_out, f"dec{i}.ln1", params)
        cross_keys_t, cross_values = stack.cached(
            f"dec{i}.cross", lambda: _keys_values(stack.layers[-1], f"dec{i}.cross",
                                                  params, config))
        cross_out, _ = _multi_head_attention(x, cross_keys_t, cross_values, f"dec{i}.cross",
                                             params, config,
                                             stack.pad_mask[..., None, None, :])
        x = _ln(x + cross_out, f"dec{i}.ln2", params)
        x = _ln(x + _ffn(x, f"dec{i}.ffn", params), f"dec{i}.ln3", params)
    return x


def _as_rows(x) -> tuple[Tensor, bool]:
    t = T.as_tensor(x)
    if t.data.ndim == 1:
        return T.reshape(t, (1, t.data.shape[0])), True
    return t, False


def copy_attention(states, stack: EncoderStack, params: ParamStore) -> Tensor:
    """Copy attention over source positions, one row per decoder state.

    Each encoder layer contributes a masked attention view (one op reads
    the stacked keys of all layers); the views are mixed by a simplex
    weight vector, so every row is itself a probability distribution.
    """
    if not stack.layers:
        raise ValueError("encoder stack is empty")
    s, one_dim = _as_rows(states)
    keys_t = stack.cached("copy.keys", lambda: _copy_keys(stack, params))
    views, _ = T.attention(s @ params["copy.w_s"], keys_t, None, stack.pad_mask[..., None, :],
                           1.0 / math.sqrt(keys_t.data.shape[-2]))
    alpha = T.contract_first(stack.cached("copy.layer_weights",
                                          lambda: layer_weights(params)), views)
    return T.reshape(alpha, (stack.source_len,)) if one_dim else alpha


def _copy_keys(stack: EncoderStack, params: ParamStore) -> Tensor:
    """Every encoder layer's copy keys, transposed: ``[n_layers, ..., dk, L]``."""
    keys = [(layer @ params[f"copy.w_h{i}"]).T for i, layer in enumerate(stack.layers)]
    return T.concat([T.reshape(k, (1,) + k.data.shape) for k in keys], axis=0)


def layer_weights(params: ParamStore) -> Tensor:
    """Simplex weights over encoder layers (softmax of the raw scores)."""
    return T.softmax(params["copy.a_raw"])


def scatter_copy(alpha, source_ext_ids, extended_size: int) -> Tensor:
    """Sum attention mass per extended-vocabulary id."""
    a, one_dim = _as_rows(alpha)
    out = T.scatter_add_cols(a, np.asarray(source_ext_ids, dtype=np.int64), extended_size)
    return T.reshape(out, (extended_size,)) if one_dim else out


def generation_gate(states, alpha, stack: EncoderStack, params: ParamStore) -> Tensor:
    """Probability of generating (vs copying), one row per decoder state.

    The gate reads the copy-weighted context over the last encoder
    layer's outputs together with the decoder state.
    """
    s, one_dim = _as_rows(states)
    a, _ = _as_rows(alpha)
    w_c, w_s = stack.cached("gate", lambda: (T.reshape(params["gate.w_c"], (-1, 1)),
                                             T.reshape(params["gate.w_s"], (-1, 1))))
    context = a @ stack.layers[-1]
    logit = context @ w_c + s @ w_s + params["gate.b"]
    gate = T.sigmoid(logit)
    return T.reshape(gate, (1,)) if one_dim else gate


def vocab_distribution(states, params: ParamStore) -> Tensor:
    """Softmax over the generator vocabulary, one row per decoder state."""
    s, one_dim = _as_rows(states)
    dist = T.softmax(s @ params["out.w_v"] + params["out.b_v"])
    return T.reshape(dist, (dist.data.shape[-1],)) if one_dim else dist


def mix(p_gen, p_vocab, p_copy) -> Tensor:
    """Gate-weighted mixture over the extended vocabulary.

    The vocabulary distribution is zero-padded on the extended slots, so
    generation never places mass on source-only ids and copying never
    places mass outside the source.
    """
    pv, pv_1d = _as_rows(p_vocab)
    pc, _ = _as_rows(p_copy)
    pg = T.as_tensor(p_gen)
    if pg.data.ndim < 2:
        pg = T.reshape(pg, (-1, 1))
    n_ext = pc.data.shape[-1]
    if n_ext < pv.data.shape[-1]:
        raise ValueError("extended size smaller than vocabulary size")
    out = pg * T.pad_cols(pv, n_ext) + (1.0 - pg) * pc
    return T.reshape(out, (n_ext,)) if pv_1d else out


def forward_distributions(prefix_ids, stack: EncoderStack, params: ParamStore,
                          config: ModelConfig, cache: DecoderCache | None = None) -> Forward:
    """Step distributions, one row per decoder position passed.

    Without a cache this is the full teacher-forced pass over the prefix;
    with one, ``prefix_ids`` are the new positions only (see
    ``decoder_states``).  Raises ``ValueError`` when ``p_final`` or
    ``p_gen`` holds NaN or inf: op results are not scanned one by one,
    so this is where a non-finite parameter or input shows.
    """
    states = decoder_states(prefix_ids, stack, params, config, cache)
    alpha = copy_attention(states, stack, params)
    p_copy = scatter_copy(alpha, stack.source_ext_ids, stack.extended_size)
    p_gen = generation_gate(states, alpha, stack, params)
    p_vocab = vocab_distribution(states, params)
    p_final = mix(p_gen, p_vocab, p_copy)
    if not (np.isfinite(p_final.data).all() and np.isfinite(p_gen.data).all()):
        raise ValueError("non-finite output distributions")
    return Forward(states=states, alpha=alpha, p_gen=p_gen,
                   p_vocab=p_vocab, p_copy=p_copy, p_final=p_final)


def greedy_decode(prompted: PromptedExample, params: ParamStore, config: ModelConfig,
                  max_len: int | None = None) -> list[int]:
    """Greedy argmax decoding; returns emitted extended-vocabulary ids.

    Runs without a graph, as a batch of one.  Each step passes only the
    newest id to ``forward_distributions``, against a decoder cache
    holding the earlier positions.  Stops at EOS or after ``max_len``
    tokens, which may not exceed ``config.max_target_len``.  Emitted ids
    map back to surface tokens via the token vocabulary plus
    ``prompted.source_oov``.
    """
    limit = max_len if max_len is not None else config.max_target_len
    if limit > config.max_target_len:
        raise ValueError(f"max_len {limit} exceeds max_target_len {config.max_target_len}")
    emitted: list[int] = []
    with T.no_grad():
        stack = encode([prompted.source_ids], params, config)
        cache = DecoderCache()
        next_ids = [[BOS]]
        for _ in range(limit):
            p_next = forward_distributions(next_ids, stack, params, config,
                                           cache).p_final.data[0, -1]
            next_id = int(np.argmax(p_next))
            if next_id == EOS:
                break
            emitted.append(next_id)
            next_ids = [[next_id if next_id < config.vocab_size else UNK]]
    return emitted


def export_attention(source_tokens: list[str], source_ids, params: ParamStore,
                     config: ModelConfig, layer: int, heads: list[int],
                     out_dir: str | Path, stem: str = "attention") -> list[Path]:
    """Write encoder self-attention matrices as token-labelled CSV files.

    One file per requested head; rows are query tokens, columns are key
    tokens, entries sum to 1 per row.
    """
    if not 0 <= layer < config.n_enc_layers:
        raise ValueError(f"layer {layer} out of range (0..{config.n_enc_layers - 1})")
    bad = [h for h in heads if not 0 <= h < config.n_heads]
    if bad:
        raise ValueError(f"heads out of range (0..{config.n_heads - 1}): {bad}")
    if len(source_tokens) != len(source_ids):
        raise ValueError("token labels must match the id list")
    stack = encode(source_ids, params, config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for head in heads:
        matrix = stack.attn_maps[layer][head]
        path = out_dir / f"{stem}_layer{layer}_head{head}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + list(source_tokens))
            for token, row in zip(source_tokens, matrix):
                writer.writerow([token] + [f"{v:.8f}" for v in row])
        paths.append(path)
    return paths

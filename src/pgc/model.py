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

Training and inference share one forward pass.  ``encode`` and
``forward_distributions`` take one id list or a padded mini-batch of
them; every other function takes Tensor rows ``[..., R, width]``, one
per position.  Training passes a whole batch at once, and greedy
decoding one id list.
Inference is greedy (ties go to the lowest id) and incremental: it runs
without a graph, computes the encoder-side projections and the
parameter-only values once per source and feeds the decoder only new
positions against cached self-attention keys and values: the token just
emitted and a draft whose rows are checked against it in the same pass,
first the current turn's rationale, then the source ids that follow the
token just emitted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corpus import check_fields
from .prompt import BOS, EOS, PAD, UNK, PromptedExample, rationale_span
from .tensor import ParamStore, Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the network.  Defaults are the desk-scale setting."""
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    vocab_size: int = 512
    max_source_len: int = 64
    max_target_len: int = 16
    d_ff: int | None = None

    def __post_init__(self):
        check_fields(self)
        counts = (self.n_enc_layers, self.n_dec_layers, self.d_model, self.n_heads,
                  self.vocab_size, self.max_source_len, self.max_target_len, self.ffn_dim)
        if any(c < 1 for c in counts):
            raise ValueError("all model dimensions must be >= 1")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")

    @property
    def ffn_dim(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.d_model


@dataclass
class EncoderStack:
    """Every encoder layer's output, kept for the multi-view copy head.

    A stack holds one source, or a padded batch of sources on a leading
    axis ``...``.  ``extended_size`` is the largest extended vocabulary
    among them; the columns past an example's own size stay zero.
    ``key_mask``, the attention mask ``[..., 1, L]`` of the source keys,
    is None when no position is padding (one source, equal lengths).

    ``cached`` keeps what depends only on the source and the parameters
    (the copy key rows of all layers as one ``[n_enc_layers, ..., L, dk]``
    stack, the cross-attention key and value rows, the layer weights, the
    gate's weight columns), so a stack computes each once however many
    decoder passes read it.  It is valid for the parameters it was
    encoded with.
    """
    layers: list[Tensor]                  # each [..., source_len, d_model]
    attn_maps: list[np.ndarray]           # per layer [..., n_heads, L, L]
    pad_mask: np.ndarray                  # [..., L] bool, True at padding
    source_ext_ids: np.ndarray            # [..., L] extended-vocabulary ids
    extended_size: int
    key_mask: np.ndarray | None = field(init=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.key_mask = self.pad_mask[..., None, :] if self.pad_mask.any() else None

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
    """Per layer, the self-attention ``(keys, values)`` rows ``[..., length,
    d_model]`` of the positions decoded so far."""
    layers: list[tuple[Tensor, Tensor]] = field(default_factory=list)

    @property
    def length(self) -> int:
        return self.layers[0][0].data.shape[-2] if self.layers else 0

    def extend(self, layer: int, keys: Tensor, values: Tensor) -> tuple[Tensor, Tensor]:
        """Append new positions to ``layer``'s keys and values; returns all of them."""
        if layer == len(self.layers):
            self.layers.append((keys, values))
        else:
            self.layers[layer] = tuple(T.concat([old, new], axis=-2)
                                       for old, new in zip(self.layers[layer], (keys, values)))
        return self.layers[layer]

    def rollback(self, length: int) -> None:
        """Keep only the first ``length`` positions of every layer, as rows
        without a graph (decoding runs without one)."""
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot roll a cache of {self.length} positions back to {length}")
        if length < self.length:
            self.layers = [tuple(Tensor(t.data[..., :length, :], _check=False) for t in pair)
                           for pair in self.layers]


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


@functools.lru_cache(maxsize=None)
def sinusoidal_positions(n: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos position table, one row per position.  Each shape is
    computed once and shared, so the table is read-only."""
    positions = np.arange(n)[:, None].astype(np.float64)
    dims = np.arange(d_model)[None, :].astype(np.float64)
    angles = positions / np.power(10000.0, 2.0 * (dims // 2) / d_model)
    table = np.where(dims % 2 == 0, np.sin(angles), np.cos(angles))
    table.flags.writeable = False
    return table


def _glorot(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The store's layout: each parameter's name -> shape, in store order."""
    d, v, dff = config.d_model, config.vocab_size, config.ffn_dim
    dk = d // config.n_heads   # the copy head's key width: one attention head's
    shapes = [("embed", (v, d))]

    def add_attention(prefix: str) -> None:
        shapes.extend((f"{prefix}.{name}", (d, d)) for name in ("wq", "wk", "wv", "wo"))

    def add_block(prefix: str, n_norms: int) -> None:
        shapes.extend([(f"{prefix}.ffn.w1", (d, dff)), (f"{prefix}.ffn.b1", (dff,)),
                       (f"{prefix}.ffn.w2", (dff, d)), (f"{prefix}.ffn.b2", (d,))])
        for k in range(1, n_norms + 1):
            shapes.extend([(f"{prefix}.ln{k}.g", (d,)), (f"{prefix}.ln{k}.b", (d,))])

    for i in range(config.n_enc_layers):
        add_attention(f"enc{i}.self")
        add_block(f"enc{i}", n_norms=2)
    for i in range(config.n_dec_layers):
        add_attention(f"dec{i}.self")
        add_attention(f"dec{i}.cross")
        add_block(f"dec{i}", n_norms=3)
    shapes.append(("copy.w_s", (d, dk)))
    shapes.extend((f"copy.w_h{i}", (d, dk)) for i in range(config.n_enc_layers))
    shapes += [("copy.a_raw", (config.n_enc_layers,)), ("gate.w_c", (d,)), ("gate.w_s", (d,)),
               ("gate.b", (1,)), ("out.w_v", (d, v)), ("out.b_v", (v,))]
    return dict(shapes)


def init_params(config: ModelConfig, seed: int = 0) -> ParamStore:
    """A store built from ``param_shapes``, its views filled in that order
    with finite draws: normal(0, 0.02) embeddings, Glorot-uniform matrices
    and unit layer-norm gains; the other vectors stay zero."""
    rng = np.random.default_rng(seed)
    store = ParamStore(param_shapes(config))
    for name, param in store.items():
        if name == "embed":
            param.data[...] = rng.normal(0.0, 0.02, size=param.data.shape)
        elif param.data.ndim == 2:
            param.data[...] = _glorot(rng, *param.data.shape)
        elif name.endswith(".g"):
            param.data.fill(1.0)
    return store


def _keys_values(x: Tensor, prefix: str, params: ParamStore) -> tuple[Tensor, Tensor]:
    """Key and value rows of ``x``, each ``[..., L, d_model]``."""
    return x @ params[f"{prefix}.wk"], x @ params[f"{prefix}.wv"]


def _multi_head_attention(x_query: Tensor, keys: Tensor, values: Tensor, prefix: str,
                          params: ParamStore, config: ModelConfig,
                          mask) -> tuple[Tensor, np.ndarray]:
    """Attention of every head at once: output rows and the weights
    ``[..., n_heads, L_query, L_key]``."""
    out, weights = T.attention(x_query @ params[f"{prefix}.wq"], keys, values, mask,
                               config.n_heads)
    return out @ params[f"{prefix}.wo"], weights


def _embed_with_positions(ids: np.ndarray, params: ParamStore, config: ModelConfig,
                          start: int = 0) -> Tensor:
    """Scaled embeddings plus the position rows ``start`` onwards."""
    x = T.embed_rows(params["embed"], ids) * math.sqrt(config.d_model)
    rows = max(config.max_source_len, config.max_target_len)
    positions = sinusoidal_positions(rows, config.d_model)[start:start + ids.shape[-1]]
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
    from every attention support; an unpadded source passes no mask.
    """
    ext_ids = np.asarray(source_ids, dtype=np.int64)
    if ext_ids.ndim not in (1, 2) or ext_ids.size == 0:
        raise ValueError("encode expects a non-empty id list or [B, L] batch of them")
    if ext_ids.shape[-1] > config.max_source_len:
        raise ValueError(f"source length {ext_ids.shape[-1]} exceeds max_source_len "
                         f"{config.max_source_len}")
    gen_ids = np.where(ext_ids >= config.vocab_size, UNK, ext_ids)
    stack = EncoderStack(layers=[], attn_maps=[], pad_mask=gen_ids == PAD,
                         source_ext_ids=ext_ids,
                         extended_size=max(config.vocab_size, int(ext_ids.max()) + 1))
    if stack.pad_mask.all(axis=-1).any():
        raise ValueError("source is entirely padding")

    x = _embed_with_positions(gen_ids, params, config)
    for i in range(config.n_enc_layers):
        keys, values = _keys_values(x, f"enc{i}.self", params)
        attn_out, weights = _multi_head_attention(x, keys, values, f"enc{i}.self",
                                                  params, config, stack.key_mask)
        x = _ln(x + attn_out, f"enc{i}.ln1", params)
        x = _ln(x + _ffn(x, f"enc{i}.ffn", params), f"enc{i}.ln2", params)
        stack.layers.append(x)
        stack.attn_maps.append(weights)
    return stack


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
        keys, values = _keys_values(x, f"dec{i}.self", params)
        if cache is not None:
            keys, values = cache.extend(i, keys, values)
        self_out, _ = _multi_head_attention(x, keys, values, f"dec{i}.self",
                                            params, config, causal)
        x = _ln(x + self_out, f"dec{i}.ln1", params)
        cross_keys, cross_values = stack.cached(
            f"dec{i}.cross", lambda: _keys_values(stack.layers[-1], f"dec{i}.cross", params))
        cross_out, _ = _multi_head_attention(x, cross_keys, cross_values, f"dec{i}.cross",
                                             params, config, stack.key_mask)
        x = _ln(x + cross_out, f"dec{i}.ln2", params)
        x = _ln(x + _ffn(x, f"dec{i}.ffn", params), f"dec{i}.ln3", params)
    return x


def copy_attention(states: Tensor, stack: EncoderStack, params: ParamStore) -> Tensor:
    """Copy attention over source positions, one row per decoder state.

    Each encoder layer contributes a masked attention view (one op reads
    the stacked keys of all layers); the views are mixed by a simplex
    weight vector, so every row is itself a probability distribution.
    """
    keys = stack.cached("copy.keys", lambda: _copy_keys(stack, params))
    views, _ = T.attention(states @ params["copy.w_s"], keys, None, stack.key_mask)
    shape = views.data.shape   # [n_layers, ..., 1, R, L]: drop the one head axis
    views = T.reshape(views, shape[:-3] + shape[-2:])
    return T.contract_first(stack.cached("copy.layer_weights",
                                         lambda: layer_weights(params)), views)


def _copy_keys(stack: EncoderStack, params: ParamStore) -> Tensor:
    """Every encoder layer's copy key rows: ``[n_layers, ..., L, dk]``."""
    keys = [layer @ params[f"copy.w_h{i}"] for i, layer in enumerate(stack.layers)]
    return T.concat([T.reshape(k, (1,) + k.data.shape) for k in keys], axis=0)


def layer_weights(params: ParamStore) -> Tensor:
    """Simplex weights over encoder layers (softmax of the raw scores)."""
    return T.softmax(params["copy.a_raw"])


def scatter_copy(alpha: Tensor, source_ext_ids, extended_size: int) -> Tensor:
    """Sum attention mass per extended-vocabulary id, row by row."""
    return T.scatter_add_cols(alpha, source_ext_ids, extended_size)


def generation_gate(states: Tensor, alpha: Tensor, stack: EncoderStack,
                    params: ParamStore) -> Tensor:
    """Probability of generating (vs copying), one row ``[..., R, 1]`` per
    decoder state.

    The gate reads the copy-weighted context over the last encoder
    layer's outputs together with the decoder state.
    """
    w_c, w_s = stack.cached("gate", lambda: (T.reshape(params["gate.w_c"], (-1, 1)),
                                             T.reshape(params["gate.w_s"], (-1, 1))))
    return T.sigmoid((alpha @ stack.layers[-1]) @ w_c + states @ w_s + params["gate.b"])


def vocab_distribution(states: Tensor, params: ParamStore) -> Tensor:
    """Softmax over the generator vocabulary, one row per decoder state."""
    return T.softmax(states @ params["out.w_v"] + params["out.b_v"])


def mix(p_gen: Tensor, p_vocab: Tensor, p_copy: Tensor) -> Tensor:
    """Gate-weighted mixture over the extended vocabulary, row by row.

    ``p_gen`` is ``[..., R, 1]``.  The vocabulary distribution is
    zero-padded on the extended slots, so generation never places mass
    on source-only ids and copying never places mass outside the source.
    """
    return p_gen * T.pad_cols(p_vocab, p_copy.data.shape[-1]) + (1.0 - p_gen) * p_copy


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


def greedy_decode(prompted: PromptedExample, params: ParamStore,
                  config: ModelConfig) -> list[int]:
    """Greedy argmax decoding; returns emitted extended-vocabulary ids.

    Runs without a graph on one source, against a decoder cache holding
    the earlier positions.  Each pass feeds the token just emitted (BOS
    first) and a draft from the source: first the current turn's
    rationale (``prompt.rationale_span``), the extracted answer to edit,
    then the ids after the first source position holding the token just
    emitted.  Each row's argmax is read in order, draft ids are accepted
    while they match, the first row that disagrees emits its own argmax,
    and the cache drops the rejected draft positions.  So the ids are
    those of one position per pass, and an empty draft (no rationale
    run, or a token the source does not hold) is that one-position step.
    Stops at EOS or after ``config.max_target_len`` tokens.  A config with
    a smaller ``max_target_len`` is a shorter budget: it emits the first
    ids of the longer one.  Emitted ids map back to surface tokens via the
    token vocabulary plus ``prompted.source_oov``.
    """
    limit = config.max_target_len
    emitted: list[int] = []
    with T.no_grad():
        stack = encode(prompted.source_ids, params, config)
        source = stack.source_ext_ids
        cache = DecoderCache()
        next_id, (start, stop) = BOS, rationale_span(prompted)
        while len(emitted) < limit:
            draft = source[start:min(stop, start + limit - len(emitted) - 1)].tolist()
            new_ids = [i if i < config.vocab_size else UNK for i in [next_id] + draft]
            p_final = forward_distributions(new_ids, stack, params, config, cache).p_final.data
            for row, next_id in enumerate(np.argmax(p_final, axis=-1).tolist()):
                if next_id == EOS:
                    return emitted
                emitted.append(next_id)
                if row == len(draft) or next_id != draft[row]:
                    break
            cache.rollback(cache.length - len(draft) + row)
            hits = np.flatnonzero(source == next_id)
            start = hits[0] + 1 if hits.size else len(source)
            stop = len(source)
    return emitted

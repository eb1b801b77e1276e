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

Inference is greedy; ties go to the lowest id.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
    """Every encoder layer's output, kept for the multi-view copy head."""
    layers: list[Tensor]                  # each [source_len, d_model]
    attn_maps: list[list[np.ndarray]]     # [layer][head] -> [L, L]
    pad_mask: np.ndarray                  # [L] bool, True at padding
    source_ext_ids: np.ndarray            # [L] extended-vocabulary ids
    extended_size: int

    @property
    def source_len(self) -> int:
        return int(self.source_ext_ids.shape[0])


@dataclass
class Forward:
    """Graph handles for a whole teacher-forced pass (one row per step)."""
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
    table = np.where(dims % 2 == 0, np.sin(angles), np.cos(angles))
    return table


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


def _multi_head_attention(x_query: Tensor, x_keyval: Tensor, prefix: str,
                          params: ParamStore, config: ModelConfig,
                          mask) -> tuple[Tensor, list[np.ndarray]]:
    """Standard multi-head scaled dot-product attention over 2-D inputs."""
    q_all = x_query @ params[f"{prefix}.wq"]
    k_all = x_keyval @ params[f"{prefix}.wk"]
    v_all = x_keyval @ params[f"{prefix}.wv"]
    head_dim = config.d_model // config.n_heads
    outputs, maps = [], []
    for h in range(config.n_heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        q = T.slice_cols(q_all, lo, hi)
        k = T.slice_cols(k_all, lo, hi)
        v = T.slice_cols(v_all, lo, hi)
        weights = T.softmax((q @ k.T) / math.sqrt(head_dim), mask)
        maps.append(weights.data.copy())
        outputs.append(weights @ v)
    return T.concat_cols(outputs) @ params[f"{prefix}.wo"], maps


def _embed_with_positions(ids: np.ndarray, params: ParamStore, config: ModelConfig) -> Tensor:
    x = T.embed_rows(params["embed"], ids) * math.sqrt(config.d_model)
    return x + Tensor(sinusoidal_positions(len(ids), config.d_model))


def _ffn(x: Tensor, prefix: str, params: ParamStore) -> Tensor:
    hidden = T.relu(x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"])
    return hidden @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]


def _ln(x: Tensor, prefix: str, params: ParamStore) -> Tensor:
    return T.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def encode(source_ids, params: ParamStore, config: ModelConfig) -> EncoderStack:
    """Run the encoder, retaining every layer's output.

    ``source_ids`` may be extended-vocabulary ids; ids outside the
    generator vocabulary embed as UNK.  Padding positions are excluded
    from every attention support.
    """
    ext_ids = np.asarray(source_ids, dtype=np.int64)
    if ext_ids.ndim != 1 or ext_ids.size == 0:
        raise ValueError("encode expects a non-empty 1-D id list")
    if ext_ids.size > config.max_source_len:
        raise ValueError(f"source length {ext_ids.size} exceeds max_source_len "
                         f"{config.max_source_len}")
    gen_ids = np.where(ext_ids >= config.vocab_size, UNK, ext_ids)
    pad_mask = gen_ids == PAD
    if pad_mask.all():
        raise ValueError("source is entirely padding")

    x = _embed_with_positions(gen_ids, params, config)
    key_mask = pad_mask[None, :]
    layers, attn_maps = [], []
    for i in range(config.n_enc_layers):
        attn_out, maps = _multi_head_attention(x, x, f"enc{i}.self", params, config, key_mask)
        x = _ln(x + attn_out, f"enc{i}.ln1", params)
        x = _ln(x + _ffn(x, f"enc{i}.ffn", params), f"enc{i}.ln2", params)
        layers.append(x)
        attn_maps.append(maps)
    extended_size = max(config.vocab_size, int(ext_ids.max()) + 1)
    return EncoderStack(layers=layers, attn_maps=attn_maps, pad_mask=pad_mask,
                        source_ext_ids=ext_ids, extended_size=extended_size)


def decoder_states(prefix_ids, stack: EncoderStack, params: ParamStore,
                   config: ModelConfig) -> Tensor:
    """Decoder output states for a generator-id prefix (BOS first)."""
    ids = np.asarray(prefix_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("decoder prefix must be a non-empty 1-D id list")
    if ids.size > config.max_target_len:
        raise ValueError(f"prefix length {ids.size} exceeds max_target_len "
                         f"{config.max_target_len}")
    n = ids.size
    causal = np.triu(np.ones((n, n), dtype=bool), k=1)
    x = _embed_with_positions(ids, params, config)
    for i in range(config.n_dec_layers):
        self_out, _ = _multi_head_attention(x, x, f"dec{i}.self", params, config, causal)
        x = _ln(x + self_out, f"dec{i}.ln1", params)
        cross_out, _ = _multi_head_attention(x, stack.layers[-1], f"dec{i}.cross",
                                             params, config, stack.pad_mask[None, :])
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

    Each encoder layer contributes a masked scaled dot-product attention
    view; the views are mixed by a softmax-constrained weight vector, so
    every row is itself a probability distribution.
    """
    if not stack.layers:
        raise ValueError("encoder stack is empty")
    s, one_dim = _as_rows(states)
    dk = params["copy.w_s"].data.shape[1]
    q = s @ params["copy.w_s"]
    weights = layer_weights(params)
    w_row = T.reshape(weights, (1, len(stack.layers)))
    alpha: Tensor | None = None
    for i, layer_out in enumerate(stack.layers):
        keys = layer_out @ params[f"copy.w_h{i}"]
        view = T.softmax((q @ keys.T) / math.sqrt(dk), stack.pad_mask[None, :])
        term = view * T.slice_cols(w_row, i, i + 1)
        alpha = term if alpha is None else alpha + term
    return T.reshape(alpha, (stack.source_len,)) if one_dim else alpha


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
    d = s.data.shape[1]
    context = a @ stack.layers[-1]
    logit = (context @ T.reshape(params["gate.w_c"], (d, 1))
             + s @ T.reshape(params["gate.w_s"], (d, 1))
             + params["gate.b"])
    gate = T.sigmoid(logit)
    return T.reshape(gate, (1,)) if one_dim else gate


def vocab_distribution(states, params: ParamStore) -> Tensor:
    """Softmax over the generator vocabulary, one row per decoder state."""
    s, one_dim = _as_rows(states)
    dist = T.softmax(s @ params["out.w_v"] + params["out.b_v"])
    return T.reshape(dist, (dist.data.shape[1],)) if one_dim else dist


def mix(p_gen, p_vocab, p_copy) -> Tensor:
    """Gate-weighted mixture over the extended vocabulary.

    The vocabulary distribution is zero-padded on the extended slots, so
    generation never places mass on source-only ids and copying never
    places mass outside the source.
    """
    pv, pv_1d = _as_rows(p_vocab)
    pc, _ = _as_rows(p_copy)
    pg = T.as_tensor(p_gen)
    if pg.data.ndim == 0:
        pg = T.reshape(pg, (1, 1))
    elif pg.data.ndim == 1:
        pg = T.reshape(pg, (pg.data.shape[0], 1))
    n_vocab = pv.data.shape[1]
    n_ext = pc.data.shape[1]
    if n_ext < n_vocab:
        raise ValueError("extended size smaller than vocabulary size")
    if n_ext > n_vocab:
        pv = T.concat_cols([pv, T.zeros((pv.data.shape[0], n_ext - n_vocab))])
    out = pg * pv + (1.0 - pg) * pc
    return T.reshape(out, (n_ext,)) if pv_1d else out


def forward_distributions(prefix_ids, stack: EncoderStack, params: ParamStore,
                          config: ModelConfig) -> Forward:
    """Full teacher-forced pass: all step distributions as graph tensors."""
    states = decoder_states(prefix_ids, stack, params, config)
    alpha = copy_attention(states, stack, params)
    p_copy = scatter_copy(alpha, stack.source_ext_ids, stack.extended_size)
    p_gen = generation_gate(states, alpha, stack, params)
    p_vocab = vocab_distribution(states, params)
    p_final = mix(p_gen, p_vocab, p_copy)
    return Forward(states=states, alpha=alpha, p_gen=p_gen,
                   p_vocab=p_vocab, p_copy=p_copy, p_final=p_final)


def greedy_decode(prompted: PromptedExample, params: ParamStore, config: ModelConfig,
                  max_len: int | None = None) -> list[int]:
    """Greedy argmax decoding; returns emitted extended-vocabulary ids.

    Each step reads the last row of a full pass over the prefix.  Stops
    at EOS or after ``max_len`` tokens.  Emitted ids map back to surface
    tokens via the token vocabulary plus ``prompted.source_oov``.
    """
    stack = encode(prompted.source_ids, params, config)
    limit = max_len if max_len is not None else config.max_target_len
    prefix = [BOS]
    emitted: list[int] = []
    for _ in range(limit):
        # Bind only the last row, so the pass's graph is unreachable before
        # the next pass (it is freed by the cyclic collector).
        p_next = forward_distributions(prefix, stack, params, config).p_final.data[-1]
        next_id = int(np.argmax(p_next))
        if next_id == EOS:
            break
        emitted.append(next_id)
        prefix.append(next_id if next_id < config.vocab_size else UNK)
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

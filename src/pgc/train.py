"""Teacher-forced training, synthetic verification tasks, checkpoints.

The loss of a mini-batch is the mean over its examples of each one's
mean step-wise negative log-likelihood of the gold answer tokens under
the mixed output distribution, with the gold prefix fed to the decoder.
A mini-batch runs as one graph, padded to ``[B, L]``.  Two generated
task families make the copy path and the gate observable at desk scale:
a copy task whose answers repeat the rationale verbatim (including
generator-OOV words, so only the copy path can solve it) and a gate
task whose yes/no answers never occur in the source (so only the
generation path can solve it).

A checkpoint is one line of JSON, the header, followed by the store's
three flat vectors as raw little-endian float64 bytes.  The saver
rewrites an existing file in place and writes the header last, so a save
that stops part-way leaves a file the loader refuses.  The loader opens
the file once, parses the header line through ``pgc.corpus`` and reads
the vectors, found by their length, in one call into the array the new
store adopts, so values round-trip bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import model as M
from . import tensor as T
from .corpus import (ConversationTurn, CorpusError, DialogueExample, check_fields,
                     classify_answer, parse_json)
from .model import ModelConfig
from .prompt import (BOS, EOS, PAD, SPECIAL_TOKENS, UNK, CategoryVocab, PromptedExample,
                     PromptVersion, PromptVersionId, TokenVocab, tokenize)
from .tensor import ParamStore

CHECKPOINT_FORMAT_VERSION = 4


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation settings.  The desk-scale learning rate is 1e-3;
    the full-scale setting (2e-5, batch 8, 10 epochs) remains expressible."""
    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 10
    seed: int = 0
    prompt_version: int = 1
    history_depth: int = 1
    clip_norm: float = 1.0
    checkpoint_interval: int = 0

    def __post_init__(self):
        check_fields(self)
        PromptVersion(PromptVersionId(self.prompt_version), self.history_depth)
        if not (0 < self.learning_rate < math.inf and 0 < self.clip_norm < math.inf):
            raise ValueError("learning_rate and clip_norm must be positive and finite")
        if self.batch_size < 1 or self.epochs < 1 or self.checkpoint_interval < 0:
            raise ValueError("batch_size and epochs must be >= 1, checkpoint_interval >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic generator settings for the verification tasks.

    ``vocab_size`` is the size of the synthetic word lexicon; it should
    exceed the generator vocabulary budget so some rationale words are
    only reachable through copying.
    """
    task: str  # "copy" | "gate"
    vocab_size: int = 512
    min_len: int = 4
    max_len: int = 12
    n_examples: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.task not in ("copy", "gate"):
            raise ValueError(f"unknown synthetic task {self.task!r}")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if self.vocab_size < 2 or self.n_examples < 1:
            raise ValueError("vocab_size and n_examples must be positive")


GATE_MARKER = "marker"
_COPY_QUESTION = "what was stated ?"
_GATE_QUESTION = "did the text mention the marker ?"


def make_synthetic(spec: SyntheticSpec) -> list[DialogueExample]:
    """Generate copy-task or gate-task dialogues, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    words = [f"w{i:03d}" for i in range(spec.vocab_size)]
    examples = []
    for i in range(spec.n_examples):
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        tokens = [words[j] for j in rng.integers(0, len(words), size=length)]
        if spec.task == "copy":
            question, answer = _COPY_QUESTION, " ".join(tokens)
        else:
            has_marker = bool(rng.integers(0, 2))
            if has_marker:
                tokens[int(rng.integers(0, length))] = GATE_MARKER
            question = _GATE_QUESTION
            answer = "yes" if GATE_MARKER in tokens else "no"
        rationale = " ".join(tokens)
        turn = ConversationTurn(turn_id=1, question=question,
                                rationale=rationale, answer=answer, span_start=0)
        examples.append(DialogueExample(
            story_id=f"{spec.task}-{spec.seed}-{i:05d}",
            turn=turn, history=(),
            answer_class=classify_answer(answer, rationale),
        ))
    return examples


def target_ids(prompted: PromptedExample, vocab: TokenVocab) -> list[int]:
    """Gold extended ids for the answer, terminated by EOS."""
    tokens = tokenize(prompted.target_text)
    if not tokens:
        raise ValueError("example has an empty target")
    return vocab.encode_target(tokens, prompted.source_oov) + [EOS]


# Examples per teacher-forced pass in ``token_accuracy``/``gate_statistics``.
_EVAL_BATCH = 32


def _padded(rows: list[list[int]]) -> np.ndarray:
    """Id lists as one ``[B, L]`` array, each padded with PAD to the longest."""
    out = np.full((len(rows), max(len(r) for r in rows)), PAD, dtype=np.int64)
    for b, row in enumerate(rows):
        out[b, :len(row)] = row
    return out


def _teacher_forced(batch: list[PromptedExample], params: ParamStore, config: ModelConfig,
                    vocab: TokenVocab) -> tuple[M.Forward, np.ndarray, np.ndarray]:
    """One pass over a padded batch with the gold prefixes fed to the decoder.

    Returns the pass, the gold ids ``[B, L]`` (PAD past each example's
    end) and the mask ``[B, L]`` of real target steps.
    """
    golds = [target_ids(p, vocab) for p in batch]
    stack = M.encode(_padded([p.source_ids for p in batch]), params, config)
    prefix = _padded([[BOS] + vocab.to_generator_ids(gold[:-1]) for gold in golds])
    gold = _padded(golds)
    mask = np.arange(gold.shape[1]) < np.array([len(g) for g in golds])[:, None]
    return M.forward_distributions(prefix, stack, params, config), gold, mask


def teacher_forced_loss(batch: list[PromptedExample], params: ParamStore,
                        config: ModelConfig, vocab: TokenVocab) -> T.Tensor:
    """The batch's mean of per-example mean step losses, with the gold
    prefixes fed to the decoder: step t of example b is weighted by
    1 / (B * len_b)."""
    fwd, gold, mask = _teacher_forced(batch, params, config, vocab)
    weights = mask / (len(batch) * mask.sum(axis=1, keepdims=True))
    return T.sequence_nll(fwd.p_final, gold, weights)


def _teacher_forced_rows(prompted_examples: list[PromptedExample], params: ParamStore,
                         config: ModelConfig, vocab: TokenVocab):
    """Per batch of ``_EVAL_BATCH``: (its examples, pass, gold ids, step mask)."""
    for lo in range(0, len(prompted_examples), _EVAL_BATCH):
        batch = prompted_examples[lo:lo + _EVAL_BATCH]
        with T.no_grad():
            rows = _teacher_forced(batch, params, config, vocab)
        yield (batch, *rows)


def token_accuracy(prompted_examples: list[PromptedExample], params: ParamStore,
                   config: ModelConfig, vocab: TokenVocab) -> float:
    """Teacher-forced next-token accuracy over all target steps."""
    hits = total = 0
    for _, fwd, gold, mask in _teacher_forced_rows(prompted_examples, params, config, vocab):
        hits += int(np.sum((np.argmax(fwd.p_final.data, axis=-1) == gold) & mask))
        total += int(mask.sum())
    return hits / total if total else 0.0


def gate_statistics(prompted_examples: list[PromptedExample], params: ParamStore,
                    config: ModelConfig, vocab: TokenVocab) -> tuple[float, float]:
    """(mean gate on copyable gold tokens, mean gate on source-absent ones).

    EOS steps are excluded from both groups.
    """
    copied, generated = [], []
    for batch, fwd, gold, mask in _teacher_forced_rows(prompted_examples, params, config,
                                                       vocab):
        for prompted, p_gen, gold_ids, n in zip(batch, fwd.p_gen.data[..., 0], gold,
                                                mask.sum(axis=1)):
            source = set(prompted.source_ids)
            for gate, gold_id in zip(p_gen[:n], gold_ids[:n]):
                if gold_id == EOS:
                    continue
                (copied if gold_id in source else generated).append(float(gate))
    mean = lambda xs: float(np.mean(xs)) if xs else float("nan")
    return mean(copied), mean(generated)


def gradcheck(seed: int = 0, max_coords_per_param: int | None = None) -> tuple[float, int]:
    """Finite-difference check of the full loss on one fixed case.

    A two-layer encoder reads five source ids, two of them copy-only;
    the decoder prefix ``[BOS, 5, UNK]`` is scored against the gold ids
    ``[5, 13, 2]``, whose middle step only the copy path can produce.
    Returns (max relative error, number of parameter values).
    """
    config = ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=8, n_heads=2,
                         vocab_size=12, max_source_len=8, max_target_len=8, d_ff=16)
    store = M.init_params(config, seed=seed)

    def loss(s: ParamStore) -> T.Tensor:
        stack = M.encode([4, 13, 6, 7, 12], s, config)
        fwd = M.forward_distributions([BOS, 5, UNK], stack, s, config)
        return T.sequence_nll(fwd.p_final, [5, 13, 2])

    error = T.grad_check(loss, store, max_coords_per_param=max_coords_per_param,
                         rng=np.random.default_rng(seed))
    return error, store.n_values()


@dataclass
class TrainResult:
    curve: list[tuple[int, int, float]]  # (epoch, step, loss)


def train_loop(prompted_examples: list[PromptedExample], store: ParamStore,
               config: TrainConfig, model_config: ModelConfig, vocab: TokenVocab,
               start_epoch: int = 0, save=None, log=None) -> TrainResult:
    """Shuffled mini-batch training with gradient clipping and Adam.

    Each mini-batch is one ``teacher_forced_loss`` graph.  Before the
    gradients are clipped and Adam writes any parameter, the forward pass
    must not overflow and the loss, every gradient and their norm must be
    finite, and the Adam step must not overflow, or ``FloatingPointError``
    says the run diverged, with no numpy warning.  The
    shuffle order is a pure function of (seed, epoch), so resuming from
    a checkpoint at an epoch boundary replays the exact run.  ``log``
    gets one line per epoch: the mean loss, the largest pre-clip
    gradient norm and how many steps were clipped.  Every
    ``checkpoint_interval`` epochs, ``save(epochs_completed)`` is called.
    """
    if not prompted_examples:
        raise ValueError("no training examples")
    _check_vocab_size(vocab, model_config)
    curve: list[tuple[int, int, float]] = []
    step = store.step
    for epoch in range(start_epoch, config.epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(len(prompted_examples))
        batch_losses, max_norm, clipped = [], 0.0, 0
        for lo in range(0, len(order), config.batch_size):
            batch = [prompted_examples[j] for j in order[lo:lo + config.batch_size]]
            try:
                with np.errstate(all="ignore", over="raise", invalid="raise"):
                    loss = teacher_forced_loss(batch, store, model_config, vocab)
                with np.errstate(all="ignore"):   # _check_finite names what went non-finite
                    store.zero_grad()
                    loss.backward()
                _check_finite(loss, store)
                with np.errstate(all="ignore", over="raise", invalid="raise"):
                    norm = store.clip_grad_norm(config.clip_norm)
                    T.adam_step(store, config.learning_rate)
            except FloatingPointError as err:
                raise FloatingPointError(f"training diverged at step {step + 1}: {err}") from None
            max_norm, clipped = max(max_norm, norm), clipped + (norm > config.clip_norm)
            step += 1
            value = loss.item()
            curve.append((epoch, step, value))
            batch_losses.append(value)
        epoch_mean = float(np.mean(batch_losses))
        if log is not None:
            log(f"epoch {epoch}: mean loss {epoch_mean:.4f}, max grad norm {max_norm:.4f}, "
                f"clipped {clipped}/{len(batch_losses)} steps")
        if (save is not None and config.checkpoint_interval
                and (epoch + 1) % config.checkpoint_interval == 0):
            save(epoch + 1)
    return TrainResult(curve=curve)


def _check_vocab_size(vocab: TokenVocab, model_config: ModelConfig) -> None:
    if vocab.size != model_config.vocab_size:
        raise ValueError(f"a token vocabulary of {vocab.size} ids for a model of "
                         f"vocab_size {model_config.vocab_size}")


def _check_finite(loss: T.Tensor, store: ParamStore) -> None:
    """Raise ``FloatingPointError`` unless the loss and every gradient are finite."""
    finite_loss, name = np.isfinite(loss.data).all(), store.non_finite(store.flat_grad)
    if not finite_loss or name is not None:
        fault = f"gradient for {name}" if finite_loss else f"loss {loss.item()}"
        raise FloatingPointError(f"non-finite {fault}")


def write_loss_curve(curve: list[tuple[int, int, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,step,loss\n")
        for epoch, step, loss in curve:
            fh.write(f"{epoch},{step},{loss!r}\n")


def config_hash(model_config: ModelConfig) -> str:
    canonical = json.dumps({f.name: getattr(model_config, f.name) for f in fields(model_config)},
                           sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _layout(shapes) -> list:
    """The ``[name, shape]`` list of ``(name, shape)`` pairs, as a header holds it."""
    return [[name, list(shape)] for name, shape in shapes]


def _vectors(store: ParamStore):
    """The store's vectors in file order, each with the name messages give it."""
    return ("params", store.flat), ("adam_m", store.flat_m), ("adam_v", store.flat_v)


def checkpoint_save(path: str | Path, store: ParamStore, model_config: ModelConfig,
                    train_config: TrainConfig, vocab: TokenVocab,
                    category_vocab: CategoryVocab, epochs_completed: int) -> None:
    """Write parameters, Adam state, and both vocabularies as one file.

    The first line is ``json.dumps`` of the header: settings, vocabularies
    and ``layout``, each parameter's ``[name, shape]`` in store order.
    Then come ``params``, ``adam_m`` and ``adam_v``, the store's flat
    vectors as little-endian float64 bytes, and nothing after them.

    An existing file is rewritten in place and cut to the new length, and
    the header is written last: a save that stops part-way leaves a file
    whose first line is empty, which ``checkpoint_load`` refuses with a
    ``CorpusError`` (exit 2 from the commands).
    """
    _check_vocab_size(vocab, model_config)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config_hash": config_hash(model_config),
        "model_config": asdict(model_config),
        "train_config": asdict(train_config),
        "step": store.step,
        "epochs_completed": epochs_completed,
        "token_vocab": vocab.tokens[len(SPECIAL_TOKENS):],
        "category_vocab": list(category_vocab.categories),
        "layout": _layout((name, t.data.shape) for name, t in store.items()),
    }
    head = json.dumps(header).encode("ascii") + b"\n"   # json.dumps escapes every newline
    # No O_TRUNC: rewriting the pages of an existing file costs far less than
    # allocating new ones.  Until the last write the first line is empty.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(b"\n")
        fh.seek(len(head))
        for _, flat in _vectors(store):
            fh.write(flat.astype("<f8", copy=False).data)
        fh.truncate()
        fh.seek(0)
        fh.write(head)


def _config_from_checkpoint(path, header: dict, key: str, cls):
    """The ``cls`` section ``key`` of a checkpoint: exactly its fields, each
    of its declared type and passing its own checks."""
    section = header.get(key)
    if not isinstance(section, dict):
        raise CorpusError(f"{path}: {key} is missing or not an object")
    names = {f.name for f in fields(cls)}
    unknown, missing = sorted(set(section) - names), sorted(names - set(section))
    if unknown or missing:
        raise CorpusError(f"{path}: {key}: unknown keys {unknown}, missing keys {missing}")
    try:
        return cls(**section)
    except (TypeError, ValueError) as err:
        raise CorpusError(f"{path}: {key}: {err}") from err


_HEADER_KEYS = {"format_version", "config_hash", "model_config", "train_config", "step",
                "epochs_completed", "token_vocab", "category_vocab", "layout"}


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(type(item) is str for item in value)


def _read_state(path, header: dict, fh, shapes: dict) -> np.ndarray:
    """The parameters and Adam moments, the rest of the open file ``fh``,
    as one fresh ``(3, n)`` array read in one call, for a store of layout
    ``shapes``.

    ``layout`` must be that ``[name, shape]`` list, JSON types included
    (``true`` is not ``1``), and the rest of the file exactly three vectors
    of ``n`` float64 values; its length is taken from the file's size."""
    layout, want = header["layout"], _layout(shapes.items())
    if not isinstance(layout, list):
        raise CorpusError(f"{path}: layout is not a list")
    if layout != want or any(type(d) is not int for _, shape in layout for d in shape):
        got, want = [json.dumps(e) for e in layout], [json.dumps(e) for e in want]
        i, have, expected = next((i, a, b) for i, (a, b) in
                                 enumerate(zip(got + ["nothing"], want + ["nothing"])) if a != b)
        raise CorpusError(f"{path}: layout entry {i} is {have}, expected {expected}")
    n = sum(math.prod(shape) for shape in shapes.values())
    size, state = os.fstat(fh.fileno()).st_size - fh.tell(), np.empty((3, n), dtype="<f8")
    if size != state.nbytes or fh.readinto(state) != size:   # found by length, never searched
        raise CorpusError(f"{path}: {size} bytes follow the header, expected 3 vectors of "
                          f"{n} float64 values ({state.nbytes} bytes)")
    return state


def checkpoint_load(path: str | Path, expected_config: ModelConfig | None = None):
    """Load a checkpoint; returns (store, model_config, train_config, vocab, meta).

    The file is opened once.  Its header line must hold every section
    ``checkpoint_save`` writes, each with its type, and nothing else.
    The store's layout is ``param_shapes(model_config)``, which ``layout``
    must list; the bytes after the header, exactly its three vectors of
    finite values, are read straight into the array the new store adopts.
    ``step`` and ``epochs_completed`` are ints >= 0, and the token
    vocabulary with the special tokens fills ``model_config.vocab_size``.
    Anything else is a path-naming ``CorpusError``.
    """
    with open(path, "rb") as fh:
        line = fh.readline()   # the header: json.dumps writes no newline
        header = parse_json(path, line.removesuffix(b"\n"))
        version = header.get("format_version")
        if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
            raise CorpusError(f"{path}: unsupported checkpoint format version {version}")
        if not line.endswith(b"\n"):
            raise CorpusError(f"{path}: no newline after the header")
        unknown = sorted(set(header) - _HEADER_KEYS)
        missing = sorted(_HEADER_KEYS - set(header))
        if unknown or missing:
            raise CorpusError(f"{path}: unknown keys {unknown}, missing keys {missing}")
        model_config = _config_from_checkpoint(path, header, "model_config", ModelConfig)
        if header["config_hash"] != config_hash(model_config):
            raise CorpusError(f"{path}: config_hash does not match model_config")
        if expected_config is not None and expected_config != model_config:
            raise CorpusError(f"{path}: checkpoint was written for a different model "
                              f"configuration")
        train_config = _config_from_checkpoint(path, header, "train_config", TrainConfig)
        shapes = M.param_shapes(model_config)
        state = _read_state(path, header, fh, shapes)
    store = ParamStore(shapes, state)
    for key, flat in _vectors(store):
        name = store.non_finite(flat)
        if name is not None:
            raise CorpusError(f"{path}: {key}: {name} holds NaN or inf")
    step, epochs = header["step"], header["epochs_completed"]
    if type(step) is not int or step < 0 or type(epochs) is not int or epochs < 0:
        raise CorpusError(f"{path}: step and epochs_completed must be ints >= 0, "
                          f"got {step!r} and {epochs!r}")
    store.step = step
    tokens, categories = header["token_vocab"], header["category_vocab"]
    if not (_is_str_list(tokens) and _is_str_list(categories)):
        raise CorpusError(f"{path}: token_vocab and category_vocab must be lists of strings")
    try:
        vocab = TokenVocab(tokens)
        category_vocab = CategoryVocab(tuple(categories))
    except ValueError as err:
        raise CorpusError(f"{path}: {err}") from err
    if vocab.tokens[len(SPECIAL_TOKENS):] != tokens or vocab.size != model_config.vocab_size:
        raise CorpusError(f"{path}: token_vocab must be {model_config.vocab_size} - "
                          f"{len(SPECIAL_TOKENS)} tokens other than the special ones, "
                          f"got {len(tokens)}")
    meta = {"epochs_completed": epochs, "category_vocab": category_vocab}
    return store, model_config, train_config, vocab, meta

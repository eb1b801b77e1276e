"""Teacher-forced training, synthetic verification tasks, checkpoints.

The loss is the mean step-wise negative log-likelihood of the gold
answer tokens under the mixed output distribution, with the gold prefix
fed to the decoder.  Two generated task families make the copy path and
the gate observable at desk scale: a copy task whose answers repeat the
rationale verbatim (including generator-OOV words, so only the copy
path can solve it) and a gate task whose yes/no answers never occur in
the source (so only the generation path can solve it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import model as M
from . import tensor as T
from .corpus import ConversationTurn, DialogueExample, classify_answer
from .model import ModelConfig
from .prompt import BOS, EOS, SPECIAL_TOKENS, UNK, PromptedExample, TokenVocab, tokenize
from .tensor import ParamStore

CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint that cannot be loaded against the requested setup."""


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


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


def _lexicon(size: int) -> list[str]:
    return [f"w{i:03d}" for i in range(size)]


def make_synthetic(spec: SyntheticSpec) -> list[DialogueExample]:
    """Generate copy-task or gate-task dialogues, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    words = _lexicon(spec.vocab_size)
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


def _teacher_forced(prompted: PromptedExample, params: ParamStore, config: ModelConfig,
                    vocab: TokenVocab) -> tuple[M.Forward, list[int]]:
    """The pass with the gold prefix fed to the decoder, plus the gold ids."""
    gold = target_ids(prompted, vocab)
    stack = M.encode(prompted.source_ids, params, config)
    prefix = [BOS] + vocab.to_generator_ids(gold[:-1])
    return M.forward_distributions(prefix, stack, params, config), gold


def teacher_forced_loss(prompted: PromptedExample, params: ParamStore,
                        config: ModelConfig, vocab: TokenVocab) -> T.Tensor:
    """Mean step loss with the gold prefix fed to the decoder."""
    fwd, gold = _teacher_forced(prompted, params, config, vocab)
    return T.sequence_nll(fwd.p_final, gold)


def token_accuracy(prompted_examples: list[PromptedExample], params: ParamStore,
                   config: ModelConfig, vocab: TokenVocab) -> float:
    """Teacher-forced next-token accuracy over all target steps."""
    hits = total = 0
    for prompted in prompted_examples:
        fwd, gold = _teacher_forced(prompted, params, config, vocab)
        hits += int(np.sum(np.argmax(fwd.p_final.data, axis=1) == gold))
        total += len(gold)
    return hits / total if total else 0.0


def gate_statistics(prompted_examples: list[PromptedExample], params: ParamStore,
                    config: ModelConfig, vocab: TokenVocab) -> tuple[float, float]:
    """(mean gate on copyable gold tokens, mean gate on source-absent ones).

    EOS steps are excluded from both groups.
    """
    copied, generated = [], []
    for prompted in prompted_examples:
        fwd, gold = _teacher_forced(prompted, params, config, vocab)
        source = set(prompted.source_ids)
        for p_gen, gold_id in zip(fwd.p_gen.data[:, 0], gold):
            if gold_id == EOS:
                continue
            (copied if gold_id in source else generated).append(float(p_gen))
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
    epoch_losses: list[float]


def train_loop(prompted_examples: list[PromptedExample], store: ParamStore,
               config: TrainConfig, model_config: ModelConfig, vocab: TokenVocab,
               start_epoch: int = 0, checkpoint_path: str | Path | None = None,
               log=None) -> TrainResult:
    """Shuffled mini-batch training with gradient clipping and Adam.

    The shuffle order is a pure function of (seed, epoch), so resuming
    from a checkpoint at an epoch boundary replays the exact run.
    """
    if not prompted_examples:
        raise ValueError("no training examples")
    curve: list[tuple[int, int, float]] = []
    epoch_losses: list[float] = []
    step = store.step
    for epoch in range(start_epoch, config.epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(len(prompted_examples))
        batch_losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = [prompted_examples[j] for j in order[lo:lo + config.batch_size]]
            losses = [teacher_forced_loss(p, store, model_config, vocab) for p in batch]
            total = losses[0]
            for extra in losses[1:]:
                total = total + extra
            mean_loss = total / len(losses)
            store.zero_grad()
            mean_loss.backward()
            store.clip_grad_norm(config.clip_norm)
            T.adam_step(store, config.learning_rate)
            step += 1
            value = float(mean_loss.data)
            curve.append((epoch, step, value))
            batch_losses.append(value)
        epoch_mean = float(np.mean(batch_losses))
        epoch_losses.append(epoch_mean)
        if log is not None:
            log(f"epoch {epoch}: mean loss {epoch_mean:.4f}")
        if (checkpoint_path is not None and config.checkpoint_interval
                and (epoch + 1) % config.checkpoint_interval == 0):
            checkpoint_save(checkpoint_path, store, model_config, config, vocab,
                            epochs_completed=epoch + 1)
    return TrainResult(curve=curve, epoch_losses=epoch_losses)


def write_loss_curve(curve: list[tuple[int, int, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,step,loss\n")
        for epoch, step, loss in curve:
            fh.write(f"{epoch},{step},{loss!r}\n")


def config_hash(model_config: ModelConfig) -> str:
    canonical = json.dumps(asdict(model_config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _arrays_to_json(arrays: dict[str, np.ndarray]) -> dict:
    return {name: {"shape": list(a.shape), "values": a.reshape(-1).tolist()}
            for name, a in arrays.items()}


def _arrays_from_json(payload: dict) -> dict[str, np.ndarray]:
    out = {}
    for name, entry in payload.items():
        arr = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        out[name] = arr
    return out


def checkpoint_save(path: str | Path, store: ParamStore, model_config: ModelConfig,
                    train_config: TrainConfig | None, vocab: TokenVocab,
                    category_vocab=None, epochs_completed: int = 0,
                    extra: dict | None = None) -> None:
    """Write parameters, Adam state, and both vocabularies as JSON.

    Values round-trip bit-exactly: JSON floats are serialised with
    shortest-round-trip repr.
    """
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config_hash": config_hash(model_config),
        "model_config": asdict(model_config),
        "train_config": asdict(train_config) if train_config else None,
        "step": store.step,
        "epochs_completed": epochs_completed,
        "token_vocab": vocab.tokens[len(SPECIAL_TOKENS):],
        "category_vocab": list(category_vocab.categories) if category_vocab else None,
        "params": _arrays_to_json({n: t.data for n, t in store.items()}),
        "adam_m": _arrays_to_json(store.adam_m),
        "adam_v": _arrays_to_json(store.adam_v),
    }
    if extra:
        payload["extra"] = extra
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def checkpoint_load(path: str | Path, expected_config: ModelConfig | None = None):
    """Load a checkpoint; returns (store, model_config, train_config, vocab, meta)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CheckpointError(f"{path}: not a checkpoint file: {err}") from err
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint format version {version}")
    model_config = ModelConfig(**payload["model_config"])
    if expected_config is not None and config_hash(expected_config) != payload["config_hash"]:
        raise CheckpointError(
            f"{path}: checkpoint was written for a different model configuration")
    params = _arrays_from_json(payload["params"])
    store = ParamStore()
    for name, arr in params.items():
        store.add(name, arr)
    adam_m = _arrays_from_json(payload["adam_m"])
    adam_v = _arrays_from_json(payload["adam_v"])
    for name in store.names():
        if adam_m[name].shape != store[name].data.shape:
            raise CheckpointError(f"{path}: optimizer state shape mismatch for {name}")
        store.adam_m[name] = adam_m[name]
        store.adam_v[name] = adam_v[name]
    store.step = int(payload["step"])
    vocab = TokenVocab(payload["token_vocab"])
    train_config = (TrainConfig(**payload["train_config"])
                    if payload.get("train_config") else None)
    meta = {
        "epochs_completed": int(payload.get("epochs_completed", 0)),
        "category_vocab": payload.get("category_vocab"),
        "extra": payload.get("extra"),
    }
    return store, model_config, train_config, vocab, meta

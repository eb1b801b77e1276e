"""Command-line entry point.

Subcommands: ingest, stats, prompts, synthetic, train, predict, eval,
raw-baseline, gradcheck, export-attention.  Settings come from built-in
defaults, overridden by a JSON config file (--config), overridden by
explicit flags; PGC_SEED is the seed fallback of last resort.  ``run``
resolves them once per command, which offers flags, and reads PGC_SEED,
only for settings it reads (--seed: synthetic, train, gradcheck;
--top-k-categories: prompts, train, eval, raw-baseline).  Each artifact
records them: a ``.run.json`` sidecar for line-based outputs, the
report's ``config``, a checkpoint's model_config and train_config.
Identical runs produce identical bytes.

Exit codes: 0 success, 1 usage or check failure (a training run that
diverges among them), 2 data error (any input or config file).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, make_dataclass, replace
from pathlib import Path

from . import corpus, eval as evalmod, model as M, prompt, train as trainmod
from .corpus import CorpusError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class CliSettings:
    """The settings that only the command line reads."""
    tighten: bool = field(default=False, metadata={
        "help": "cut extractive rationales down to the answer span"})
    top_k_categories: int = 10

    def __post_init__(self):
        if self.top_k_categories < 1:
            raise ValueError("top_k_categories must be >= 1")


def _check_settings(config) -> None:
    """Each setting has its type; the ModelConfig, TrainConfig and CliSettings
    parts pass their checks, and vocab_size has room past the special tokens."""
    corpus.check_fields(config)
    for section in (M.ModelConfig, trainmod.TrainConfig, CliSettings):
        config.section(section)
    if config.vocab_size <= len(prompt.SPECIAL_TOKENS):
        raise ValueError(f"vocab_size must exceed the {len(prompt.SPECIAL_TOKENS)} special tokens")


class RunConfig(make_dataclass("RunConfig", [
        (f.name, f.type, field(default=f.default, metadata=f.metadata))
        for section in (M.ModelConfig, trainmod.TrainConfig, CliSettings)
        for f in fields(section)], namespace={"__post_init__": _check_settings})):
    """Every setting of a run, flat: the fields of ModelConfig, TrainConfig
    and CliSettings.  These are the config-file keys and the sidecar."""

    def section(self, cls):
        """The ModelConfig, TrainConfig or CliSettings part of the settings."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def prompt_version_obj(self) -> prompt.PromptVersion:
        return prompt.PromptVersion(prompt.PromptVersionId(self.prompt_version),
                                    self.history_depth)


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_SETTING_TYPES = typing.get_type_hints(RunConfig)
# The settings the prompt builder reads.  Wherever a checkpoint is used,
# its values of these and of its model shape replace the run's.
_PROMPT_FIELDS = ("prompt_version", "history_depth")


def _load_config_dict(path: str | Path) -> dict:
    """A JSON config file's settings, which must make a valid RunConfig alone;
    any fault of the file is a ``CorpusError`` naming it."""
    payload = corpus.read_json(path)
    try:
        unknown = sorted(set(payload) - _CONFIG_KEYS)
        if unknown:
            raise CorpusError(f"unknown config keys: {', '.join(unknown)}")
        RunConfig(**payload)
    except (TypeError, ValueError) as err:
        raise CorpusError(f"{path}: {err}") from err
    return payload


def effective_config(args: argparse.Namespace) -> RunConfig:
    """Precedence: explicit flags > config file > PGC_SEED env > defaults, the
    variable read only by a command that offers --seed.  A bad value in the file
    is a data error naming it, one from a flag or PGC_SEED a usage error."""
    env_seed = os.environ.get("PGC_SEED") if hasattr(args, "seed") else None
    try:
        settings = {} if env_seed is None else {"seed": int(env_seed)}
    except ValueError:
        raise UsageError(f"PGC_SEED must be an int, got {env_seed!r}") from None
    settings.update(_load_config_dict(args.config) if args.config else {})
    settings.update({name: getattr(args, name) for name in _CONFIG_KEYS
                     if getattr(args, name, None) is not None})
    try:
        return RunConfig(**settings)
    except (TypeError, ValueError) as err:
        raise UsageError(err) from err


def _write_sidecar(artifact_path: str | Path, config: RunConfig, extra=None) -> None:
    sidecar = Path(str(artifact_path) + ".run.json")
    sidecar.write_text(json.dumps({**asdict(config), **(extra or {})}, indent=2) + "\n",
                       encoding="utf-8")


def _load_examples_any(path: str | Path) -> list[corpus.DialogueExample]:
    """JSONL example store or raw CoQA JSON, decided by suffix."""
    if str(path).endswith(".jsonl"):
        return corpus.load_examples(path)
    return corpus.ingest(path)


def _build_prompts(examples, config: RunConfig, category_vocab, token_vocab):
    version = config.prompt_version_obj()
    return [prompt.build_prompt(ex, version, category_vocab, token_vocab)
            for ex in examples]


def _category_vocab(examples, config: RunConfig, path):
    """The store's question categories, or a ``CorpusError`` naming it."""
    try:
        return prompt.build_category_vocab(examples, config.top_k_categories)
    except CorpusError as err:
        raise CorpusError(f"{path}: {err}") from err


def _fit_length(prompted_list, config: RunConfig, path):
    """Split prompted examples into (usable, dropped) by the length limits;
    an empty answer, which has nothing to train on, is a ``CorpusError``."""
    usable, dropped = [], 0
    for p in prompted_list:
        target = prompt.tokenize(p.target_text)
        if not target:
            raise CorpusError(f"{path}: example {p.origin.story_id}/{p.origin.turn.turn_id} "
                              f"has an empty answer")
        if len(p.source_tokens) > config.max_source_len or len(target) + 1 > config.max_target_len:
            dropped += 1
        else:
            usable.append(p)
    return usable, dropped


# -- subcommand handlers --

def _cmd_ingest(args, config: RunConfig) -> int:
    examples = corpus.ingest(args.input)
    if config.tighten:
        examples = [corpus.tighten_rationale(ex) for ex in examples]
    corpus.save_examples(examples, args.output)
    _write_sidecar(args.output, config)
    print(f"wrote {len(examples)} examples to {args.output}")
    return 0


def _cmd_stats(args, config: RunConfig) -> int:
    examples = _load_examples_any(args.input)
    print(json.dumps(asdict(corpus.compute_stats(examples))))
    return 0


def _cmd_prompts(args, config: RunConfig) -> int:
    examples = _load_examples_any(args.input)
    vocab = _category_vocab(examples, config, args.input)
    corpus.write_records(args.output, ({
        "story_id": p.origin.story_id,
        "turn_id": p.origin.turn.turn_id,
        "version": int(config.prompt_version),
        "source_text": p.source_text,
        "target_text": p.target_text,
    } for p in _build_prompts(examples, config, vocab, None)))
    _write_sidecar(args.output, config)
    print(f"wrote {len(examples)} prompts to {args.output}")
    return 0


def _cmd_synthetic(args, config: RunConfig) -> int:
    try:
        spec = trainmod.SyntheticSpec(
            task=args.task, vocab_size=args.lexicon_size,
            min_len=args.min_len, max_len=args.max_len,
            n_examples=args.n, seed=config.seed,
        )
    except ValueError as err:   # every field comes from a flag or the seed setting
        raise UsageError(err) from err
    examples = trainmod.make_synthetic(spec)
    corpus.save_examples(examples, args.output)
    _write_sidecar(args.output, config, {"synthetic": asdict(spec)})
    print(f"wrote {len(examples)} {args.task} examples to {args.output}")
    return 0


def _cmd_train(args, config: RunConfig) -> int:
    examples = _load_examples_any(args.input)
    if not examples:
        raise CorpusError(f"{args.input}: no training examples")
    start_epoch = 0
    if args.resume:
        config, store, model_config, token_vocab, category_vocab, meta = \
            _open_checkpoint(args.resume, config, args)
        start_epoch = meta["epochs_completed"]
        if config.epochs < start_epoch:
            raise UsageError(f"{args.resume} has {start_epoch} epochs completed, more than "
                             f"the {config.epochs} epochs asked for")
    else:
        category_vocab = _category_vocab(examples, config, args.input)
        bare = _build_prompts(examples, config, category_vocab, None)
        token_lists = [p.source_tokens for p in bare]
        token_lists += [prompt.tokenize(p.target_text) for p in bare]
        token_vocab = prompt.TokenVocab.build(token_lists, config.vocab_size)
        model_config = replace(config.section(M.ModelConfig), vocab_size=token_vocab.size)
        store = M.init_params(model_config, config.seed)
    prompted = _build_prompts(examples, config, category_vocab, token_vocab)
    prompted, dropped = _fit_length(prompted, config, args.input)
    if dropped:
        print(f"dropped {dropped} over-length examples", file=sys.stderr)
    if not prompted:
        raise CorpusError(f"{args.input}: every example exceeds the model's length limits")
    train_config = config.section(trainmod.TrainConfig)

    def save(epochs_completed: int) -> None:
        trainmod.checkpoint_save(args.output, store, model_config, train_config, token_vocab,
                                 category_vocab, epochs_completed)

    result = trainmod.train_loop(
        prompted, store, train_config, model_config, token_vocab,
        start_epoch=start_epoch, save=save, log=lambda msg: print(msg, file=sys.stderr),
    )
    save(config.epochs)
    if args.loss_curve:
        trainmod.write_loss_curve(result.curve, args.loss_curve)
        _write_sidecar(args.loss_curve, config)
    print(f"trained {config.epochs - start_epoch} epochs "
          f"({len(result.curve)} steps); checkpoint at {args.output}")
    return 0


def _open_checkpoint(path, config: RunConfig, args):
    """Load a checkpoint and adopt its model shape, prompt settings and
    category vocabulary, whose size becomes the run's top_k_categories.

    A flag that names a different value is overridden, with one stderr
    line each.  Returns (config, store, model_config, token_vocab,
    category_vocab, meta), the vocabularies those of the training run.
    """
    store, model_config, train_config, token_vocab, meta = trainmod.checkpoint_load(path)
    # vocab_size stays the run's budget: the checkpoint's token vocabulary
    # is used as it is, whatever its size.
    adopted = {name: value for name, value in asdict(model_config).items()
               if name != "vocab_size"}
    adopted.update({name: getattr(train_config, name) for name in _PROMPT_FIELDS})
    for name, value in adopted.items():
        given = getattr(args, name, None)
        if given is not None and given != value:
            print(f"{path}: using the checkpoint's {name} {value}, not {given}",
                  file=sys.stderr)
    n_categories = len(meta["category_vocab"].categories)
    if getattr(args, "top_k_categories", None) not in (None, n_categories):
        print(f"{path}: using the checkpoint's category vocabulary ({n_categories} categories), "
              f"not --top-k-categories {args.top_k_categories}", file=sys.stderr)
    config = replace(config, **adopted, top_k_categories=n_categories)
    return config, store, model_config, token_vocab, meta["category_vocab"], meta


def _cmd_predict(args, config: RunConfig) -> int:
    examples = _load_examples_any(args.input)
    config, store, model_config, token_vocab, category_vocab, _ = \
        _open_checkpoint(args.checkpoint, config, args)
    prompted = _build_prompts(examples, config, category_vocab, token_vocab)
    fits = [len(p.source_tokens) <= model_config.max_source_len for p in prompted]
    skipped = [[p.origin.story_id, p.origin.turn.turn_id]
               for p, fit in zip(prompted, fits) if not fit]
    corpus.write_records(args.output, ({
        "story_id": p.origin.story_id,
        "turn_id": p.origin.turn.turn_id,
        "text": prompt.detokenize(token_vocab.decode_extended(
            M.greedy_decode(p, store, model_config), p.source_oov)),
    } for p, fit in zip(prompted, fits) if fit))
    if skipped:
        print(f"skipped {len(skipped)} over-length examples", file=sys.stderr)
    # Named only when there are some, so an unskipped run's sidecar is unchanged.
    _write_sidecar(args.output, config, {"skipped_over_length": skipped} if skipped else None)
    print(f"wrote predictions to {args.output}")
    return 0


def _read_predictions(path, examples, coqa_path):
    """One prediction per line, exactly ``story_id``, ``turn_id`` and ``text``,
    each for a distinct example of the store; its references are the
    example's answer and those the CoQA file ``coqa_path`` adds, if given."""
    by_key = {(ex.story_id, ex.turn.turn_id): ex for ex in examples}
    extra = corpus.load_additional_answers(coqa_path) if coqa_path else {}

    def build(record):
        checked = evalmod.Prediction(**record, references=[""])   # the types before the lookup
        key = (checked.story_id, checked.turn_id)
        if key not in by_key:
            raise CorpusError(f"prediction for unknown example {key[0]}/{key[1]}")
        return key, replace(checked, references=[by_key[key].turn.answer, *extra.get(key, [])])
    return corpus.read_records(path, build)


def _emit_report(report, args, config) -> None:
    if args.report:
        evalmod.write_report(report, args.report, config=asdict(config))
    if getattr(args, "category_csv", None):
        evalmod.write_category_csv(report, args.category_csv)
        _write_sidecar(args.category_csv, config)
    for line in report.summary_lines():
        print(line)


def _cmd_eval(args, config: RunConfig) -> int:
    examples = _load_examples_any(args.examples)
    vocab = _category_vocab(examples, config, args.examples)
    predictions = _read_predictions(args.predictions, examples, args.coqa)
    report = evalmod.evaluate(predictions, examples, vocab=vocab, top_k=config.top_k_categories)
    _emit_report(report, args, config)
    return 0


def _cmd_raw_baseline(args, config: RunConfig) -> int:
    examples = _load_examples_any(args.input)
    extra = corpus.load_additional_answers(args.coqa) if args.coqa else None
    vocab = _category_vocab(examples, config, args.input)
    report = evalmod.raw_baseline(examples, tighten=config.tighten, extra_references=extra,
                                  vocab=vocab, top_k=config.top_k_categories)
    _emit_report(report, args, config)
    return 0


def _cmd_gradcheck(args, config: RunConfig) -> int:
    error, _ = trainmod.gradcheck(config.seed, max_coords_per_param=args.coords)
    print(f"gradcheck max relative error: {error:.3e}")
    if error >= 1e-4:
        print("gradcheck FAILED (threshold 1e-4)", file=sys.stderr)
        return 1
    return 0


def _cmd_export_attention(args, config: RunConfig) -> int:
    examples = _load_examples_any(args.input)
    if not 0 <= args.index < len(examples):
        raise CorpusError(f"{args.input}: example index {args.index} out of range")
    config, store, model_config, token_vocab, category_vocab, _ = \
        _open_checkpoint(args.checkpoint, config, args)
    if not 0 <= args.layer < model_config.n_enc_layers:
        raise UsageError(f"--layer {args.layer} out of range "
                         f"(0..{model_config.n_enc_layers - 1})")
    bad = [h for h in args.heads if not 0 <= h < model_config.n_heads]
    if bad:
        raise UsageError(f"--heads {bad} out of range (0..{model_config.n_heads - 1})")
    p = prompt.build_prompt(examples[args.index], config.prompt_version_obj(),
                            category_vocab, token_vocab)
    if len(p.source_tokens) > model_config.max_source_len:
        raise CorpusError(f"{args.input}: example {args.index} has {len(p.source_tokens)} "
                          f"source tokens, more than max_source_len {model_config.max_source_len}")
    # One CSV per head: rows are query tokens, columns key tokens, each row sums to 1.
    maps = M.encode(p.source_ids, store, model_config).attn_maps[args.layer]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"attention_layer{args.layer}_head{head}.csv" for head in args.heads]
    for head, path in zip(args.heads, paths):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["", *p.source_tokens]] + [
                [token, *(f"{v:.8f}" for v in row)]
                for token, row in zip(p.source_tokens, maps[head])])
    print("\n".join(map(str, paths)))
    return 0


def _add_setting_flags(parser, *names) -> None:
    """One flag per named setting, ``--the-name``, typed as its field.

    Boolean settings are switches and ``int | None`` ones take an int.
    ``prompt_version`` is spelled ``--version``.
    """
    metadata = {f.name: f.metadata for f in fields(RunConfig)}
    for name in names:
        hint = _SETTING_TYPES[name]
        options = {"dest": name, "help": metadata[name].get("help")}
        if hint is bool:
            options.update(action="store_const", const=True)
        else:
            options["type"] = next(t for t in typing.get_args(hint) or (hint,)
                                   if t is not type(None))
        flag = "--" + name.replace("_", "-")
        if name == "prompt_version":
            flag, options["choices"] = "--version", [int(v) for v in prompt.PromptVersionId]
        parser.add_argument(flag, **options)


def build_parser() -> _Parser:
    parser = _Parser(prog="pgc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def int_list(text: str) -> list[int]:   # a flag type: comma-separated ints, none empty
        return [int(item) for item in text.split(",")]

    coqa_help = "original CoQA JSON whose additional answers are extra references"

    def common(p, *settings):
        p.add_argument("--config", help="JSON config file; flags override it")
        _add_setting_flags(p, *settings)

    p = sub.add_parser("ingest", help="CoQA JSON -> line-delimited example store")
    common(p, "tighten")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("stats", help="print corpus statistics")
    common(p)
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("prompts", help="emit prompt texts as line-delimited JSON")
    common(p, *_PROMPT_FIELDS, "top_k_categories")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_prompts)

    p = sub.add_parser("synthetic", help="generate copy/gate verification data")
    common(p, "seed")
    p.add_argument("--task", required=True, choices=("copy", "gate"))
    spec = {f.name: f.default for f in fields(trainmod.SyntheticSpec)}
    p.add_argument("--n", type=int, default=spec["n_examples"])
    p.add_argument("--min-len", type=int, default=spec["min_len"])
    p.add_argument("--max-len", type=int, default=spec["max_len"])
    p.add_argument("--lexicon-size", type=int, default=spec["vocab_size"])
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_synthetic)

    p = sub.add_parser("train", help="teacher-forced training run")
    common(p, *(f.name for section in (M.ModelConfig, trainmod.TrainConfig)
                for f in fields(section)), "top_k_categories")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--loss-curve", help="CSV path for (epoch, step, loss)")
    p.add_argument("--resume", help="checkpoint to continue from; its model and "
                                    "prompt settings replace the flags'")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="greedy decoding over an example store")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("eval", help="score a predictions file")
    common(p, "top_k_categories")
    p.add_argument("--predictions", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--report", help="JSON report output path")
    p.add_argument("--category-csv", dest="category_csv")
    p.add_argument("--coqa", help=coqa_help)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("raw-baseline", help="score the rationale itself as the answer")
    common(p, "tighten", "top_k_categories")
    p.add_argument("--input", required=True)
    p.add_argument("--report")
    p.add_argument("--category-csv", dest="category_csv")
    p.add_argument("--coqa", help=coqa_help)
    p.set_defaults(handler=_cmd_raw_baseline)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    common(p, "seed")
    p.add_argument("--coords", type=int, default=8,
                   help="sampled coordinates per parameter")
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("export-attention", help="encoder self-attention as CSV")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--heads", type=int_list, required=True,
                   help="comma-separated head indices")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_export_attention)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, effective_config(args))
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except FloatingPointError as err:   # a diverging training run: a failed check
        print(err, file=sys.stderr)
        return 1
    except (OSError, CorpusError) as err:   # a bad path; bad input
        print(f"data error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

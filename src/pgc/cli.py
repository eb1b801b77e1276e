"""Command-line entry point.

Subcommands: ingest, stats, prompts, synthetic, train, predict, eval,
raw-baseline, gradcheck, export-attention.  Settings come from built-in
defaults, overridden by a JSON config file (--config), overridden by
explicit flags; PGC_SEED is the seed fallback of last resort.  Every
run writes the effective configuration next to its artifacts (a
``.run.json`` sidecar for line-based outputs, an embedded field for
JSON outputs), and identical runs produce identical bytes.

Exit codes: 0 success, 1 usage or check failure, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, make_dataclass, replace
from pathlib import Path

from . import corpus, eval as evalmod, model as M, prompt, train as trainmod
from .corpus import CorpusError
from .eval import EvalError
from .train import CheckpointError


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
    multi_ref: bool = False
    top_k_categories: int = 10


class RunConfig(make_dataclass("RunConfig", [
        (f.name, f.type, field(default=f.default, metadata=f.metadata))
        for section in (M.ModelConfig, trainmod.TrainConfig, CliSettings)
        for f in fields(section)])):
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
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CorpusError(f"{path}: malformed config JSON: {err}") from err
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    unknown = sorted(set(payload) - _CONFIG_KEYS)
    if unknown:
        raise UsageError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return payload


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file; unknown keys are an error."""
    return RunConfig(**_load_config_dict(path))


def effective_config(args: argparse.Namespace) -> RunConfig:
    """Precedence: explicit flags > config file > PGC_SEED env > defaults."""
    settings = _load_config_dict(args.config) if getattr(args, "config", None) else {}
    settings.update({name: getattr(args, name) for name in _CONFIG_KEYS
                     if getattr(args, name, None) is not None})
    env_seed = os.environ.get("PGC_SEED")
    if env_seed is not None and "seed" not in settings:
        settings["seed"] = int(env_seed)
    return RunConfig(**settings)


def _write_sidecar(artifact_path: str | Path, config: RunConfig) -> None:
    sidecar = Path(str(artifact_path) + ".run.json")
    sidecar.write_text(json.dumps(asdict(config), indent=2) + "\n", encoding="utf-8")


def _load_examples_any(path: str | Path) -> list[corpus.DialogueExample]:
    """JSONL example store or raw CoQA JSON, decided by suffix."""
    if str(path).endswith(".jsonl"):
        return corpus.load_examples(path)
    return corpus.ingest(path)


def _build_prompts(examples, config: RunConfig, category_vocab, token_vocab):
    version = config.prompt_version_obj()
    return [prompt.build_prompt(ex, version, category_vocab, token_vocab)
            for ex in examples]


def _fit_length(prompted_list, config: RunConfig):
    """Split prompted examples into (usable, dropped) by the length limits."""
    usable, dropped = [], 0
    for p in prompted_list:
        target_len = len(prompt.tokenize(p.target_text)) + 1
        if len(p.source_tokens) > config.max_source_len or target_len > config.max_target_len:
            dropped += 1
        else:
            usable.append(p)
    return usable, dropped


# -- subcommand handlers --

def _cmd_ingest(args) -> int:
    config = effective_config(args)
    examples = corpus.ingest(args.input)
    if config.tighten:
        examples = [corpus.tighten_rationale(ex) for ex in examples]
    corpus.save_examples(examples, args.output)
    _write_sidecar(args.output, config)
    print(f"wrote {len(examples)} examples to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    effective_config(args)  # validates --config before any data is read
    examples = _load_examples_any(args.input)
    stats = corpus.compute_stats(examples)
    print(json.dumps({
        "n_examples": stats.n_examples,
        "n_extractive": stats.n_extractive,
        "n_generative": stats.n_generative,
        "extractive_fraction": stats.extractive_fraction,
    }))
    return 0


def _cmd_prompts(args) -> int:
    config = effective_config(args)
    examples = _load_examples_any(args.input)
    vocab = prompt.build_category_vocab(examples, config.top_k_categories)
    with open(args.output, "w", encoding="utf-8") as fh:
        for p in _build_prompts(examples, config, vocab, None):
            fh.write(json.dumps({
                "story_id": p.origin.story_id,
                "turn_id": p.origin.turn.turn_id,
                "version": int(config.prompt_version),
                "source_text": p.source_text,
                "target_text": p.target_text,
            }, ensure_ascii=False) + "\n")
    _write_sidecar(args.output, config)
    print(f"wrote {len(examples)} prompts to {args.output}")
    return 0


def _cmd_synthetic(args) -> int:
    config = effective_config(args)
    spec = trainmod.SyntheticSpec(
        task=args.task, vocab_size=args.lexicon_size,
        min_len=args.min_len, max_len=args.max_len,
        n_examples=args.n, seed=config.seed,
    )
    examples = trainmod.make_synthetic(spec)
    corpus.save_examples(examples, args.output)
    _write_sidecar(args.output, config)
    print(f"wrote {len(examples)} {args.task} examples to {args.output}")
    return 0


def _cmd_train(args) -> int:
    config = effective_config(args)
    examples = _load_examples_any(args.input)
    if not examples:
        raise CorpusError(f"{args.input}: no training examples")
    start_epoch = 0
    if args.resume:
        config, store, model_config, token_vocab, category_vocab, meta = \
            _open_checkpoint(args.resume, config, args, examples)
        start_epoch = meta["epochs_completed"]
    else:
        category_vocab = prompt.build_category_vocab(examples, config.top_k_categories)
        bare = _build_prompts(examples, config, category_vocab, None)
        token_lists = [p.source_tokens for p in bare]
        token_lists += [prompt.tokenize(p.target_text) for p in bare]
        token_vocab = prompt.TokenVocab.build(token_lists, config.vocab_size)
        model_config = replace(config.section(M.ModelConfig), vocab_size=token_vocab.size)
        store = M.init_params(model_config, config.seed)
    prompted = _build_prompts(examples, config, category_vocab, token_vocab)
    prompted, dropped = _fit_length(prompted, config)
    if dropped:
        print(f"dropped {dropped} over-length examples", file=sys.stderr)
    if not prompted:
        raise CorpusError("every example exceeds the model's length limits")
    train_config = config.section(trainmod.TrainConfig)
    result = trainmod.train_loop(
        prompted, store, train_config, model_config, token_vocab,
        start_epoch=start_epoch, checkpoint_path=args.output,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    trainmod.checkpoint_save(
        args.output, store, model_config, train_config, token_vocab,
        category_vocab=category_vocab, epochs_completed=config.epochs,
        extra={"run_config": asdict(config)},
    )
    if args.loss_curve:
        trainmod.write_loss_curve(result.curve, args.loss_curve)
        _write_sidecar(args.loss_curve, config)
    print(f"trained {config.epochs - start_epoch} epochs "
          f"({len(result.curve)} steps); checkpoint at {args.output}")
    return 0


def _open_checkpoint(path, config: RunConfig, args, examples):
    """Load a checkpoint and adopt its model shape and prompt settings.

    A flag that names a different value is overridden, with one stderr
    line each.  Returns (config, store, model_config, token_vocab,
    category_vocab, meta); the category vocabulary is built from
    ``examples`` when the checkpoint carries none.
    """
    store, model_config, train_config, token_vocab, meta = trainmod.checkpoint_load(path)
    if meta["category_vocab"]:
        category_vocab = prompt.CategoryVocab(categories=tuple(meta["category_vocab"]))
    else:
        category_vocab = prompt.build_category_vocab(examples, config.top_k_categories)
    # vocab_size stays the run's budget: the checkpoint's token vocabulary
    # is used as it is, whatever its size.
    adopted = {name: value for name, value in asdict(model_config).items()
               if name != "vocab_size"}
    if train_config is not None:
        adopted.update({name: getattr(train_config, name) for name in _PROMPT_FIELDS})
    for name, value in adopted.items():
        given = getattr(args, name, None)
        if given is not None and given != value:
            print(f"{path}: using the checkpoint's {name} {value}, not {given}",
                  file=sys.stderr)
    config = replace(config, **adopted)
    return config, store, model_config, token_vocab, category_vocab, meta


def _cmd_predict(args) -> int:
    config = effective_config(args)
    examples = _load_examples_any(args.input)
    config, store, model_config, token_vocab, category_vocab, _ = \
        _open_checkpoint(args.checkpoint, config, args, examples)
    prompted = _build_prompts(examples, config, category_vocab, token_vocab)
    skipped = 0
    with open(args.output, "w", encoding="utf-8") as fh:
        for p in prompted:
            if len(p.source_tokens) > model_config.max_source_len:
                skipped += 1
                continue
            ids = M.greedy_decode(p, store, model_config)
            tokens = token_vocab.decode_extended(ids, p.source_oov)
            fh.write(json.dumps({
                "story_id": p.origin.story_id,
                "turn_id": p.origin.turn.turn_id,
                "text": prompt.detokenize(tokens),
            }, ensure_ascii=False) + "\n")
    if skipped:
        print(f"skipped {skipped} over-length examples", file=sys.stderr)
    _write_sidecar(args.output, config)
    print(f"wrote predictions to {args.output}")
    return 0


def _read_predictions(path, examples, multi_ref, coqa_path):
    """One prediction per line, each for a distinct example of the store."""
    by_key = {(ex.story_id, ex.turn.turn_id): ex for ex in examples}
    extra = corpus.load_additional_answers(coqa_path) if (multi_ref and coqa_path) else {}
    predictions, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            # EvalError is a ValueError, so each problem below gets path:line.
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise EvalError("expected a JSON object")
                key = (record["story_id"], int(record["turn_id"]))
                text = record["text"]
                if not isinstance(text, str):
                    raise EvalError("text is not a string")
                if key not in by_key:
                    raise EvalError(f"prediction for unknown example {key[0]}/{key[1]}")
                if key in seen:
                    raise EvalError(f"second prediction for {key[0]}/{key[1]}")
            except KeyError as err:
                raise EvalError(f"{path}:{line_no}: prediction lacks {err}") from err
            except (TypeError, ValueError) as err:
                raise EvalError(f"{path}:{line_no}: bad prediction record: {err}") from err
            seen.add(key)
            references = [by_key[key].turn.answer] + list(extra.get(key, []))
            predictions.append(evalmod.Prediction(
                story_id=key[0], turn_id=key[1], text=text, references=references))
    return predictions


def _emit_report(report, args, config) -> None:
    if args.report:
        evalmod.write_report(report, args.report, config=asdict(config))
    if getattr(args, "category_csv", None):
        evalmod.write_category_csv(report, args.category_csv)
        _write_sidecar(args.category_csv, config)
    for line in report.summary_lines():
        print(line)


def _cmd_eval(args) -> int:
    config = effective_config(args)
    examples = _load_examples_any(args.examples)
    if config.multi_ref and not args.coqa:
        raise UsageError("--multi-ref needs --coqa pointing at the original CoQA JSON")
    vocab = prompt.build_category_vocab(examples, config.top_k_categories)
    predictions = _read_predictions(args.predictions, examples,
                                    config.multi_ref, args.coqa)
    report = evalmod.evaluate(predictions, examples, vocab=vocab,
                              multi=config.multi_ref, top_k=config.top_k_categories)
    _emit_report(report, args, config)
    return 0


def _cmd_raw_baseline(args) -> int:
    config = effective_config(args)
    examples = _load_examples_any(args.input)
    extra = None
    if config.multi_ref:
        if str(args.input).endswith(".jsonl"):
            raise UsageError("--multi-ref needs the original CoQA JSON as --input")
        extra = corpus.load_additional_answers(args.input)
    vocab = prompt.build_category_vocab(examples, config.top_k_categories)
    report = evalmod.raw_baseline(examples, tighten=config.tighten,
                                  multi=config.multi_ref, extra_references=extra,
                                  vocab=vocab, top_k=config.top_k_categories)
    _emit_report(report, args, config)
    return 0


def _cmd_gradcheck(args) -> int:
    config = effective_config(args)
    error, _ = trainmod.gradcheck(config.seed, max_coords_per_param=args.coords)
    print(f"gradcheck max relative error: {error:.3e}")
    if error >= 1e-4:
        print("gradcheck FAILED (threshold 1e-4)", file=sys.stderr)
        return 1
    return 0


def _cmd_export_attention(args) -> int:
    config = effective_config(args)
    examples = _load_examples_any(args.input)
    if not 0 <= args.index < len(examples):
        raise CorpusError(f"example index {args.index} out of range")
    config, store, model_config, token_vocab, category_vocab, _ = \
        _open_checkpoint(args.checkpoint, config, args, examples)
    p = prompt.build_prompt(examples[args.index], config.prompt_version_obj(),
                            category_vocab, token_vocab)
    heads = [int(h) for h in args.heads.split(",") if h != ""]
    paths = M.export_attention(p.source_tokens, p.source_ids, store, model_config,
                               args.layer, heads, args.out_dir)
    for path in paths:
        print(str(path))
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

    def common(p, *settings):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, help="random seed (fallback: PGC_SEED)")
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
    common(p)
    p.add_argument("--task", required=True, choices=("copy", "gate"))
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--min-len", type=int, default=4)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--lexicon-size", type=int, default=512)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_synthetic)

    p = sub.add_parser("train", help="teacher-forced training run")
    common(p, *(f.name for section in (M.ModelConfig, trainmod.TrainConfig)
                for f in fields(section) if f.name != "seed"), "top_k_categories")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--loss-curve", help="CSV path for (epoch, step, loss)")
    p.add_argument("--resume", help="checkpoint to continue from; its model and "
                                    "prompt settings replace the flags'")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="greedy decoding over an example store")
    common(p, "top_k_categories")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("eval", help="score a predictions file")
    common(p, "multi_ref", "top_k_categories")
    p.add_argument("--predictions", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--report", help="JSON report output path")
    p.add_argument("--category-csv", dest="category_csv")
    p.add_argument("--coqa", help="original CoQA JSON for extra references")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("raw-baseline", help="score the rationale itself as the answer")
    common(p, "tighten", "multi_ref", "top_k_categories")
    p.add_argument("--input", required=True)
    p.add_argument("--report")
    p.add_argument("--category-csv", dest="category_csv")
    p.set_defaults(handler=_cmd_raw_baseline)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    common(p)
    p.add_argument("--coords", type=int, default=8,
                   help="sampled coordinates per parameter")
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("export-attention", help="encoder self-attention as CSV")
    common(p, "top_k_categories")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--heads", required=True, help="comma-separated head indices")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_export_attention)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (CorpusError, EvalError, CheckpointError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())

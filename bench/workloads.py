"""The two workloads and the pipeline both run.

One run of a workload, in one process and one thread, with one caller
waiting on each operation (a closed loop):

1. set up: generate the inputs from the seed, write them as CoQA JSON,
   read them through ``pgc ingest``, build prompts and vocabularies and
   a fresh model (repeated ``SETUP_REPS`` times; the median is reported);
2. train with ``train.train_loop`` on successive chunks of a few steps,
   each chunk one timed sample;
3. save and load the checkpoint ``CKPT_REPS`` times;
4. greedy-decode the held-out set with the loaded model, in whole passes,
   until the run's seconds are spent;
5. score with ``eval.evaluate`` and again through ``pgc eval``.

Every timed unit is paired with a reference-loop sample (``timing``).
A traced run (``--trace 1``) has the tracer installed from start to end.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from pgc import cli, corpus, eval as evalmod, model, prompt, train
from pgc.model import ModelConfig
from pgc.prompt import BOS

import checks
import inputs
from timing import NOMINAL_REF_MS, HostClock, percentile
from tracer import Tracer, by_name, by_phase

SETUP_REPS = 5
CHUNK = 32          # examples per timed training chunk: 4 steps of 8
BATCH = 8
CKPT_REPS = 21
SPARSE_REFS = 3     # reference samples before each set-up, chunk or checkpoint sample
CHECK_EVERY = 8     # chunks between checks of the output distributions
ROUND_TRIP_SAMPLE = 8
LEARNING_RATE = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int, int], list]     # (seed, n, split) -> dialogues
    n_train: int
    n_heldout: int
    config: ModelConfig                       # vocab_size is the budget
    prompt_version: int
    history_depth: int
    epochs: int
    floor_metric: str                         # report field held to the floor
    floor: float


WORKLOADS = {
    "copy": Workload(
        name="copy", make=inputs.copy_dialogues,
        n_train=inputs.COPY_TRAIN, n_heldout=inputs.COPY_HELDOUT,
        config=ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=32, n_heads=2,
                           vocab_size=256, max_source_len=24, max_target_len=14),
        prompt_version=1, history_depth=1, epochs=4,
        floor_metric="o_em", floor=90.0),
    "dialog": Workload(
        name="dialog", make=inputs.dialog_dialogues,
        n_train=inputs.DIALOG_TRAIN, n_heldout=inputs.DIALOG_HELDOUT,
        config=ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=32, n_heads=2,
                           vocab_size=256, max_source_len=40, max_target_len=8),
        prompt_version=3, history_depth=1, epochs=5,
        floor_metric="e_f1", floor=70.0),
}


@dataclass
class Prepared:
    """Everything set-up produces."""
    heldout_examples: list
    expected: dict
    category_vocab: prompt.CategoryVocab
    vocab: prompt.TokenVocab
    config: ModelConfig
    train_set: list
    heldout_set: list
    store: object


@dataclass
class Run:
    workload: Workload
    seed: int
    seconds: float
    trace: bool
    out: Path
    clock: HostClock = field(default_factory=HostClock)
    tracer: Tracer = field(default_factory=Tracer)
    failures: list = field(default_factory=list)    # failed output checks
    errors: list = field(default_factory=list)      # operations that raised
    attempted: int = 0
    failed: int = 0

    def span(self, name: str):
        """A benchmark-level span, recorded only while tracing; yields its
        attribute dict, or None when not tracing."""
        return self.tracer.phase(name) if self.tracer.installed else contextlib.nullcontext()

    def timed(self, series: str, phase: str, fn, *args, ops: int = 1, **kwargs):
        """``clock.timed`` that counts ``ops`` operations as attempted.

        Returns ``(result, span attributes)``.  In a traced run the call
        is a ``phase`` span, opened after the reference samples so that
        its Tensor and GC counts are the program's alone; otherwise the
        attributes are None.  If ``fn`` raises, its operations count as
        failed, the error is kept, no sample is recorded and the result
        is None.
        """
        attrs = {}

        def call(*call_args, **call_kwargs):
            with self.span(phase) as span_attrs:
                attrs["span"] = span_attrs
                return fn(*call_args, **call_kwargs)

        self.attempted += ops
        try:
            result = self.clock.timed(series, call, *args, **kwargs)
        except Exception as err:   # counted and reported, the run goes on
            self.failed += ops
            self.errors.append(f"{phase}: {type(err).__name__}: {err}")
            return None, None
        return result, attrs.get("span")


def _cli(*argv: str) -> None:
    """``pgc <argv>`` in this process; its console output goes to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.run(list(argv))
    if code != 0:
        raise RuntimeError(f"pgc {' '.join(argv)} exited with {code}")


def _length_ok(p, config: ModelConfig) -> bool:
    return (len(p.source_tokens) <= config.max_source_len
            and len(prompt.tokenize(p.target_text)) + 1 <= config.max_target_len)


def prepare(run: Run) -> Prepared:
    wl, out = run.workload, run.out
    train_dialogues = wl.make(run.seed, wl.n_train, 0)
    heldout_dialogues = wl.make(run.seed, wl.n_heldout, 1)
    loaded = {}
    for split, dialogues in (("train", train_dialogues), ("heldout", heldout_dialogues)):
        (out / f"{split}.json").write_text(json.dumps(inputs.coqa_dict(dialogues)),
                                           encoding="utf-8")
        with run.span("cli.ingest"):
            _cli("ingest", "--input", str(out / f"{split}.json"),
                 "--output", str(out / f"{split}.jsonl"))
        loaded[split] = corpus.load_examples(out / f"{split}.jsonl")

    # Vocabularies as `pgc train` builds them.
    category_vocab = prompt.build_category_vocab(loaded["train"], 10)
    version = prompt.PromptVersion(prompt.PromptVersionId(wl.prompt_version),
                                   wl.history_depth)
    bare = [prompt.build_prompt(ex, version, category_vocab) for ex in loaded["train"]]
    token_lists = [p.source_tokens for p in bare]
    token_lists += [prompt.tokenize(p.target_text) for p in bare]
    vocab = prompt.TokenVocab.build(token_lists, wl.config.vocab_size)
    config = replace(wl.config, vocab_size=vocab.size)
    sets = {split: [prompt.build_prompt(ex, version, category_vocab, vocab) for ex in exs]
            for split, exs in loaded.items()}
    too_long = [p for ps in sets.values() for p in ps if not _length_ok(p, config)]
    if too_long:  # the generators are built to stay within the limits
        raise ValueError(f"{len(too_long)} {wl.name} examples exceed the model's "
                         f"length limits")
    return Prepared(heldout_examples=loaded["heldout"],
                    expected=inputs.expected_answers(heldout_dialogues),
                    category_vocab=category_vocab, vocab=vocab, config=config,
                    train_set=sets["train"], heldout_set=sets["heldout"],
                    store=model.init_params(config, seed=0))


def _key(p) -> tuple[str, int]:
    return p.origin.story_id, p.origin.turn.turn_id


def _distribution_failures(p, gold_ext: list[int], prep: Prepared, store) -> list[str]:
    """Check every step of a teacher-forced pass along ``gold_ext``."""
    stack = model.encode(p.source_ids, store, prep.config)
    prefix = [BOS] + prep.vocab.to_generator_ids(gold_ext[:-1])
    fwd = model.forward_distributions(prefix, stack, store, prep.config)
    return checks.distributions(fwd.p_final.data, fwd.p_gen.data)


def _mean_loss(chunk_losses: list[list[float]]) -> float:
    return float(np.mean([x for c in chunk_losses for x in c]))


def train_phase(run: Run, prep: Prepared) -> tuple[train.TrainConfig, dict]:
    """Train in timed chunks; returns the config and a summary of the losses.

    ``train_loss`` is the mean step loss over the whole run.  The loss
    must fall: the mean over the last quarter of the chunks
    (``last_loss``) must be below that over the first quarter
    (``first_loss``).
    """
    wl = run.workload
    base = train.TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH, epochs=1,
                             seed=0, prompt_version=wl.prompt_version,
                             history_depth=wl.history_depth)
    chunk_losses: list[list[float]] = []
    epoch_losses: list[float] = []
    n = len(prep.train_set)
    per_epoch = -(-n // CHUNK)
    index = 0
    for epoch in range(wl.epochs):
        order = np.random.default_rng([0, epoch]).permutation(n)
        for lo in range(0, n, CHUNK):
            chunk = [prep.train_set[j] for j in order[lo:lo + CHUNK]]
            result, attrs = run.timed(
                "train", "bench.train_chunk", train.train_loop, chunk, prep.store,
                replace(base, seed=index), prep.config, prep.vocab,
                ops=-(-len(chunk) // BATCH), size=len(chunk), refs=SPARSE_REFS)
            if result is not None:
                if attrs is not None:
                    attrs.update(steps=len(result.curve), examples=len(chunk))
                chunk_losses.append([loss for _, _, loss in result.curve])
                if index % CHECK_EVERY == 0:
                    p = chunk[0]
                    run.failures += _distribution_failures(
                        p, train.target_ids(p, prep.vocab), prep, prep.store)
            index += 1
        epoch_losses.append(_mean_loss(chunk_losses[-per_epoch:]))
    quarter = max(1, len(chunk_losses) // 4)
    summary = {
        "train_loss": _mean_loss(chunk_losses),
        "first_loss": _mean_loss(chunk_losses[:quarter]),
        "last_loss": _mean_loss(chunk_losses[-quarter:]),
        "epoch_losses": epoch_losses,
    }
    if not summary["last_loss"] < summary["first_loss"]:
        run.failures.append(f"training loss did not fall: {summary['first_loss']:.4f} "
                            f"-> {summary['last_loss']:.4f}")
    return base, summary


def checkpoint_phase(run: Run, prep: Prepared, train_config) -> tuple[object, float]:
    path = run.out / "model.ckpt.json"
    loaded = None
    for _ in range(CKPT_REPS):
        gc.collect()
        run.timed("ckpt_save", "bench.ckpt_save", train.checkpoint_save, path, prep.store,
                  prep.config, train_config, prep.vocab,
                  category_vocab=prep.category_vocab, epochs_completed=run.workload.epochs,
                  refs=SPARSE_REFS, ref="serial")
        result, _ = run.timed("ckpt_load", "bench.ckpt_load", train.checkpoint_load, path,
                              prep.config, refs=SPARSE_REFS, ref="serial")
        loaded = result or loaded
    if loaded is None:
        raise RuntimeError(f"no checkpoint round trip succeeded: {run.errors[-1]}")
    store, config, _, vocab, _ = loaded
    run.failures += checks.stores_identical(prep.store, store)
    if config != prep.config or vocab.tokens != prep.vocab.tokens:
        run.failures.append("checkpoint round trip changed the configuration or vocabulary")
    return store, path.stat().st_size / 1e6


def decode_phase(run: Run, prep: Prepared, store, deadline: float) -> dict:
    """Whole passes over the held-out set until the deadline; returns ids per turn."""
    config = prep.config
    predictions: dict = {}
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for p in prep.heldout_set:
            ids, attrs = run.timed("decode", "bench.decode", model.greedy_decode, p, store,
                                   config)
            if ids is None:
                continue
            steps = len(ids) + int(len(ids) < config.max_target_len)
            run.clock.series("decode")[-1].size = steps
            if attrs is not None:
                attrs["steps"] = steps
            key = _key(p)
            if predictions.setdefault(key, ids) != ids:
                run.failures.append(f"decoding {key} is not deterministic")
        passes += 1
    return predictions


def evaluate_phase(run: Run, prep: Prepared, ids_by_key: dict) -> evalmod.EvalReport:
    """Score in process and through `pgc eval`, and check the outputs."""
    wl, vocab = run.workload, prep.vocab
    by_key = {_key(p): p for p in prep.heldout_set}
    texts, emitted_oov = {}, 0
    for key, ids in ids_by_key.items():
        p = by_key[key]
        tokens = vocab.decode_extended(ids, p.source_oov)
        texts[key] = prompt.detokenize(tokens)
        run.failures += checks.oov_from_source(tokens, vocab.__contains__, p.source_tokens)
        emitted_oov += sum(tok not in vocab for tok in tokens)
    predictions = [evalmod.Prediction(story_id=ex.story_id, turn_id=ex.turn.turn_id,
                                      text=texts[(ex.story_id, ex.turn.turn_id)],
                                      references=[ex.turn.answer])
                   for ex in prep.heldout_examples if (ex.story_id, ex.turn.turn_id) in texts]
    pred_path, report_path = run.out / "predictions.jsonl", run.out / "report.json"
    pred_path.write_text("".join(
        json.dumps({"story_id": pr.story_id, "turn_id": pr.turn_id, "text": pr.text}) + "\n"
        for pr in predictions), encoding="utf-8")
    report, _ = run.timed("eval", "bench.eval", evalmod.evaluate, predictions,
                          prep.heldout_examples, vocab=prep.category_vocab)
    if report is None:
        raise RuntimeError(f"scoring failed: {run.errors[-1]}")
    run.timed("cli_eval", "cli.eval", _cli, "eval", "--predictions", str(pred_path),
              "--examples", str(run.out / "heldout.jsonl"), "--report", str(report_path))
    if report_path.exists():
        from_cli = json.loads(report_path.read_text(encoding="utf-8"))
        for name in ("o_em", "o_f1", "n_overall", "n_generative", "n_extractive"):
            if from_cli[name] != getattr(report, name):
                run.failures.append(f"pgc eval {name} {from_cli[name]} "
                                    f"!= evaluate {getattr(report, name)}")

    expected = prep.expected
    run.failures += checks.coverage(texts, expected, report.n_overall)
    run.failures += checks.em_recount(texts, expected, report.o_em)
    n_yesno = sum(t.kind == inputs.YESNO for t in expected.values())
    if (report.n_generative, report.n_extractive) != (n_yesno, len(expected) - n_yesno):
        run.failures.append(f"scorer split G/E {report.n_generative}/{report.n_extractive} "
                            f"!= generated {n_yesno}/{len(expected) - n_yesno}")
    if emitted_oov == 0 and any(p.source_oov for p in prep.heldout_set):
        run.failures.append("no generator-OOV word was emitted, so copying is unproven")
    run.failures += checks.yes_no_only(
        texts, [k for k, t in expected.items() if t.kind == inputs.YESNO])
    score = getattr(report, wl.floor_metric)
    if score is None or score < wl.floor:
        run.failures.append(f"{wl.floor_metric} {score} below the floor {wl.floor}")
    return report


def execute(run: Run) -> dict:
    """The whole run, traced from start to end when ``run.trace``;
    returns the figures the report is made from."""
    with run.tracer.tracing(run.trace):
        return _execute(run)


def _execute(run: Run) -> dict:
    prep = None
    for _ in range(SETUP_REPS):
        gc.collect()
        result, _ = run.timed("setup", "bench.setup", prepare, run, refs=SPARSE_REFS)
        prep = result or prep
    if prep is None:
        raise RuntimeError(f"every set-up failed: {run.errors[-1]}")
    start = time.perf_counter()
    train_config, losses = train_phase(run, prep)
    reference_ids = [model.greedy_decode(p, prep.store, prep.config)
                     for p in prep.heldout_set[:ROUND_TRIP_SAMPLE]]
    store, ckpt_mb = checkpoint_phase(run, prep, train_config)
    ids_by_key = decode_phase(run, prep, store, start + run.seconds)
    if [ids_by_key.get(_key(p)) for p in prep.heldout_set[:ROUND_TRIP_SAMPLE]] != reference_ids:
        run.failures.append("the loaded checkpoint decodes differently")
    for p in prep.heldout_set[::10]:
        if _key(p) in ids_by_key:
            steps = (ids_by_key[_key(p)] + [prompt.EOS])[:prep.config.max_target_len]
            run.failures += _distribution_failures(p, steps, prep, store)
    report = evaluate_phase(run, prep, ids_by_key)
    run.clock.finish()
    return {
        **losses,
        "ckpt_mb": ckpt_mb,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "o_f1": report.o_f1,
        "report": report.to_dict(),
        "measured_s": time.perf_counter() - start,
    }


def end_to_end(clock: HostClock, figures: dict, attr: str) -> dict[str, float]:
    """The end-to-end metrics from the run's timed samples.

    ``attr`` is ``norm_s`` for host-normalised figures or ``raw_s``.
    """
    def t(series):
        return [getattr(s, attr) for s in clock.series(series)]

    decode = clock.series("decode")
    return {
        "setup_s": statistics.median(t("setup")),
        "train_ex_per_s": sum(s.size for s in clock.series("train")) / sum(t("train")),
        "train_loss": figures["train_loss"],
        "decode_ms_p50": 1000.0 * percentile(t("decode"), 0.5),
        "decode_ms_p90": 1000.0 * percentile(t("decode"), 0.9),
        "decode_tok_per_s": sum(s.size for s in decode) / sum(t("decode")),
        "ckpt_save_ms": 1000.0 * statistics.median(t("ckpt_save")),
        "ckpt_load_ms": 1000.0 * statistics.median(t("ckpt_load")),
        "ckpt_mb": figures["ckpt_mb"],
        "peak_rss_mb": figures["peak_rss_mb"],
        "o_f1": figures["o_f1"],
    }


def per_layer(run: Run) -> dict[str, float]:
    """Per-layer figures of a traced run."""
    tracer, clock = run.tracer, run.clock
    scale = 1000.0 * NOMINAL_REF_MS / clock.ref_median_ms()   # seconds -> norm ms
    spans = tracer.spans()
    every = by_name(spans)
    chunks = by_phase(spans, "bench.train_chunk")
    decodes = by_phase(spans, "bench.decode")

    def total_ms(spans):
        return scale * sum(s.duration for s in spans)

    def per_call(spans):
        return total_ms(spans) / len(spans)

    def attr_sum(spans, name):   # a phase whose call raised has no counts of its own
        return sum(s.attrs.get(name, 0) for s in spans)

    chunk_spans = chunks["bench.train_chunk"]
    steps, examples = attr_sum(chunk_spans, "steps"), attr_sum(chunk_spans, "examples")
    tokens = attr_sum(decodes["bench.decode"], "steps")
    loops = chunks["train.train_loop"]
    covered = sum(s.duration for s in spans
                  if s.parent >= 0 and spans[s.parent].name == "train.train_loop")

    return {
        "host.ref_ms": clock.ref_median_ms(),
        "corpus.ingest_ms": per_call(every["corpus.ingest"]),
        "prompt.build_us_per_ex": 1000.0 * per_call(every["prompt.build_prompt"]),
        "cli.ingest_ms": per_call(every["cli.ingest"]),
        "cli.eval_ms": per_call(every["cli.eval"]),
        "train.forward_ms_per_step": total_ms(chunks["train.forward"]) / steps,
        "tensor.backward_ms_per_step": total_ms(chunks["tensor.backward"]) / steps,
        "tensor.clip_ms_per_step": total_ms(chunks["tensor.clip"]) / steps,
        "tensor.adam_ms_per_step": total_ms(chunks["tensor.adam"]) / steps,
        "tensor.nodes_per_ex": attr_sum(chunk_spans, "tensors") / examples,
        "tensor.gc_runs_per_step": attr_sum(chunk_spans, "gc_runs") / steps,
        "tensor.gc_ms_per_step": scale * attr_sum(chunk_spans, "gc_s") / steps,
        "model.encode_ms_per_call": per_call(every["model.encode"]),
        "model.decoder_ms_per_call": per_call(decodes["model.decoder"]),
        "model.decoder_rows_per_token": attr_sum(decodes["model.decoder"], "rows") / tokens,
        "model.copy_attention_ms_per_call": per_call(decodes["model.copy_attention"]),
        "model.copy_key_rows_per_token":
            attr_sum(decodes["model.copy_attention"], "rows") / tokens,
        "model.scatter_ms_per_call": per_call(decodes["model.scatter"]),
        "model.gate_ms_per_call": per_call(decodes["model.gate"]),
        "model.vocab_ms_per_call": per_call(decodes["model.vocab"]),
        "model.mix_ms_per_call": per_call(decodes["model.mix"]),
        "eval.evaluate_ms": per_call(every["eval.evaluate"]),
        "trace.step_coverage_pct": 100.0 * covered / sum(s.duration for s in loops),
    }

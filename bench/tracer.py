"""In-memory spans around the program's public layer functions.

``Tracer.install`` replaces each function listed in ``LAYER_FUNCTIONS``
with a wrapper that records a span (name, start, end, parent) and
``uninstall`` puts the originals back.  The program looks these
functions up through module and class attributes at call time, so
replacing the attributes is enough to see every call.

Spans stay in memory until the run ends, in flat arrays rather than one
object per span: the program leaves most of its garbage to the cyclic
collector, and tens of thousands of span objects would add to the work
of every full collection.  A span's self time is its duration minus the
durations of its children.
"""

from __future__ import annotations

import gc
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from pgc import corpus, eval as evalmod, model, prompt, tensor, train


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _decoder_rows(prefix_ids, *_args, **_kwargs) -> int:
    return len(prefix_ids)


def _copy_key_rows(_states, stack, *_args, **_kwargs) -> int:
    return len(stack.layers) * stack.source_len


# (owner, attribute, span name, function of the call's arguments giving
# the span's row count).  Methods are wrapped on their class.
LAYER_FUNCTIONS = (
    (corpus, "ingest", "corpus.ingest", None),
    (prompt, "build_prompt", "prompt.build_prompt", None),
    (train, "train_loop", "train.train_loop", None),
    (train, "teacher_forced_loss", "train.forward", None),
    (train, "checkpoint_save", "train.checkpoint_save", None),
    (train, "checkpoint_load", "train.checkpoint_load", None),
    (tensor.Tensor, "backward", "tensor.backward", None),
    (tensor.ParamStore, "clip_grad_norm", "tensor.clip", None),
    (tensor, "adam_step", "tensor.adam", None),
    (model, "greedy_decode", "model.greedy_decode", None),
    (model, "encode", "model.encode", None),
    (model, "decoder_states", "model.decoder", _decoder_rows),
    (model, "copy_attention", "model.copy_attention", _copy_key_rows),
    (model, "scatter_copy", "model.scatter", None),
    (model, "generation_gate", "model.gate", None),
    (model, "vocab_distribution", "model.vocab", None),
    (model, "mix", "model.mix", None),
    (evalmod, "evaluate", "eval.evaluate", None),
)


class Tracer:
    """Collects spans, Tensor constructions and cyclic-GC runs."""

    def __init__(self):
        self.tensors = 0
        self.gc_runs = 0
        self.gc_s = 0.0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._rows = array("q")
        self._attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- recording --

    def _open(self, name: str, rows: int = 0) -> int:
        index = len(self._start)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._rows.append(rows)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """A span opened by the benchmark itself.  Yields its attribute
        dict, to which the Tensor and GC counts made inside it are added."""
        tensors, runs, gc_s = self.tensors, self.gc_runs, self.gc_s
        index = self._open(name)
        attrs = self._attrs[index] = {}
        try:
            yield attrs
        finally:
            self._close(index)
            attrs.update(tensors=self.tensors - tensors, gc_runs=self.gc_runs - runs,
                         gc_s=self.gc_s - gc_s)

    def _wrap(self, name: str, fn, rows):
        def traced(*args, **kwargs):
            index = self._open(name, rows(*args, **kwargs) if rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, event: str, _info: dict) -> None:
        if event == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_runs += 1
            self.gc_s += time.perf_counter() - self._gc_start

    # -- switching on and off --

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, rows in LAYER_FUNCTIONS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, rows))
        original_init = tensor.Tensor.__init__
        self._originals.append((tensor.Tensor, "__init__", original_init))

        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            original_init(obj, *args, **kwargs)

        tensor.Tensor.__init__ = counting_init
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def tracing(self, on: bool = True):
        """Installed for the body when ``on``; a no-op otherwise."""
        if not on:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def spans(self) -> list[Span]:
        """Every span recorded so far, in the order they were opened."""
        out = []
        for i, (name_id, start, end, parent, rows) in enumerate(
                zip(self._name, self._start, self._end, self._parent, self._rows)):
            attrs = dict(self._attrs.get(i, {}))
            if rows:
                attrs["rows"] = rows
            out.append(Span(self._names[name_id], start, end, parent, attrs))
        return out


# -- reading a list of spans (parents come before their children) --

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations."""
    child_sum = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_sum[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child_sum)]


def roots(spans: list[Span]) -> list[int]:
    """For each span, the index of its outermost ancestor."""
    out: list[int] = []
    for i, span in enumerate(spans):
        out.append(i if span.parent < 0 else out[span.parent])
    return out


def by_name(spans: list[Span]) -> dict[str, list[Span]]:
    groups: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        groups[span.name].append(span)
    return groups


def by_phase(spans: list[Span], phase: str) -> dict[str, list[Span]]:
    """Spans under outermost spans named ``phase``, grouped by name."""
    groups: dict[str, list[Span]] = defaultdict(list)
    for span, root in zip(spans, roots(spans)):
        if spans[root].name == phase:
            groups[span.name].append(span)
    return groups


def records(spans: list[Span]) -> list[dict]:
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "self": st, **s.attrs} for s, st in zip(spans, self_times(spans))]

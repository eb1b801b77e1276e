"""Host-normalised timing: a fixed reference loop paired with every sample.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes while CPU time still equals wall time, so the
swing is the host's speed, not preemption.  A fixed reference loop, run
next to every timed sample, tracks that drift.  A raw time is scaled by
``NOMINAL_REF_MS / measured reference`` to give the time the work would
have taken on a host whose reference loop runs in the nominal time.

The reference is the median of the reference samples that fall in a
window around the timed sample, which smooths the reference's own noise
while still following the host.  Checkpoint samples have a reference of
their own (JSON text round trips), which follows them more closely.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Nominal reference-loop times, close to their medians on the host the
# benchmark was calibrated on (2 cores, Intel Xeon, numpy 2.4.6 with
# OpenBLAS on one thread).  Only their constancy matters: normalised
# figures are comparable across runs because they never change.
NOMINAL_REF_MS = 2.0
NOMINAL_SERIAL_MS = 2.0

# Half-width of the window of reference samples a timed sample is
# normalised against.
WINDOW_S = 1.0

_SERIAL_VALUES = np.cos(np.arange(2000, dtype=np.float64)) / 3.0
_REF_X = np.linspace(-1.0, 1.0, 8 * 16).reshape(8, 16)
_REF_W = np.cos(np.arange(16 * 16, dtype=np.float64)).reshape(16, 16) / 4.0


class _RefNode:
    """Stands in for the program's small graph objects."""
    __slots__ = ("data", "parents", "fn")

    def __init__(self, data, parents, fn):
        self.data = data
        self.parents = parents
        self.fn = fn


def reference_work(rounds: int = 80, closures: int = 1500) -> float:
    """Fixed mix of small numpy calls and interpreter work.

    The first loop is shaped like one autodiff op of the program: a small
    matmul, a row softmax and an object holding a closure.  The second is
    pure interpreter work (closures, dict and list traffic), which tracks
    the host's swings in the program's Python overhead more closely than
    numpy calls alone.  Returns a value derived from the work so that
    none of it is skipped.
    """
    x = _REF_X
    nodes = []
    for i in range(rounds):
        y = x @ _REF_W
        e = np.exp(y - y.max(axis=1, keepdims=True))
        x = e / e.sum(axis=1, keepdims=True)
        nodes.append(_RefNode(x, tuple(nodes[-2:]), lambda i=i: i))
    table, out = {}, []
    for j in range(closures):
        table[j] = (lambda k: lambda: k)(j)
        out.append(table[j]())
    return float(x[0, 0]) + nodes[-1].fn() + sum(out)


def serial_reference_work() -> float:
    """Fixed round trip of a float array through JSON text, as a
    checkpoint save and load do."""
    text = json.dumps({"values": _SERIAL_VALUES.tolist()})
    back = np.asarray(json.loads(text)["values"], dtype=np.float64)
    return float(back[-1]) + len(text)


def normalise(raw: float, ref_ms: float, nominal_ms: float = NOMINAL_REF_MS) -> float:
    """A raw time scaled to the nominal host: raw * nominal / measured."""
    if ref_ms <= 0.0:
        raise ValueError("reference time must be positive")
    return raw * nominal_ms / ref_ms


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1].

    A tail percentile needs at least ten samples beyond it, so p90 needs
    100 samples; below that the function refuses rather than report a
    tail that is one or two samples wide.  The median (q = 0.5) is always
    allowed.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if q > 0.5 and n * (1.0 - q) < 10.0 - 1e-9:
        raise ValueError(f"p{round(100 * q)} needs at least "
                         f"{math.ceil(10.0 / (1.0 - q) - 1e-9)} samples, got {n}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n - 1e-9) - 1)]


@dataclass
class Sample:
    """One timed unit of work: when it ran, its raw time, its size and
    the kind of reference it is normalised against."""
    t: float
    raw_s: float
    size: float = 1.0
    ref: str = "mixed"
    norm_s: float = float("nan")


@dataclass
class Reference:
    """A fixed reference loop, its nominal time, and its samples."""
    work: Callable[[], float]
    nominal_ms: float
    t: list[float] = field(default_factory=list)
    ms: list[float] = field(default_factory=list)


def references() -> dict[str, Reference]:
    """``mixed`` for interpreter and small-array work (set-up, training,
    decoding), ``serial`` for the JSON text round trips of checkpoints,
    which ``mixed`` tracks less closely."""
    return {"mixed": Reference(reference_work, NOMINAL_REF_MS),
            "serial": Reference(serial_reference_work, NOMINAL_SERIAL_MS)}


@dataclass
class HostClock:
    """Times units of work, each paired with reference-loop samples."""
    refs: dict[str, Reference] = field(default_factory=references)
    samples: dict[str, list[Sample]] = field(default_factory=dict)

    def reference(self, kind: str = "mixed") -> float:
        """One sample of reference ``kind``, taken with the cyclic collector
        off.  The loop frees everything it allocates by reference count, so
        once the allocator's free lists are warm the collector's allocation
        count is back where it was when the loop ends: it neither triggers
        collections of its own nor takes in one of the program's, which
        then falls in the program's next sample."""
        ref = self.refs[kind]
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        ref.work()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        ms = 1000.0 * (end - start)
        ref.t.append(0.5 * (start + end))
        ref.ms.append(ms)
        return ms

    def timed(self, series: str, fn, *args, size: float = 1.0, refs: int = 1,
              ref: str = "mixed", **kwargs):
        """Run ``fn`` once as a sample of ``series``; return its result.

        ``refs`` samples of reference ``ref`` are taken just before it:
        more for series whose samples are long and sparse, so that their
        window still holds enough references.
        """
        for _ in range(refs):
            self.reference(ref)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.samples.setdefault(series, []).append(
            Sample(t=0.5 * (start + end), raw_s=end - start, size=size, ref=ref))
        return result

    def ref_near(self, t: float, kind: str = "mixed") -> float:
        """Median reference time within WINDOW_S of ``t`` (nearest if none)."""
        ref = self.refs[kind]
        lo = bisect.bisect_left(ref.t, t - WINDOW_S)
        hi = bisect.bisect_right(ref.t, t + WINDOW_S)
        if lo == hi:
            near = min(range(len(ref.t)), key=lambda i: abs(ref.t[i] - t))
            return ref.ms[near]
        return statistics.median(ref.ms[lo:hi])

    def finish(self) -> None:
        """Fill in every sample's normalised time."""
        for series in self.samples.values():
            for s in series:
                s.norm_s = normalise(s.raw_s, self.ref_near(s.t, s.ref),
                                     self.refs[s.ref].nominal_ms)

    def series(self, name: str) -> list[Sample]:
        return self.samples.get(name, [])

    def ref_median_ms(self, kind: str = "mixed") -> float:
        return statistics.median(self.refs[kind].ms)

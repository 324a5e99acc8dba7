"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the public functions of the erasurelab
modules. The wrappers are installed by replacing module (and class)
attributes for the duration of a ``with instrument(tracer):`` block, so the
package itself carries no tracing code and an untraced run pays nothing.

A span holds its name, start, end, the index of its parent span and the id
of the decode trial it belongs to. Spans stay in memory; ``summarize`` turns
them into per-name call counts, total time and self time (duration minus the
part of it covered by child spans).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

# trial-level span name -> decoder label used in the per-point metrics
TRIAL_DECODERS = {
    "decode.peel_decode": "it",
    "decode.ml_decode": "ml",
    "decode.hybrid_decode": "hybrid",
    "raptor.decode_structured": "ml",
}


def is_trial(spans, span) -> bool:
    """Whether ``span`` is the decoder call of one trial."""
    return (span.name in TRIAL_DECODERS and span.parent >= 0
            and spans[span.parent].name == "sim.run_point")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    trial: int  # decode trial id, -1 outside sim.run_point


class Tracer:
    """Collects spans and counters. One tracer per traced phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.trials = []  # trial id -> (decoder label, sweep point index)
        self._stack = []
        self._point = None

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        trial = len(self.trials) if self._point is not None else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, trial))
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        span = self.spans[i]
        span.end = self.clock()
        self._stack.pop()
        if is_trial(self.spans, span):
            self.trials.append((TRIAL_DECODERS[span.name], self._point))

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)

        return traced

    def wrap_run_point(self, fn):
        def traced(plan, point_idx, value, executor=None):
            self._point = point_idx
            i = self.begin("sim.run_point")
            try:
                return fn(plan, point_idx, value, executor)
            finally:
                self.end(i)
                self._point = None

        return traced


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans) -> list:
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans, kids=None) -> list:
    """Per span: its duration minus the time its children cover."""
    kids = children_of(spans) if kids is None else kids
    out = []
    for s, ks in zip(spans, kids):
        covered = _covered(s.start, s.end, [(spans[k].start, spans[k].end) for k in ks])
        out.append(s.end - s.start - covered)
    return out


@dataclass
class NameStats:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0


def summarize(spans, selfs=None) -> dict:
    """name -> NameStats over every span of that name."""
    selfs = self_times(spans) if selfs is None else selfs
    out = {}
    for s, st in zip(spans, selfs):
        agg = out.setdefault(s.name, NameStats())
        agg.calls += 1
        agg.total += s.end - s.start
        agg.self_total += st
    return out


@contextmanager
def patched(patches):
    """Set (owner, attribute, value) triples; restore the old values on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def instrument(tracer: Tracer):
    """Context manager that routes the package's public calls through
    ``tracer``. Pivot choice is timed through the public ``pivot_strategy``
    argument of ``decode.triangularize``."""
    from erasurelab import analysis, decode, raptor, sim

    orig_tri = decode.triangularize
    orig_solve = decode.solve_pivots

    def triangularize(hkbar, syndrome, pivot_strategy=decode.max_degree_pivot):
        strategy = tracer.wrap("decode.pivot_choice", pivot_strategy)
        return orig_tri(hkbar, syndrome, strategy)

    def solve_pivots(aprime, rhs_prime):
        tracer.count("binmat.ge_cells", aprime.rows * aprime.cols)
        return orig_solve(aprime, rhs_prime)

    w = tracer.wrap
    patches = [
        (sim, "run_point", tracer.wrap_run_point(sim.run_point)),
        (sim, "encode", w("ldpc.encode", sim.encode)),
        (sim, "peel_decode", w("decode.peel_decode", sim.peel_decode)),
        (sim, "ml_decode", w("decode.ml_decode", sim.ml_decode)),
        (sim, "hybrid_decode", w("decode.hybrid_decode", sim.hybrid_decode)),
        (decode.ReceivedWord, "from_full", classmethod(
            w("decode.received_word", decode.ReceivedWord.from_full.__func__))),
        (decode, "peel_decode", w("decode.peel_decode", decode.peel_decode)),
        (decode, "ml_decode", w("decode.ml_decode", decode.ml_decode)),
        (decode, "split_by_erasure", w("decode.split_by_erasure", decode.split_by_erasure)),
        (decode, "triangularize", w("decode.triangularize", triangularize)),
        (decode, "reduce_to_aprime", w("decode.reduce_to_aprime", decode.reduce_to_aprime)),
        (decode, "solve_pivots", w("decode.solve_pivots", solve_pivots)),
        (decode, "dense_gauss_solve", w("binmat.dense_gauss_solve", decode.dense_gauss_solve)),
        (decode, "back_substitute", w("decode.back_substitute", decode.back_substitute)),
        (raptor.RaptorCode, "encode", w("raptor.encode", raptor.RaptorCode.encode)),
        (raptor.RaptorCode, "decode_structured",
         w("raptor.decode_structured", raptor.RaptorCode.decode_structured)),
        (raptor, "rank", w("binmat.rank", raptor.rank)),
    ]
    for fn in ("it_threshold", "ml_threshold_bound", "protograph_it_threshold",
               "protograph_ml_bound", "protograph_de", "singleton_bound",
               "berlekamp_bound"):
        patches.append((analysis, fn, w(f"analysis.{fn}", getattr(analysis, fn))))
    return patched(patches)

"""Benchmark workloads, their timed passes and the correctness gate.

Every workload is a closed loop in one process: one pass after another, each
pass doing a fixed amount of work (``target_errors`` is out of reach, so every
sweep point runs its full trial count). The workload seed becomes
``SimPlan.seed``; the codes themselves are fixed. See README.md in this
directory for why each workload exists.
"""

from __future__ import annotations

import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from erasurelab import analysis, decode, ldpc, raptor, sim
from erasurelab.binmat import BinVector

import layers
import tracing

# Acceptance criteria 1-2 of the package: (dv, dc) -> (eps_it, eps_ml_bound)
TABLE_REGULAR = {
    (3, 6): (0.4294, 0.4881),
    (4, 8): (0.3834, 0.4977),
    (5, 10): (0.3416, 0.4994),
    (6, 12): (0.3075, 0.4999),
    (3, 9): (0.2828, 0.3196),
    (4, 12): (0.2571, 0.3302),
    (5, 15): (0.2303, 0.3324),
}
TABLE_TOL = 5e-4
ARA = ldpc.Protograph(base=((2, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 0, 0, 0, 1)),
                      punctured_cols=frozenset({0}), lift=256)
ARA_VALUES = (0.477, 0.496)  # eps_it, eps_ml_bound
ARA_TOL = 2e-3
BOUNDS_N, BOUNDS_K = 2048, 1024
BOUNDS_EPS = tuple(round(0.40 + 0.005 * i, 3) for i in range(21))  # 0.40:0.50:0.005
CONSTRUCT_REPEATS = 3


# --- timing -------------------------------------------------------------------

def reference_kernel() -> int:
    """A fixed pure-Python loop that shares no code with erasurelab: integer
    arithmetic, dict updates and big-int shifts and XORs, the operations the
    decoders and the trial loop spend their time on. About 30 ms."""
    acc = 0
    for i in range(130_000):
        acc += i * i
    counts = {}
    for i in range(65_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    word, mix = (1 << 1000) - 1, 0
    for i in range(32_000):
        mix ^= word >> (i & 511)
    return acc + len(counts) + mix.bit_length()


class RefClock:
    """Times the reference kernel; a pass calls it before each of its units,
    outside the units' own timing."""

    def __init__(self):
        self.samples = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)


def unit_refs(passes) -> list:
    """Per unit of a pass: the median over passes of its time divided by the
    reference-kernel time measured just before it. The machine's speed drifts
    by tens of percent over tens of seconds and slows the kernel and the unit
    alike, so the ratio is far steadier than the raw time."""
    return [statistics.median(p.units[i] / p.ref[i] for p in passes)
            for i in range(len(passes[0].units))]


def pass_ref(passes) -> float:
    """One pass's time in reference-kernel units: the sum of its unit refs."""
    return sum(unit_refs(passes))


@dataclass
class Outcome:
    """What one invocation measured and checked."""

    metrics: dict = field(default_factory=dict)  # name -> value
    info: dict = field(default_factory=dict)  # printed only: name -> (value, unit)
    checks: list = field(default_factory=list)  # (label, ok)
    timed_ops: int = 0
    raised_ops: int = 0

    def check(self, label: str, ok) -> None:
        self.checks.append((label, bool(ok)))

    @property
    def attempted(self) -> int:
        return self.timed_ops + len(self.checks)

    @property
    def failed(self) -> int:
        return self.raised_ops + sum(1 for _, ok in self.checks if not ok)


def _timed(wl, seconds: float, out: Outcome, kinds) -> list:
    """Run one pass of each kind in turn until ``seconds`` have elapsed (at
    least one round). Returns the passes of each kind, or None if one raised."""
    runs = [[] for _ in kinds]
    t_end = time.perf_counter() + seconds
    try:
        while True:
            for run, one_pass in zip(runs, kinds):
                clock = RefClock()
                p = one_pass(clock)
                p.ref = clock.samples
                run.append(p)
                out.timed_ops += wl.ops
            if time.perf_counter() >= t_end:
                return runs
    except Exception as exc:  # a pass that raises is a failed operation, not a crash
        traceback.print_exc()
        out.raised_ops += wl.ops
        out.check(f"pass raised {type(exc).__name__}: {exc}", False)
        return None


# --- Monte Carlo workloads ----------------------------------------------------

@dataclass
class SimPass:
    seconds: dict  # decoder -> wall seconds of its sweep
    csv: dict  # decoder -> CSV text from sim.records_to_csv
    records: dict  # decoder -> list of SimRecord
    ref: list = field(default_factory=list)  # kernel seconds before each sweep

    @property
    def units(self) -> list:
        return list(self.seconds.values())

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


@dataclass
class Captured:
    """One gate-sample trial: what went into the decoder and what came out."""

    word: object  # ReceivedWord, or the received (esi, symbol) list for Raptor
    result: object
    transmitted: BinVector


@dataclass(frozen=True)
class SimWorkload:
    build: object  # () -> code
    decoders: tuple
    channel_kind: str
    points: tuple
    trials: int  # per point and sweep
    zero_codeword: bool
    pool_workers: int  # traced run only: sim.parallel_eff compares this with one
    sample: int  # leading trials per point captured for the gate
    oracle_sample: int  # of those, re-decoded by the reference decoder
    construct_span: str = "ldpc.construct"

    @property
    def is_raptor(self) -> bool:
        return self.construct_span == "raptor.build"

    @property
    def ops(self) -> int:
        """Decode trials per pass."""
        return self.trials * len(self.points) * len(self.decoders)

    def plan(self, code, decoder, seed, trials=None, workers=1) -> sim.SimPlan:
        trials = self.trials if trials is None else trials
        return sim.SimPlan(code=code, decoder=decoder, channel_kind=self.channel_kind,
                           sweep=list(self.points), target_errors=trials + 1,
                           max_trials=trials, seed=seed,
                           zero_codeword=self.zero_codeword, workers=workers)

    def run_pass(self, code, seed, ref=None, workers=1) -> SimPass:
        p = SimPass({}, {}, {})
        for dec in self.decoders:
            if ref:
                ref()
            t0 = time.perf_counter()
            records = sim.run_sweep(self.plan(code, dec, seed, workers=workers))
            p.csv[dec] = sim.records_to_csv(records, {"decoder": dec, "seed": seed})
            p.seconds[dec] = time.perf_counter() - t0
            p.records[dec] = records
        return p

    def prepare(self, code, seed) -> dict:
        """Untimed pass over the first ``sample`` trials of every point, with
        each decode captured for the gate. It also warms caches before timing."""
        out = {}
        for dec in self.decoders:
            sink = out[dec] = []
            with _capturing(sink):
                sim.run_sweep(self.plan(code, dec, seed, trials=self.sample))
        return out

    def trials_per_s(self, passes) -> dict:
        """Decoder -> trials per second over its median sweep time."""
        return {dec: self.trials * len(self.points) / statistics.median(p.seconds[dec] for p in passes)
                for dec in self.decoders}

    def info(self, passes) -> dict:
        out = {"pass_s": (statistics.median(p.total for p in passes), "s")}
        for (dec, rate), ref in zip(self.trials_per_s(passes).items(), unit_refs(passes)):
            out[f"{dec}_trials_per_s"] = (rate, "1/s")
            out[f"{dec}_sweep_ref"] = (ref, "ref")
        return out

    def check(self, code, captured: dict, passes: list, out: Outcome) -> None:
        """The correctness gate. Nothing here compares against stored output,
        so it holds across changes of the trial RNG."""
        first = passes[0]
        for dec in self.decoders:
            out.check(f"{dec}: every pass gives the same CSV",
                      all(p.csv[dec] == first.csv[dec] for p in passes))
            for rec in first.records[dec]:
                out.check(f"{dec} @ {rec.sweep_value:g}: ran all {self.trials} trials",
                          rec.trials == self.trials)
            for c in captured[dec]:
                if c.result.ok:
                    got = c.result.c if self.is_raptor else c.result.recovered
                    out.check(f"{dec}: recovered word equals the transmitted one",
                              got == c.transmitted)
        for i, c in enumerate(captured["ml"]):
            if i % self.sample >= self.oracle_sample:
                continue
            if self.is_raptor:
                ref = code.decode(c.word)
                same = ref.status == c.result.status and (not ref.ok or ref.c == c.result.c)
            else:
                ref = decode.oracle_decode(code, c.word)
                same = (ref.status == c.result.status
                        and (not ref.ok or ref.recovered == c.result.recovered))
            out.check("ml status agrees with the dense-GE reference", same)
        if self.is_raptor:
            return
        for it, ml, hy in zip(first.records["it"], first.records["ml"], first.records["hybrid"]):
            out.check(f"@ {ml.sweep_value:g}: ml errors == hybrid errors", ml.errors == hy.errors)
            out.check(f"@ {ml.sweep_value:g}: it errors >= ml errors", it.errors >= ml.errors)
        for m, h, i in zip(captured["ml"], captured["hybrid"], captured["it"]):
            out.check("hybrid status equals ml status", m.result.ok == h.result.ok)
            out.check("it success implies ml success", m.result.ok or not i.result.ok)


@contextmanager
def _capturing(sink):
    """Record each trial's decoder input, result and transmitted word."""
    pending = []

    def ldpc_encode(code, u):
        cw = orig_encode(code, u)
        pending.append(cw)
        return cw

    def ldpc_decoder(fn):
        def captured(code, word, *args):
            res = fn(code, word, *args)
            cw = pending.pop() if pending else BinVector(code.n)  # zero codeword
            sink.append(Captured(word, res, cw))
            return res
        return captured

    def raptor_encode(self, c):
        pending.append(c)
        return orig_renc(self, c)

    def raptor_decode(self, received):
        res = orig_rdec(self, received)
        sink.append(Captured(received, res, pending.pop()))
        return res

    orig_encode = sim.encode
    orig_renc = raptor.RaptorCode.encode
    orig_rdec = raptor.RaptorCode.decode_structured
    patches = [(sim, "encode", ldpc_encode),
               (raptor.RaptorCode, "encode", raptor_encode),
               (raptor.RaptorCode, "decode_structured", raptor_decode)]
    for fn in ("peel_decode", "ml_decode", "hybrid_decode"):
        patches.append((sim, fn, ldpc_decoder(getattr(sim, fn))))
    with tracing.patched(patches):
        yield


# --- ensemble analysis --------------------------------------------------------

@dataclass
class EnsemblePass:
    values: tuple  # (threshold reports, ARA values, bound grid)
    units: list  # wall seconds of each analysis call (the bound grid is one)
    ref: list = field(default_factory=list)  # kernel seconds before each unit

    @property
    def total(self) -> float:
        return sum(self.units)


@dataclass(frozen=True)
class EnsembleWorkload:
    construct_span: str = None  # nothing worth timing is built
    pool_workers: int = 1
    ops: int = len(TABLE_REGULAR) + 2 + len(BOUNDS_EPS)  # analysis results per pass

    @staticmethod
    def build():
        dists = {dvdc: analysis.DegreeDistribution.regular(*dvdc) for dvdc in TABLE_REGULAR}
        return dists, ARA

    @staticmethod
    def prepare(setup, seed):
        return None

    @staticmethod
    def run_pass(setup, seed, ref=None) -> EnsemblePass:
        """The calls behind `thresholds`, the ARA values and `bounds`. The
        analysis is deterministic, so the seed is unused."""
        dists, proto = setup
        units = [lambda d=d: analysis.threshold_report(d) for d in dists.values()]
        units += [
            lambda: analysis.protograph_it_threshold(proto),
            lambda: analysis.protograph_ml_bound(proto),
            lambda: [(analysis.singleton_bound(BOUNDS_N, BOUNDS_K, e),
                      analysis.berlekamp_bound(BOUNDS_N, BOUNDS_K, e)) for e in BOUNDS_EPS],
        ]
        results, secs = [], []
        for unit in units:
            if ref:
                ref()
            t0 = time.perf_counter()
            results.append(unit())
            secs.append(time.perf_counter() - t0)
        reports = {dvdc: (r.eps_it, r.eps_ml_bound, r.degenerate)
                   for dvdc, r in zip(dists, results)}
        ara_it, ara_ml, bounds = results[len(dists):]
        return EnsemblePass((reports, (ara_it, ara_ml), bounds), secs)

    @staticmethod
    def info(passes) -> dict:
        return {"analysis_s": (statistics.median(p.total for p in passes), "s")}

    @staticmethod
    def trials_per_s(passes) -> dict:
        return {}

    @staticmethod
    def check(setup, prepared, passes: list, out: Outcome) -> None:
        first = passes[0].values
        out.check("every pass gives the same values", all(p.values == first for p in passes))
        reports, (ara_it, (ara_ml, ara_deg)), bounds = first
        for dvdc, (t_it, t_ml) in TABLE_REGULAR.items():
            e_it, e_ml, degenerate = reports[dvdc]
            out.check(f"{dvdc} eps_it within {TABLE_TOL}", abs(e_it - t_it) < TABLE_TOL)
            out.check(f"{dvdc} eps_ml_bound within {TABLE_TOL}",
                      not degenerate and abs(e_ml - t_ml) < TABLE_TOL)
        out.check(f"ARA eps_it within {ARA_TOL}", abs(ara_it - ARA_VALUES[0]) < ARA_TOL)
        out.check(f"ARA eps_ml_bound within {ARA_TOL}",
                  not ara_deg and abs(ara_ml - ARA_VALUES[1]) < ARA_TOL)
        for s, b in bounds:
            out.check("0 <= singleton <= berlekamp <= 1", 0.0 <= s <= b <= 1.0)
        for (s0, b0), (s1, b1) in zip(bounds, bounds[1:]):
            out.check("bounds non-decreasing in eps", s0 <= s1 and b0 <= b1)


# --- the workloads and the two kinds of run ------------------------------------

WORKLOADS = {
    "geira-waterfall": SimWorkload(
        lambda: ldpc.build_geira(ldpc.GeiraSpec(k=512, n=1024, taps=frozenset({0, 1, 4, 10, 20}),
                                                wc=5, seed=7)),
        ("it", "ml", "hybrid"), "bec", (0.40, 0.46), trials=32, zero_codeword=True,
        pool_workers=1, sample=8, oracle_sample=3),
    "regular-peel": SimWorkload(
        lambda: ldpc.sample_regular(3, 6, 1024, seed=3),
        ("it", "ml", "hybrid"), "bec", (0.38,), trials=128, zero_codeword=False,
        pool_workers=2, sample=32, oracle_sample=4),
    "raptor-overhead": SimWorkload(
        lambda: raptor.RaptorCode.build(256, 512, seed=0),
        ("ml",), "overhead", (0, 5), trials=48, zero_codeword=True,
        pool_workers=1, sample=8, oracle_sample=8, construct_span="raptor.build"),
    "ensemble-analysis": EnsembleWorkload(),
}


def measure(wl, seed: int, seconds: float) -> Outcome:
    """End-to-end run, tracing off."""
    out = Outcome()
    state = wl.build()
    prepared = wl.prepare(state, seed)
    runs = _timed(wl, seconds, out, [lambda ref: wl.run_pass(state, seed, ref)])
    if runs:
        (passes,) = runs
        wl.check(state, prepared, passes, out)
        out.metrics["pass_ref"] = pass_ref(passes)
        out.info = wl.info(passes)
        out.info["ref_kernel_s"] = (statistics.median(r for p in passes for r in p.ref), "s")
    return out


def measure_traced(wl, seed: int, seconds: float) -> Outcome:
    """Traced run. Untraced and traced passes alternate, so both see the same
    machine; their ratio is the tracing overhead. regular-peel adds passes at
    its pool worker count for sim.parallel_eff."""
    out = Outcome()
    m = dict.fromkeys(layers.LAYER_METRICS, 0)
    if wl.construct_span:
        setup = tracing.Tracer()
        with tracing.instrument(setup):
            for _ in range(CONSTRUCT_REPEATS):
                i = setup.begin(wl.construct_span)
                state = wl.build()
                setup.end(i)
        m.update(layers.construct_metrics(setup, wl.construct_span))
    else:
        state = wl.build()
    prepared = wl.prepare(state, seed)

    tracer = tracing.Tracer()

    def traced(ref):
        with tracing.instrument(tracer):
            return wl.run_pass(state, seed, ref)

    kinds = [lambda ref: wl.run_pass(state, seed, ref), traced]
    if wl.pool_workers > 1:
        kinds.append(lambda ref: wl.run_pass(state, seed, ref, workers=wl.pool_workers))
    runs = _timed(wl, seconds, out, kinds)
    if not runs:
        return out
    plain, traced_passes = runs[0], runs[1]
    wl.check(state, prepared, [p for run in runs for p in run], out)
    out.check("traced stage self times add up to the traced decode time",
              abs(layers.stage_sum_share(tracer) - 1.0) < 1e-6)
    m.update(layers.layer_metrics(tracer, len(traced_passes)))
    m.update({f"sim.{dec}_trials_per_s": rate for dec, rate in wl.trials_per_s(plain).items()})
    m["trace.overhead_ratio"] = pass_ref(traced_passes) / pass_ref(plain)
    if wl.pool_workers > 1:
        m["sim.parallel_eff"] = pass_ref(plain) / (wl.pool_workers * pass_ref(runs[2]))
    out.metrics = m
    return out

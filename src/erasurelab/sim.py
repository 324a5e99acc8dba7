"""Monte Carlo harness: BEC and fixed-overhead channel models, trial
scheduling with a stop rule, Wilson confidence intervals, and CSV emission.

Trials are seeded counter-style from (seed, point index, trial index), so a
sweep is reproducible regardless of how trials are distributed over workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .binmat import BinVector
from .decode import ReceivedWord, hybrid_decode, ml_decode, peel_decode
from .ldpc import LdpcCode, encode
from .raptor import RaptorCode

CSV_COLUMNS = "sweep_value,trials,errors,cer,ci95,mean_pivots,mean_ge_dim"


@dataclass(frozen=True)
class ChannelModel:
    kind: str  # 'bec' | 'overhead'
    epsilon: float = 0.0
    delta: int = 0

    def __post_init__(self):
        if self.kind not in ("bec", "overhead"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == "bec" and not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")


@dataclass
class SimPlan:
    code: object  # LdpcCode or RaptorCode
    decoder: str  # 'it' | 'ml' | 'hybrid'
    channel_kind: str
    sweep: list  # epsilons (bec) or deltas (overhead), sorted
    target_errors: int = 100
    max_trials: int = 100000
    seed: int = 0
    zero_codeword: bool = True  # LDPC only; Raptor always draws random input
    workers: int = 1

    def __post_init__(self):
        if self.target_errors < 1:
            raise ValueError("target_errors must be >= 1")
        self.sweep = sorted(self.sweep)


@dataclass
class SimRecord:
    sweep_value: float
    trials: int
    errors: int
    cer: float
    ci95: float
    mean_pivots: float  # the CSV writes it to both pivot columns


def wilson_halfwidth(errors: int, trials: int, z: float = 1.959964) -> float:
    if trials == 0:
        return 0.0
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    return z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom


def run_trial(code, decoder: str, channel: ChannelModel, rng, zero_codeword=True) -> tuple:
    """One channel realization + decode. Returns (success, pivots).
    ``zero_codeword`` applies to LDPC codes; Raptor always draws random input."""
    if isinstance(code, RaptorCode):
        return _raptor_trial(code, decoder, channel, rng)
    return _ldpc_trial(code, decoder, channel, rng, zero_codeword)


def _ldpc_trial(code: LdpcCode, decoder, channel, rng, zero_codeword=True):
    if zero_codeword:
        cw = BinVector(code.n)
    else:
        u = BinVector(code.k, int.from_bytes(rng.bytes((code.k + 7) // 8), "little"))
        cw = encode(code, u)
    transmitted = code.transmitted
    if channel.kind == "bec":
        u01 = rng.random(len(transmitted))
        erased = [transmitted[i] for i in np.flatnonzero(u01 < channel.epsilon).tolist()]
    else:
        keep = channel.delta + code.k
        if keep > len(transmitted):
            keep = len(transmitted)
        kept = set(rng.choice(len(transmitted), size=max(keep, 0), replace=False).tolist())
        erased = [p for i, p in enumerate(transmitted) if i not in kept]
    word = ReceivedWord.from_full(cw, erased)
    fn = {"it": peel_decode, "ml": ml_decode, "hybrid": hybrid_decode}[decoder]
    res = fn(code, word)
    return res.ok and res.recovered == cw, res.stats.pivots


def _raptor_trial(code: RaptorCode, decoder, channel, rng):
    p = code.params
    c = BinVector(p.k, int.from_bytes(rng.bytes((p.k + 7) // 8), "little"))
    e = code.encode(c)
    if channel.kind == "bec":
        u01 = rng.random(p.n)
        esis = (np.flatnonzero(u01 >= channel.epsilon) + 1).tolist()
    else:
        keep = min(max(p.k + channel.delta, 0), p.n)
        esis = sorted((rng.choice(p.n, size=keep, replace=False) + 1).tolist())
    received = [(esi, e[esi - 1]) for esi in esis]
    if decoder in ("ml", "hybrid"):
        res = code.decode_structured(received)
    else:
        raise ValueError("Raptor simulation supports ML decoding only")
    ok = res.ok and res.c == c
    return ok, res.stats.pivots


def _trial_block(code, decoder, channel, seed, point_idx, t0, t1, zero_codeword):
    return [run_trial(code, decoder, channel, np.random.default_rng((seed, point_idx, t)),
                      zero_codeword) for t in range(t0, t1)]


def run_point(plan: SimPlan, point_idx: int, value, executor=None) -> SimRecord:
    channel = (
        ChannelModel("bec", epsilon=float(value))
        if plan.channel_kind == "bec"
        else ChannelModel("overhead", delta=int(value))
    )
    block = 256
    trials = errors = 0
    piv_sum = 0.0
    t = 0
    stop = False
    while not stop and t < plan.max_trials:
        t1 = min(t + block * max(plan.workers, 1), plan.max_trials)
        if executor is None:
            results = _trial_block(plan.code, plan.decoder, channel, plan.seed,
                                   point_idx, t, t1, plan.zero_codeword)
        else:
            spans = _split_span(t, t1, plan.workers)
            futures = [
                executor.submit(_trial_block, plan.code, plan.decoder, channel,
                                plan.seed, point_idx, a, b, plan.zero_codeword)
                for a, b in spans
            ]
            results = [r for f in futures for r in f.result()]
        # scan in trial-index order so the stop point is worker-independent
        for ok, piv in results:
            trials += 1
            piv_sum += piv
            if not ok:
                errors += 1
                if errors >= plan.target_errors:
                    stop = True
                    break
        t = t1
    cer = errors / trials if trials else 0.0
    return SimRecord(value, trials, errors, cer, wilson_halfwidth(errors, trials),
                     piv_sum / trials if trials else 0.0)


def _split_span(t0, t1, workers):
    step = max(1, (t1 - t0 + workers - 1) // workers)
    return [(a, min(a + step, t1)) for a in range(t0, t1, step)]


def run_sweep(plan: SimPlan) -> list:
    """Run every sweep point until target_errors error events or max_trials."""
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as ex:
            return [run_point(plan, i, v, ex) for i, v in enumerate(plan.sweep)]
    return [run_point(plan, i, v) for i, v in enumerate(plan.sweep)]


def records_to_csv(records, header: dict = None) -> str:
    lines = []
    for key, val in (header or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(CSV_COLUMNS)
    for r in records:
        lines.append(
            f"{r.sweep_value:g},{r.trials},{r.errors},{r.cer:.8g},"
            f"{r.ci95:.8g},{r.mean_pivots:.8g},{r.mean_pivots:.8g}"
        )
    return "\n".join(lines) + "\n"

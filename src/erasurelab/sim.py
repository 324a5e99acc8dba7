"""Monte Carlo harness: BEC and fixed-overhead channel models, trial
scheduling with a stop rule, Wilson confidence intervals, and CSV emission.

Trials are seeded counter-style from (seed, point index, trial index), so a
sweep is reproducible regardless of how trials are distributed over workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .binmat import BinVector
from .decode import ReceivedWord, hybrid_decode, ml_decode, peel_decode
from .ldpc import encode
from .raptor import RaptorCode

CSV_COLUMNS = "sweep_value,trials,errors,cer,ci95,mean_pivots,mean_ge_dim"
_Z95 = 1.959964  # the normal quantile of a two-sided 95% interval
_BLOCK = 256  # trials per worker in each round of a sweep point


@dataclass(frozen=True)
class ChannelModel:
    kind: str  # 'bec' | 'overhead'
    value: float  # a bec's erasure probability in [0, 1], or an integer overhead

    def __post_init__(self):
        if self.kind == "bec":
            value = float(self.value)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"epsilon must lie in [0, 1], got {value!r}")
        elif self.kind == "overhead":
            if self.value % 1 != 0:  # true for nan and inf too
                raise ValueError(f"overhead must be an integer, got {self.value!r}")
            value = int(self.value)  # an overhead of 2.0 draws as 2
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        object.__setattr__(self, "value", value)


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
        if self.channel_kind not in ("bec", "overhead"):
            raise ValueError(f"unknown channel kind {self.channel_kind!r}")
        if self.decoder not in ("it", "ml", "hybrid"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.decoder == "it" and isinstance(self.code, RaptorCode):
            raise ValueError("Raptor simulation supports ML decoding only")
        for name in ("target_errors", "max_trials", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        self.sweep = sorted(self.sweep)
        for value in self.sweep:  # a bad value fails here, before any trial
            ChannelModel(self.channel_kind, value)
        if self.channel_kind == "overhead":
            # the draw clamps k + delta to 0..n_transmitted, so a delta past
            # either end would silently run that end's channel
            k, ntx = self.code.k, self.code.n_transmitted
            bad = [d for d in self.sweep if not -k <= d <= ntx - k]
            if bad:
                raise ValueError(f"overhead {bad[0]} outside -{k}..{ntx - k}: a trial "
                                 f"receives k + delta of the {ntx} transmitted symbols")


@dataclass
class SimRecord:
    sweep_value: float
    trials: int
    errors: int
    cer: float
    ci95: float
    mean_pivots: float  # the CSV writes it to both pivot columns


def wilson_halfwidth(errors: int, trials: int) -> float:
    if trials == 0:
        return 0.0
    p = errors / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    return _Z95 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom


def run_trial(code, decoder: str, channel: ChannelModel, rng, zero_codeword=True) -> tuple:
    """One channel realization + decode, the same steps for LDPC and Raptor
    codes. Returns (success, pivots). ``zero_codeword`` applies to LDPC
    codes; Raptor always draws random input and decodes by structured ML."""
    raptor = isinstance(code, RaptorCode)
    # looked up per call, so a decoder patched on this module or on the
    # class is the one that runs
    if raptor:  # no peeling decoder
        decoders = {"ml": RaptorCode.decode_structured, "hybrid": RaptorCode.decode_structured}
    else:
        decoders = {"it": peel_decode, "ml": ml_decode, "hybrid": hybrid_decode}
    try:
        dec = decoders[decoder]
    except KeyError:
        family = "Raptor" if raptor else "LDPC"
        raise ValueError(f"no decoder {decoder!r} for {family} codes") from None
    msg = cw = BinVector(code.n)  # the all-zero codeword
    if raptor or not zero_codeword:
        msg = BinVector(code.k, int.from_bytes(rng.bytes((code.k + 7) // 8), "little"))
        cw = code.encode(msg) if raptor else encode(code, msg)
    res = dec(code, ReceivedWord.from_full(cw, _erasure_mask(code, channel, rng)))
    if raptor:
        return res.ok and res.c == msg, res.stats.pivots
    return res.ok and res.recovered == cw, res.stats.pivots


def _erasure_mask(code, channel, rng) -> np.ndarray:
    """What one channel use erases, as a boolean mask over the code's n
    positions, drawn over the transmitted positions (the punctured ones of
    an LDPC code are added later, by the decoder)."""
    ntx = code.n_transmitted
    if channel.kind == "bec":
        drawn = rng.random(ntx) < channel.value
    else:
        keep = min(channel.value + code.k, ntx)
        drawn = np.ones(ntx, np.bool_)
        drawn[rng.choice(ntx, size=max(keep, 0), replace=False)] = False
    if ntx == code.n:  # every position is sent
        return drawn
    mask = np.zeros(code.n, np.bool_)
    mask[~code.punctured_mask] = drawn
    return mask


_worker_code = None  # a pool worker's code, handed over once when it starts


def _set_worker_code(code) -> None:
    global _worker_code
    _worker_code = code


def _trial_block(code, decoder, channel, seed, point_idx, zero_codeword, t0, t1):
    code = _worker_code if code is None else code
    return [run_trial(code, decoder, channel, np.random.default_rng((seed, point_idx, t)),
                      zero_codeword) for t in range(t0, t1)]


def run_point(plan: SimPlan, point_idx: int, value, executor=None) -> SimRecord:
    """Run one sweep point until target_errors error events or max_trials,
    in rounds of one block of up to ``_BLOCK`` trials per worker, mapped
    through ``executor.map``, or through ``map`` here without an executor.
    An executor's workers decode the code that ``run_sweep`` hands each of
    them when it starts, so the blocks carry no code."""
    block = partial(_trial_block, plan.code if executor is None else None, plan.decoder,
                    ChannelModel(plan.channel_kind, value), plan.seed, point_idx,
                    plan.zero_codeword)
    run = map if executor is None else executor.map
    trials = errors = 0
    piv_sum = 0.0
    while errors < plan.target_errors and trials < plan.max_trials:
        t1 = min(trials + _BLOCK * plan.workers, plan.max_trials)
        step = -(-(t1 - trials) // plan.workers)
        starts = range(trials, t1, step)
        # the whole round is collected, then scanned in trial-index order: the
        # stop lands on the same trial at any worker count, with no block running
        results = [r for rs in run(block, starts, [min(a + step, t1) for a in starts]) for r in rs]
        for ok, piv in results:
            trials += 1
            piv_sum += piv
            if not ok:
                errors += 1
                if errors == plan.target_errors:
                    break
    # the plan holds max_trials >= 1, so every point ran a trial
    return SimRecord(value, trials, errors, errors / trials, wilson_halfwidth(errors, trials),
                     piv_sum / trials)


def run_sweep(plan: SimPlan) -> list:
    """Run every sweep point until target_errors error events or max_trials.
    The pool holds at most one process per CPU; the rounds still split into
    ``plan.workers`` blocks, so the rows are those of any other pool."""
    pool = nullcontext()
    if plan.workers > 1:
        pool = ProcessPoolExecutor(min(plan.workers, os.cpu_count() or 1),
                                   initializer=_set_worker_code, initargs=(plan.code,))
    with pool as executor:
        return [run_point(plan, i, v, executor) for i, v in enumerate(plan.sweep)]


def format_csv(header: dict, columns: str, rows) -> str:
    """A '# key=value' line per header entry, the column row, then the rows."""
    lines = [f"# {key}={val}" for key, val in header.items()]
    return "\n".join([*lines, columns, *rows]) + "\n"


def records_to_csv(records, header: dict = None) -> str:
    return format_csv(header or {}, CSV_COLUMNS, (
        f"{r.sweep_value:g},{r.trials},{r.errors},{r.cer:.8g},"
        f"{r.ci95:.8g},{r.mean_pivots:.8g},{r.mean_pivots:.8g}" for r in records))

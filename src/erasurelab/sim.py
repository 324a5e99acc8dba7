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
from .ldpc import encode
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


def wilson_halfwidth(errors: int, trials: int, z: float = 1.959964) -> float:
    if trials == 0:
        return 0.0
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    return z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom


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
        drawn = rng.random(ntx) < channel.epsilon
    else:
        keep = min(channel.delta + code.k, ntx)
        drawn = np.ones(ntx, np.bool_)
        drawn[rng.choice(ntx, size=max(keep, 0), replace=False)] = False
    if ntx == code.n:  # every position is sent
        return drawn
    mask = np.zeros(code.n, np.bool_)
    mask[code.transmitted_array] = drawn
    return mask


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
        t1 = min(t + block * plan.workers, plan.max_trials)
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
    # the plan holds max_trials >= 1, so every point ran a trial
    return SimRecord(value, trials, errors, errors / trials, wilson_halfwidth(errors, trials),
                     piv_sum / trials)


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

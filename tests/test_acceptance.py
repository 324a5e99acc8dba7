"""End-to-end acceptance checks.

Each test prints a single summary line so a -v run reads as a checklist.
These are slower than the unit tests (several minutes total).
"""

import math

import numpy as np
import pytest

from conftest import random_vector, raptor_word
from erasurelab.analysis import (
    DegreeDistribution,
    WeightSpectrumTail,
    berlekamp_bound,
    error_floor_estimate,
    exhaustive_min_distance,
    it_threshold,
    ml_threshold_bound,
    protograph_it_threshold,
    protograph_ml_bound,
    singleton_bound,
)
from erasurelab.binmat import BinVector, DenseBinMatrix, SparseBinMatrix
from erasurelab.decode import (
    ReceivedWord,
    hybrid_decode,
    is_stopping_set,
    ml_decode,
    oracle_decode,
    peel_decode,
)
from erasurelab.ldpc import (
    GeiraSpec,
    LdpcCode,
    Protograph,
    _generic_encoder_from_h,
    build_geira,
    encode,
    sample_regular,
)
from erasurelab.raptor import RaptorCode
from erasurelab.sim import wilson_halfwidth

TABLE_REGULAR = {
    # (dv, dc): (eps_it, eps_ml_bound)
    (3, 6): (0.4294, 0.4881),
    (4, 8): (0.3834, 0.4977),
    (5, 10): (0.3416, 0.4994),
    (6, 12): (0.3075, 0.4999),
    (3, 9): (0.2828, 0.3196),
    (4, 12): (0.2571, 0.3302),
    (5, 15): (0.2303, 0.3324),
}

ARA = Protograph(base=((2, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 0, 0, 0, 1)),
                 punctured_cols=frozenset({0}), lift=256)


def test_acceptance_1_regular_thresholds():
    worst = 0.0
    for (dv, dc), (t_it, t_ml) in TABLE_REGULAR.items():
        dist = DegreeDistribution.regular(dv, dc)
        e_it = it_threshold(dist)
        e_ml, degenerate = ml_threshold_bound(dist)
        assert not degenerate
        assert abs(e_it - t_it) < 5e-4, f"({dv},{dc}) eps_it {e_it}"
        assert abs(e_ml - t_ml) < 5e-4, f"({dv},{dc}) eps_ml {e_ml}"
        worst = max(worst, abs(e_it - t_it), abs(e_ml - t_ml))
    print(f"\ncriterion 1 PASS: 7 regular ensembles within 5e-4 (worst dev {worst:.2e})")


def test_acceptance_2_ara_protograph():
    e_it = protograph_it_threshold(ARA)
    e_ml, degenerate = protograph_ml_bound(ARA)
    assert not degenerate
    assert abs(e_it - 0.477) < 2e-3, e_it
    assert abs(e_ml - 0.496) < 2e-3, e_ml
    print(f"\ncriterion 2 PASS: ARA eps_it={e_it:.4f}, eps_ml_bound={e_ml:.4f}")


def test_acceptance_3_oracle_equivalence_exhaustive():
    shapes = [(2, 4, 8), (2, 4, 10), (3, 6, 10), (2, 3, 12), (2, 4, 14)]
    rng = np.random.default_rng(99)
    checked = 0
    for i in range(20):
        dv, dc, n = shapes[i % len(shapes)]
        code = sample_regular(dv, dc, n, seed=1000 + i)
        cw = encode(code, random_vector(code.k, rng))
        for mask in range(1 << n):
            erased = [j for j in range(n) if (mask >> j) & 1]
            word = ReceivedWord.from_full(cw, erased)
            a = ml_decode(code, word)
            b = oracle_decode(code, word)
            assert a.status == b.status, (i, mask)
            if a.ok:
                assert a.recovered == b.recovered == cw, (i, mask)
            h = hybrid_decode(code, word)
            assert h.status == a.status, (i, mask)
            checked += 1
    print(f"\ncriterion 3 PASS: {checked} exhaustive patterns across 20 codes")


def test_acceptance_4_peeling_dominance_and_stopping_sets():
    code = sample_regular(3, 6, 512, seed=21)
    eps = 0.43
    n_trials = 100000
    cw = BinVector(code.n)
    stalls = successes = 0
    for t in range(n_trials):
        rng = np.random.default_rng((21, 0, t))
        u01 = rng.random(code.n)
        erased = np.flatnonzero(u01 < eps).tolist()
        word = ReceivedWord.from_full(cw, erased)
        res = peel_decode(code, word)
        if res.ok:
            successes += 1
            assert ml_decode(code, word).ok, f"IT success but ML failure, trial {t}"
        else:
            stalls += 1
            assert is_stopping_set(code, res.residual), f"bad residual, trial {t}"
    print(f"\ncriterion 4 PASS: {n_trials} trials, {successes} IT successes "
          f"(all ML-decodable), {stalls} certified stopping-set stalls")


def _random_linear_code(n, k, rng):
    while True:
        rows = [int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
                for _ in range(n - k)]
        h = SparseBinMatrix.from_dense(DenseBinMatrix(n - k, n, rows))
        try:
            encoder, k_actual = _generic_encoder_from_h(h)
        except Exception:
            continue
        if k_actual == k:
            return LdpcCode(n, k, h, encoder=encoder)


def test_acceptance_5_bound_sanity_and_random_codes():
    for i in range(1, 1000):
        eps = i / 1000
        assert berlekamp_bound(64, 32, eps) >= singleton_bound(64, 32, eps) - 1e-15

    rng = np.random.default_rng(5)
    eps_points = (0.30, 0.35, 0.40)
    per_code_cer = {eps: [] for eps in eps_points}
    cw = BinVector(64)
    for ci in range(10):
        code = _random_linear_code(64, 32, rng)
        for pi, eps in enumerate(eps_points):
            errors = trials = 0
            t = 0
            while errors < 40 and t < 30000:
                trng = np.random.default_rng((5, ci, pi, t))
                erased = np.flatnonzero(trng.random(64) < eps).tolist()
                res = ml_decode(code, ReceivedWord.from_full(cw, erased))
                errors += not res.ok
                trials += 1
                t += 1
            per_code_cer[eps].append((errors / trials, wilson_halfwidth(errors, trials)))
    for eps in eps_points:
        bound = berlekamp_bound(64, 32, eps)
        cers = [c for c, _ in per_code_cer[eps]]
        mean_ci = math.sqrt(sum(hw * hw for _, hw in per_code_cer[eps])) / 10
        # individual codes: factor-2 slack over the ensemble-average bound
        for c, hw in per_code_cer[eps]:
            assert c <= 2 * bound + hw, (eps, c, bound)
        mean = sum(cers) / len(cers)
        assert mean <= bound + mean_ci, (eps, mean, bound)
    print("\ncriterion 5 PASS: Berlekamp >= Singleton on 999-point grid; "
          "10 random (64,32) codes within bound slack at eps 0.30/0.35/0.40")


def test_acceptance_6_geira_waterfall_near_bound():
    spec = GeiraSpec(k=512, n=1024, taps=frozenset({0, 1, 4, 10, 20}), wc=5, seed=7)
    code = build_geira(spec)
    m = code.h.rows
    mean_row = sum(len(code.h.row_adj[r]) for r in range(m)) / m
    assert mean_row >= 9

    lo, hi = 0.3, 0.5  # bisect for Berlekamp(eps) = 1e-2
    for _ in range(60):
        mid = (lo + hi) / 2
        if berlekamp_bound(1024, 512, mid) < 1e-2:
            lo = mid
        else:
            hi = mid
    eps = lo
    bound = berlekamp_bound(1024, 512, eps)

    cw = BinVector(code.n)
    errors = trials = 0
    while errors < 100 and trials < 60000:
        rng = np.random.default_rng((6, 0, trials))
        erased = np.flatnonzero(rng.random(code.n) < eps).tolist()
        res = ml_decode(code, ReceivedWord.from_full(cw, erased))
        errors += not res.ok
        trials += 1
    assert errors >= 100, f"only {errors} error events in {trials} trials"
    cer = errors / trials
    assert bound / 5 <= cer <= 5 * bound, (cer, bound)
    print(f"\ncriterion 6 PASS: GeIRA (1024,512) mean check degree {mean_row:.2f}, "
          f"CER {cer:.4f} vs Berlekamp {bound:.4f} at eps {eps:.4f} ({errors} events)")


def test_acceptance_7_raptor():
    rng = np.random.default_rng(7)
    big = RaptorCode.build(256, 512, seed=0)
    p = big.params

    # systematic identity on 10^3 random inputs
    for _ in range(1000):
        c = random_vector(p.k, rng)
        e = big.encode(c)
        assert all(e[i] == c[i] for i in range(p.k))

    # r = k-1 always fails
    c = random_vector(p.k, rng)
    e = big.encode(c)
    for _ in range(5):
        esis = (rng.choice(p.n, size=p.k - 1, replace=False) + 1).tolist()
        received = raptor_word(e, esis)
        assert not big.decode_structured(received).ok

    # CER vs overhead delta: nonincreasing within confidence, shapes as claimed
    curve = []
    for delta in range(31):
        errors = trials = 0
        while errors < 50 and trials < 600:
            trng = np.random.default_rng((7, delta, trials))
            c = random_vector(p.k, trng)
            e = big.encode(c)
            esis = (trng.choice(p.n, size=p.k + delta, replace=False) + 1).tolist()
            received = raptor_word(e, esis)
            res = big.decode_structured(received)
            assert res.stats.system_shape == (p.k + delta + p.s + p.h, p.k + p.s + p.h)
            errors += not (res.ok and res.c == c)
            trials += 1
        curve.append((delta, errors / trials, wilson_halfwidth(errors, trials),
                      errors, trials))
    for (d0, c0, h0, *_), (d1, c1, h1, *_) in zip(curve, curve[1:]):
        assert c1 <= c0 + h0 + h1, (d0, c0, d1, c1)
    events_ok = sum(1 for *_, e, t in curve if e >= 50 or t >= 600)
    assert events_ok == 31

    # structured-GE route agrees with the dense route
    small = RaptorCode.build(64, 128, seed=0)
    sp = small.params
    for t in range(1000):
        trng = np.random.default_rng((70, 0, t))
        c = random_vector(sp.k, trng)
        e = small.encode(c)
        r = int(trng.integers(sp.k - 2, sp.n + 1))
        esis = (trng.choice(sp.n, size=r, replace=False) + 1).tolist()
        received = raptor_word(e, esis)
        a = small.decode(received)
        b = small.decode_structured(received)
        assert a.status == b.status
        if a.ok:
            assert a.c == b.c == c
    for t in range(50):
        trng = np.random.default_rng((71, 0, t))
        c = random_vector(p.k, trng)
        e = big.encode(c)
        esis = (trng.choice(p.n, size=p.k + 3, replace=False) + 1).tolist()
        received = raptor_word(e, esis)
        a = big.decode(received)
        b = big.decode_structured(received)
        assert a.status == b.status and (not a.ok or a.c == b.c)

    print("\ncriterion 7 PASS: systematic identity (10^3), r=k-1 failures, "
          "nonincreasing CER over delta=0..30 (50 events or 600-trial cap), "
          "structured == dense decode, system shapes (k+delta+s+h)x(k+s+h)")


def test_acceptance_8_error_floor_and_mindist(hamming74):
    for eps in (0.1, 0.2, 0.4):
        assert error_floor_estimate(WeightSpectrumTail(11, 4), eps) == 4 * eps**11
        assert error_floor_estimate(WeightSpectrumTail(10, 16), eps) == 16 * eps**10
    tail = exhaustive_min_distance(hamming74)
    assert (tail.d_min, tail.a_min) == (3, 7)
    print("\ncriterion 8 PASS: floor products exact; Hamming(7,4) d_min=3, A_min=7")

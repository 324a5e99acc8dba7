import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import code_from_rows, enumerate_min_distance, numpy_proto_fixed_point
from erasurelab.analysis import (
    _edge_types,
    _priors,
    _proto_fixed_point,
    DegreeDistribution,
    WeightSpectrumTail,
    berlekamp_bound,
    error_floor_estimate,
    exhaustive_min_distance,
    exit_curve,
    it_threshold,
    ml_threshold_bound,
    protograph_de,
    protograph_it_threshold,
    protograph_ml_bound,
    singleton_bound,
    threshold_report,
)
from erasurelab.binmat import SparseBinMatrix
from erasurelab.ldpc import LdpcCode, Protograph, _generic_encoder_from_h

ARA = Protograph(base=((2, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 0, 0, 0, 1)),
                 punctured_cols=frozenset({0}), lift=256)


def test_it_threshold_3_6():
    assert abs(it_threshold(DegreeDistribution.regular(3, 6)) - 0.4294) < 5e-4


def test_it_threshold_5_15():
    assert abs(it_threshold(DegreeDistribution.regular(5, 15)) - 0.2303) < 5e-4


def test_de_bracketing():
    from erasurelab.analysis import _de_converges

    dist = DegreeDistribution.regular(3, 6)
    assert _de_converges(dist, 0.0)
    assert not _de_converges(dist, 1.0)


def _numpy_de_converges(dist, eps, iters=2000, cutoff=1e-9):
    """Reference density evolution through the array evaluators, every
    coefficient included: the loop `_de_converges` replaces."""
    x = eps
    for _ in range(iters):
        x_next = eps * dist.lam_eval(1.0 - dist.rho_eval(1.0 - x))
        if x_next < cutoff:
            return True
        if abs(x_next - x) < 1e-15:
            return False
        x = x_next
    return x < cutoff


def test_it_threshold_matches_numpy_evaluation():
    from erasurelab.analysis import _bisect

    tol = 1e-5
    dists = [DegreeDistribution.regular(dv, dc)
             for dv, dc in ((3, 6), (4, 8), (5, 10), (6, 12), (3, 9), (4, 12), (5, 15))]
    dists.append(DegreeDistribution((0.0, 0.5, 0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 0.0, 0.7, 0.3)))
    for dist in dists:
        ref = _bisect(lambda eps: _numpy_de_converges(dist, eps), tol)
        assert abs(it_threshold(dist, tol) - ref) <= tol


def test_exit_curve_endpoints_and_monotonic():
    curve = exit_curve(DegreeDistribution.regular(3, 6), grid=20001)
    assert curve.p_a[-1] == pytest.approx(1.0)
    assert curve.p_e[-1] == pytest.approx(1.0)
    assert abs(min(curve.p_a) - 0.4294) < 1e-3
    assert all(b >= a for a, b in zip(curve.p_e, curve.p_e[1:]))


def test_ml_bound_values():
    for dv, dc, target in ((3, 6, 0.4881), (6, 12, 0.4999), (4, 12, 0.3302)):
        val, degenerate = ml_threshold_bound(DegreeDistribution.regular(dv, dc))
        assert not degenerate
        assert abs(val - target) < 5e-4


def test_threshold_report_ordering():
    rep = threshold_report(DegreeDistribution.regular(3, 6))
    assert rep.eps_it < rep.eps_ml_bound < rep.eps_sh
    assert rep.eps_sh == pytest.approx(0.5)


def test_protograph_de_regular_equivalence():
    p = Protograph(base=((3, 3),))
    assert abs(protograph_it_threshold(p) - 0.4294) < 1e-3
    val, degenerate = protograph_ml_bound(p)
    assert not degenerate
    assert abs(val - 0.4881) < 1e-3


def test_protograph_values_exact():
    """The values the numpy kernel gave, repr for repr."""
    assert protograph_it_threshold(ARA) == 0.477691650390625
    assert protograph_ml_bound(ARA) == (0.4961412773220318, False)
    p33 = Protograph(base=((3, 3),))
    assert protograph_it_threshold(p33) == 0.429412841796875
    assert protograph_ml_bound(p33) == (0.48815075197760904, False)


def _edge_matrix(p, per_edge):
    """A per-edge-type list laid out like the base matrix, zero off the edges."""
    out = np.zeros((p.n_checks, p.n_vars))
    for (i, j, _), x in zip(_edge_types(p)[0], per_edge):
        out[i, j] = x
    return out


def _assert_matches_numpy(p, eps, warm):
    """Scalar and numpy DE agree on v, extrinsic and posterior within 1e-12,
    from the all-ones start or warm from the fixed point at eps + 0.05."""
    graph = _edge_types(p)
    v0 = None
    if warm:
        v0, _, _ = _proto_fixed_point(graph, _priors(p, min(1.0, eps + 0.05)))
    b = np.array(p.base, dtype=float)
    priors = np.array([1.0 if j in p.punctured_cols else eps for j in range(p.n_vars)])
    ref = numpy_proto_fixed_point(b, priors, None if v0 is None else _edge_matrix(p, v0))
    v, extrinsic, posterior = _proto_fixed_point(graph, _priors(p, eps), v0)
    assert np.abs(_edge_matrix(p, v) - ref[0]).max() <= 1e-12
    assert np.abs(np.array(extrinsic) - ref[1]).max() <= 1e-12
    assert np.abs(np.array(posterior) - ref[2]).max() <= 1e-12


def _complete(base, rng_row):
    """Give every column without an edge one edge of multiplicity 1."""
    for j in range(len(base[0])):
        if not any(row[j] for row in base):
            base[rng_row(j)][j] = 1
    return base


@pytest.mark.parametrize("seed", range(40))
def test_proto_fixed_point_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    nv = int(rng.integers(m, 7))
    base = (rng.integers(1, 4, size=(m, nv)) * (rng.random((m, nv)) < 0.6)).tolist()
    base = _complete(base, lambda j: int(rng.integers(m)))
    # with a punctured column the design rate stays below 1 only with 2+ checks
    punct = frozenset({int(rng.integers(nv))}) if m >= 2 and seed % 2 else frozenset()
    p = Protograph(base=base, punctured_cols=punct)
    for eps in rng.random(3):
        for warm in (False, True):
            _assert_matches_numpy(p, float(eps), warm)


@pytest.mark.parametrize("eps", [0.4776, 0.4778])
@pytest.mark.parametrize("warm", [False, True])
def test_proto_fixed_point_matches_numpy_near_threshold(eps, warm):
    """Next to the ARA threshold, where DE takes thousands of iterations."""
    _assert_matches_numpy(ARA, eps, warm)


@st.composite
def _protograph_case(draw):
    m = draw(st.integers(1, 4))
    nv = draw(st.integers(m, 6))
    row = st.lists(st.integers(0, 3), min_size=nv, max_size=nv)
    base = _complete(draw(st.lists(row, min_size=m, max_size=m)), lambda j: j % m)
    punct = frozenset()
    if m >= 2 and draw(st.booleans()):
        punct = frozenset({draw(st.integers(0, nv - 1))})
    return Protograph(base=base, punctured_cols=punct), draw(st.floats(0.0, 1.0)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_protograph_case())
def test_proto_fixed_point_matches_numpy_property(case):
    _assert_matches_numpy(*case)


def test_thresholds_demo_ara_line():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, str(root / "demos" / "thresholds_and_exit.py")],
                         capture_output=True, text=True, check=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert "eps_IT = 0.4777, eps_ML <= 0.4961" in out


def test_protograph_de_trivial_eps0():
    assert protograph_de(ARA, 0.0)
    assert protograph_de(Protograph(base=((3, 3),)), 0.0)


def test_ara_design_rate():
    assert ARA.design_rate == pytest.approx(0.5)


def test_singleton_edges():
    assert singleton_bound(10, 5, 1.0) == pytest.approx(1.0)
    assert singleton_bound(10, 5, 0.0) == pytest.approx(0.0)
    assert singleton_bound(3, 1, 0.5) == pytest.approx(0.125)


def test_berlekamp_edges():
    assert berlekamp_bound(10, 5, 1.0) == pytest.approx(1.0)
    assert berlekamp_bound(10, 5, 0.0) == pytest.approx(2.0 ** -5)
    for i in range(1, 20):
        eps = i / 20
        assert berlekamp_bound(64, 32, eps) >= singleton_bound(64, 32, eps)


def test_error_floor_products():
    tail = WeightSpectrumTail(d_min=11, a_min=4)
    assert error_floor_estimate(tail, 0.1) == pytest.approx(4e-11)
    tail16 = WeightSpectrumTail(d_min=10, a_min=16)
    for eps in (0.1, 0.2, 0.4):
        assert error_floor_estimate(tail16, eps) == pytest.approx(16 * eps**10)
    assert error_floor_estimate(tail, 0.0) == 0.0


def test_min_distance_hamming(hamming74):
    tail = exhaustive_min_distance(hamming74)
    assert (tail.d_min, tail.a_min) == (3, 7)


def test_min_distance_repetition_and_spc():
    rep = code_from_rows([[1, 1, 0], [0, 1, 1]])
    tail = exhaustive_min_distance(rep)
    assert (tail.d_min, tail.a_min) == (3, 1)
    spc = code_from_rows([[1, 1, 1]])
    tail = exhaustive_min_distance(spc)
    assert (tail.d_min, tail.a_min) == (2, 3)


def test_min_distance_matches_enumeration(hamming74):
    """The Gray-code walk gives the (d_min, multiplicity) of encoding every
    message, on Hamming(7,4), repetition and single parity check codes."""
    codes = [hamming74, code_from_rows([[1, 1, 0], [0, 1, 1]]),
             code_from_rows([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1]]),
             code_from_rows([[1, 1, 1]]), code_from_rows([[1] * 13])]
    for code in codes:
        tail = exhaustive_min_distance(code)
        assert (tail.d_min, tail.a_min) == enumerate_min_distance(code)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_min_distance_matches_enumeration_random_codes(data):
    n = data.draw(st.integers(2, 16))
    rows = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=n))
    assume(all(any(w >> c & 1 for w in rows) for c in range(n)))
    h = SparseBinMatrix(len(rows), n, [[c for c in range(n) if w >> c & 1] for w in rows])
    encoder, k = _generic_encoder_from_h(h)
    assume(k <= 12)
    code = LdpcCode(n, k, h, encoder=encoder)
    tail = exhaustive_min_distance(code)
    assert (tail.d_min, tail.a_min) == enumerate_min_distance(code)


@pytest.mark.parametrize("dv, dc, eps", [(1, 1, 1.0), (1, 2, 0.0), (1, 5, 0.0), (2, 2, 1.0)])
def test_degenerate_ensembles_take_their_exact_thresholds(dv, dc, eps):
    """H = I pins every bit; any other ensemble with degree-1 variables
    leaves some erased for every eps > 0; the (2,2) cycle ensemble's density
    evolution x -> eps·x converges for every eps < 1."""
    dist = DegreeDistribution.regular(dv, dc)
    assert it_threshold(dist) == eps
    assert ml_threshold_bound(dist) == (eps, True)


def test_degree_distribution_rate():
    dist = DegreeDistribution.regular(3, 6)
    assert dist.rate == pytest.approx(0.5)
    assert dist.lam_eval(1.0) == pytest.approx(1.0)
    assert dist.rho_eval(1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("dv, dc, says", [
    (0, 6, "dv must be >= 1"), (3, 0, "dc must be >= 1"), (3, 2, "design rate -0.5"),
])
def test_degree_distribution_rejects_bad_degrees(dv, dc, says):
    with pytest.raises(ValueError, match=says):
        DegreeDistribution.regular(dv, dc)
    assert DegreeDistribution.regular(3, 3).rate == 0.0


def test_bounds_nondecreasing_in_eps():
    prev_s = prev_b = 0.0
    for i in range(101):
        eps = i / 100
        s = singleton_bound(32, 16, eps)
        b = berlekamp_bound(32, 16, eps)
        assert s >= prev_s - 1e-15 and b >= prev_b - 1e-15
        prev_s, prev_b = s, b

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    code_from_rows,
    enumerate_min_distance,
    inline_log_terms,
    loop_proto_fixed_point,
    numpy_proto_fixed_point,
    reference_protograph_de,
)
from erasurelab import analysis
from erasurelab.analysis import (
    _PROTO_DE_ITERS,
    _PROTO_DE_TOL,
    _PROTO_THRESHOLD_TOL,
    _edge_types,
    _log_terms,
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
from erasurelab.ldpc import (
    LdpcCode,
    Protograph,
    _generic_encoder_from_h,
    sample_regular,
)

ARA = Protograph(base=((2, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 0, 0, 0, 1)),
                 punctured_cols=frozenset({0}))


def test_it_threshold_3_6():
    assert abs(it_threshold(DegreeDistribution.regular(3, 6)) - 0.4294) < 5e-4


def test_it_threshold_5_15():
    assert abs(it_threshold(DegreeDistribution.regular(5, 15)) - 0.2303) < 5e-4


TABLED = ((3, 6), (4, 8), (5, 10), (6, 12), (3, 9), (4, 12), (5, 15))
# x / lam(1 - rho(1 - x)) has its infimum as x -> 0 and a local minimum at x = 0.2265
NON_UNIMODAL = DegreeDistribution((0.0, 0.5, 0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 0.0, 0.7, 0.3))


def _numpy_de_converges(dist, eps, iters=2000, cutoff=1e-9):
    """Reference density evolution through numpy powers, every nonzero
    coefficient included: bisection over it checks the minimisation in
    `it_threshold` by a second route. With degree-2 variables and none of
    degree 1 it stops once rho'(1)·x_next < y, the stability condition's
    bound: then lam(y)/y grows with y and 1 - rho(1 - u) <= rho'(1)·u, so DE
    maps every u <= x below u."""
    stable_stop = len(dist.lam) > 1 and dist.lam[0] == 0 and dist.lam[1] > 0
    drho = sum(j * r for j, r in enumerate(dist.rho))
    x = eps
    for _ in range(iters):
        y = 1.0 - sum(r * np.power(1.0 - x, j) for j, r in enumerate(dist.rho) if r)
        x_next = eps * dist.lam_eval(y)
        if x_next < cutoff or (stable_stop and drho * x_next < y):
            return True
        if abs(x_next - x) < 1e-15:
            return False
        x = x_next
    return x < cutoff


def _de(dist, eps, iters):
    """The erasure probability of a variable-to-check message after
    ``iters`` steps of density evolution at channel erasure ``eps``, and the
    y = 1 - rho(1 - x) of the last step, on Python floats."""
    x = y = eps
    for _ in range(iters):
        y = 1.0 - sum(r * (1.0 - x) ** j for j, r in enumerate(dist.rho) if r)
        x = eps * sum(l * y ** i for i, l in enumerate(dist.lam) if l)
    return x, y


def test_it_threshold_matches_numpy_evaluation():
    from erasurelab.analysis import _bisect

    tol = 1e-5
    dists = [DegreeDistribution.regular(dv, dc) for dv, dc in TABLED] + [NON_UNIMODAL]
    # lam2 = 0.41: the threshold is the x -> 0 limit 1/(lam2·rho'(1)) = 0.460193,
    # 3.8e-4 below a local minimum at x = 0.289, and by x = 1e-3 the ratio
    # has already risen above that local minimum
    dists.append(DegreeDistribution((0.0, 0.41, 0.0, 0.0, 0.59), (0.0, 0.0, 0.0, 0.0, 0.0, 0.7, 0.3)))
    for dist in dists:
        ref = _bisect(lambda eps: _numpy_de_converges(dist, eps), tol)
        assert abs(it_threshold(dist) - ref) <= tol


@pytest.mark.parametrize("dv, dc", TABLED)
def test_de_brackets_the_tabled_thresholds(dv, dc):
    """2000 steps of density evolution go below 1e-9 just below the
    threshold and stay above 1e-3 just above it."""
    dist = DegreeDistribution.regular(dv, dc)
    eps = it_threshold(dist)
    assert _de(dist, eps - 1e-5, 2000)[0] < 1e-9
    assert _de(dist, eps + 1e-5, 2000)[0] > 1e-3


def test_threshold_below_the_stability_bound():
    """With degree-2 and degree-3 variables the threshold lies just under
    the stability bound 1/(lam2·rho'(1)) = 0.521427, above 0.52077, where DE
    run for 300,000 steps still converges. DE capped at 2000 steps stalled
    short of 0 there and put the threshold at 0.52053."""
    dist = DegreeDistribution((0.0, 0.7507, 0.2493), (0.0, 0.0, 0.4453, 0.5547))
    assert 0.52077 < it_threshold(dist) <= 1 / (0.7507 * (2 * 0.4453 + 3 * 0.5547))


def test_non_unimodal_ensemble_takes_the_global_minimum():
    """x / lam(1 - rho(1 - x)) has its infimum 1/(lam2·rho'(1)) = 0.37736 as
    x -> 0 and a local minimum 0.43352 at x = 0.2265. The EXIT curve starts
    at the infimum and follows the largest fixed point of DE, and the area
    bound lands between the IT threshold and capacity."""
    dist = NON_UNIMODAL
    eps_it = it_threshold(dist)
    curve = exit_curve(dist)
    assert curve.eps_bp == eps_it
    assert abs(eps_it - 1 / (0.5 * (5 * 0.7 + 6 * 0.3))) < 1e-12
    assert (np.diff(curve.p_a) >= 0).all()
    _, y = _de(dist, 0.40, 200_000)
    assert abs(dist.node_lambda_eval(y) - 0.014108) < 1e-5
    assert abs(np.interp(0.40, curve.p_a, curve.p_e) - dist.node_lambda_eval(y)) < 1e-4
    bound, degenerate = ml_threshold_bound(dist)
    assert not degenerate
    assert eps_it < bound < 1.0 - dist.rate


def test_exit_curve_endpoints_and_monotonic():
    curve = exit_curve(DegreeDistribution.regular(3, 6))
    assert curve.p_a[-1] == pytest.approx(1.0)
    assert curve.p_e[-1] == pytest.approx(1.0)
    assert abs(min(curve.p_a) - 0.4294) < 1e-3
    assert all(b >= a for a, b in zip(curve.p_e, curve.p_e[1:]))


def test_exit_curve_of_degree_one_checks_has_a_point_per_x():
    """With every check of degree 1, y = 1 - rho(1 - x) sums no terms; p_e is
    still one value per point of the curve, not a scalar."""
    curve = exit_curve(DegreeDistribution.regular(1, 1))
    assert curve.p_e.shape == curve.p_a.shape


def test_ml_bound_values():
    for dv, dc, target in ((3, 6, 0.4881), (6, 12, 0.4999), (4, 12, 0.3302)):
        val, degenerate = ml_threshold_bound(DegreeDistribution.regular(dv, dc))
        assert not degenerate
        assert abs(val - target) < 5e-4


def test_threshold_report_minimises_once(monkeypatch):
    """One threshold report evaluates eps(x) on the minimisation's full grid
    once: the IT threshold and the EXIT curve share the minimum."""
    real = analysis._eps_of_x
    grid_calls = []

    def counting(dist, x):
        if np.ndim(x) and len(x) == 2000 + 20000:  # the log-spaced and linear grids
            grid_calls.append(dist)
        return real(dist, x)

    monkeypatch.setattr(analysis, "_eps_of_x", counting)
    analysis._bp_point.cache_clear()
    threshold_report(DegreeDistribution.regular(3, 6))
    assert len(grid_calls) == 1


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
    for (i, j, _), x in zip(_edge_types(p), per_edge):
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


def _assert_matches_loop(p, eps, warm):
    """The generated kernel and the reference loop give the same v,
    extrinsic and posterior, repr for repr, from the all-ones start or warm
    from the loop's fixed point at eps + 0.05."""
    edges = _edge_types(p)
    v0 = None
    if warm:
        v0, _, _ = loop_proto_fixed_point(edges, _priors(p, min(1.0, eps + 0.05)))
    got = _proto_fixed_point(edges, _priors(p, eps), v0)
    assert repr(got) == repr(loop_proto_fixed_point(edges, _priors(p, eps), v0))


@pytest.mark.parametrize("eps", [0.0, 0.3, 0.4776, 1.0])
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("base, punct", [
    (((0, 0, 0, 0, 0), (1, 2, 1, 1, 0), (0, 0, 0, 0, 0), (2, 1, 1, 0, 1)), {1}),  # empty rows
    (((1,),), ()),  # one edge type
    (((3, 3),), ()),  # multiplicity 3
    (ARA.base, {0}),  # punctured
    (((3, 1, 0, 2), (1, 0, 3, 1)), {3}),
    (((1,) * 20, (1, 2) * 10), ()),  # row sums longer than one generated line
])
def test_de_kernel_matches_loop(base, punct, eps, warm):
    _assert_matches_loop(Protograph(base=base, punctured_cols=frozenset(punct)), eps, warm)


@settings(max_examples=80, deadline=None)
@given(_protograph_case())
def test_de_kernel_matches_loop_property(case):
    _assert_matches_loop(*case)


def _exit_curve(p):
    """The whole EXIT curve of ``analysis._exit_sweep``, p_A increasing."""
    pas, pes = map(np.array, zip(*analysis._exit_sweep(p)))
    return pas[::-1], pes[::-1]


@pytest.mark.parametrize("p", [ARA, Protograph(base=((3, 3),))], ids=["ara", "3-3"])
def test_exit_curve_matches_loop(p, monkeypatch):
    """The whole warm-started EXIT sweep gives the same arrays, byte for
    byte, as the reference loop."""
    pas, pes = _exit_curve(p)
    monkeypatch.setattr(analysis, "_proto_fixed_point", loop_proto_fixed_point)
    ref_pas, ref_pes = _exit_curve(p)
    assert pas.tobytes() == ref_pas.tobytes()
    assert pes.tobytes() == ref_pes.tobytes()


def _whole_curve_bound(p):
    """The ML bound from the crossing over the whole EXIT curve."""
    pas, pes = _exit_curve(p)
    x = analysis._area_crossing(pas, pes, p.design_rate)
    return (float(pas[0]), True) if x is None else (x, False)


@pytest.mark.parametrize("p, degenerate", [
    (ARA, False), (Protograph(base=((3, 3),)), False),
    (Protograph(base=((2, 1, 1),)), True),  # its EXIT area never reaches its rate
], ids=["ara", "3-3", "area-short"])
def test_ml_bound_sweep_stops_at_the_whole_curve_crossing(p, degenerate):
    """The sweep that stops once its area from the top passes the rate
    gives the crossing over the whole curve, repr for repr, degenerate flag
    included; where the area falls short the sweep runs to the end."""
    bound = protograph_ml_bound(p)
    assert repr(bound) == repr(_whole_curve_bound(p))
    assert bound[1] is degenerate


@settings(max_examples=12, deadline=None)
@given(_protograph_case())
def test_ml_bound_sweep_stops_at_the_whole_curve_crossing_property(case):
    p = case[0]
    assert repr(protograph_ml_bound(p)) == repr(_whole_curve_bound(p))


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


# erasure probabilities outside [0, 1], NaN and the infinities included
BAD_EPS = [-0.5, -1e-9, 1.5, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("eps", BAD_EPS)
@pytest.mark.parametrize("p", [ARA, Protograph(base=((3, 3),))], ids=["ara", "3-3"])
def test_protograph_de_rejects_eps_outside_unit_interval(p, eps):
    with pytest.raises(ValueError, match=r"^eps must lie in \[0, 1\]$"):
        protograph_de(p, eps)


@settings(max_examples=80, deadline=None)
@given(_protograph_case())
def test_protograph_de_matches_reference_property(case):
    """The verdict with failure certificates is the verdict of DE run to
    the tolerance or the step cap."""
    p, eps, _ = case
    assert protograph_de(p, eps) == reference_protograph_de(p, eps)


@pytest.mark.parametrize("eps", np.linspace(0.4770, 0.4785, 16).tolist())
def test_protograph_de_matches_reference_near_ara_threshold(eps):
    assert protograph_de(ARA, eps) == reference_protograph_de(ARA, eps)


@pytest.mark.parametrize("p", [
    ARA, Protograph(base=((3, 3),)), Protograph(base=((2, 1, 1),)),
    Protograph(base=((3, 1, 0, 2), (1, 0, 3, 1)), punctured_cols=frozenset({3})),
], ids=["ara", "3-3", "2-1-1", "punctured"])
@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_protograph_de_matches_reference_at_the_ends(p, eps):
    assert protograph_de(p, eps) == reference_protograph_de(p, eps)


def test_protograph_de_matches_reference_at_the_step_cap():
    """At the (3,6) ensemble's threshold the fixed point is tangent, so DE
    from all-ones crawls until the step cap, and no sub-solution exists."""
    p, eps = Protograph(base=((3, 3),)), 0.42943981441949175
    edges, priors = _edge_types(p), _priors(p, eps)
    kernel = analysis._de_kernel(edges, len(priors))
    assert not kernel(priors, [1.0] * len(edges), _PROTO_DE_ITERS, _PROTO_DE_TOL)[2]
    assert protograph_de(p, eps) is reference_protograph_de(p, eps) is False


@settings(max_examples=25, deadline=None)
@given(_protograph_case())
def test_protograph_it_threshold_matches_reference_bisection(case):
    p = case[0]
    ref = analysis._bisect(lambda eps: reference_protograph_de(p, eps), _PROTO_THRESHOLD_TOL)
    assert repr(protograph_it_threshold(p)) == repr(ref)


@pytest.fixture
def de_steps(monkeypatch):
    """A list whose length counts the DE steps of every kernel that
    ``analysis._de_kernel`` builds from here on: each call runs its steps
    one at a time, which gives the same messages, t and flag."""
    steps, real = [], analysis._de_kernel

    def counting(edges, n_vars):
        kernel = real(edges, n_vars)

        def stepwise(priors, v, iters, tol):
            for _ in range(iters):
                steps.append(None)
                v, t, done = kernel(priors, v, 1, tol)
                if done:
                    break
            return v, t, done
        return stepwise

    monkeypatch.setattr(analysis, "_de_kernel", counting)
    return steps


def test_failure_certificate_fires(de_steps):
    """At eps = 0.478515625, the ARA bisection's ninth midpoint, DE fails
    after 800 steps to the tolerance; the certificate decides it in under a
    third of them. Just below the threshold DE succeeds and no certificate
    stops it."""
    eps = 0.478515625
    _proto_fixed_point(_edge_types(ARA), _priors(ARA, eps))
    full = len(de_steps)
    assert full == 800
    de_steps.clear()
    assert protograph_de(ARA, eps) is False
    assert len(de_steps) < full / 3
    assert protograph_de(ARA, 0.4775) is True


def test_ara_design_rate():
    assert ARA.design_rate == pytest.approx(0.5)


@pytest.mark.parametrize("n", [0, 1, 7, 2048])
def test_log_terms_match_inline_table(n):
    for eps in (0.0, 0.25, 0.4, 0.5, 1.0):
        for lo, hi in ((0, n + 1), (n // 2 + 1, n + 1)):
            assert repr(_log_terms(n, eps, lo, hi)) == repr(inline_log_terms(n, eps, lo, hi))


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
    # every codeword of weight d_min is erased, so the floor is a_min
    assert error_floor_estimate(tail, 1.0) == 4


@pytest.mark.parametrize("eps", BAD_EPS)
@pytest.mark.parametrize("bound", [
    lambda eps: error_floor_estimate(WeightSpectrumTail(11, 4), eps),
    lambda eps: singleton_bound(64, 32, eps),
    lambda eps: berlekamp_bound(64, 32, eps),
], ids=["error-floor", "singleton", "berlekamp"])
def test_bounds_reject_eps_outside_unit_interval(bound, eps):
    """The finite-length bounds take the erasure probabilities that
    ``protograph_de`` takes, ε = 1 included, with the same message."""
    with pytest.raises(ValueError, match=r"^eps must lie in \[0, 1\]$"):
        bound(eps)


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


@pytest.mark.parametrize("make, expected", [
    (lambda: replace(sample_regular(3, 5, 20, seed=0), punctured={2, 7, 12, 17}), (3, 6)),
    (lambda: replace(sample_regular(3, 6, 12, seed=2), punctured={0}), (1, 1)),
], ids=["regular-3-5-n20", "regular-3-6-n12"])
def test_min_distance_counts_transmitted_positions(make, expected):
    """A punctured position is never sent, so it adds nothing to a
    codeword's weight: the minimum distance falls below that of the same
    code with every position sent."""
    code = make()
    assert code.punctured
    tail = exhaustive_min_distance(code)
    assert (tail.d_min, tail.a_min) == expected == enumerate_min_distance(code)
    assert tail.d_min < exhaustive_min_distance(replace(code, punctured=frozenset())).d_min


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_min_distance_matches_enumeration_random_codes(data):
    n = data.draw(st.integers(2, 16))
    rows = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=n))
    assume(all(any(w >> c & 1 for w in rows) for c in range(n)))
    h = SparseBinMatrix(len(rows), n, [[c for c in range(n) if w >> c & 1] for w in rows])
    encoder = _generic_encoder_from_h(h)
    assume(len(encoder.info_positions) <= 12)
    code = LdpcCode(h, encoder)
    if code.k == 0:
        with pytest.raises(ValueError, match="k = 0"):
            exhaustive_min_distance(code)
        return
    tail = exhaustive_min_distance(code)
    assert (tail.d_min, tail.a_min) == enumerate_min_distance(code)


def test_min_distance_needs_a_nonzero_codeword():
    """H = I has k = 0: no nonzero codeword, so no minimum distance, rather
    than the n + 1 of a walk over no codewords."""
    code = code_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert code.k == 0
    with pytest.raises(ValueError, match="^k = 0: the code has no nonzero codeword"):
        exhaustive_min_distance(code)


@pytest.mark.parametrize("dc", [3, 4, 5])
def test_degree_two_thresholds_meet_the_stability_bound(dc):
    """The threshold of a (2, dc) ensemble is set by the stability condition
    eps·lam2·rho'(1) < 1, at 1/(dc - 1), where DE near 0 barely contracts."""
    assert abs(it_threshold(DegreeDistribution.regular(2, dc)) - 1 / (dc - 1)) < 1e-5


def test_tabled_thresholds_exact():
    """The minima of x / lam(1 - rho(1 - x)) for the seven tabled
    ensembles, repr for repr."""
    pinned = {(3, 6): 0.42943981441949175, (4, 8): 0.38344657232173657,
              (5, 10): 0.34155002304228976, (6, 12): 0.3074622614781,
              (3, 9): 0.2828368323849195, (4, 12): 0.25708100440020015,
              (5, 15): 0.23032886910579525}
    for (dv, dc), eps in pinned.items():
        assert it_threshold(DegreeDistribution.regular(dv, dc)) == eps


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

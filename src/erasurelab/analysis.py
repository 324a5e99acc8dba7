"""Ensemble analysis and performance bounds: density evolution, IT-decoder
EXIT curves, area-theorem ML-threshold upper bounds, protograph DE/EXIT,
Singleton and Berlekamp bounds, and the truncated-union error-floor estimate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .binmat import BinVector
from .ldpc import LdpcCode, Protograph, encode


@dataclass(frozen=True)
class DegreeDistribution:
    """Edge-perspective lambda/rho coefficients indexed by degree
    (coefficient of x^(d-1)), plus the derived node-perspective Lambda."""

    lam: tuple  # lam[i] = coefficient for degree i+1
    rho: tuple

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        for arr, name in ((lam, "lambda"), (rho, "rho")):
            if (arr < -1e-12).any() or abs(arr.sum() - 1.0) > 1e-9:
                raise ValueError(f"{name} coefficients must be >= 0 and sum to 1")
        object.__setattr__(self, "lam", tuple(lam))
        object.__setattr__(self, "rho", tuple(rho))
        if self.rate < -1e-12:
            raise ValueError(f"design rate {self.rate:g} is negative")

    @classmethod
    def regular(cls, dv: int, dc: int) -> "DegreeDistribution":
        for name, val in (("dv", dv), ("dc", dc)):
            if val < 1:
                raise ValueError(f"{name} must be >= 1, got {val}")
        lam = [0.0] * dv
        lam[dv - 1] = 1.0
        rho = [0.0] * dc
        rho[dc - 1] = 1.0
        return cls(tuple(lam), tuple(rho))

    @property
    def node_lambda(self):
        """Lambda_i: fraction of variable nodes with degree i."""
        w = np.array([l / (i + 1) for i, l in enumerate(self.lam)])
        return tuple(w / w.sum())

    @property
    def rate(self) -> float:
        num = sum(r / (j + 1) for j, r in enumerate(self.rho))
        den = sum(l / (i + 1) for i, l in enumerate(self.lam))
        return 1.0 - num / den

    # the evaluators skip zero coefficients: such a term adds +0.0
    def lam_eval(self, x):
        return sum(l * np.power(x, i) for i, l in enumerate(self.lam) if l)

    def rho_eval(self, x):
        return sum(r * np.power(x, j) for j, r in enumerate(self.rho) if r)

    def node_lambda_eval(self, x):
        return sum(L * np.power(x, i + 1) for i, L in enumerate(self.node_lambda) if L)


@dataclass
class ExitCurve:
    x: np.ndarray
    p_a: np.ndarray
    p_e: np.ndarray
    x_bp: float
    eps_bp: float


@dataclass
class ThresholdReport:
    eps_it: float
    eps_ml_bound: float
    eps_sh: float
    degenerate: bool = False


@dataclass
class WeightSpectrumTail:
    d_min: int
    a_min: int


def _de_converges(dist: DegreeDistribution, eps: float,
                  iters: int = 2000, cutoff: float = 1e-9) -> bool:
    # lam(1 - rho(1 - x)) on Python floats over the non-zero terms: cheaper
    # per step than the numpy powers of lam_eval/rho_eval
    lam = [(i, float(l)) for i, l in enumerate(dist.lam) if l]
    rho = [(j, float(r)) for j, r in enumerate(dist.rho) if r]
    x = eps
    for _ in range(iters):
        y = 1.0 - sum(r * (1.0 - x) ** j for j, r in rho)
        x_next = eps * sum(l * y ** i for i, l in lam)
        if x_next < cutoff:
            return True
        if abs(x_next - x) < 1e-15:
            return False
        x = x_next
    return x < cutoff


def _bisect(converges, tol: float) -> float:
    """Supremum, to within ``tol``, of the eps in [0, 1] where
    ``converges(eps)`` holds, for a predicate that holds below some point."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _closed_form_threshold(dist: DegreeDistribution):
    """The exact IT and ML threshold of an ensemble whose edge messages
    density evolution cannot follow to it, or None.

    A degree-1 variable node's message is its channel erasure for ever,
    while its bit is recovered once the other bits of its check are. With
    every check of degree 1 (H = I, the only such ensemble of rate >= 0)
    every bit is pinned: threshold 1. Otherwise such a check holds another
    erased bit with positive probability at every eps > 0, for the IT and
    the ML decoder alike: threshold 0. On the (2,2) cycle ensemble density
    evolution is x -> eps·x, which tends to 0 for every eps < 1 but more
    slowly than any iteration cap as eps nears 1: threshold 1."""
    vdeg = {i + 1 for i, lam in enumerate(dist.lam) if lam}
    cdeg = {j + 1 for j, rho in enumerate(dist.rho) if rho}
    if 1 in vdeg:
        return 1.0 if cdeg == {1} else 0.0
    if vdeg == cdeg == {2}:
        return 1.0
    return None


def it_threshold(dist: DegreeDistribution, tol: float = 1e-5) -> float:
    """Supremum erasure probability for which density evolution converges."""
    exact = _closed_form_threshold(dist)
    if exact is not None:
        return exact
    return _bisect(lambda eps: _de_converges(dist, eps), tol)


def _find_bp(dist: DegreeDistribution):
    """Locate the minimum of p_A(x) on (0, 1] by golden-section search."""

    def pa(x):
        d = dist.lam_eval(1.0 - dist.rho_eval(1.0 - x))
        return x / d if d > 0 else math.inf

    gr = (math.sqrt(5) - 1) / 2
    a, b = 1e-9, 1.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = pa(c), pa(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = pa(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = pa(d)
    x_bp = 0.5 * (a + b)
    return x_bp, pa(x_bp)


def exit_curve(dist: DegreeDistribution, grid: int = 100001) -> ExitCurve:
    """IT-decoder EXIT curve in parametric form over x in [x_BP, 1]."""
    x_bp, eps_bp = _find_bp(dist)
    xs = np.linspace(x_bp, 1.0, grid)
    y = 1.0 - dist.rho_eval(1.0 - xs)
    p_a = xs / dist.lam_eval(y)
    p_e = dist.node_lambda_eval(y)
    return ExitCurve(xs, p_a, p_e, x_bp, eps_bp)


def _area_crossing(p_a, p_e, r: float):
    """The abscissa where the area under the EXIT curve (p_a increasing),
    from it to 1, equals ``r``; None when the whole area falls short."""
    seg = 0.5 * (p_e[1:] + p_e[:-1]) * np.diff(p_a)
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])  # area from p_a[i] to 1
    if tail[0] < r:
        return None
    # first index where remaining area drops below R, then local linear solve
    idx = int(np.searchsorted(-tail, -r))
    if idx == 0:
        return float(p_a[0])
    a0, a1 = tail[idx - 1], tail[idx]
    x0, x1 = p_a[idx - 1], p_a[idx]
    frac = (a0 - r) / (a0 - a1) if a0 > a1 else 0.0
    return float(x0 + frac * (x1 - x0))


def ml_threshold_bound(dist: DegreeDistribution, grid: int = 100001):
    """Area-theorem upper bound p_A* on the ML threshold: the abscissa where
    the area under the IT EXIT curve, from p_A* to 1, equals the rate.
    Returns (bound, degenerate); a degenerate bound is the IT threshold."""
    exact = _closed_form_threshold(dist)
    if exact is not None:
        return exact, True
    curve = exit_curve(dist, grid)
    x = _area_crossing(curve.p_a, curve.p_e, dist.rate)
    return (curve.eps_bp, True) if x is None else (x, False)


def threshold_report(dist: DegreeDistribution) -> ThresholdReport:
    eps_it = it_threshold(dist)
    bound, degenerate = ml_threshold_bound(dist)
    return ThresholdReport(eps_it, bound, 1.0 - dist.rate, degenerate)


# --- protograph density evolution -------------------------------------------

def _edge_types(p: Protograph):
    """The base graph's edge types: (row, column, multiplicity) for each
    non-zero entry in row-major order, plus per check row and per variable
    column the (edge, multiplicity) pairs it holds."""
    edges = [(i, j, float(m)) for i, row in enumerate(p.base) for j, m in enumerate(row) if m]
    rows = [[(e, m) for e, (i, _, m) in enumerate(edges) if i == r] for r in range(p.n_checks)]
    cols = [[(e, m) for e, (_, j, m) in enumerate(edges) if j == c] for c in range(p.n_vars)]
    return edges, rows, cols


def _proto_fixed_point(graph, priors, v0=None, iters: int = 20000, tol: float = 1e-12):
    """Largest fixed point of per-edge-type erasure DE, reached from above.

    ``graph`` is ``_edge_types(p)`` and ``priors`` holds each base column's
    a-priori erasure probability. Returns (v, extrinsic, posterior): v per
    edge type, the other two per base column. The products are accumulated
    in the log domain so zero-probability messages stay harmless. Python
    floats over the few edge types beat numpy ufuncs on the whole base. The
    sums run left to right, not through ``sum()``, which compensates on
    Python 3.12 and later.
    """
    edges, rows, cols = graph
    log, exp = math.log, math.exp
    tiny = 1e-300
    log_tiny = log(tiny)
    v = [1.0] * len(edges) if v0 is None else list(v0)
    c = [0.0] * len(edges)
    t = [0.0] * len(cols)
    for _ in range(iters):
        # log(max(y, tiny)) and the clip to [0, 1] as conditionals: the same
        # values without a builtin call per edge
        lo = [log(1.0 - x) if x < 1.0 else log_tiny for x in v]
        for row in rows:
            s = 0.0
            for e, m in row:
                s += m * lo[e]
            for e, _ in row:
                c[e] = 1.0 - exp(s - lo[e])
        lc = [log(x) if x > tiny else log_tiny for x in c]
        v_new = [0.0] * len(v)
        for j, col in enumerate(cols):
            s = 0.0
            for e, m in col:
                s += m * lc[e]
            t[j] = s
            prior = priors[j]
            for e, _ in col:
                x = prior * exp(s - lc[e])
                v_new[e] = x if 0.0 <= x <= 1.0 else (0.0 if x < 0.0 else 1.0)
        done = max(map(abs, map(operator.sub, v_new, v))) < tol
        v = v_new
        if done:
            break
    extrinsic = [exp(s) for s in t]
    return v, extrinsic, [prior * x for prior, x in zip(priors, extrinsic)]


def _priors(p: Protograph, eps: float):
    """Per base column a-priori erasure: eps, or 1 for punctured columns."""
    return [1.0 if j in p.punctured_cols else float(eps) for j in range(p.n_vars)]


def protograph_de(p: Protograph, eps: float, cutoff: float = 1e-9) -> bool:
    """Whether per-edge-type DE at channel erasure eps drives every variable
    node's posterior erasure probability to zero (punctured nodes use prior 1)."""
    _, _, post = _proto_fixed_point(_edge_types(p), _priors(p, eps))
    return all(x < cutoff for x in post)


def protograph_it_threshold(p: Protograph, tol: float = 1e-4) -> float:
    return _bisect(lambda eps: protograph_de(p, eps), tol)


def protograph_exit_curve(p: Protograph, grid: int = 2001):
    """Average extrinsic erasure over transmitted VNs versus the a-priori
    erasure applied to transmitted VNs, swept downward with warm starts."""
    graph = _edge_types(p)
    sent = [j for j in range(p.n_vars) if j not in p.punctured_cols]
    pas = np.linspace(1.0, 0.0, grid)
    pes = np.zeros(grid)
    v = None
    for i, pa in enumerate(pas):
        v, extrinsic, _ = _proto_fixed_point(graph, _priors(p, pa), v0=v)
        s = 0.0
        for j in sent:
            s += extrinsic[j]
        pes[i] = s / len(sent)
    return pas[::-1], pes[::-1]


def protograph_ml_bound(p: Protograph, grid: int = 2001):
    """Area-theorem bound for a protograph ensemble, rate over transmitted
    positions only."""
    pas, pes = protograph_exit_curve(p, grid)
    x = _area_crossing(pas, pes, p.design_rate)
    return (float(pas[0]), True) if x is None else (x, False)


# --- finite-length bounds ---------------------------------------------------

def _log_terms(n: int, eps: float, lo: int, hi: int) -> list:
    """log P(i of n positions erased) for i in range(lo, hi), with
    lgamma(i + 1) computed once per i."""
    if eps == 0.0:
        return [0.0 if i == 0 else -math.inf for i in range(lo, hi)]
    if eps == 1.0:
        return [0.0 if i == n else -math.inf for i in range(lo, hi)]
    lg = [math.lgamma(i + 1) for i in range(n + 1)]
    log_eps, log_keep = math.log(eps), math.log1p(-eps)
    return [lg[n] - lg[i] - lg[n - i] + i * log_eps + (n - i) * log_keep
            for i in range(lo, hi)]


def _logsumexp(terms) -> float:
    m = max(terms, default=-math.inf)
    if m == -math.inf:
        return m
    return m + math.log(sum(math.exp(t - m) for t in terms))


def _check_code_point(n: int, k: int, eps: float) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"want 0 <= k <= n, got n={n}, k={k}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")


def singleton_bound(n: int, k: int, eps: float) -> float:
    """CER of an ideal MDS code: failure iff more than n-k erasures."""
    _check_code_point(n, k, eps)
    terms = _log_terms(n, eps, n - k + 1, n + 1)
    return min(1.0, math.exp(_logsumexp(terms))) if terms else 0.0


def berlekamp_bound(n: int, k: int, eps: float) -> float:
    """Average CER upper bound for the random (n,k) ensemble: the MDS tail
    plus rank-deficiency terms weighted by 2^-(n-k-i)."""
    _check_code_point(n, k, eps)
    ln2 = math.log(2.0)
    terms = _log_terms(n, eps, 0, n + 1)
    for i in range(n - k + 1):
        terms[i] -= (n - k - i) * ln2
    return min(1.0, math.exp(_logsumexp(terms)))


def error_floor_estimate(tail: WeightSpectrumTail, eps: float) -> float:
    """Truncated union bound: A_min * eps^d_min."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    return tail.a_min * eps ** tail.d_min


def exhaustive_min_distance(code: LdpcCode, cap_k: int = 24) -> WeightSpectrumTail:
    """Exact d_min and multiplicity by enumerating all nonzero codewords in
    Gray-code order: step i flips message bit j, the number of trailing
    zeros of i, so the codeword changes by generator word j, the codeword of
    the unit message j."""
    if code.k > cap_k:
        raise ValueError(f"k = {code.k} exceeds enumeration cap {cap_k}")
    gen = [encode(code, BinVector(code.k, 1 << j)).bits for j in range(code.k)]
    best = code.n + 1
    mult = 0
    word = 0
    for i in range(1, 1 << code.k):
        word ^= gen[(i & -i).bit_length() - 1]
        w = word.bit_count()
        if w < best:
            best, mult = w, 1
        elif w == best:
            mult += 1
    return WeightSpectrumTail(best, mult)

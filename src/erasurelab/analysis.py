"""Ensemble analysis and performance bounds: density evolution, IT-decoder
EXIT curves, area-theorem ML-threshold upper bounds, protograph DE/EXIT,
Singleton and Berlekamp bounds, and the truncated-union error-floor estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .binmat import BinVector
from .ldpc import LdpcCode, Protograph, encode

_EXIT_GRID = 100001  # points of an ensemble's EXIT curve over [x_BP, 1]
_PROTO_EXIT_GRID = 2001  # a-priori erasures of a protograph's EXIT curve
_PROTO_THRESHOLD_TOL = 1e-4  # bisection width of a protograph's IT threshold
_PROTO_DE_CUTOFF = 1e-9  # posterior erasure below which protograph DE succeeds
_PROTO_DE_ITERS = 20000  # DE steps before a protograph fixed point gives up
_PROTO_DE_TOL = 1e-12  # largest message change at a protograph fixed point
_PROTO_DE_CHUNK = 32  # DE steps between failure certificates; divides _PROTO_DE_ITERS
_PROTO_DE_MARGIN = 1e-12  # how far a failure certificate's sub-solution lies below DE
_MINDIST_CAP_K = 24  # largest k whose 2^k codewords the minimum distance enumerates


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

    def node_lambda_eval(self, x):
        return sum(L * np.power(x, i + 1) for i, L in enumerate(self.node_lambda) if L)


@dataclass
class ExitCurve:
    p_a: np.ndarray
    p_e: np.ndarray
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


def _check_eps(eps: float) -> None:
    """Raise ValueError unless 0 <= eps <= 1, which NaN fails too."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")


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
    """The exact IT and ML threshold of an ensemble that the fixed-point
    formula of ``it_threshold`` does not give exactly, or None.

    A degree-1 variable node's message is its channel erasure for ever,
    while its bit is recovered once the other bits of its check are. With
    every check of degree 1 (H = I, the only such ensemble of rate >= 0)
    every bit is pinned: threshold 1. Otherwise such a check holds another
    erased bit with positive probability at every eps > 0, for the IT and
    the ML decoder alike: threshold 0. On the (2,2) cycle ensemble
    x / lam(1 - rho(1 - x)) is x / x, 1 for every x, but its float
    evaluation rounds to 0.9999999999999998 at some x: threshold 1."""
    vdeg = {i + 1 for i, lam in enumerate(dist.lam) if lam}
    cdeg = {j + 1 for j, rho in enumerate(dist.rho) if rho}
    if 1 in vdeg:
        return 1.0 if cdeg == {1} else 0.0
    if vdeg == cdeg == {2}:
        return 1.0
    return None


def _eps_of_x(dist: DegreeDistribution, x):
    """(eps, y): the channel erasure eps = x / lam(y) that makes x a fixed
    point of DE, where y = 1 - rho(1 - x). Each 1 - (1 - x)^j is taken as
    -expm1(j·log1p(-x)), as the plain form cancels at small x; degree-1
    checks add 0 (and 0·log1p(-1) would be nan), so y starts as zeros shaped
    like x. log1p(-1) = -inf at x = 1 and a lam(y) that underflows to 0
    (eps = inf) raise no warning."""
    with np.errstate(divide="ignore", over="ignore"):
        y = sum((r * -np.expm1(j * np.log1p(-x)) for j, r in enumerate(dist.rho) if r and j),
                np.zeros_like(x))
        return x / dist.lam_eval(y), y


@functools.lru_cache(maxsize=1)
def _bp_point(dist: DegreeDistribution):
    """(x_BP, eps_BP), the argmin and minimum of eps(x) over x in (0, 1]:
    DE converges at eps iff eps·lam(1 - rho(1 - x)) < x for all such x. The
    grid is log-spaced near 0, where the stability condition can set the
    minimum, then linear; golden-section search refines it. The smallest
    value seen wins, as eps(x) near 0 can be flat to within rounding. The
    last result is kept, so the IT threshold and the EXIT curve of one
    ensemble share one minimisation."""
    xs = np.concatenate([np.logspace(-12, -3, 2000), np.linspace(1e-3, 1.0, 20001)[1:]])
    eps = _eps_of_x(dist, xs)[0]
    i = int(np.argmin(eps))
    best = (float(eps[i]), float(xs[i]))
    a, b = (float(xs[i - 1]) if i else 0.0), float(xs[min(i + 1, len(xs) - 1)])

    def pa(x):
        return float(_eps_of_x(dist, x)[0])

    gr = (math.sqrt(5) - 1) / 2
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = pa(c), pa(d)
    for _ in range(200):
        best = min(best, (fc, c), (fd, d))
        if (fc <= fd and d == b) or (fc > fd and c == a):  # the bracket stops shrinking
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = pa(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = pa(d)
    return best[1], best[0]


def it_threshold(dist: DegreeDistribution) -> float:
    """Supremum erasure probability for which density evolution converges:
    the minimum of x / lam(1 - rho(1 - x)) over x in (0, 1]."""
    exact = _closed_form_threshold(dist)
    if exact is not None:
        return exact
    return _bp_point(dist)[1]


def exit_curve(dist: DegreeDistribution) -> ExitCurve:
    """IT-decoder EXIT curve in parametric form over x in [x_BP, 1], on the
    branch of largest fixed points: a point stays only if no larger x has a
    smaller p_a, so p_a never decreases along the curve."""
    x_bp, eps_bp = _bp_point(dist)
    p_a, y = _eps_of_x(dist, np.linspace(x_bp, 1.0, _EXIT_GRID))
    keep = p_a <= np.minimum.accumulate(p_a[::-1])[::-1]
    if not keep.all():
        p_a, y = p_a[keep], y[keep]
    return ExitCurve(p_a, dist.node_lambda_eval(y), eps_bp)


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


def ml_threshold_bound(dist: DegreeDistribution):
    """Area-theorem upper bound p_A* on the ML threshold: the abscissa where
    the area under the IT EXIT curve, from p_A* to 1, equals the rate.
    Returns (bound, degenerate); a degenerate bound is the IT threshold."""
    exact = _closed_form_threshold(dist)
    if exact is not None:
        return exact, True
    curve = exit_curve(dist)
    x = _area_crossing(curve.p_a, curve.p_e, dist.rate)
    return (curve.eps_bp, True) if x is None else (x, False)


def threshold_report(dist: DegreeDistribution) -> ThresholdReport:
    eps_it = it_threshold(dist)
    bound, degenerate = ml_threshold_bound(dist)
    return ThresholdReport(eps_it, bound, 1.0 - dist.rate, degenerate)


# --- protograph density evolution -------------------------------------------

def _edge_types(p: Protograph) -> tuple:
    """The base graph's edge types: (row, column, multiplicity) for each
    non-zero entry in row-major order."""
    return tuple((i, j, float(m)) for i, row in enumerate(p.base) for j, m in enumerate(row) if m)


@functools.lru_cache(maxsize=16)
def _de_kernel(edges: tuple, n_vars: int):
    """Per-edge-type erasure DE for one base graph, as straight-line code.

    Returns ``kernel(priors, v, iters, tol) -> (v, t, done)``, which iterates
    from the per-edge messages ``v`` until ``max |v_new - v| < tol`` (then
    ``done`` is true) or ``iters >= 1`` steps; ``t`` holds each column's log
    extrinsic erasure. Each message is a local variable, and the generated
    source holds only edge indices and ``repr(float(m))`` multiplicity
    literals. The products are accumulated in the log domain so
    zero-probability messages stay harmless. Every sum runs left to right,
    not through ``sum()``, which compensates on Python 3.12 and later, so
    the kernel gives the same values as the loop over the edge types that
    this code unrolls (``tests/conftest.py`` keeps that loop as the
    reference).
    """
    rows, cols = {}, [[] for _ in range(n_vars)]
    for e, (i, j, m) in enumerate(edges):
        rows.setdefault(i, []).append((e, m))
        cols[j].append((e, m))

    def total(target, terms, name):
        """Lines that sum ``m * name<e>`` over ``terms`` into ``target``,
        left to right, a few terms per line so that a dense row's expression
        stays shallow enough to compile. The loop's leading ``0.0 +`` and
        its ``1.0 *`` factors are left out: neither changes a value, as no
        term is -0.0 (log gives +0.0 at 1.0, LOG_TINY is negative and every
        multiplicity positive)."""
        parts = [f"{name}{e}" if m == 1.0 else f"{m!r} * {name}{e}" for e, m in terms]
        return [f"{target} = {' + '.join(([target] if k else []) + parts[k:k + 16])}"
                for k in range(0, len(parts), 16)]

    vs = ", ".join(f"v{e}" for e in range(len(edges))) + ","
    body = [f"{', '.join(f'p{j}' for j in range(n_vars))}, = priors",
            f"{vs} = v",
            f"{' = '.join(f't{j}' for j in range(n_vars))} = 0.0",
            "for _ in range(iters):"]
    # log(max(y, TINY)) and the clip to [0, 1] as conditionals: the same
    # values without a builtin call per edge
    loop = [f"lo{e} = log(1.0 - v{e}) if v{e} < 1.0 else LOG_TINY" for e in range(len(edges))]
    for row in rows.values():
        loop += total("s", row, "lo")
        loop += [f"c{e} = 1.0 - exp(s - lo{e})" for e, _ in row]
    loop += [f"lc{e} = log(c{e}) if c{e} > TINY else LOG_TINY" for e in range(len(edges))]
    for j, col in enumerate(cols):
        loop += total(f"t{j}", col, "lc")
        for e, _ in col:
            loop += [f"x = p{j} * exp(t{j} - lc{e})",
                     f"n{e} = x if 0.0 <= x <= 1.0 else (0.0 if x < 0.0 else 1.0)"]
    # max |n - v| < tol as a chain of comparisons, without a call per edge
    close = " and ".join(f"-tol < n{e} - v{e} < tol" for e in range(len(edges)))
    loop += [f"done = {close}",
             f"{vs} = {', '.join(f'n{e}' for e in range(len(edges)))},",
             "if done:", "    break"]
    body += ["    " + line for line in loop]
    body.append(f"return [{vs}], [{', '.join(f't{j}' for j in range(n_vars))}], done")
    src = "def kernel(priors, v, iters, tol):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {"log": math.log, "exp": math.exp, "TINY": 1e-300, "LOG_TINY": math.log(1e-300)}
    exec(compile(src, f"<protograph DE kernel, {len(edges)} edge types>", "exec"), namespace)
    return namespace["kernel"]


def _proto_fixed_point(edges, priors, v0=None):
    """Largest fixed point of per-edge-type erasure DE, reached from above.

    ``edges`` is ``_edge_types(p)`` and ``priors`` holds each base column's
    a-priori erasure probability. Returns (v, extrinsic, posterior): v per
    edge type, the other two per base column.
    """
    kernel = _de_kernel(edges, len(priors))
    v, t, _ = kernel(priors, [1.0] * len(edges) if v0 is None else v0,
                     _PROTO_DE_ITERS, _PROTO_DE_TOL)
    extrinsic = [math.exp(s) for s in t]
    return v, extrinsic, [prior * x for prior, x in zip(priors, extrinsic)]


def _priors(p: Protograph, eps: float):
    """Per base column a-priori erasure: eps, or 1 for punctured columns."""
    return [1.0 if j in p.punctured_cols else float(eps) for j in range(p.n_vars)]


def _certifies_failure(kernel, priors, a, b, v) -> bool:
    """Whether DE whose last three messages are a, b, v provably fails (see
    ``protograph_de``), at w = v less twice the tail ρ/(1-ρ)·(b - v), less μ."""
    rho = max(((y - z) / (x - y) for x, y, z in zip(a, b, v) if x > y), default=1.0)
    if not 0.0 <= rho < 1.0:
        return False
    k = 2.0 * rho / (1.0 - rho)
    w = [max(0.0, z - k * (y - z) - _PROTO_DE_MARGIN) for y, z in zip(b, v)]
    fw, t, _ = kernel(priors, w, 1, _PROTO_DE_TOL)
    return (all(x == 0.0 or y - x >= 0.5 * _PROTO_DE_MARGIN for x, y in zip(w, fw))
            and any(prior * math.exp(s) > 1e3 * _PROTO_DE_CUTOFF for prior, s in zip(priors, t)))


def protograph_de(p: Protograph, eps: float) -> bool:
    """Whether per-edge-type DE at channel erasure eps drives every variable
    node's posterior erasure probability to zero (punctured nodes use prior 1).

    DE runs from all-ones to the tolerance or the step cap in chunks of
    ``_PROTO_DE_CHUNK`` steps, and ends as one unbroken run would, unless a
    chunk ends in a failure certificate: a w >= 0 whose kernel step gives
    f(w) >= w + μ/2 wherever w > 0 and a posterior above 1e3 times the
    cutoff. As f is monotone and f(1) <= 1, every message from all-ones
    stays >= w, so with t monotone too, the run would end with a posterior
    above the cutoff. μ = 1e-12 is far above the kernel's rounding (1e-16)."""
    _check_eps(eps)
    edges, priors = _edge_types(p), _priors(p, eps)
    kernel = _de_kernel(edges, len(priors))
    v = [1.0] * len(edges)
    for _ in range(_PROTO_DE_ITERS // _PROTO_DE_CHUNK):
        trail = []  # the chunk's last three messages
        for iters in (_PROTO_DE_CHUNK - 2, 1, 1):
            v, t, done = kernel(priors, v, iters, _PROTO_DE_TOL)
            trail.append(v)
            if done:
                break
        if done:
            break
        if _certifies_failure(kernel, priors, *trail):
            return False
    return all(prior * math.exp(s) < _PROTO_DE_CUTOFF for prior, s in zip(priors, t))


def protograph_it_threshold(p: Protograph) -> float:
    """``protograph_de`` bisected over [0, 1] to within 1e-4: the midpoint
    of the last bracket, a dyadic rational."""
    return _bisect(lambda eps: protograph_de(p, eps), _PROTO_THRESHOLD_TOL)


def _exit_sweep(p: Protograph):
    """Yield (p_A, p_E) down the grid from p_A = 1 to 0: p_E is the average
    extrinsic erasure over transmitted VNs at a-priori erasure p_A on them,
    each fixed point warm-started from the one before."""
    edges = _edge_types(p)
    sent = [j for j in range(p.n_vars) if j not in p.punctured_cols]
    v = None
    for pa in np.linspace(1.0, 0.0, _PROTO_EXIT_GRID):
        v, extrinsic, _ = _proto_fixed_point(edges, _priors(p, pa), v0=v)
        s = 0.0
        for j in sent:
            s += extrinsic[j]
        yield pa, s / len(sent)


def protograph_ml_bound(p: Protograph):
    """Area-theorem bound for a protograph ensemble, rate over transmitted
    positions only. The sweep stops once the area from p_A = 1 down exceeds
    the rate: the points below cannot move the crossing, as the area is
    summed from the top in the order of ``_area_crossing``'s cumsum, so the
    crossing over the points swept gives the same values as over the whole
    curve."""
    r = p.design_rate
    pas, pes, area = [], [], 0.0
    for pa, pe in _exit_sweep(p):
        if pas:
            area += 0.5 * (pes[-1] + pe) * (pas[-1] - pa)
        pas.append(pa)
        pes.append(pe)
        if area > r:
            break
    x = _area_crossing(np.array(pas[::-1]), np.array(pes[::-1]), r)
    return (float(pas[-1]), True) if x is None else (x, False)


# --- finite-length bounds ---------------------------------------------------

@functools.lru_cache(maxsize=8)
def _lgamma_table(n: int) -> np.ndarray:
    """lgamma(i + 1) = log(i!) for i in 0..n, built once per n: a bound grid
    asks for the same n at every eps."""
    table = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    table.flags.writeable = False
    return table


def _log_terms(n: int, eps: float, lo: int, hi: int) -> list:
    """log P(i of n positions erased) for i in range(lo, hi). The array
    expression does the scalar formula's float operations in its order, one
    ufunc each, so every term is the value the scalar formula gives."""
    if eps == 0.0:
        return [0.0 if i == 0 else -math.inf for i in range(lo, hi)]
    if eps == 1.0:
        return [0.0 if i == n else -math.inf for i in range(lo, hi)]
    lg = _lgamma_table(n)
    log_eps, log_keep = math.log(eps), math.log1p(-eps)
    i = np.arange(lo, hi)
    return (lg[n] - lg[i] - lg[n - i] + i * log_eps + (n - i) * log_keep).tolist()


def _logsumexp(terms) -> float:
    m = max(terms, default=-math.inf)
    if m == -math.inf:
        return m
    return m + math.log(sum(math.exp(t - m) for t in terms))


def _check_code_point(n: int, k: int, eps: float) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"want 0 <= k <= n, got n={n}, k={k}")
    _check_eps(eps)


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
    _check_eps(eps)
    return tail.a_min * eps ** tail.d_min


def exhaustive_min_distance(code: LdpcCode) -> WeightSpectrumTail:
    """Exact d_min and multiplicity by enumerating all nonzero codewords in
    Gray-code order: step i flips message bit j, the number of trailing
    zeros of i, so the codeword changes by generator word j, the codeword of
    the unit message j. Weights count transmitted positions only: punctured
    ones are never sent, so they are always erased."""
    if code.k == 0:
        raise ValueError("k = 0: the code has no nonzero codeword, so no minimum distance")
    if code.k > _MINDIST_CAP_K:
        raise ValueError(f"k = {code.k} exceeds enumeration cap {_MINDIST_CAP_K}")
    sent = BinVector.from_bits(~code.punctured_mask).bits
    gen = [encode(code, BinVector(code.k, 1 << j)).bits & sent for j in range(code.k)]
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

"""Fixed-rate systematic Raptor codec: LDPC + Gray-sequence half-symbol
pre-code, LT layer with a pluggable deterministic tuple generator, encoding
matrix assembly, systematic transform, and ML decoding from any ESI subset.

The exact MBMS tuple generators and degree tables are deliberately not
reproduced; the defaults below (truncated robust-soliton degrees, splitmix
ESI streams) are documented, seed-driven stand-ins with the same structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .binmat import (
    BinVector,
    DenseBinMatrix,
    SparseBinMatrix,
    invert,
    mul_vec,
    rank,
)
from . import decode as _decode
from .decode import DecodeStats

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _Stream:
    """Deterministic splitmix64 stream keyed by (seed, tag)."""

    __slots__ = ("state",)

    def __init__(self, seed: int, tag: int):
        self.state = _mix64(_mix64(seed & _MASK64) ^ ((tag * 0x9E3779B97F4A7C15) & _MASK64))

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        return _mix64(self.state)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, n: int) -> int:
        # rejection sampling keeps the draw unbiased
        lim = _MASK64 - (_MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= lim:
                return u % n


class DecodingError(ValueError):
    pass


@dataclass(frozen=True)
class RaptorParams:
    k: int
    s: int
    h: int
    n: int
    seed: int = 0  # drives the LDPC pre-code column placement
    lt_seed: int = 0  # systematic seed driving the LT tuple generator

    def __post_init__(self):
        if self.k < 4:
            raise ValueError("k must be >= 4")
        if self.n < self.k:
            raise ValueError("n must be >= k")
        if math.comb(self.h, self.h_prime) < self.k + self.s:
            raise ValueError("Gray columns would not be distinct: C(h, h') < k+s")

    @property
    def h_prime(self) -> int:
        return (self.h + 1) // 2

    @property
    def L(self) -> int:
        return self.k + self.s + self.h


@dataclass(frozen=True)
class LtTuple:
    esi: int
    degree: int
    indices: tuple

    def __post_init__(self):
        if len(self.indices) != self.degree:
            raise ValueError("|indices| must equal the degree")


def _smallest_prime_at_least(x: int) -> int:
    def is_prime(p):
        if p < 2:
            return False
        f = 2
        while f * f <= p:
            if p % f == 0:
                return False
            f += 1
        return True

    p = max(2, x)
    while not is_prime(p):
        p += 1
    return p


def derive_params(k: int, n: int = None, seed: int = 0, lt_seed: int = 0) -> RaptorParams:
    """Pre-code sizes as functions of k: X(X-1) >= 2k, s the smallest prime
    >= ceil(k/100) + X, h the smallest count with C(h, ceil(h/2)) >= k+s."""
    if k < 4:
        raise ValueError("k must be >= 4")
    x = 1
    while x * (x - 1) < 2 * k:
        x += 1
    s = _smallest_prime_at_least(math.ceil(0.01 * k) + x)
    h = 1
    while math.comb(h, (h + 1) // 2) < k + s:
        h += 1
    if n is None:
        n = 2 * k
    return RaptorParams(k, s, h, n, seed=seed, lt_seed=lt_seed)


def gray_half_columns(h: int, count: int) -> list:
    """First `count` members of weight ceil(h/2) in the reflected-Gray
    enumeration g(b) = b XOR (b >> 1); returned as h-bit integers."""
    hp = (h + 1) // 2
    if count > math.comb(h, hp):
        raise ValueError(f"only {math.comb(h, hp)} weight-{hp} columns exist")
    out = []
    b = 0
    while len(out) < count:
        g = b ^ (b >> 1)
        if g < (1 << h) and g.bit_count() == hp:
            out.append(g)
        b += 1
        if b > 1 << (h + 2):
            raise AssertionError("Gray enumeration exhausted prematurely")
    return out


@lru_cache(maxsize=32)
def _robust_soliton_cdf(L: int, c: float = 0.1, delta: float = 0.5) -> tuple:
    """Truncated robust-soliton degree distribution over [1, L]."""
    rho = [0.0] * (L + 1)
    rho[1] = 1.0 / L
    for d in range(2, L + 1):
        rho[d] = 1.0 / (d * (d - 1))
    tau = [0.0] * (L + 1)
    s = c * math.log(L / delta) * math.sqrt(L)
    pivot = max(1, min(L, int(round(L / s))))
    for d in range(1, pivot):
        tau[d] = s / (d * L)
    tau[pivot] = s * math.log(s / delta) / L
    total = sum(rho) + sum(tau)
    cdf = []
    acc = 0.0
    for d in range(1, L + 1):
        acc += (rho[d] + tau[d]) / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return tuple(cdf)


def lt_tuple(esi: int, params: RaptorParams) -> LtTuple:
    """Deterministic (degree, index-set) tuple for one ESI."""
    if esi < 1:
        raise ValueError("ESIs are 1-based")
    L = params.L
    st = _Stream(params.lt_seed, esi)
    cdf = _robust_soliton_cdf(L)
    u = st.next_float()
    d = 1
    while cdf[d - 1] < u:
        d += 1
    if d <= L // 8:
        chosen = []
        seen = set()
        while len(chosen) < d:
            i = st.randbelow(L)
            if i not in seen:
                seen.add(i)
                chosen.append(i)
    else:
        pool = list(range(L))
        for i in range(d):
            j = i + st.randbelow(L - i)
            pool[i], pool[j] = pool[j], pool[i]
        chosen = pool[:d]
    return LtTuple(esi, d, tuple(sorted(chosen)))


def _g_ldpc(params: RaptorParams) -> DenseBinMatrix:
    """s x k pre-code generator: distinct weight-3 columns, seeded placement."""
    st = _Stream(params.seed, 0xC0DE)
    cols = []
    seen = set()
    for _ in range(params.k):
        for _ in range(10000):
            rows = set()
            while len(rows) < 3:
                rows.add(st.randbelow(params.s))
            key = frozenset(rows)
            if key not in seen or len(seen) >= math.comb(params.s, 3):
                seen.add(key)
                cols.append(sorted(rows))
                break
        else:
            raise AssertionError("could not place a distinct weight-3 column")
    m = DenseBinMatrix.zeros(params.s, params.k)
    for j, rows in enumerate(cols):
        for r in rows:
            m.set(r, j, 1)
    return m


def _g_h(params: RaptorParams) -> DenseBinMatrix:
    """h x (k+s) half-symbol generator from the Gray sequence."""
    cols = gray_half_columns(params.h, params.k + params.s)
    m = DenseBinMatrix.zeros(params.h, params.k + params.s)
    for j, g in enumerate(cols):
        for r in range(params.h):
            if (g >> r) & 1:
                m.set(r, j, 1)
    return m


def _precode_rows(params: RaptorParams, gl: DenseBinMatrix, gh: DenseBinMatrix) -> list:
    """The s+h pre-code constraint rows of the encoding matrix, as L-bit words:
    [G_LDPC | I_s | Z] on top of [G_H | I_h]."""
    k, s, h = params.k, params.s, params.h
    rows = []
    for r in range(s):
        rows.append(gl.row_words[r] | (1 << (k + r)))
    for r in range(h):
        rows.append(gh.row_words[r] | (1 << (k + s + r)))
    return rows


def _lt_row(params: RaptorParams, esi: int) -> int:
    w = 0
    for i in lt_tuple(esi, params).indices:
        w |= 1 << i
    return w


def build_A(params: RaptorParams, esis, gl=None, gh=None) -> DenseBinMatrix:
    """Encoding-matrix submatrix A(esis): pre-code constraints stacked over
    the selected LT rows; shape (s+h+r) x L."""
    gl = gl if gl is not None else _g_ldpc(params)
    gh = gh if gh is not None else _g_h(params)
    rows = _precode_rows(params, gl, gh)
    for esi in esis:
        rows.append(_lt_row(params, esi))
    return DenseBinMatrix(len(rows), params.L, rows)


def precode(d: BinVector, params: RaptorParams, gl=None, gh=None) -> BinVector:
    """Intermediate symbols F = [D; D_s; D_h] from the pre-code relations."""
    if len(d) != params.k:
        raise ValueError(f"message length {len(d)} != k = {params.k}")
    gl = gl if gl is not None else _g_ldpc(params)
    gh = gh if gh is not None else _g_h(params)
    ds = mul_vec(gl, d)
    dh = mul_vec(gh, BinVector(params.k + params.s, d.bits | (ds.bits << params.k)))
    bits = d.bits | (ds.bits << params.k) | (dh.bits << (params.k + params.s))
    return BinVector(params.L, bits)


def find_systematic_seed(k: int, n: int, seed: int = 0, cap: int = 10000) -> int:
    """Smallest LT seed making A(1..k) full rank L."""
    for lt_seed in range(cap):
        params = derive_params(k, n, seed=seed, lt_seed=lt_seed)
        a_k = build_A(params, range(1, k + 1))
        if rank(a_k) == params.L:
            return lt_seed
    raise DecodingError(f"no systematic seed found within {cap} attempts")


class RaptorCode:
    """A fully assembled fixed-rate systematic Raptor code."""

    def __init__(self, params: RaptorParams):
        self.params = params
        self.gl = _g_ldpc(params)
        self.gh = _g_h(params)
        self.a_k = build_A(params, range(1, params.k + 1), self.gl, self.gh)
        self.a_k_inv = invert(self.a_k)
        self.lt_cols = [lt_tuple(esi, params).indices for esi in range(1, params.n + 1)]
        self.lt_rows = [sum(1 << i for i in cols) for cols in self.lt_cols]
        # the pre-code rows that head every received system
        self.precode_rows = _precode_rows(params, self.gl, self.gh)
        self.precode_sparse = SparseBinMatrix.from_dense(
            DenseBinMatrix(len(self.precode_rows), params.L, self.precode_rows))

    @classmethod
    def build(cls, k: int, n: int, seed: int = 0) -> "RaptorCode":
        lt_seed = find_systematic_seed(k, n, seed=seed)
        return cls(derive_params(k, n, seed=seed, lt_seed=lt_seed))

    # -- encoding ------------------------------------------------------------

    def systematic_transform(self, c: BinVector) -> BinVector:
        """Solve A(1..k) F = [0; C] for the intermediate symbols."""
        if len(c) != self.params.k:
            raise ValueError("wrong message length")
        rhs = BinVector(self.a_k.rows, c.bits << (self.params.s + self.params.h))
        return mul_vec(self.a_k_inv, rhs)

    def encode(self, c: BinVector) -> BinVector:
        f = self.systematic_transform(c)
        bits = 0
        for i, w in enumerate(self.lt_rows):
            if (w & f.bits).bit_count() & 1:
                bits |= 1 << i
        return BinVector(self.params.n, bits)

    def precode(self, d: BinVector) -> BinVector:
        return precode(d, self.params, self.gl, self.gh)

    # -- decoding ------------------------------------------------------------

    def _recover_c(self, f: BinVector) -> BinVector:
        bits = 0
        for i in range(self.params.k):
            if (self.lt_rows[i] & f.bits).bit_count() & 1:
                bits |= 1 << i
        return BinVector(self.params.k, bits)

    def _received_rhs(self, received) -> BinVector:
        """Check the ESIs; return the right-hand side [0; E] of A(i1..ir) F."""
        esis = [e for e, _ in received]
        if len(set(esis)) != len(esis):
            raise ValueError("duplicate ESIs")
        rhs_bits = 0
        base = self.params.s + self.params.h
        for i, (esi, sym) in enumerate(received):
            if not 1 <= esi <= self.params.n:
                raise ValueError(f"ESI {esi} outside 1..{self.params.n}")
            if sym:
                rhs_bits |= 1 << (base + i)
        return BinVector(base + len(received), rhs_bits)

    def _structured_system(self, received):
        """A(i1..ir) as a sparse matrix over the cached adjacency lists, and
        its right-hand side."""
        rhs = self._received_rhs(received)
        pre = self.precode_sparse
        row_adj = pre.row_adj + [self.lt_cols[esi - 1] for esi, _ in received]
        col_adj = [rs[:] for rs in pre.col_adj]
        for r in range(pre.rows, len(row_adj)):
            for c in row_adj[r]:
                col_adj[c].append(r)
        return SparseBinMatrix._raw(len(row_adj), self.params.L, row_adj, col_adj), rhs

    def decode(self, received) -> "RaptorDecodeResult":
        """Dense-GE ML decoding of A(i1..ir) F = [0; E]."""
        rhs = self._received_rhs(received)
        stats = DecodeStats(system_shape=(rhs.n, self.params.L))
        if len(received) < self.params.k:
            return RaptorDecodeResult("insufficient", stats=stats)
        rows = self.precode_rows + [self.lt_rows[esi - 1] for esi, _ in received]
        f, ge_rank = _decode.solve_pivots(DenseBinMatrix(len(rows), self.params.L, rows), rhs)
        if f is None:
            return RaptorDecodeResult("rank_deficient", rank=ge_rank, stats=stats)
        return RaptorDecodeResult("success", c=self._recover_c(f), f=f, stats=stats)

    def decode_structured(self, received) -> "RaptorDecodeResult":
        """Inactivation decoding: triangularize A(i1..ir) and solve it with the
        same stages as the LDPC ML decoder; dense GE only on the pivot system."""
        system, rhs = self._structured_system(received)
        shape = (system.rows, system.cols)
        if len(received) < self.params.k:
            return RaptorDecodeResult("insufficient", stats=DecodeStats(system_shape=shape))
        state = _decode.triangularize(system, rhs)
        ge_rank = _decode.solve_inactivated(state)
        stats = DecodeStats(len(state.resolved), len(state.pivots), shape)
        if ge_rank is not None:
            return RaptorDecodeResult("rank_deficient", rank=ge_rank, stats=stats)
        f = BinVector(self.params.L, _decode._filled(0, state))
        return RaptorDecodeResult("success", c=self._recover_c(f), f=f, stats=stats)


@dataclass
class RaptorDecodeResult:
    status: str  # 'success' | 'rank_deficient' | 'insufficient'
    c: BinVector = None
    f: BinVector = None
    rank: int = None
    stats: DecodeStats = field(default_factory=DecodeStats)

    @property
    def ok(self) -> bool:
        return self.status == "success"

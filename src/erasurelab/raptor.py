"""Fixed-rate systematic Raptor codec: LDPC + Gray-sequence half-symbol
pre-code, LT layer with a deterministic tuple generator, encoding
matrix assembly, systematic encoding by the parity-mask encoder of the LDPC
codes, and ML decoding from any ESI subset, received as a
``decode.ReceivedWord`` whose position i holds ESI i+1.

LT degrees follow the standard degree table of RFC 5053 §5.4.4.2. The
positions of each tuple's indices are a seed-driven stand-in: RFC 5053's own
tuple generator needs its V0/V1 tables, which this package does not hold, so
a splitmix64 stream keyed by (lt_seed, ESI) draws them instead.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from operator import xor

import numpy as np

from .binmat import (
    BinVector,
    ChunkTables,
    DenseBinMatrix,
    SparseBinMatrix,
    _eliminate_back,
    _eliminate_forward,
)
# nothing here calls ``rank``; the benchmark's tracer patches ``raptor.rank``
# by name, so the name stays bound, and its ``raptor.seed_attempts`` reads 0
# (ROADMAP item 17a)
from .binmat import rank  # noqa: F401
from . import decode as _decode
from .decode import DecodeResult, DecodeStats, ReceivedWord
from .ldpc import _GenericEncoder

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

    def randbelow(self, n: int) -> int:
        # rejection sampling keeps the draw unbiased
        lim = _MASK64 - (_MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= lim:
                return u % n


class NotSystematicError(ValueError):
    """The LT seed leaves A(1..k) singular, so the code cannot carry the
    message in ESIs 1..k."""


def _smallest_prime_at_least(x: int) -> int:
    p = max(2, x)
    while any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


@dataclass(frozen=True)
class RaptorParams:
    """The sizes of a Raptor code of k message bits and n output symbols.
    The pre-code sizes follow from k: X(X-1) >= 2k, s the smallest prime
    >= ceil(k/100) + X, h the smallest count with C(h, ceil(h/2)) >= k+s,
    so the k+s Gray columns of weight ceil(h/2) are distinct."""

    k: int
    n: int
    seed: int = 0  # drives the LDPC pre-code column placement
    lt_seed: int = 0  # systematic seed driving the LT tuple generator
    s: int = field(init=False)
    h: int = field(init=False)

    def __post_init__(self):
        if self.k < 4:
            raise ValueError("k must be >= 4")
        if self.n < self.k:
            raise ValueError("n must be >= k")
        x = 1
        while x * (x - 1) < 2 * self.k:
            x += 1
        s = _smallest_prime_at_least(math.ceil(0.01 * self.k) + x)
        h = 1
        while math.comb(h, (h + 1) // 2) < self.k + s:
            h += 1
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "h", h)

    @property
    def L(self) -> int:
        return self.k + self.s + self.h


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
        if g.bit_count() == hp:
            out.append(g)
        b += 1
    return out


# RFC 5053 §5.4.4.2: v in [0, 2^20) picks degree _DEGREES[j] for the j with
# _DEGREE_BOUNDS[j] <= v < _DEGREE_BOUNDS[j+1]
_DEGREE_BOUNDS = (0, 10241, 491582, 712794, 831695, 948446, 1032189, 1048576)
_DEGREES = (1, 2, 3, 4, 10, 11, 40)


def lt_tuple(esi: int, params: RaptorParams) -> tuple:
    """The deterministic LT tuple of one ESI: its sorted intermediate-symbol
    indices, as many as its degree. The degree is RFC 5053's, read off the
    low 20 bits of the ESI stream's first draw and capped at L; the indices
    are the stream's next distinct draws below L."""
    if esi < 1:
        raise ValueError("ESIs are 1-based")
    L = params.L
    st = _Stream(params.lt_seed, esi)
    v = st.next_u64() & 0xFFFFF
    d = min(_DEGREES[bisect_right(_DEGREE_BOUNDS, v) - 1], L)
    chosen = set()
    while len(chosen) < d:
        chosen.add(st.randbelow(L))
    return tuple(sorted(chosen))


def _precode_rows(params: RaptorParams) -> list:
    """The s+h pre-code constraint rows of the encoding matrix, as L-bit words:
    [G_LDPC | I_s | Z] on top of [G_H | I_h]. G_LDPC (s x k) has distinct
    weight-3 columns at seeded rows; the columns of G_H (h x (k+s)) are the
    Gray half-weight words."""
    k, s, h = params.k, params.s, params.h
    rows = [1 << (k + r) for r in range(s + h)]
    st = _Stream(params.seed, 0xC0DE)
    seen = set()
    for j in range(k):
        # k < C(s, 3) for every k, so an unused weight-3 pattern always exists
        while True:
            picked = set()
            while len(picked) < 3:
                picked.add(st.randbelow(s))
            key = frozenset(picked)
            if key not in seen:
                seen.add(key)
                break
        for r in picked:
            rows[r] |= 1 << j
    for j, g in enumerate(gray_half_columns(h, k + s)):
        for r in range(h):
            if g >> r & 1:
                rows[s + r] |= 1 << j
    return rows


class RaptorCode:
    """A fully assembled fixed-rate systematic Raptor code."""

    def __init__(self, params: RaptorParams, precode_rows=None):
        """Assemble the code, testing its seed on the way: the LT tuples of
        ESIs 1..k are drawn first, and if A(1..k) is singular nothing more is
        drawn and ``NotSystematicError`` is raised. ``precode_rows``, when
        given, are ``_precode_rows(params)``, which do not depend on the LT
        seed, so a seed search draws them once."""
        self.params = p = params
        # the pre-code rows that head every received system
        self.precode_rows = _precode_rows(p) if precode_rows is None else precode_rows
        self.lt_cols = [lt_tuple(esi, p) for esi in range(1, p.k + 1)]
        # Gauss-Jordan on A(1..k) against [0; I_k] leaves row i holding
        # intermediate symbol F_i of A(1..k) F = [0; C] as a mask over the
        # message bits; a seed that is not systematic shows as fewer than L
        # pivots already in the forward phase
        aug = self.precode_rows + [sum(1 << i for i in cols) | 1 << (p.L + j)
                                   for j, cols in enumerate(self.lt_cols)]
        pivots, blocks = _eliminate_forward(aug, p.L)
        if len(pivots) < p.L:
            raise NotSystematicError(f"lt_seed {p.lt_seed} is not systematic: A(1..k) is singular")
        _eliminate_back(aug, blocks)
        self.lt_cols += [lt_tuple(esi, p) for esi in range(p.k + 1, p.n + 1)]
        self.lt_rows = [sum(1 << i for i in cols) for cols in self.lt_cols]
        # each ESI past k (1..k are the message) as a mask over the message
        # bits: the XOR of the masks f of the symbols in its LT tuple
        f = [w >> p.L for w in aug]
        self.encoder = _GenericEncoder(
            range(p.k), [reduce(xor, [f[i] for i in cols], 0) for cols in self.lt_cols[p.k :]])
        self.precode_sparse = SparseBinMatrix.from_dense(
            DenseBinMatrix(len(self.precode_rows), p.L, self.precode_rows))
        # what the channel draw reads, as on an LdpcCode: every position is sent
        self.k, self.n, self.n_transmitted = p.k, p.n, p.n

    @classmethod
    def build(cls, k: int, n: int, seed: int = 0) -> "RaptorCode":
        """The code of the smallest systematic LT seed, counting up from 0."""
        params = RaptorParams(k, n, seed=seed)
        precode_rows = _precode_rows(params)
        for lt_seed in range(10000):
            try:
                return cls(replace(params, lt_seed=lt_seed), precode_rows)
            except NotSystematicError:
                pass
        raise NotSystematicError("no systematic seed found within 10000 attempts")

    # -- encoding ------------------------------------------------------------

    def encode(self, c: BinVector) -> BinVector:
        """The codeword of message ``c``, whose first k positions carry it."""
        if len(c) != self.params.k:
            raise ValueError(f"message length {len(c)} != k = {self.params.k}")
        return self.encoder.encode(c)

    # -- decoding ------------------------------------------------------------

    @cached_property
    def source_rows(self) -> ChunkTables:
        """The LT rows of ESIs 1..k, which give the message from F; built on
        the first successful decode."""
        return ChunkTables(self.lt_rows[: self.params.k], self.params.L)

    def _recover_c(self, f: BinVector) -> BinVector:
        """The message: ESIs 1..k of the intermediate symbols ``f``."""
        return BinVector(self.params.k, self.source_rows.apply(f.bits))

    def _received(self, word: ReceivedWord):
        """The received positions of ``word`` (its ESIs less one), increasing,
        and the right-hand side [0; E] of A(i1..ir) F."""
        n, base = self.params.n, self.params.s + self.params.h
        if word.n != n:
            raise ValueError(f"word length {word.n} != n = {n}")
        got = ~word.erased_mask
        syms = BinVector.from_bits(word.values.unpacked()[got])
        return np.flatnonzero(got).tolist(), BinVector(base + syms.n, syms.bits << base)

    def _structured_system(self, word: ReceivedWord):
        """A(i1..ir) as a sparse matrix over the cached adjacency lists, and
        its right-hand side."""
        received, rhs = self._received(word)
        pre = self.precode_sparse
        row_adj = pre.row_adj + [self.lt_cols[i] for i in received]
        col_adj = [rs[:] for rs in pre.col_adj]
        for r in range(pre.rows, len(row_adj)):
            for c in row_adj[r]:
                col_adj[c].append(r)
        return SparseBinMatrix._raw(row_adj, col_adj), rhs

    def decode(self, word: ReceivedWord) -> DecodeResult:
        """Dense-GE ML decoding of A(i1..ir) F = [0; E]."""
        received, rhs = self._received(word)
        rows = self.precode_rows + [self.lt_rows[i] for i in received]
        f, ge_rank = _decode.solve_pivots(DenseBinMatrix(len(rows), self.params.L, rows), rhs)
        return self._result(f, ge_rank, DecodeStats(system_shape=(rhs.n, self.params.L)))

    def decode_structured(self, word: ReceivedWord) -> DecodeResult:
        """Inactivation decoding: triangularize A(i1..ir) and solve it with the
        same stages as the LDPC ML decoder; dense GE only on the pivot system."""
        system, rhs = self._structured_system(word)
        state = _decode.triangularize(system, rhs, _decode.min_row_pivot)
        ge_rank = _decode.solve_inactivated(state)
        stats = DecodeStats(len(state.resolved), len(state.pivots), (system.rows, system.cols))
        f = None if ge_rank is not None else BinVector.from_bits(_decode._values(state))
        return self._result(f, ge_rank, stats)

    def _result(self, f, ge_rank: int, stats: DecodeStats) -> DecodeResult:
        """Success with the message of intermediate symbols ``f``, or, when
        ``f`` is None, rank deficiency at ``ge_rank``. Fewer than k received
        symbols always leave the system rank deficient."""
        if f is None:
            return DecodeResult("rank_deficient", rank=ge_rank, stats=stats)
        return DecodeResult("success", c=self._recover_c(f), stats=stats)

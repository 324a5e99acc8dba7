"""LDPC code constructions and encoders: regular ensemble sampling, GeIRA
repeat-accumulate codes, protograph lifting with puncturing, and
rate-compatible puncturing of parity bits."""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .binmat import (
    BinVector,
    ChunkTables,
    SparseBinMatrix,
    _gauss_jordan,
    dense_from_text,
    dense_to_text,
)


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class GeiraSpec:
    k: int
    n: int
    taps: frozenset  # feedback polynomial exponents, e.g. {0,1,4,10,20}
    wc: int  # column weight of the information part
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "taps", frozenset(self.taps))
        if self.k < 1 or self.n <= self.k:
            raise ConstructionError(f"GeIRA needs k >= 1 and n > k, "
                                    f"got k = {self.k}, n = {self.n}")
        m = self.n - self.k
        if 0 not in self.taps:
            raise ConstructionError("tap set must contain 0")
        if max(self.taps) >= m:
            raise ConstructionError(f"tap {max(self.taps)} exceeds n-k-1 = {m - 1}")
        if self.wc < 2:
            raise ConstructionError("column weight must be >= 2")
        if self.wc >= m:
            raise ConstructionError(f"column weight wc = {self.wc} must be below n-k = {m}")


def _integer(x, must: str) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise ConstructionError(f"{must}, got {x!r}") from None


@dataclass(frozen=True)
class Protograph:
    base: tuple  # tuple of row tuples; entries are edge multiplicities
    punctured_cols: frozenset = frozenset()
    lift: int = 1

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(
            tuple(_integer(e, "base entries must be integers") for e in row) for row in self.base))
        object.__setattr__(self, "punctured_cols", frozenset(
            _integer(j, "punctured columns must be integers") for j in self.punctured_cols))
        object.__setattr__(self, "lift", _integer(self.lift, "lift must be an integer"))
        if self.lift < 1:
            raise ConstructionError(f"lift must be >= 1, got {self.lift}")
        if not self.base or not self.base[0]:
            raise ConstructionError("base matrix must have at least one row and one column")
        if any(len(row) != self.n_vars for row in self.base):
            raise ConstructionError("base matrix rows must all have the same length")
        if any(e < 0 for row in self.base for e in row):
            raise ConstructionError("base matrix entries must be >= 0")
        empty = [j for j in range(self.n_vars) if not any(row[j] for row in self.base)]
        if empty:
            raise ConstructionError(f"base column {empty[0]} has no edge")
        outside = sorted(j for j in self.punctured_cols if not 0 <= j < self.n_vars)
        if outside:
            raise ConstructionError(
                f"punctured column {outside[0]} outside the {self.n_vars} base columns")
        if self.n_transmitted_base <= 0 or not (0 <= self.design_rate < 1):
            raise ConstructionError("design rate must lie in [0,1)")

    @property
    def n_checks(self):
        return len(self.base)

    @property
    def n_vars(self):
        return len(self.base[0])

    @property
    def n_transmitted_base(self):
        return self.n_vars - len(self.punctured_cols)

    @property
    def design_rate(self):
        return (self.n_vars - self.n_checks) / self.n_transmitted_base


class _GenericEncoder:
    """Solves H·c = 0 for the pivot positions given the info positions: the
    pivot positions are the other positions of the n = k + len(pmap), in
    increasing order, and the bit at the i-th of them is the parity of
    ``u & pmap[i]``. The masks come from the reduced row echelon form of H,
    for GeIRA from the accumulator, and for a Raptor code from A(1..k)
    (``RaptorCode.__init__``). Encoding is one chunk-table product with
    the generator."""

    def __init__(self, info_positions, pmap):
        self.info_positions = info_positions
        self.pmap = pmap  # per pivot, mask over info bits (in info order)
        self.n = len(info_positions) + len(pmap)

    @cached_property
    def generator(self) -> ChunkTables:
        """Per position, the mask over the info bits that gives its bit (a
        single bit at an info position), as chunk tables; built on the first
        encode, so a code that is never encoded does not pay for them."""
        rows = [None] * self.n
        for i, pos in enumerate(self.info_positions):
            rows[pos] = 1 << i
        masks = iter(self.pmap)
        return ChunkTables([next(masks) if w is None else w for w in rows],
                           len(self.info_positions))

    def encode(self, u: BinVector) -> BinVector:
        return BinVector(self.n, self.generator.apply(u.bits))


@dataclass
class LdpcCode:
    h: SparseBinMatrix
    encoder: _GenericEncoder
    punctured: frozenset = frozenset()
    meta: dict = field(default_factory=dict)
    n: int = field(init=False)  # H's column count
    k: int = field(init=False)  # the encoder's count of info positions

    def __post_init__(self):
        self.punctured = frozenset(self.punctured)
        self.n = self.h.cols
        self.k = len(self.encoder.info_positions)
        if any(not rs for rs in self.h.col_adj):
            raise ConstructionError("every column of H must be nonzero")
        if any(not (0 <= p < self.n) for p in self.punctured):
            raise ConstructionError("punctured positions out of range")

    @cached_property
    def transmitted(self) -> tuple:
        """The positions sent over the channel, increasing; computed once."""
        return tuple(i for i in range(self.n) if i not in self.punctured)

    @cached_property
    def transmitted_array(self) -> np.ndarray:
        """``transmitted`` as an index array, for drawing erasures by mask."""
        return np.array(self.transmitted, dtype=np.intp)

    @cached_property
    def punctured_array(self) -> np.ndarray:
        """The punctured positions as an index array, for erasing them by mask."""
        return np.array(sorted(self.punctured), dtype=np.intp)

    @property
    def n_transmitted(self):
        return self.n - len(self.punctured)

    @property
    def rate(self):
        return self.k / self.n_transmitted


def _generic_encoder_from_h(h: SparseBinMatrix):
    """RREF of H; free columns become the information set."""
    words = h.to_dense().row_words
    pivot_cols = _gauss_jordan(words, h.cols)
    is_info = np.ones(h.cols, np.bool_)
    is_info[pivot_cols] = False
    info = np.flatnonzero(is_info).tolist()
    # x_pivot[i] = XOR over info bits present in RREF row i
    pmap = [BinVector.from_bits(BinVector(h.cols, w).unpacked()[is_info]).bits
            for w in words[: len(pivot_cols)]]
    return _GenericEncoder(info, pmap)


def encode(code: LdpcCode, u: BinVector) -> BinVector:
    if len(u) != code.k:
        raise ValueError(f"message length {len(u)} != k = {code.k}")
    return code.encoder.encode(u)


def sample_regular(dv: int, dc: int, n: int, seed: int = 0) -> LdpcCode:
    """Configuration-model sample of the (dv, dc) regular ensemble with
    post-hoc edge swaps removing parallel edges (and short cycles at small n)."""
    for name, val in (("dv", dv), ("dc", dc), ("n", n)):
        if val < 1:
            raise ConstructionError(f"{name} must be >= 1, got {val}")
    if (n * dv) % dc:
        raise ConstructionError(f"n*dv = {n * dv} not divisible by dc = {dc}")
    m = n * dv // dc
    rng = np.random.default_rng(seed)
    vn = np.repeat(np.arange(n), dv)
    for _ in range(50):
        cn = np.repeat(np.arange(m), dc)
        rng.shuffle(cn)
        edges = list(zip(vn.tolist(), cn.tolist()))
        if _remove_parallel_edges(edges, rng):
            break
    else:
        raise ConstructionError("could not remove parallel edges")
    if n <= 256:
        _reduce_4cycles(edges, rng)
    h = SparseBinMatrix.from_entries(m, n, [(c, v) for v, c in edges])
    return LdpcCode(h, _generic_encoder_from_h(h), meta={"dv": dv, "dc": dc, "seed": seed})


_PARALLEL_EDGE_ITERS = 200000  # swap attempts before a configuration is redrawn


def _swap(edges, cnt, i, j) -> bool:
    """Turn edges i = (v, c) and j = (v2, c2) into (v, c2) and (v2, c),
    keeping the edge counts ``cnt``, unless the two share a node or a new
    edge is already there."""
    (v, c), (v2, c2) = edges[i], edges[j]
    ne1, ne2 = (v, c2), (v2, c)
    if v == v2 or c == c2 or cnt[ne1] or cnt[ne2]:
        return False
    cnt.subtract((edges[i], edges[j]))
    cnt.update((ne1, ne2))
    edges[i], edges[j] = ne1, ne2
    return True


def _remove_parallel_edges(edges, rng) -> bool:
    cnt = Counter(edges)
    first = {}
    # every repeat of an edge, in order
    pending = [i for i, e in enumerate(edges) if first.setdefault(e, i) != i]
    ne = len(edges)
    iters = 0
    while pending:
        iters += 1
        if iters > _PARALLEL_EDGE_ITERS:
            return False
        i = pending[-1]
        if cnt[edges[i]] == 1 or _swap(edges, cnt, i, int(rng.integers(ne))):
            pending.pop()
    return not any(v > 1 for v in cnt.values())


def _reduce_4cycles(edges, rng):
    """Bounded-effort pass breaking pairs of columns sharing two rows: at
    most 10 swaps per edge."""
    max_swaps = 10 * len(edges)
    n = max(v for v, _ in edges) + 1
    colmask = [0] * n
    for v, c in edges:
        colmask[v] |= 1 << c
    cnt = Counter(edges)
    swaps = 0
    for a in range(n):
        if swaps >= max_swaps:
            break
        for b in range(a + 1, n):
            inter = colmask[a] & colmask[b]
            if inter.bit_count() < 2 or swaps >= max_swaps:
                continue
            c = (inter & -inter).bit_length() - 1
            i = edges.index((b, c))
            for _ in range(20):
                j = int(rng.integers(len(edges)))
                v2, c2 = edges[j]
                if v2 != a and _swap(edges, cnt, i, j):
                    colmask[b] ^= (1 << c) | (1 << c2)
                    colmask[v2] ^= (1 << c) | (1 << c2)
                    swaps += 1
                    break


def build_geira(spec: GeiraSpec) -> LdpcCode:
    """H = [H_u | H_p]: pseudo-random info part with balanced row weights and
    a banded accumulator defined by the feedback taps."""
    k, n, m = spec.k, spec.n, spec.n - spec.k
    rng = np.random.default_rng(spec.seed)
    load = np.zeros(m, dtype=int)
    hu_cols = []
    for _ in range(k):
        # least-loaded rows with seed-driven tie-breaking
        priority = load + rng.random(m)
        rows = np.argpartition(priority, spec.wc)[: spec.wc]
        hu_cols.append(sorted(int(r) for r in rows))
        load[rows] += 1
    entries = []
    for j, rows in enumerate(hu_cols):
        for r in rows:
            entries.append((r, j))
    taps = sorted(spec.taps)
    for r in range(m):
        for t in taps:
            if r - t >= 0:
                entries.append((r, k + r - t))
    h = SparseBinMatrix.from_entries(m, n, entries)
    # forward substitution through the accumulator: parity bit r is H_u row
    # r plus parity bits r - t over the taps t > 0, as a mask over the info bits
    pmap = [0] * m
    for r, j in entries:
        if j < k:
            pmap[r] |= 1 << j
    for r in range(m):
        for t in taps:
            if t and r - t >= 0:
                pmap[r] ^= pmap[r - t]
    return LdpcCode(h, _GenericEncoder(range(k), pmap), meta={"geira": spec})


def lift_protograph(p: Protograph, seed: int = 0) -> LdpcCode:
    """Expand each base entry into that many distinct circulant permutation
    blocks; punctured base columns mark all lifted copies as punctured."""
    z = p.lift
    maxmult = max(e for row in p.base for e in row)
    if z < maxmult:
        raise ConstructionError(f"lift factor {z} < max multiplicity {maxmult}")
    rng = np.random.default_rng(seed)
    m, nv = p.n_checks, p.n_vars
    entries = []
    for i in range(m):
        for j in range(nv):
            mult = p.base[i][j]
            if not mult:
                continue
            shifts = rng.choice(z, size=mult, replace=False)
            for sh in shifts:
                for a in range(z):
                    entries.append((i * z + (a + int(sh)) % z, j * z + a))
    h = SparseBinMatrix.from_entries(m * z, nv * z, entries)
    punctured = frozenset(
        j * z + a for j in p.punctured_cols for a in range(z)
    )
    return LdpcCode(h, _generic_encoder_from_h(h), punctured=punctured,
                    meta={"protograph": p, "seed": seed})


def puncture(code: LdpcCode, positions, allow_systematic: bool = False) -> LdpcCode:
    positions = set(positions)
    if not positions:
        return code
    if not allow_systematic:
        systematic = set(code.encoder.info_positions)
        clash = positions & systematic
        if clash:
            raise ConstructionError(f"puncturing systematic positions {sorted(clash)[:5]}")
    new_punct = code.punctured | positions
    if code.n - len(new_punct) < code.k:
        raise ConstructionError("puncturing below k transmitted positions")
    return LdpcCode(code.h, code.encoder, punctured=new_punct, meta=dict(code.meta))


def _bit_reversal_order(m: int):
    nb = max(1, (m - 1).bit_length())
    order = sorted(range(1 << nb), key=lambda i: int(format(i, f"0{nb}b")[::-1], 2))
    return [i for i in order if i < m]


def rate_family(mother: LdpcCode, rates) -> list:
    """Nested rate-compatible family: transmitted count round(k/R); punctured
    parity positions drawn from a fixed bit-reversal spreading order."""
    systematic = set(mother.encoder.info_positions)
    parity = [i for i in mother.transmitted if i not in systematic]
    order = [parity[i] for i in _bit_reversal_order(len(parity))]
    family = []
    for r in sorted(rates):
        target = int(mother.k / r + 0.5)
        drop = mother.n_transmitted - target
        if drop < 0:
            raise ConstructionError(f"rate {r} below the mother code rate")
        family.append(puncture(mother, order[:drop]) if drop else mother)
    return family


def code_to_text(code: LdpcCode) -> str:
    out = [f"ldpc {code.n} {code.k}"]
    if code.punctured:
        out.append("punctured: " + ",".join(str(i) for i in sorted(code.punctured)))
    out.append(dense_to_text(code.h.to_dense()))
    return "\n".join(out)


def save_code(code: LdpcCode, path) -> None:
    with open(path, "w") as f:
        f.write(code_to_text(code))


def load_code(path) -> LdpcCode:
    with open(path) as f:
        text = f.read()
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 3 or head[0] != "ldpc":
        raise ValueError(f"{path}: not an ldpc code file")
    n, k = int(head[1]), int(head[2])
    punctured = frozenset()
    body = 1
    if len(lines) > 1 and lines[1].startswith("punctured:"):
        punctured = frozenset(int(t) for t in lines[1].split(":", 1)[1].split(",") if t.strip())
        body = 2
    dense = dense_from_text("\n".join(lines[body:]))
    if dense.cols != n:
        raise ConstructionError(f"{path}: header gives n={n}, but H has {dense.cols} columns")
    h = SparseBinMatrix.from_dense(dense)
    encoder = _generic_encoder_from_h(h)
    if len(encoder.info_positions) != k:
        raise ConstructionError(f"{path}: header gives k={k}, "
                                f"but H gives k={len(encoder.info_positions)}")
    return LdpcCode(h, encoder, punctured=punctured)

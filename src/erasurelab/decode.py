"""BEC decoders: iterative peeling, structured-GE ML decoding with pivot
inactivation, and the dense-GE oracle.

Peeling and ML decoding share one loop over H's adjacency lists. The ML
decoder peels until no check holds a single erased symbol, then inactivates
a pivot, resumes the diagonal extension with every value written as an XOR
of pivots plus a constant, and repeats; dense GE runs only on the small
residual pivot system. The hybrid decoder (peel, then ML) is the same
decoder under its older name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .binmat import (
    BinVector,
    DenseBinMatrix,
    SparseBinMatrix,
    dense_gauss_solve,
)


class InconsistentInputError(ValueError):
    """The same unknown was forced to both 0 and 1: corrupted input, not an
    erasure-decoding case."""


class InternalConsistencyError(AssertionError):
    """Recovered word failed re-verification; decoder bug trap."""


@dataclass
class ReceivedWord:
    """Channel output: the known/erased split of a codeword."""

    n: int
    values: BinVector  # known symbols, in increasing position order
    erased: tuple  # ordered erased positions (includes punctured ones)

    def __post_init__(self):
        self.erased = tuple(sorted(set(self.erased)))
        if len(self.values) != self.n - len(self.erased):
            raise ValueError("values length must equal n - |erased|")

    @classmethod
    def from_full(cls, full: BinVector, erased) -> "ReceivedWord":
        erased = tuple(sorted(set(erased)))
        if full.bits == 0:
            return cls(full.n, BinVector(full.n - len(erased)), erased)
        eset = set(erased)
        bits = [full[i] for i in range(full.n) if i not in eset]
        return cls(full.n, BinVector.from_bits(bits), erased)

    def known_positions(self) -> list:
        eset = set(self.erased)
        return [i for i in range(self.n) if i not in eset]

    def known_array(self) -> list:
        """Length-n list with known values filled in and None at erasures."""
        out = [None] * self.n
        for val, pos in zip(self.values.to_list(), self.known_positions()):
            out[pos] = val
        return out


@dataclass
class DecodeStats:
    peeled: int = 0
    pivots: int = 0
    ge_dim: int = 0
    system_shape: tuple = ()


@dataclass
class DecodeResult:
    status: str  # 'success' | 'it_stall' | 'rank_deficient'
    recovered: BinVector = None
    residual: tuple = ()
    rank: int = None
    stats: DecodeStats = field(default_factory=DecodeStats)

    @property
    def ok(self) -> bool:
        return self.status == "success"


@dataclass
class TriangularizationState:
    """Peeling and inactivation state of a sparse GF(2) system.

    A value is an int whose bit 0 is a constant and whose bit i+1 is the
    coefficient of pivot i: a known symbol is 0 or 1, a resolved unknown its
    expression over the pivots. ``rowcnt[r]`` counts the unknowns row r still
    holds and ``rowpar[r]`` is the XOR of the values of its other columns.
    ``resolved`` holds the diagonal-extension order, ``pivots`` the
    inactivated unknowns, and ``anchored[r]`` marks a row consumed to resolve
    an unknown. reduce_to_aprime fills ``aprime``/``rhs_prime``.
    """

    row_adj: list
    col_adj: list
    columns: tuple  # the unknowns at the start, increasing (a range when fresh)
    unknown: bytearray  # per column: 1 while neither resolved nor a pivot
    rowcnt: list
    rowpar: list
    value: list  # per column
    anchored: bytearray
    resolved: list = field(default_factory=list)
    pivots: list = field(default_factory=list)
    aprime: DenseBinMatrix = None
    rhs_prime: BinVector = None

    @property
    def left(self) -> int:
        """Unknowns neither resolved nor inactivated."""
        return len(self.columns) - len(self.resolved) - len(self.pivots)


def split_by_erasure(code, word: ReceivedWord):
    """Split H by the erasure pattern: columns of erased positions plus the
    syndrome contributed by the known symbols."""
    h = code.h
    if word.n != h.cols:
        raise ValueError(f"word length {word.n} != code length {h.cols}")
    ne = len(word.erased)
    pos = [-1] * word.n
    for i, c in enumerate(word.erased):
        pos[c] = i
    hk_rows = []
    col_adj = [[] for _ in range(ne)]
    syn_bits = 0
    if word.values.bits == 0:
        # all known symbols are zero: syndrome vanishes
        for r, cs in enumerate(h.row_adj):
            local = [pos[c] for c in cs if pos[c] >= 0]
            hk_rows.append(local)
            for li in local:
                col_adj[li].append(r)
    else:
        known = word.known_array()
        for r, cs in enumerate(h.row_adj):
            local = []
            par = 0
            for c in cs:
                li = pos[c]
                if li >= 0:
                    local.append(li)
                elif known[c]:
                    par ^= 1
            hk_rows.append(local)
            for li in local:
                col_adj[li].append(r)
            if par:
                syn_bits |= 1 << r
    hkbar = SparseBinMatrix._raw(h.rows, ne, hk_rows, col_adj)
    return hkbar, BinVector(h.rows, syn_bits)


def _extend(st: TriangularizationState, queue) -> None:
    """Diagonal extension: resolve every unknown left alone in a queued row,
    queueing the rows this leaves with a single unknown. This loop is the
    whole peeling decoder."""
    row_adj, col_adj, unknown = st.row_adj, st.col_adj, st.unknown
    rowcnt, rowpar, value = st.rowcnt, st.rowpar, st.value
    anchored, resolved = st.anchored, st.resolved
    while queue:
        r = queue.popleft()
        if rowcnt[r] != 1:
            continue
        for u in row_adj[r]:
            if unknown[u]:
                break
        v = value[u] = rowpar[r]
        unknown[u] = 0
        anchored[r] = 1
        resolved.append(u)
        for r2 in col_adj[u]:
            rowcnt[r2] -= 1
            rowpar[r2] ^= v
            if rowcnt[r2] == 1:
                queue.append(r2)


def _start(matrix, columns, rowpar, value) -> TriangularizationState:
    """Peel matrix·x = rowpar over the unknown ``columns`` until no row holds
    a single unknown. ``value`` holds the known symbols."""
    col_adj = matrix.col_adj
    unknown = bytearray(matrix.cols)
    rowcnt = [0] * matrix.rows
    for c in columns:
        unknown[c] = 1
        for r in col_adj[c]:
            rowcnt[r] += 1
    st = TriangularizationState(matrix.row_adj, col_adj, columns, unknown, rowcnt,
                                rowpar, value, bytearray(matrix.rows))
    _extend(st, deque(r for r, cnt in enumerate(rowcnt) if cnt == 1))
    return st


def _peel_core(code, word: ReceivedWord) -> TriangularizationState:
    """Peel H over the erased positions of ``word``, the known symbols giving
    the row parities."""
    h = code.h
    rowpar = [0] * h.rows
    if word.values.bits:
        known = word.known_array()
        for c, v in enumerate(known):
            if v:
                for r in h.col_adj[c]:
                    rowpar[r] ^= 1
    else:
        known = [0] * word.n
    st = _start(h, word.erased, rowpar, known)
    for r, (cnt, par) in enumerate(zip(st.rowcnt, rowpar)):
        if par and not cnt:
            raise InconsistentInputError(f"check row {r} violated by known symbols")
    return st


def peel_decode(code, word: ReceivedWord) -> DecodeResult:
    """Iteratively resolve erased positions appearing alone in some check."""
    word = _with_punctured(code, word)
    if not word.erased:
        return _finish(code, word, word.known_array(), DecodeStats())
    st = _peel_core(code, word)
    stats = DecodeStats(peeled=len(st.resolved))
    if st.left:
        residual = tuple(c for c in word.erased if st.unknown[c])
        return DecodeResult("it_stall", residual=residual, stats=stats)
    return _finish(code, word, st.value, stats)


def max_degree_pivot(unresolved, coldeg):
    """Default inactivation strategy: max residual degree, lowest index ties.
    triangularize hands over ``unresolved`` in that order, so this is its
    first unknown."""
    return next(iter(unresolved))


def triangularize(system, syndrome, pivot_strategy=max_degree_pivot) -> TriangularizationState:
    """Greedy diagonal extension with pivot inactivation on stalls.

    ``system`` is a SparseBinMatrix whose columns are all unknown, with
    right-hand side ``syndrome``, or the state of a stalled peel (``syndrome``
    None), which the ML decoder continues rather than peeling again.
    Terminates with every unknown either resolved (lower-triangular part)
    or designated a pivot for the dense stage.

    ``pivot_strategy(unresolved, coldeg)`` is called once per pivot and
    returns a key of ``unresolved``: a dict of the unresolved unknowns,
    ordered by decreasing residual degree (the number of unanchored rows
    holding the unknown), then increasing index. ``coldeg[u]`` is u's
    residual degree. The order holds for the whole decode: a row is anchored
    only by the one unresolved unknown it still holds, so the residual degree
    of an unresolved unknown is its column weight.
    """
    if isinstance(system, TriangularizationState):
        st = system
    else:
        st = _start(system, range(system.cols), syndrome.to_list(), [0] * system.cols)
    col_adj, rowcnt, rowpar = st.col_adj, st.rowcnt, st.rowpar
    resolved, pivots = st.resolved, st.pivots
    coldeg = {u: len(col_adj[u]) for u in st.columns if st.unknown[u]}
    unresolved = dict.fromkeys(sorted(coldeg, key=lambda u: -coldeg[u]))
    while unresolved:
        p = pivot_strategy(unresolved, coldeg)
        del unresolved[p]
        v = st.value[p] = 2 << len(pivots)
        st.unknown[p] = 0
        pivots.append(p)
        queue = deque()
        for r in col_adj[p]:
            rowcnt[r] -= 1
            rowpar[r] ^= v
            if rowcnt[r] == 1:
                queue.append(r)
        done = len(resolved)
        _extend(st, queue)
        for u in resolved[done:]:
            del unresolved[u]
    return st


def reduce_to_aprime(state: TriangularizationState):
    """Gather the unanchored rows, each now an equation over the pivots
    alone: A'·pivots = rhs'."""
    arows = []
    rhs_bits = 0
    for anchored, par in zip(state.anchored, state.rowpar):
        if not anchored:
            if par & 1:
                rhs_bits |= 1 << len(arows)
            arows.append(par >> 1)
    state.aprime = DenseBinMatrix(len(arows), len(state.pivots), arows)
    state.rhs_prime = BinVector(len(arows), rhs_bits)
    return state.aprime, state.rhs_prime


def solve_pivots(aprime: DenseBinMatrix, rhs_prime: BinVector):
    """Dense GE on the small pivot system; returns values or a deficiency."""
    out = dense_gauss_solve(aprime, rhs_prime)
    if not out.consistent:
        raise InconsistentInputError("pivot system inconsistent")
    if not out.unique:
        return None, out.rank
    return out.solution, out.rank


def back_substitute(state: TriangularizationState, pivot_values: BinVector) -> dict:
    """Assign all unknowns from the solved pivots by evaluating their values."""
    bits = pivot_values.bits << 1 | 1
    value = state.value
    return {u: (value[u] & bits).bit_count() & 1 for u in state.pivots + state.resolved}


def ml_decode(code, word: ReceivedWord, pivot_strategy=max_degree_pivot) -> DecodeResult:
    """Structured-GE ML decoding: peel, and on a stall inactivate pivots and
    solve for them by dense GE. Succeeds iff the erased columns of H are
    linearly independent, exactly matching oracle_decode."""
    word = _with_punctured(code, word)
    if not word.erased:
        return _finish(code, word, word.known_array(), DecodeStats())
    st = _peel_core(code, word)
    if st.left:
        triangularize(st, None, pivot_strategy)
        reduce_to_aprime(st)
        pivot_values, ge_rank = solve_pivots(st.aprime, st.rhs_prime)
    npiv = len(st.pivots)
    stats = DecodeStats(len(st.resolved), npiv, npiv, (code.h.rows, len(word.erased)))
    if npiv:
        if pivot_values is None:
            return DecodeResult("rank_deficient", rank=ge_rank + len(st.resolved), stats=stats)
        for u, bit in back_substitute(st, pivot_values).items():
            st.value[u] = bit
    return _finish(code, word, st.value, stats)


# ML decoding peels first, so the hybrid decoder is the ML decoder.
hybrid_decode = ml_decode


def oracle_decode(code, word: ReceivedWord) -> DecodeResult:
    """Brute-force dense GE over all erased columns; ground truth."""
    word = _with_punctured(code, word)
    if not word.erased:
        return _finish(code, word, word.known_array(), DecodeStats())
    hkbar, syndrome = split_by_erasure(code, word)
    out = dense_gauss_solve(hkbar.to_dense(), syndrome)
    stats = DecodeStats(ge_dim=len(word.erased), system_shape=(hkbar.rows, hkbar.cols))
    if not out.consistent:
        raise InconsistentInputError("erasure system inconsistent")
    if not out.unique:
        return DecodeResult("rank_deficient", rank=out.rank, stats=stats)
    known = word.known_array()
    for li, pos in enumerate(word.erased):
        known[pos] = out.solution[li]
    return _finish(code, word, known, stats)


def is_stopping_set(code, positions) -> bool:
    """Every check row touching the set touches it at least twice."""
    pset = set(positions)
    touched = {}
    for c in pset:
        for r in code.h.col_adj[c]:
            touched[r] = touched.get(r, 0) + 1
    return all(cnt >= 2 for cnt in touched.values())


def _with_punctured(code, word: ReceivedWord) -> ReceivedWord:
    punct = getattr(code, "punctured", frozenset())
    if not punct or set(punct) <= set(word.erased):
        return word
    merged = set(word.erased) | set(punct)
    known = word.known_array()
    bits = [known[i] for i in range(word.n) if i not in merged]
    return ReceivedWord(word.n, BinVector.from_bits(bits), tuple(sorted(merged)))


def _finish(code, word: ReceivedWord, known, stats: DecodeStats) -> DecodeResult:
    bits = 0
    for i, v in enumerate(known):
        if v:
            bits |= 1 << i
    recovered = BinVector(word.n, bits)
    # bug trap: any success must satisfy every parity check (trivial at zero)
    if bits:
        for r, cs in enumerate(code.h.row_adj):
            par = 0
            for c in cs:
                par ^= (bits >> c) & 1
            if par:
                raise InternalConsistencyError(f"check row {r} violated after decode")
    return DecodeResult("success", recovered=recovered, stats=stats)

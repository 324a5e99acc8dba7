"""BEC decoders: iterative peeling, structured-GE ML decoding with pivot
inactivation, and the dense-GE oracle.

Peeling and ML decoding share one loop over H's adjacency lists. The ML
decoder peels until no check holds a single erased symbol, then inactivates
a pivot, resumes the diagonal extension with every value written as an XOR
of pivots plus a constant, and repeats; dense GE runs only on the small
residual pivot system. The hybrid decoder (peel, then ML) is the same
decoder under its older name. ``solve_inactivated`` is the one solve stage
after triangularization, for LDPC and Raptor systems alike: gather A', solve
it for the pivots, substitute them back.
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
    """Channel output: the length-n word with every erased position reading
    0, and the erased positions."""

    n: int
    values: BinVector  # length n; the erased positions are cleared here
    erased: tuple  # ordered erased positions (includes punctured ones)

    def __post_init__(self):
        erased = sorted(set(self.erased))
        if erased and type(erased[-1]) is not int:  # numpy integers shift to 0
            erased = [int(i) for i in erased]
        self.erased = tuple(erased)
        if self.values.n != self.n:
            raise ValueError(f"values length {self.values.n} != n = {self.n}")
        bits = self.values.bits
        if bits:  # a zero word needs no mask
            bits &= ~sum(1 << i for i in self.erased)
        self.values = BinVector(self.n, bits)

    @classmethod
    def from_full(cls, full: BinVector, erased) -> "ReceivedWord":
        return cls(full.n, full, erased)


@dataclass
class DecodeStats:
    peeled: int = 0
    pivots: int = 0
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
    coefficient of pivot i: a resolved unknown holds its expression over the
    pivots. ``rowcnt[r]`` counts the unknowns row r still holds and
    ``rowpar[r]`` is the XOR of the values of its other columns, known
    symbols included.
    ``resolved`` holds the diagonal-extension order, ``pivots`` the
    inactivated unknowns, and ``anchored[r]`` marks a row consumed to resolve
    an unknown. back_substitute turns every value into the unknown's bit.
    """

    row_adj: list
    col_adj: list
    columns: tuple  # the unknowns at the start, increasing (a range when fresh)
    unknown: bytearray  # per column: 1 while neither resolved nor a pivot
    rowcnt: list
    rowpar: list
    value: list  # per column; 0 for a column that was never unknown
    anchored: bytearray
    resolved: list = field(default_factory=list)
    pivots: list = field(default_factory=list)

    @property
    def left(self) -> int:
        """Unknowns neither resolved nor inactivated."""
        return len(self.columns) - len(self.resolved) - len(self.pivots)


def _parities(h: SparseBinMatrix, v: BinVector) -> list:
    """Per row of ``h``, the parity of the set bits of ``v`` it holds: the
    syndrome H·v as a list. Costs nothing for a zero word."""
    par = [0] * h.rows
    col_adj = h.col_adj
    for c in v.ones():
        for r in col_adj[c]:
            par[r] ^= 1
    return par


def split_by_erasure(code, word: ReceivedWord):
    """Split H by the erasure pattern: columns of erased positions plus the
    syndrome contributed by the known symbols."""
    h = code.h
    if word.n != h.cols:
        raise ValueError(f"word length {word.n} != code length {h.cols}")
    pos = [-1] * word.n
    for i, c in enumerate(word.erased):
        pos[c] = i
    hk_rows = []
    col_adj = [[] for _ in word.erased]
    for r, cs in enumerate(h.row_adj):
        local = [pos[c] for c in cs if pos[c] >= 0]
        hk_rows.append(local)
        for li in local:
            col_adj[li].append(r)
    hkbar = SparseBinMatrix._raw(h.rows, len(word.erased), hk_rows, col_adj)
    return hkbar, BinVector.from_bits(_parities(h, word.values))


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


def _start(matrix, columns, rowpar) -> TriangularizationState:
    """Peel matrix·x = rowpar over the unknown ``columns`` until no row holds
    a single unknown."""
    col_adj = matrix.col_adj
    unknown = bytearray(matrix.cols)
    rowcnt = [0] * matrix.rows
    for c in columns:
        unknown[c] = 1
        for r in col_adj[c]:
            rowcnt[r] += 1
    st = TriangularizationState(matrix.row_adj, col_adj, columns, unknown, rowcnt,
                                rowpar, [0] * matrix.cols, bytearray(matrix.rows))
    _extend(st, deque(r for r, cnt in enumerate(rowcnt) if cnt == 1))
    return st


def _peel_core(code, word: ReceivedWord) -> TriangularizationState:
    """Peel H over the erased positions of ``word``, the known symbols giving
    the row parities."""
    st = _start(code.h, word.erased, _parities(code.h, word.values))
    for r, (cnt, par) in enumerate(zip(st.rowcnt, st.rowpar)):
        if par and not cnt:
            raise InconsistentInputError(f"check row {r} violated by known symbols")
    return st


def peel_decode(code, word: ReceivedWord) -> DecodeResult:
    """Iteratively resolve erased positions appearing alone in some check."""
    word = _with_punctured(code, word)
    st = _peel_core(code, word)
    stats = DecodeStats(peeled=len(st.resolved))
    if st.left:
        residual = tuple(c for c in word.erased if st.unknown[c])
        return DecodeResult("it_stall", residual=residual, stats=stats)
    return _finish(code, word, _filled(word.values.bits, st), stats)


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
        st = _start(system, range(system.cols), syndrome.to_list())
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
    return DenseBinMatrix(len(arows), len(state.pivots), arows), BinVector(len(arows), rhs_bits)


def solve_pivots(aprime: DenseBinMatrix, rhs_prime: BinVector):
    """Dense GE on a system; returns (solution, rank), the solution None when
    the system is rank deficient."""
    out = dense_gauss_solve(aprime, rhs_prime)
    if not out.consistent:
        raise InconsistentInputError("received symbols are inconsistent")
    if not out.unique:
        return None, out.rank
    return out.solution, out.rank


def back_substitute(state: TriangularizationState, pivot_values: BinVector) -> None:
    """Set every unknown's value to its bit under the solved pivots."""
    bits = pivot_values.bits << 1 | 1
    value = state.value
    for u in state.pivots + state.resolved:
        value[u] = (value[u] & bits).bit_count() & 1


def solve_inactivated(state: TriangularizationState):
    """Finish a triangularized system: solve A' for the pivots and substitute
    them back. Returns None, or the system's rank if it is rank deficient."""
    pivot_values, rank = solve_pivots(*reduce_to_aprime(state))
    if pivot_values is None:
        return rank + len(state.resolved)
    back_substitute(state, pivot_values)
    return None


def ml_decode(code, word: ReceivedWord, pivot_strategy=max_degree_pivot) -> DecodeResult:
    """Structured-GE ML decoding: peel, and on a stall inactivate pivots and
    solve for them by dense GE. Succeeds iff the erased columns of H are
    linearly independent, exactly matching oracle_decode."""
    word = _with_punctured(code, word)
    st = _peel_core(code, word)
    rank = None
    if st.left:
        triangularize(st, None, pivot_strategy)
        rank = solve_inactivated(st)
    stats = DecodeStats(len(st.resolved), len(st.pivots), (code.h.rows, len(word.erased)))
    if rank is not None:
        return DecodeResult("rank_deficient", rank=rank, stats=stats)
    return _finish(code, word, _filled(word.values.bits, st), stats)


# ML decoding peels first, so the hybrid decoder is the ML decoder.
hybrid_decode = ml_decode


def oracle_decode(code, word: ReceivedWord) -> DecodeResult:
    """Brute-force dense GE over all erased columns; ground truth."""
    word = _with_punctured(code, word)
    hkbar, syndrome = split_by_erasure(code, word)
    solution, rank = solve_pivots(hkbar.to_dense(), syndrome)
    stats = DecodeStats(system_shape=(hkbar.rows, hkbar.cols))
    if solution is None:
        return DecodeResult("rank_deficient", rank=rank, stats=stats)
    bits = word.values.bits
    for li in solution.ones():
        bits |= 1 << word.erased[li]
    return _finish(code, word, bits, stats)


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
    if not punct or punct <= set(word.erased):
        return word
    return ReceivedWord.from_full(word.values, word.erased + tuple(punct))


def _filled(bits: int, st: TriangularizationState) -> int:
    """``bits`` with every unknown of ``st`` set to its value, a bit once no
    pivot is left in it."""
    value = st.value
    for u in st.resolved + st.pivots:
        if value[u]:
            bits |= 1 << u
    return bits


def _finish(code, word: ReceivedWord, bits: int, stats: DecodeStats) -> DecodeResult:
    recovered = BinVector(word.n, bits)
    # bug trap: any success must satisfy every parity check
    par = _parities(code.h, recovered)
    if any(par):
        raise InternalConsistencyError(f"check row {par.index(1)} violated after decode")
    return DecodeResult("success", recovered=recovered, stats=stats)

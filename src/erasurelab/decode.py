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
from functools import cached_property
from heapq import heappop, heappush
from operator import gt, index, lt

import numpy as np

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
    """Channel output, for LDPC and Raptor codes alike: the length-n word with
    every erased position reading 0, and the erased positions, each in
    0..n-1. Position i of a Raptor word holds the symbol of ESI i+1."""

    n: int
    values: BinVector  # length n; the erased positions are cleared here
    erased: tuple  # ordered erased positions (includes punctured ones)

    def __post_init__(self):
        erased = self.erased
        # a strictly increasing list (as the simulator draws it) needs no sort
        if not (isinstance(erased, (list, tuple)) and all(map(lt, erased, erased[1:]))):
            erased = sorted(set(erased))
        if erased and type(erased[-1]) is not int:  # numpy integers shift to 0
            erased = list(map(index, erased))
        if erased and (erased[0] < 0 or erased[-1] >= self.n):
            raise ValueError(f"erased positions must lie in 0..{self.n - 1}")
        self.erased = tuple(erased)
        if self.values.n != self.n:
            raise ValueError(f"values length {self.values.n} != n = {self.n}")
        bits = self.values.bits
        if bits and erased:  # a zero word needs no mask
            bits &= ~int.from_bytes(np.packbits(self.erased_mask, bitorder="little"), "little")
        self.values = BinVector(self.n, bits)

    @cached_property
    def erased_mask(self) -> np.ndarray:
        """Per position, whether it is erased; built once, on first use."""
        mask = np.zeros(self.n, np.bool_)
        mask[list(self.erased)] = True
        return mask

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
    an unknown. ``pairs`` is a heap of the rows that reached two unknowns;
    an entry goes stale once its row drops below two and stays until popped.
    back_substitute turns every value into the unknown's bit.
    """

    row_adj: list
    col_adj: list
    columns: tuple  # the unknowns at the start, increasing (a range when fresh)
    unknown: bytearray  # per column: 1 while neither resolved nor a pivot
    rowcnt: list
    rowpar: list
    value: list  # per column; 0 for a column that was never unknown
    anchored: bytearray
    pairs: list
    resolved: list = field(default_factory=list)
    pivots: list = field(default_factory=list)

    @property
    def left(self) -> int:
        """Unknowns neither resolved nor inactivated."""
        return len(self.columns) - len(self.resolved) - len(self.pivots)


def _parities(h: SparseBinMatrix, v: BinVector) -> np.ndarray:
    """Per row of ``h``, the parity of the set bits of ``v`` it holds: the
    syndrome H·v as an array of 0s and 1s. One gather of the word's bits at
    H's edge arrays, kept on the matrix, and a bincount of the rows hit; a
    zero word costs only the zeros."""
    if not v.bits:
        return np.zeros(h.rows, np.intp)
    edge_rows, edge_cols = h.edges()
    return np.bincount(edge_rows[v.unpacked()[edge_cols]], minlength=h.rows) & 1


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
    return hkbar, BinVector.from_bits(_parities(h, word.values).tolist())


def _extend(st: TriangularizationState, queue, pivot_strategy=None) -> None:
    """Diagonal extension: resolve every unknown left alone in a queued row,
    queueing the rows this leaves with a single unknown and pushing those it
    leaves with two onto ``st.pairs``. This loop is the whole peeling
    decoder. With a ``pivot_strategy`` it does not stop at a stall but
    inactivates the unknown the strategy names, a pivot whose value is its
    own bit, and goes on until no unknown is left."""
    row_adj, col_adj, unknown = st.row_adj, st.col_adj, st.unknown
    rowcnt, rowpar, value = st.rowcnt, st.rowpar, st.value
    anchored, resolved, pairs, pivots = st.anchored, st.resolved, st.pairs, st.pivots
    size = len(st.columns)
    while True:
        if queue:
            r = queue.popleft()
            if rowcnt[r] != 1:
                continue
            for u in row_adj[r]:
                if unknown[u]:
                    break
            v = rowpar[r]
            anchored[r] = 1
            resolved.append(u)
        elif pivot_strategy is not None and len(resolved) + len(pivots) < size:
            u = pivot_strategy(st)
            v = 2 << len(pivots)
            pivots.append(u)
        else:
            return
        value[u] = v
        unknown[u] = 0
        for r2 in col_adj[u]:
            cnt = rowcnt[r2] = rowcnt[r2] - 1
            rowpar[r2] ^= v
            if cnt == 1:
                queue.append(r2)
            elif cnt == 2:
                heappush(pairs, r2)


def _start(matrix, rowpar, word: ReceivedWord = None) -> TriangularizationState:
    """Peel matrix·x = rowpar until no row holds a single unknown. The
    unknowns are the erased positions of ``word``, and one bincount of its
    erased mask over the matrix's edge arrays counts each row's. Without a
    word every column of this fresh system, built per decode, is unknown, and
    each row's count is its length (edge arrays would cost more than that)."""
    if word is None:
        columns = range(matrix.cols)
        unknown = bytearray(b"\1") * matrix.cols
        counts = np.fromiter(map(len, matrix.row_adj), np.intp, matrix.rows)
    else:
        columns, mask = word.erased, word.erased_mask
        edge_rows, edge_cols = matrix.edges()
        unknown = bytearray(mask.tobytes())
        counts = np.bincount(edge_rows[mask[edge_cols]], minlength=matrix.rows)
    st = TriangularizationState(matrix.row_adj, matrix.col_adj, columns, unknown,
                                counts.tolist(), rowpar, [0] * matrix.cols,
                                bytearray(matrix.rows), np.flatnonzero(counts == 2).tolist())
    _extend(st, deque(np.flatnonzero(counts == 1).tolist()))
    return st


def _peel_core(code, word: ReceivedWord) -> TriangularizationState:
    """Peel H over the erased positions of ``word``, the known symbols giving
    the row parities."""
    if word.n != code.h.cols:
        raise ValueError(f"word length {word.n} != code length {code.h.cols}")
    st = _start(code.h, _parities(code.h, word.values).tolist(), word)
    # before any pivot each parity is 0 or 1 and no count is negative, so
    # par > cnt is exactly a row with no unknown left and a violated parity
    if any(map(gt, st.rowpar, st.rowcnt)):
        r = list(map(gt, st.rowpar, st.rowcnt)).index(True)
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


def min_row_pivot(st: TriangularizationState) -> int:
    """Row-driven inactivation, the minimum-row-degree rule of inactivation
    decoding (RFC 6330, 5.4.2.2): the unanchored row with the fewest
    unknowns, two or more, lowest index first, gives up its unknown of
    highest column weight, lowest index on ties. A row of two unknowns is
    then left with one, so such a pivot resolves at least one more unknown;
    rows of three or more (a plain scan) almost never remain at a stall."""
    rowcnt, pairs, unknown, col_adj = st.rowcnt, st.pairs, st.unknown, st.col_adj
    while pairs:
        r = heappop(pairs)
        if rowcnt[r] == 2:
            break
    else:  # no row holds exactly two unknowns: scan for the fewest
        r = min(((cnt, r) for r, cnt in enumerate(rowcnt) if cnt > 1), default=(0, -1))[1]
        if r < 0:  # no unanchored row holds an unknown
            return next(u for u in st.columns if unknown[u])
    best = weight = -1
    for u in st.row_adj[r]:  # increasing, so the first of the heaviest wins
        if unknown[u] and len(col_adj[u]) > weight:
            best, weight = u, len(col_adj[u])
    return best


def max_degree_pivot(st: TriangularizationState) -> int:
    """The column-driven rule: the unknown of highest column weight, lowest
    index on ties, whether or not inactivating it leaves some row with a
    single unknown. A scan over the unknowns."""
    unknown, col_adj = st.unknown, st.col_adj
    return min((u for u in st.columns if unknown[u]), key=lambda u: (-len(col_adj[u]), u))


def triangularize(system, syndrome, pivot_strategy=min_row_pivot) -> TriangularizationState:
    """Greedy diagonal extension with pivot inactivation on stalls.

    ``system`` is a SparseBinMatrix whose columns are all unknown, with
    right-hand side ``syndrome``, or the state of a stalled peel (``syndrome``
    None), which the ML decoder continues rather than peeling again.
    Terminates with every unknown either resolved (lower-triangular part)
    or designated a pivot for the dense stage.

    ``pivot_strategy(state)`` is called once per pivot and returns an
    unknown column of the stalled ``state``. A row is anchored only by the
    one unknown it still holds, so every row of an unknown is unanchored and
    its column weight is its residual degree.
    """
    if isinstance(system, TriangularizationState):
        st = system
    else:
        st = _start(system, syndrome.to_list())
    _extend(st, deque(), pivot_strategy)
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


def ml_decode(code, word: ReceivedWord, pivot_strategy=min_row_pivot) -> DecodeResult:
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
    if par.any():
        raise InternalConsistencyError(f"check row {par.argmax()} violated after decode")
    return DecodeResult("success", recovered=recovered, stats=stats)

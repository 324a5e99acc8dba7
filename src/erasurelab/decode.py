"""BEC decoders: iterative peeling, structured-GE ML decoding with pivot
inactivation, and the dense-GE oracle.

Peeling and ML decoding share one peel loop over H's adjacency lists. The
ML decoder peels until no check holds a single erased symbol, then
inactivates a pivot, peels again from the rows that pivot leaves with one
unknown, every value now an XOR of pivots plus a constant, and repeats;
dense GE runs only on the small residual pivot system. The hybrid decoder
(peel, then ML) is the same decoder under its older name. ``solve_inactivated`` is the one solve stage
after triangularization, for LDPC and Raptor systems alike: gather A', solve
it for the pivots, substitute them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import gt, index

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


@dataclass(eq=False)
class ReceivedWord:
    """Channel output, for LDPC and Raptor codes alike: the length-n word with
    every erased position reading 0, and its erasure mask. Position i of a
    Raptor word holds the symbol of ESI i+1. The length n is that of the
    values. The mask is given as a boolean numpy array of length n, which the
    word keeps (the caller must not modify it afterwards), or as integer
    positions in 0..n-1, in any order."""

    values: BinVector  # the erased positions are cleared here
    erased_mask: np.ndarray  # n booleans; includes punctured positions once decoded
    n: int = field(init=False)

    def __post_init__(self):
        self.n = self.values.n
        mask = self.erased_mask
        if not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_):
            positions = list(mask)
            if {bool, np.bool_} & set(map(type, positions)):
                raise ValueError("erased positions must be integers; an erasure "
                                 "mask must be a boolean numpy array")
            try:  # index() takes numpy integers and rejects 1.5
                positions = np.fromiter(map(index, positions), np.intp, len(positions))
                inside = not positions.size or 0 <= positions.min() and positions.max() < self.n
            except OverflowError:  # beyond any array index
                inside = False
            if not inside:
                raise ValueError(f"erased positions must lie in 0..{self.n - 1}")
            mask = self.erased_mask = np.zeros(self.n, np.bool_)
            mask[positions] = True
        elif mask.shape != (self.n,):
            raise ValueError(f"erasure mask shape {mask.shape} != ({self.n},)")
        if self.values.bits:  # a zero word needs no clearing
            self.values = BinVector(self.n, self.values.bits & ~BinVector.from_bits(mask).bits)

    @cached_property
    def erased(self) -> tuple:
        """The erased positions, increasing: what split_by_erasure and the oracle read."""
        return tuple(np.flatnonzero(self.erased_mask).tolist())

    @classmethod
    def from_full(cls, full: BinVector, erased) -> "ReceivedWord":
        return cls(full, erased)


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
    size: int  # the count of unknowns at the start
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
        return self.size - len(self.resolved) - len(self.pivots)


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
    hkbar = SparseBinMatrix._raw(hk_rows, col_adj)
    return hkbar, BinVector.from_bits(_parities(h, word.values))


def _peel(st: TriangularizationState, queue: list) -> None:
    """Diagonal extension: resolve the one unknown left in each queued row,
    appending to ``queue`` the rows this leaves with a single unknown, in
    FIFO order, until the queue runs out. This loop is the whole peeling
    decoder, and the ML decoder runs it again after every pivot."""
    row_adj, col_adj, unknown = st.row_adj, st.col_adj, st.unknown
    rowcnt, rowpar, value = st.rowcnt, st.rowpar, st.value
    anchored, resolved = st.anchored, st.resolved
    for r in queue:  # the iterator reaches the rows appended below
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
            cnt = rowcnt[r2] = rowcnt[r2] - 1
            rowpar[r2] ^= v
            if cnt == 1:
                queue.append(r2)


def _start(matrix, rowpar, word: ReceivedWord = None) -> TriangularizationState:
    """Peel matrix·x = rowpar until no row holds a single unknown. The
    unknowns are the erased positions of ``word``, and one bincount of its
    erased mask over the matrix's edge arrays counts each row's. Without a
    word every column of this fresh system, built per decode, is unknown, and
    each row's count is its length (edge arrays would cost more than that)."""
    if word is None:
        unknown = bytearray(b"\1") * matrix.cols
        counts = np.fromiter(map(len, matrix.row_adj), np.intp, matrix.rows)
    else:
        mask = word.erased_mask
        edge_rows, edge_cols = matrix.edges()
        unknown = bytearray(mask.tobytes())
        counts = np.bincount(edge_rows[mask[edge_cols]], minlength=matrix.rows)
    st = TriangularizationState(matrix.row_adj, matrix.col_adj, unknown.count(1), unknown,
                                counts.tolist(), rowpar, [0] * matrix.cols,
                                bytearray(matrix.rows))
    _peel(st, np.flatnonzero(counts == 1).tolist())
    return st


def _peel_core(code, word: ReceivedWord) -> TriangularizationState:
    """Peel H over the erased positions of ``word``, the known symbols giving
    the row parities; ``_with_punctured`` has checked the word's length."""
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
        residual = tuple(compress(range(word.n), st.unknown))
        return DecodeResult("it_stall", residual=residual, stats=stats)
    return _finish(code, word, _filled(word.values.bits, st), stats)


def min_row_pivot(st: TriangularizationState) -> int:
    """Row-driven inactivation, the minimum-row-degree rule of inactivation
    decoding (RFC 6330, 5.4.2.2): the unanchored row with the fewest
    unknowns, two or more, lowest index first, gives up its unknown of
    highest column weight, lowest index on ties. A row of two unknowns is
    then left with one, so such a pivot resolves at least one more unknown;
    rows of three or more (a plain scan) almost never remain at a stall.
    An anchored row holds no unknown, so the first row of count 2 is the
    row sought whenever there is one."""
    rowcnt, unknown, col_adj = st.rowcnt, st.unknown, st.col_adj
    try:
        r = rowcnt.index(2)
    except ValueError:  # no row holds exactly two unknowns: scan for the fewest
        r = min(((cnt, r) for r, cnt in enumerate(rowcnt) if cnt > 1), default=(0, -1))[1]
        if r < 0:  # no unanchored row holds an unknown
            return unknown.index(1)
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
    return min(compress(range(len(unknown)), unknown), key=lambda u: (-len(col_adj[u]), u))


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
    col_adj, unknown, rowcnt, rowpar, value = st.col_adj, st.unknown, st.rowcnt, st.rowpar, st.value
    pivots = st.pivots
    while st.left:
        # inactivate: the pivot's value is its own bit; then peel from the
        # rows it leaves with a single unknown
        u = pivot_strategy(st)
        v = value[u] = 2 << len(pivots)
        unknown[u] = 0
        pivots.append(u)
        queue = []
        for r in col_adj[u]:
            cnt = rowcnt[r] = rowcnt[r] - 1
            rowpar[r] ^= v
            if cnt == 1:
                queue.append(r)
        _peel(st, queue)
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


def ml_decode(code, word: ReceivedWord) -> DecodeResult:
    """Structured-GE ML decoding: peel, and on a stall inactivate pivots and
    solve for them by dense GE. Succeeds iff the erased columns of H are
    linearly independent, exactly matching oracle_decode."""
    word = _with_punctured(code, word)
    st = _peel_core(code, word)
    rank = None
    if st.left:
        triangularize(st, None, min_row_pivot)
        rank = solve_inactivated(st)
    stats = DecodeStats(len(st.resolved), len(st.pivots), (code.h.rows, st.size))
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
    """Every check row touching the set touches it at least twice: no row
    counts exactly one of H's entries in the set's columns."""
    rows, cols = code.h.edges()
    in_set = np.zeros(code.h.cols, np.bool_)
    in_set[list(positions)] = True
    return not (np.bincount(rows[in_set[cols]], minlength=code.h.rows) == 1).any()


def _with_punctured(code, word: ReceivedWord) -> ReceivedWord:
    """``word`` with the code's punctured positions, which are never sent,
    erased too: the word itself when its mask already holds them."""
    if word.n != code.h.cols:
        raise ValueError(f"word length {word.n} != code length {code.h.cols}")
    punct = code.punctured_array
    if word.erased_mask[punct].all():
        return word
    mask = word.erased_mask.copy()
    mask[punct] = True
    return ReceivedWord.from_full(word.values, mask)


def _filled(bits: int, st: TriangularizationState) -> int:
    """``bits`` with every unknown of ``st`` set to its value, which is a
    bit once no pivot is left in it: the values, 0 or 1 per column, packed
    at once."""
    return bits | BinVector.from_bits(np.frombuffer(bytes(st.value), np.uint8)).bits


def _finish(code, word: ReceivedWord, bits: int, stats: DecodeStats) -> DecodeResult:
    recovered = BinVector(word.n, bits)
    # bug trap: any success must satisfy every parity check
    par = _parities(code.h, recovered)
    if par.any():
        raise InternalConsistencyError(f"check row {par.argmax()} violated after decode")
    return DecodeResult("success", recovered=recovered, stats=stats)

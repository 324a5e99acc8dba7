"""BEC decoders: iterative peeling, structured-GE ML decoding with pivot
inactivation, and the dense-GE oracle.

Peeling and ML decoding share one peel loop over H's adjacency lists. The
ML decoder peels until no check holds a single erased symbol, then
inactivates a pivot, peels again from the rows that pivot leaves with one
unknown, every value now an XOR of pivots plus a constant, and repeats;
dense GE runs only on the small residual pivot system. The hybrid decoder
(peel, then ML) is the same decoder under its older name.
``solve_inactivated`` is the one solve stage after triangularization, for
LDPC and Raptor systems alike: gather A', solve it for the pivots,
substitute them back.

A decode of a received word crosses H's cached edge arrays once at each
end. At the start, one gather of a per-position key and one bincount give
every row both its count of erased positions and the parity of its known
symbols; the word's bits become the columns' first values. At the end, the
resolved values fill that array, and the same reduction over it re-checks
every parity before the word is packed once. The scan for a row the known
symbols violate runs on a stall, and on a finished peel only when the
re-check fails, as only then can it find one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import gt

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
    values. The mask is a boolean numpy array of shape (n,), which the word
    keeps (the caller must not modify it afterwards)."""

    values: BinVector  # the erased positions are cleared here
    erased_mask: np.ndarray  # n booleans; includes punctured positions once decoded
    n: int = field(init=False)

    def __post_init__(self):
        self.n = self.values.n
        mask = self.erased_mask
        _check_mask(mask, self.n)
        if self.values.bits:  # a zero word needs no clearing
            self.values = BinVector(self.n, self.values.bits & ~BinVector.from_bits(mask).bits)

    @classmethod
    def from_full(cls, full: BinVector, erased) -> "ReceivedWord":
        return cls(full, erased)


def _check_mask(mask, n: int) -> None:
    """Raise ValueError unless ``mask`` is a boolean numpy array of shape (n,)."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_ and mask.shape == (n,)):
        raise ValueError(f"an erasure mask must be a boolean numpy array of shape ({n},)")


@dataclass
class DecodeStats:
    peeled: int = 0
    pivots: int = 0
    system_shape: tuple = ()


@dataclass
class DecodeResult:
    """What every decoder returns, LDPC and Raptor alike."""

    status: str  # 'success' | 'it_stall' | 'rank_deficient'
    recovered: BinVector = None  # an LDPC code's codeword
    c: BinVector = None  # a Raptor code's message
    residual: np.ndarray = None  # a stall's unresolved positions, as n booleans
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
    symbols included. ``value`` holds a known column's symbol from the
    start, so once every value is a bit it is the recovered word.
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
    value: bytearray  # per column; a list of ints once a pivot is taken
    anchored: bytearray
    resolved: list = field(default_factory=list)
    pivots: list = field(default_factory=list)

    @property
    def left(self) -> int:
        """Unknowns neither resolved nor inactivated."""
        return self.size - len(self.resolved) - len(self.pivots)


def _row_sums(h: SparseBinMatrix, key: np.ndarray) -> np.ndarray:
    """Per row of ``h``, the sum of ``key``, one number per column, over the
    row's columns, as integers: one gather at H's edge arrays, kept on the
    matrix, and one weighted bincount. A row with no entries sums to 0."""
    edge_rows, edge_cols = h.edges()
    return np.bincount(edge_rows, key[edge_cols], h.rows).astype(np.intp)


def split_by_erasure(code, word: ReceivedWord):
    """Split H by the erasure pattern: columns of erased positions plus the
    syndrome contributed by the known symbols."""
    h = code.h
    if word.n != h.cols:
        raise ValueError(f"word length {word.n} != code length {h.cols}")
    erased = np.flatnonzero(word.erased_mask).tolist()
    pos = [-1] * word.n
    for i, c in enumerate(erased):
        pos[c] = i
    hk_rows = []
    col_adj = [[] for _ in erased]
    for r, cs in enumerate(h.row_adj):
        local = [pos[c] for c in cs if pos[c] >= 0]
        hk_rows.append(local)
        for li in local:
            col_adj[li].append(r)
    hkbar = SparseBinMatrix._raw(hk_rows, col_adj)
    return hkbar, BinVector.from_bits(_row_sums(h, word.values.unpacked()) & 1)


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


def _start(matrix, unknown: bytearray, counts: np.ndarray, rowpar: list,
           value: bytearray) -> TriangularizationState:
    """Peel matrix·x = rowpar until no row holds a single unknown. ``unknown``
    flags the unknown columns, ``counts`` counts each row's, and ``value``
    holds every column's first value."""
    st = TriangularizationState(matrix.row_adj, matrix.col_adj, unknown.count(1), unknown,
                                counts.tolist(), rowpar, value, bytearray(matrix.rows))
    _peel(st, np.flatnonzero(counts == 1).tolist())
    return st


def _word_start(h: SparseBinMatrix, word: ReceivedWord) -> tuple:
    """Per row of ``h``, its count of erased positions of ``word`` (an array)
    and the parity of its known set bits (a list), and the word's bits as
    the columns' first values. One reduction over H's edges gives both
    per-row figures: each position's key is erased·M + bit, M being the
    power of two above n and so above every row's weight, and a row's key
    sum is its count of unknowns times M plus its count of set known bits,
    whose parity is that of the sum. A zero word needs the counts only."""
    mask = word.erased_mask
    if not word.values.bits:
        return _row_sums(h, mask), [0] * h.rows, bytearray(h.cols)
    shift = h.cols.bit_length()
    bits = word.values.unpacked()
    key = mask.astype(np.int32) << shift
    key |= bits
    sums = _row_sums(h, key)
    return sums >> shift, (sums & 1).tolist(), bytearray(bits)


def _peel_core(code, word: ReceivedWord) -> TriangularizationState:
    """Peel H over the erased positions of ``word``, the known symbols giving
    the row parities; ``_with_punctured`` has checked the word's length."""
    return _start(code.h, bytearray(word.erased_mask), *_word_start(code.h, word))


def _check_known(st: TriangularizationState) -> None:
    """Raise InconsistentInputError at the first row left with no unknown
    whose parity the known symbols violate. Before any pivot each parity is
    0 or 1 and no count is negative, so par > cnt is exactly such a row."""
    if any(map(gt, st.rowpar, st.rowcnt)):
        r = list(map(gt, st.rowpar, st.rowcnt)).index(True)
        raise InconsistentInputError(f"check row {r} violated by known symbols")


def peel_decode(code, word: ReceivedWord) -> DecodeResult:
    """Iteratively resolve erased positions appearing alone in some check."""
    word = _with_punctured(code, word)
    st = _peel_core(code, word)
    stats = DecodeStats(peeled=len(st.resolved))
    if st.left:
        _check_known(st)
        return DecodeResult("it_stall", residual=np.frombuffer(st.unknown, np.bool_), stats=stats)
    return _finish(code.h, _values(st), stats, st)


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
    else:  # every column of this fresh system, built per decode, is unknown
        st = _start(system, bytearray(b"\1") * system.cols,
                    np.fromiter(map(len, system.row_adj), np.intp, system.rows),
                    syndrome.to_list(), bytearray(system.cols))
    if st.left:  # a pivot's value takes more than a byte
        st.value = list(st.value)
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
    solution, rank = dense_gauss_solve(aprime, rhs_prime)
    if solution is None:
        raise InconsistentInputError("received symbols are inconsistent")
    return (solution if rank == aprime.cols else None), rank


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
        _check_known(st)
        triangularize(st, None, min_row_pivot)
        rank = solve_inactivated(st)
    stats = DecodeStats(len(st.resolved), len(st.pivots), (code.h.rows, st.size))
    if rank is not None:
        return DecodeResult("rank_deficient", rank=rank, stats=stats)
    return _finish(code.h, _values(st), stats, st)


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
    recovered = word.values.unpacked()
    recovered[np.flatnonzero(word.erased_mask)[solution.ones()]] = True
    return _finish(code.h, recovered, stats)


def is_stopping_set(code, mask) -> bool:
    """Every check row touching the set touches it at least twice: no row
    counts exactly one of H's entries in the set's columns. The set is an
    erasure mask, checked as ``ReceivedWord`` checks one."""
    _check_mask(mask, code.h.cols)
    return not (_row_sums(code.h, mask) == 1).any()


def _with_punctured(code, word: ReceivedWord) -> ReceivedWord:
    """``word`` with the code's punctured positions, which are never sent,
    erased too: the word itself when its mask already holds them."""
    if word.n != code.h.cols:
        raise ValueError(f"word length {word.n} != code length {code.h.cols}")
    punct = code.punctured_mask
    if not code.punctured or word.erased_mask[punct].all():
        return word
    return ReceivedWord.from_full(word.values, word.erased_mask | punct)


def _values(st: TriangularizationState) -> np.ndarray:
    """The value of every column of ``st`` as an array of booleans, once
    each is a bit: the recovered word, known symbols included."""
    return np.frombuffer(bytes(st.value), np.bool_)


def _finish(h: SparseBinMatrix, recovered: np.ndarray, stats: DecodeStats,
            st: TriangularizationState = None) -> DecodeResult:
    """Success for ``recovered``, n booleans, once it passes the bug trap:
    every parity check of ``h``, taken from the word itself by the start's
    reduction. A peel that finished with no pivot holds in ``st.rowpar``
    each row's parity under that word, so the known-symbol check runs only
    when the trap fires, to report inconsistent input as such."""
    par = _row_sums(h, recovered) & 1
    if par.any():
        if st is not None and not st.pivots:
            _check_known(st)
        raise InternalConsistencyError(f"check row {par.argmax()} violated after decode")
    return DecodeResult("success", recovered=BinVector.from_bits(recovered), stats=stats)

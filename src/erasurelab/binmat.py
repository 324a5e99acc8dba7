"""GF(2) matrix kernel: packed dense matrices, sparse adjacency matrices,
and dense Gaussian elimination used as the brute-force oracle everywhere else.

Dense rows are stored as Python integers (bit j of a row word is column j),
so row XOR and row-vector products run at word speed regardless of width.
This module alone knows that format: ``BinVector.from_bits`` packs bits into
such a word and ``BinVector.unpacked`` unpacks one, and every other
conversion in the package goes through the two.
Every linear map in the package is held as such row words, and callers work
on ``row_words`` (or the sparse ``row_adj``/``col_adj`` lists) directly; this
module keeps only what the package calls: elimination (solve with a vector
right-hand side, rank), the chunk-table matrix-vector product, sparse
conversion and the text format.

Elimination is one blocked routine in two phases. The forward phase clears
each block of pivot columns from the rows below it, which leaves echelon
form; the back phase clears them from the rows above, for the reduced form
that ``_gauss_jordan`` gives its callers. ``rank`` and ``dense_gauss_solve``
run the forward phase alone; the solve eliminates a head of the first
``cols + _HEAD_SPARE`` rows, and when that head has full column rank it
checks each later row by one parity against the solution the head fixes.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


class DimensionError(ValueError):
    """Operands with non-conforming shapes."""


class BinVector:
    """Fixed-length bit vector over GF(2), packed into one integer."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        self.n = n
        self.bits = bits & ((1 << n) - 1) if n else 0

    @classmethod
    def from_bits(cls, seq) -> "BinVector":
        """The vector whose bit i is set when ``seq[i]`` is true: ``seq`` is
        a boolean or integer numpy array, or any iterable."""
        if not isinstance(seq, np.ndarray):
            seq = np.fromiter(seq, np.bool_)
        return cls(len(seq), int.from_bytes(np.packbits(seq, bitorder="little"), "little"))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def to_list(self) -> list:
        return self.unpacked().view(np.uint8).tolist()

    def ones(self) -> list:
        """Positions of the set bits, increasing."""
        return np.flatnonzero(self.unpacked()).tolist()

    def unpacked(self) -> np.ndarray:
        """The bits as a length-n boolean array."""
        packed = np.frombuffer(self.bits.to_bytes(-(-self.n // 8), "little"), np.uint8)
        return np.unpackbits(packed, count=self.n, bitorder="little").view(np.bool_)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinVector)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __repr__(self) -> str:
        return f"BinVector({''.join(str(b) for b in self.to_list())})"


class DenseBinMatrix:
    """Dense GF(2) matrix; each row is one packed integer word."""

    __slots__ = ("rows", "cols", "row_words")

    def __init__(self, rows: int, cols: int, row_words):
        self.rows = rows
        self.cols = cols
        if len(row_words) != rows:
            raise DimensionError("row_words length does not match row count")
        self.row_words = list(row_words)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseBinMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_words == other.row_words
        )

    def __repr__(self) -> str:
        return f"DenseBinMatrix({self.rows}x{self.cols})"


# Columns per elimination block; under the forward phase alone, 4, 5 and 6
# measured within 3% of each other and 7-10 slower on the pivot systems of
# GeIRA (1024,512) ML decoding.
_BLOCK = 6

# Rows past the column count in the head that ``dense_gauss_solve`` eliminates
# first; a head that falls short of full column rank costs a second
# elimination over all rows. On the pivot systems of GeIRA (1024,512) ML
# decoding (64 draws at each of eps 0.40 and 0.46) the head fell short on 1
# and 0 of them with 8 spare rows, 21 and 9 with 4, and 62 and 59 with none.
_HEAD_SPARE = 8


def _clear_block(rows: list, lo: int, hi: int, c0: int, table: list) -> None:
    """Clear a block's columns ``c0, c0+1, ...`` from ``rows[lo:hi]``, given
    the table of all XORs of its pivot rows (entry i is the XOR of the pivot
    rows j with bit j of i set; pivot row j holds column c0+j and no other
    of the block's columns): one lookup clears a row, by the method of four
    Russians. A block of one pivot row clears its column in place."""
    if len(table) == 2:
        pw, bit = table[1], 1 << c0
        for r in range(lo, hi):
            if rows[r] & bit:
                rows[r] ^= pw
    else:
        mask = len(table) - 1
        rows[lo:hi] = [w ^ table[w >> c0 & mask] for w in rows[lo:hi]]


def _eliminate_forward(rows: list, ncols: int) -> tuple:
    """The forward phase of blocked elimination, in place, over the low
    ``ncols`` bits of the packed ``rows``; bits above them ride along as an
    augmented part. Returns (pivots, blocks): row i holds pivot column
    ``pivots[i]`` and every row below it is clear of that column, so the
    rows past the last pivot are zero below ``ncols``; ``blocks`` holds each
    block's (first pivot row, first column, table) for the back phase.

    Blocked as in M4RI: a block is a run of up to ``_BLOCK`` consecutive
    columns that each get a pivot, and a column with no pivot ends it. While
    the block grows, each candidate row is reduced by the block's pivot rows
    found so far, which are kept reduced against each other; at its end the
    block's columns are cleared from the rows below it. The rows above keep
    them until the back phase."""
    nr = len(rows)
    pivots = []
    blocks = []
    col = 0
    while col < ncols and len(pivots) < nr:
        c0, p0 = col, len(pivots)
        block = []  # (column bit, pivot row) of this block, in column order
        while col < ncols and col - c0 < _BLOCK and p0 + len(block) < nr:
            bit = 1 << col
            col += 1
            prow = p0 + len(block)
            for sel in range(prow, nr):
                w = rows[sel]
                for pb, pw in block:
                    if w & pb:
                        w ^= pw
                if w & bit:
                    break
            else:
                break
            rows[sel] = rows[prow]
            block = [(pb, pw ^ w if pw & bit else pw) for pb, pw in block]
            block.append((bit, w))
            pivots.append(col - 1)
        if block:
            table = [0]
            for _, pw in block:
                table += [t ^ pw for t in table]
            p1 = p0 + len(block)
            rows[p0:p1] = [pw for _, pw in block]
            if p1 < nr:
                _clear_block(rows, p1, nr, c0, table)
            blocks.append((p0, c0, table))
    return pivots, blocks


def _eliminate_back(rows: list, blocks: list) -> None:
    """The back phase: clear each forward block's columns from the rows above
    it with the block's own forward table, so that afterwards row i is the
    only row holding column ``pivots[i]``. The blocks go first to last: a
    block's table rows are clear of every earlier pivot column, so a later
    block never brings one back, while going last to first would need each
    table built again from back-reduced rows."""
    for p0, c0, table in blocks[1:]:  # the first block has no rows above it
        _clear_block(rows, 0, p0, c0, table)


def _gauss_jordan(rows: list, ncols: int) -> list:
    """Gauss-Jordan elimination, in place, over the low ``ncols`` bits of the
    packed ``rows``; bits above them ride along as an augmented part. Returns
    the pivot columns: afterwards row i is the only row holding column
    ``pivots[i]``, and the rows past the last pivot are zero below ``ncols``.
    The forward phase leaves the rows in echelon form and the back phase
    clears the pivot columns above it; each row then is the unique vector in
    (row + span of the pivot rows) that is zero on the pivot columns, as
    after eliminating one column at a time."""
    pivots, blocks = _eliminate_forward(rows, ncols)
    _eliminate_back(rows, blocks)
    return pivots


def dense_gauss_solve(m: DenseBinMatrix, rhs: BinVector) -> tuple:
    """Gaussian elimination of M x = rhs; the input matrix is not mutated.
    Returns (solution, rank): a particular solution with the free variables
    set to zero, or None when the system is inconsistent, and the rank of M.
    The solution is unique when the rank is M's column count.

    Only the forward phase runs, first on a head of the first
    ``cols + _HEAD_SPARE`` rows. When the head has full column rank it fixes
    the one candidate solution, read off its echelon rows by
    back-substitution, and each later row is checked against it by parity
    alone; only a head that falls short while rows remain is eliminated
    again over all rows."""
    if rhs.n != m.rows:
        raise DimensionError(f"rhs length {rhs.n} != row count {m.rows}")
    nc = m.cols
    aug = [w | ((rhs.bits >> i) & 1) << nc for i, w in enumerate(m.row_words)]
    head = aug[: nc + _HEAD_SPARE]
    pivots, _ = _eliminate_forward(head, nc)
    if len(pivots) < nc and len(head) < len(aug):
        head = aug
        pivots, _ = _eliminate_forward(head, nc)
    rank = len(pivots)
    if any(w >> nc for w in head[rank:]):
        return None, rank
    # row i reads pivots[i] and, past it, only free columns, which are zero,
    # and later pivot columns, already solved
    bits = 0
    for i in range(rank - 1, -1, -1):
        w = head[i]
        bits |= ((w & bits).bit_count() ^ w >> nc) % 2 << pivots[i]
    # a later row holds its right-hand side at bit nc: an odd parity against
    # the solution and that bit is a row the solution does not satisfy
    check = bits | 1 << nc
    if any((w & check).bit_count() % 2 for w in aug[len(head) :]):
        return None, rank
    return BinVector(nc, bits), rank


def rank(m: DenseBinMatrix) -> int:
    return len(_eliminate_forward(list(m.row_words), m.cols)[0])


class ChunkTables:
    """The GF(2) product x -> M·x of a fixed matrix M, given by its packed
    ``rows`` over ``ncols`` columns: bit i of the image is the parity of row
    i over x. By the method of four Russians for a matrix-vector product:
    the columns are taken in chunks of 4, and each chunk's table holds the
    XOR of every subset of its columns, so the image is one lookup per chunk
    of x, read two chunks to a byte. The tables cost 16 words of len(rows)
    bits per chunk; chunks of 8 would cost 8 times as much."""

    __slots__ = ("nbytes", "low", "high")

    def __init__(self, rows, ncols: int):
        self.nbytes = nb = -(-ncols // 8)
        packed = np.frombuffer(b"".join(w.to_bytes(nb, "little") for w in rows), np.uint8)
        packed = packed.reshape(len(rows), nb)
        columns = []
        for b in range(0, nb, 8):  # 64 columns at a time keep the unpacked copy small
            bits = np.unpackbits(packed[:, b : b + 8], axis=1, bitorder="little")
            columns += [int.from_bytes(c.tobytes(), "little")
                        for c in np.packbits(bits.T, axis=1, bitorder="little")]
        tables = []
        for j in range(0, ncols, 4):
            table = [0]
            for col in columns[j : min(j + 4, ncols)]:
                table += [t ^ col for t in table]
            tables.append(table)
        # a chunk past the last column reads only zeros
        self.low, self.high = tables[0::2], tables[1::2] + [[0]] * (len(tables) % 2)

    def apply(self, x: int) -> int:
        """M·x for an ``x`` with no bit at or above ``ncols``."""
        out = 0
        for low, high, b in zip(self.low, self.high, x.to_bytes(self.nbytes, "little")):
            out ^= low[b & 15] ^ high[b >> 4]
        return out


class SparseBinMatrix:
    """Sparse GF(2) matrix with mutually consistent row/column adjacency.

    Adjacency lists are kept sorted and duplicate-free; the column lists
    serve the peeling decoder's residual-degree queries.
    """

    __slots__ = ("rows", "cols", "row_adj", "col_adj", "_edges")

    def __init__(self, rows: int, cols: int, row_adj=None):
        self.rows = rows
        self.cols = cols
        self._edges = None
        self.row_adj = [[] for _ in range(rows)]
        self.col_adj = [[] for _ in range(cols)]
        if row_adj is not None:
            for r, cs in enumerate(row_adj):
                seen = sorted(set(cs))
                for c in seen:
                    if not 0 <= c < cols:
                        raise IndexError(c)
                self.row_adj[r] = seen
            for r in range(rows):
                for c in self.row_adj[r]:
                    self.col_adj[c].append(r)

    @classmethod
    def _raw(cls, row_adj, col_adj) -> "SparseBinMatrix":
        """Trusted constructor for internal hot paths: adjacency must already
        be sorted, duplicate-free, and mutually consistent."""
        m = cls.__new__(cls)
        m.rows = len(row_adj)
        m.cols = len(col_adj)
        m.row_adj = row_adj
        m.col_adj = col_adj
        m._edges = None
        return m

    def edges(self) -> tuple:
        """The (row, column) index arrays of the set entries, row by row;
        built on the first call and kept, as the matrix does not change."""
        if self._edges is None:
            lengths = [len(cs) for cs in self.row_adj]
            rows = np.repeat(np.arange(self.rows), lengths)
            cols = np.fromiter(chain.from_iterable(self.row_adj), np.intp, len(rows))
            self._edges = rows, cols
        return self._edges

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "SparseBinMatrix":
        row_adj = [[] for _ in range(rows)]
        for r, c in entries:
            row_adj[r].append(c)
        return cls(rows, cols, row_adj)

    @classmethod
    def from_dense(cls, m: DenseBinMatrix) -> "SparseBinMatrix":
        row_adj = []
        for w in m.row_words:
            cs = []
            while w:
                cs.append((w & -w).bit_length() - 1)
                w &= w - 1
            row_adj.append(cs)
        return cls(m.rows, m.cols, row_adj)

    def to_dense(self) -> DenseBinMatrix:
        words = []
        for cs in self.row_adj:
            w = 0
            for c in cs:
                w |= 1 << c
            words.append(w)
        return DenseBinMatrix(self.rows, self.cols, words)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseBinMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_adj == other.row_adj
        )


_ZERO = ord("0")  # a text row holds the ASCII digits 0 and 1, bit j at column j


def dense_to_text(m: DenseBinMatrix) -> str:
    """Golden-file matrix text format: "rows cols" then 0/1 rows. Bit-exact."""
    lines = [f"{m.rows} {m.cols}"]
    for w in m.row_words:
        lines.append((BinVector(m.cols, w).unpacked().view(np.uint8) + _ZERO).tobytes().decode())
    return "\n".join(lines) + "\n"


def dense_from_text(text: str) -> DenseBinMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("missing matrix")
    rows, cols = (int(t) for t in lines[0].split())
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    words = []
    for ln in lines[1 : rows + 1]:
        ln = ln.strip()
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"bad matrix row: {ln!r}")
        words.append(BinVector.from_bits(np.frombuffer(ln.encode(), np.uint8) - _ZERO).bits)
    return DenseBinMatrix(rows, cols, words)

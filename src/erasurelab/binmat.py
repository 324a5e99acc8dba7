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
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def weight(self) -> int:
        return self.bits.bit_count()

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


@dataclass
class SolveOutcome:
    """Result of GF(2) Gaussian elimination on M x = rhs.

    ``solution`` is a particular solution with free variables set to zero,
    or None when the system is inconsistent; ``unique`` means consistent
    with full column rank.
    """

    rank: int
    consistent: bool
    unique: bool
    solution: BinVector


# Columns per elimination block; 6 and 7 measured fastest among 4-10 on the
# pivot systems of GeIRA (1024,512) ML decoding.
_BLOCK = 6


def _gauss_jordan(rows: list, ncols: int) -> list:
    """Gauss-Jordan elimination, in place, over the low ``ncols`` bits of the
    packed ``rows``; bits above them ride along as an augmented part. Returns
    the pivot columns: afterwards row i is the only row holding column
    ``pivots[i]``, and the rows past the last pivot are zero below ``ncols``.

    Blocked by the method of four Russians (as in M4RI): a block is a run of
    up to ``_BLOCK`` consecutive columns that each get a pivot, and a column
    with no pivot ends it. While the block grows, each candidate row is
    reduced by the block's pivot rows found so far, which are kept reduced
    against each other; at its end, a table of all XORs of those pivot rows
    clears the block's columns of every other row with one lookup. Each row
    then is the unique vector in (row + span of the pivot rows) that is zero
    on the pivot columns, as after eliminating one column at a time. A block
    of one pivot clears its column in place, without a table."""
    nr = len(rows)
    pivots = []
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
        if len(block) == 1:
            (bit, pw), = block
            for r in range(nr):
                if rows[r] & bit:
                    rows[r] ^= pw
            rows[p0] = pw
        elif block:
            table = [0]
            for _, pw in block:
                table += [t ^ pw for t in table]
            mask = len(table) - 1
            rows[:] = [w ^ table[w >> c0 & mask] for w in rows]
            rows[p0 : p0 + len(block)] = [pw for _, pw in block]
    return pivots


def dense_gauss_solve(m: DenseBinMatrix, rhs: BinVector) -> SolveOutcome:
    """Brute-force Gaussian elimination; the input matrix is not mutated."""
    if rhs.n != m.rows:
        raise DimensionError(f"rhs length {rhs.n} != row count {m.rows}")
    nc = m.cols
    aug = [w | ((rhs.bits >> i) & 1) << nc for i, w in enumerate(m.row_words)]
    pivots = _gauss_jordan(aug, nc)
    rank = len(pivots)
    consistent = all(w >> nc == 0 for w in aug[rank:])
    solution = None
    if consistent:
        bits = 0
        for i, col in enumerate(pivots):
            bits |= (aug[i] >> nc) << col
        solution = BinVector(nc, bits)
    return SolveOutcome(rank, consistent, consistent and rank == nc, solution)


def rank(m: DenseBinMatrix) -> int:
    return len(_gauss_jordan(list(m.row_words), m.cols))


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
    def _raw(cls, rows: int, cols: int, row_adj, col_adj) -> "SparseBinMatrix":
        """Trusted constructor for internal hot paths: adjacency must already
        be sorted, duplicate-free, and mutually consistent."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
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

"""GF(2) matrix kernel: packed dense matrices, sparse adjacency matrices,
and dense Gaussian elimination used as the brute-force oracle everywhere else.

Dense rows are stored as Python integers (bit j of a row word is column j),
so row XOR and row-vector products run at word speed regardless of width.
"""

from __future__ import annotations

from dataclasses import dataclass


class DimensionError(ValueError):
    """Operands with non-conforming shapes."""


class SingularMatrixError(ValueError):
    def __init__(self, dim: int, rank: int):
        super().__init__(f"matrix of dimension {dim} is singular (rank {rank})")
        self.dim = dim
        self.rank = rank


def _parity(x: int) -> int:
    return x.bit_count() & 1


class BinVector:
    """Fixed-length bit vector over GF(2), packed into one integer."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        self.n = n
        self.bits = bits & ((1 << n) - 1) if n else 0

    @classmethod
    def from_bits(cls, seq) -> "BinVector":
        seq = list(seq)
        bits = 0
        for i, b in enumerate(seq):
            if b:
                bits |= 1 << i
        return cls(len(seq), bits)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def set(self, i: int, value: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(i)
        if value:
            self.bits |= 1 << i
        else:
            self.bits &= ~(1 << i)

    def __xor__(self, other: "BinVector") -> "BinVector":
        if self.n != other.n:
            raise DimensionError(f"length mismatch {self.n} vs {other.n}")
        return BinVector(self.n, self.bits ^ other.bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def to_list(self) -> list:
        return [(self.bits >> i) & 1 for i in range(self.n)]

    def ones(self) -> list:
        """Positions of the set bits, increasing."""
        return [i for i, ch in enumerate(bin(self.bits)[:1:-1]) if ch == "1"]

    def copy(self) -> "BinVector":
        return BinVector(self.n, self.bits)

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

    def __init__(self, rows: int, cols: int, row_words=None):
        self.rows = rows
        self.cols = cols
        if row_words is None:
            row_words = [0] * rows
        if len(row_words) != rows:
            raise DimensionError("row_words length does not match row count")
        self.row_words = list(row_words)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseBinMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "DenseBinMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_rows(cls, rowlists) -> "DenseBinMatrix":
        rowlists = [list(r) for r in rowlists]
        if not rowlists:
            return cls(0, 0)
        cols = len(rowlists[0])
        words = []
        for r in rowlists:
            if len(r) != cols:
                raise DimensionError("ragged rows")
            w = 0
            for j, b in enumerate(r):
                if b:
                    w |= 1 << j
            words.append(w)
        return cls(len(rowlists), cols, words)

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        return (self.row_words[r] >> c) & 1

    def set(self, r: int, c: int, value: int) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        if value:
            self.row_words[r] |= 1 << c
        else:
            self.row_words[r] &= ~(1 << c)

    def row(self, r: int) -> BinVector:
        return BinVector(self.cols, self.row_words[r])

    def xor_row_into(self, src: int, dst: int) -> None:
        """row[dst] ^= row[src]; involutive."""
        self.row_words[dst] ^= self.row_words[src]

    def copy(self) -> "DenseBinMatrix":
        return DenseBinMatrix(self.rows, self.cols, self.row_words)

    def to_lists(self) -> list:
        return [[(w >> j) & 1 for j in range(self.cols)] for w in self.row_words]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseBinMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_words == other.row_words
        )

    def __repr__(self) -> str:
        return f"DenseBinMatrix({self.rows}x{self.cols})"


def mul(m: DenseBinMatrix, n: DenseBinMatrix) -> DenseBinMatrix:
    if m.cols != n.rows:
        raise DimensionError(f"cannot multiply {m.cols}-col by {n.rows}-row")
    out = []
    for w in m.row_words:
        acc = 0
        ww = w
        while ww:
            j = (ww & -ww).bit_length() - 1
            acc ^= n.row_words[j]
            ww &= ww - 1
        out.append(acc)
    return DenseBinMatrix(m.rows, n.cols, out)


def mul_vec(m: DenseBinMatrix, v: BinVector) -> BinVector:
    if m.cols != v.n:
        raise DimensionError(f"cannot apply {m.cols}-col matrix to length-{v.n} vector")
    bits = 0
    for i, w in enumerate(m.row_words):
        if _parity(w & v.bits):
            bits |= 1 << i
    return BinVector(m.rows, bits)


def submatrix_rows(m: DenseBinMatrix, indices) -> DenseBinMatrix:
    words = []
    for i in indices:
        if not 0 <= i < m.rows:
            raise IndexError(i)
        words.append(m.row_words[i])
    return DenseBinMatrix(len(words), m.cols, words)


def submatrix_cols(m: DenseBinMatrix, indices) -> DenseBinMatrix:
    indices = list(indices)
    for j in indices:
        if not 0 <= j < m.cols:
            raise IndexError(j)
    words = []
    for w in m.row_words:
        nw = 0
        for pos, j in enumerate(indices):
            if (w >> j) & 1:
                nw |= 1 << pos
        words.append(nw)
    return DenseBinMatrix(m.rows, len(indices), words)


@dataclass
class SolveOutcome:
    """Result of GF(2) Gaussian elimination on M x = rhs.

    ``solution`` is a particular solution with free variables set to zero
    (BinVector for a vector rhs, DenseBinMatrix for a matrix rhs), or None
    when the system is inconsistent.
    """

    rank: int
    free_cols: tuple
    consistent: bool
    solution: object

    @property
    def unique(self) -> bool:
        return self.consistent and not self.free_cols


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
    on the pivot columns, as after eliminating one column at a time."""
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
        if block:
            table = [0]
            for _, pw in block:
                table += [t ^ pw for t in table]
            mask = len(table) - 1
            rows[:] = [w ^ table[w >> c0 & mask] for w in rows]
            rows[p0 : p0 + len(block)] = [pw for _, pw in block]
    return pivots


def dense_gauss_solve(m: DenseBinMatrix, rhs) -> SolveOutcome:
    """Brute-force Gaussian elimination; the input matrix is not mutated."""
    if isinstance(rhs, BinVector):
        if rhs.n != m.rows:
            raise DimensionError(f"rhs length {rhs.n} != row count {m.rows}")
        rhs_words = [(rhs.bits >> i) & 1 for i in range(m.rows)]
        rhs_cols = 1
    elif isinstance(rhs, DenseBinMatrix):
        if rhs.rows != m.rows:
            raise DimensionError(f"rhs rows {rhs.rows} != row count {m.rows}")
        rhs_words = rhs.row_words
        rhs_cols = rhs.cols
    else:
        raise TypeError("rhs must be BinVector or DenseBinMatrix")

    nc = m.cols
    aug = [w | (r << nc) for w, r in zip(m.row_words, rhs_words)]
    pivots = _gauss_jordan(aug, nc)
    rank = len(pivots)
    pivot_set = set(pivots)
    free = tuple(c for c in range(nc) if c not in pivot_set)
    consistent = all(w >> nc == 0 for w in aug[rank:])

    solution = None
    if consistent:
        sol_words = [0] * nc
        for i, col in enumerate(pivots):
            sol_words[col] = aug[i] >> nc
        if isinstance(rhs, BinVector):
            solution = BinVector.from_bits(sol_words)
        else:
            solution = DenseBinMatrix(nc, rhs_cols, sol_words)
    return SolveOutcome(rank, free, consistent, solution)


def rank(m: DenseBinMatrix) -> int:
    return len(_gauss_jordan(list(m.row_words), m.cols))


def invert(m: DenseBinMatrix) -> DenseBinMatrix:
    if m.rows != m.cols:
        raise DimensionError("only square matrices can be inverted")
    out = dense_gauss_solve(m, DenseBinMatrix.identity(m.rows))
    if not out.unique:
        raise SingularMatrixError(m.rows, out.rank)
    return out.solution


class SparseBinMatrix:
    """Sparse GF(2) matrix with mutually consistent row/column adjacency.

    Adjacency lists are kept sorted and duplicate-free; the column lists
    serve the peeling decoder's residual-degree queries.
    """

    __slots__ = ("rows", "cols", "row_adj", "col_adj")

    def __init__(self, rows: int, cols: int, row_adj=None):
        self.rows = rows
        self.cols = cols
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
        return m

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

    def get(self, r: int, c: int) -> int:
        return 1 if c in self.row_adj[r] else 0

    def row_weight(self, r: int) -> int:
        return len(self.row_adj[r])

    def col_weight(self, c: int) -> int:
        return len(self.col_adj[c])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseBinMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_adj == other.row_adj
        )


def dense_to_text(m: DenseBinMatrix) -> str:
    """Golden-file matrix text format: "rows cols" then 0/1 rows. Bit-exact."""
    lines = [f"{m.rows} {m.cols}"]
    for w in m.row_words:
        lines.append("".join(str((w >> j) & 1) for j in range(m.cols)))
    return "\n".join(lines) + "\n"


def dense_from_text(text: str) -> DenseBinMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows, cols = (int(t) for t in lines[0].split())
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    words = []
    for ln in lines[1 : rows + 1]:
        ln = ln.strip()
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"bad matrix row: {ln!r}")
        w = 0
        for j, ch in enumerate(ln):
            if ch == "1":
                w |= 1 << j
        words.append(w)
    return DenseBinMatrix(rows, cols, words)

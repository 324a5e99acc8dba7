import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    from_rows,
    identity,
    invert,
    loop_dense_from_text,
    loop_dense_to_text,
    loop_from_bits,
    loop_ones,
    loop_to_list,
    mul,
    mul_vec,
    random_vector,
    scalar_gauss_jordan,
    scalar_gauss_solve,
    submatrix_rows,
    to_lists,
)
from erasurelab.binmat import (
    _BLOCK,
    _HEAD_SPARE,
    BinVector,
    ChunkTables,
    DenseBinMatrix,
    DimensionError,
    SparseBinMatrix,
    _gauss_jordan,
    dense_from_text,
    dense_gauss_solve,
    dense_to_text,
    rank,
)


def test_binvector_basics():
    v = BinVector.from_bits([1, 0, 1, 1])
    assert len(v) == 4
    assert v.to_list() == [1, 0, 1, 1]
    assert v.bits.bit_count() == 3
    assert v.ones() == [0, 2, 3]
    assert BinVector(5).ones() == []


def test_gauss_identity():
    solution, r = dense_gauss_solve(identity(3), BinVector.from_bits([1, 0, 1]))
    assert r == 3
    assert solution.to_list() == [1, 0, 1]


def test_gauss_duplicate_rows():
    m = from_rows([[1, 1], [1, 1]])
    solution, r = dense_gauss_solve(m, BinVector(2))
    assert r == 1 and m.cols - r == 1  # consistent, one free variable, set to 0
    assert solution.to_list() == [0, 0]
    # the rows disagree, so no solution
    assert dense_gauss_solve(m, BinVector.from_bits([1, 0])) == (None, 1)


def test_gauss_hamming_zero_syndrome():
    rows = [[(c + 1) >> b & 1 for c in range(7)] for b in range(3)]
    # the columns at positions 0, 1, 3 carry e1, e2, e3
    sub = from_rows([[r[c] for c in (0, 1, 3)] for r in rows])
    solution, r = dense_gauss_solve(sub, BinVector(3))
    assert r == 3
    assert solution.to_list() == [0, 0, 0]


def test_gauss_dim_mismatch():
    with pytest.raises(DimensionError):
        dense_gauss_solve(identity(3), BinVector(2))


def test_rank_examples():
    assert rank(DenseBinMatrix(4, 4, [0] * 4)) == 0
    assert rank(identity(5)) == 5
    assert rank(from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])) == 2


def test_invert_examples():
    assert invert(identity(4)) == identity(4)
    m = from_rows([[1, 1], [0, 1]])
    assert invert(m) == m  # self-inverse over GF(2)
    with pytest.raises(ValueError, match=r"singular \(rank 1\)"):
        invert(from_rows([[1, 1], [1, 1]]))


def test_mul_and_submatrix():
    m = from_rows([[1, 1, 0], [0, 1, 1]])
    assert mul(m, identity(3)) == m
    assert mul_vec(m, BinVector.from_bits([1, 1, 1])).to_list() == [0, 0]
    sub = submatrix_rows(identity(4), [1, 3])
    assert to_lists(sub) == [[0, 1, 0, 0], [0, 0, 0, 1]]
    with pytest.raises(DimensionError):
        mul_vec(m, BinVector(2))


@st.composite
def square_matrix(draw):
    n = draw(st.integers(1, 64))
    words = draw(st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n))
    return DenseBinMatrix(n, n, list(words))


@settings(max_examples=60, deadline=None)
@given(square_matrix())
def test_invert_iff_full_rank(m):
    r = rank(m)
    if r == m.rows:
        assert mul(m, invert(m)) == identity(m.rows)
    else:
        with pytest.raises(ValueError, match="singular"):
            invert(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**30))
def test_sparse_dense_roundtrip(nr, nc, seed):
    rng = np.random.default_rng(seed)
    dense = DenseBinMatrix(nr, nc, [int(b) for b in rng.integers(0, 2**nc, size=nr, dtype=np.int64)])
    sp = SparseBinMatrix.from_dense(dense)
    assert sp.to_dense() == dense
    for c in range(nc):
        assert len(sp.col_adj[c]) == sum((w >> c) & 1 for w in dense.row_words)


def test_dense_text_roundtrip():
    m = from_rows([[1, 0], [1, 1], [0, 1]])
    text = dense_to_text(m)
    assert text.splitlines()[0] == "3 2"
    assert dense_from_text(text) == m


# every length up to 300, with the byte boundaries and one bit either side
# of them drawn as often as all the others
_LENGTHS = st.one_of(st.integers(0, 300),
                     st.sampled_from([n for n in range(302) if n % 8 in (7, 0, 1)]))
_BITS = _LENGTHS.flatmap(lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n))
_FORMS = {
    "list": list,
    "generator": lambda bits: (b for b in bits),
    "bool array": lambda bits: np.array(bits, np.bool_),
    "uint8 array": lambda bits: np.array(bits, np.uint8),
    "intp array": lambda bits: np.array(bits, np.intp),
}


@settings(max_examples=300, deadline=None)
@given(_BITS, st.sampled_from(sorted(_FORMS)))
def test_from_bits_matches_loop(bits, form):
    v = BinVector.from_bits(_FORMS[form](bits))
    assert (v.n, v.bits) == (len(bits), loop_from_bits(bits).bits)


@settings(max_examples=300, deadline=None)
@given(_BITS)
def test_unpacking_matches_loop(bits):
    v = loop_from_bits(bits)
    out = v.to_list()
    assert out == loop_to_list(v) == bits
    assert all(type(b) is int for b in out)
    assert v.ones() == loop_ones(v)
    assert BinVector.from_bits(v.unpacked()) == v


@st.composite
def _dense_matrix(draw):
    cols = draw(st.integers(1, 140))
    rows = draw(st.lists(st.integers(0, 2**cols - 1), max_size=6))
    return DenseBinMatrix(len(rows), cols, rows)


@settings(max_examples=200, deadline=None)
@given(_dense_matrix())
def test_dense_text_matches_loop(m):
    text = dense_to_text(m)
    assert text == loop_dense_to_text(m)
    assert dense_from_text(text) == loop_dense_from_text(text) == m


def _read(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "0 3", "2 3", "1 4", "3 2", "2 x"]),
       st.text(alphabet="01 2\n\té", max_size=20))
def test_damaged_dense_text_reads_as_loop(head, body):
    """Any text, valid or not, gives the reference's matrix or its error."""
    text = head + "\n" + body
    assert _read(dense_from_text, text) == _read(loop_dense_from_text, text)


def test_gauss_does_not_mutate_input():
    m = from_rows([[1, 1], [1, 0]])
    before = DenseBinMatrix(m.rows, m.cols, m.row_words)
    dense_gauss_solve(m, BinVector(2))
    assert m == before


def _random_rows(rng, nr, ncols, rank=None, aug=0, zero_cols=(), density=0.5):
    """``nr`` packed rows over ``ncols`` columns plus ``aug`` random bits
    above them. With ``rank`` set, the low parts are XORs of that many random
    basis rows; the columns in ``zero_cols`` are cleared."""

    def word(width, p):
        bits = rng.random(width) < p
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    if rank is None:
        low = [word(ncols, density) for _ in range(nr)]
    else:
        basis = [word(ncols, density) for _ in range(rank)]
        low = []
        for _ in range(nr):
            w = 0
            for b in basis:
                if rng.random() < 0.5:
                    w ^= b
            low.append(w)
    keep = (1 << ncols) - 1
    for c in zero_cols:
        keep &= ~(1 << c)
    return [(w & keep) | word(aug, 0.5) << ncols for w in low]


def _assert_matches_scalar(rows, ncols):
    fast, ref = list(rows), list(rows)
    assert _gauss_jordan(fast, ncols) == scalar_gauss_jordan(ref, ncols)
    assert fast == ref


K = _BLOCK
# empty, wide, tall, A'-sized, and column counts at and around multiples of
# the block
SHAPES = [(0, 0), (0, 7), (7, 0), (1, 1), (3, 17), (17, 3), (40, 25), (25, 40), (160, 150)] + [
    (nr, nc)
    for nc in (K - 1, K, K + 1, 2 * K - 1, 2 * K, 2 * K + 1, 3 * K, 5 * K + 2)
    for nr in (nc - 2, nc, nc + 3)
    if nr >= 0
]


@pytest.mark.parametrize("nr,ncols", SHAPES)
def test_gauss_jordan_matches_scalar(nr, ncols):
    rng = np.random.default_rng(1000 * nr + ncols)
    for trial in range(30):
        rank = None if trial % 3 == 0 else int(rng.integers(0, min(nr, ncols) + 1))
        zero_cols = [c for c in range(ncols) if rng.random() < 0.15]
        rows = _random_rows(rng, nr, ncols, rank=rank, aug=int(rng.integers(0, 9)),
                            zero_cols=zero_cols, density=(0.1, 0.5, 0.9)[trial % 3])
        _assert_matches_scalar(rows, ncols)


def test_gauss_jordan_skipped_columns_mid_block():
    rng = np.random.default_rng(7)
    ncols = 4 * K
    skipped = [2, K + 1, K + 2, 3 * K - 1]
    for _ in range(50):
        rows = _random_rows(rng, ncols + 4, ncols, aug=3, zero_cols=skipped)
        fast = list(rows)
        pivots = _gauss_jordan(fast, ncols)
        assert not set(skipped) & set(pivots)
        assert len(pivots) == ncols - len(skipped)
        _assert_matches_scalar(rows, ncols)


@st.composite
def _gauss_system(draw):
    ncols = draw(st.integers(0, 4 * K + 1))
    aug = draw(st.integers(0, 4))
    basis = draw(st.lists(st.integers(0, 2**ncols - 1), max_size=ncols + 2))
    nr = draw(st.integers(0, ncols + 4))
    rows = []
    for _ in range(nr):
        pick = draw(st.integers(0, 2 ** len(basis) - 1))
        w = 0
        for i, b in enumerate(basis):
            if pick >> i & 1:
                w ^= b
        rows.append(w | draw(st.integers(0, 2**aug - 1)) << ncols)
    zero = draw(st.integers(0, 2**ncols - 1)) if draw(st.booleans()) else 0
    return [w & ~zero for w in rows], ncols


@settings(max_examples=300, deadline=None)
@given(_gauss_system())
def test_gauss_jordan_matches_scalar_property(system):
    rows, ncols = system
    _assert_matches_scalar(rows, ncols)


def _rhs_of(rows, x):
    """The right-hand side that makes ``x`` a solution of the rows."""
    return sum(((w & x).bit_count() & 1) << i for i, w in enumerate(rows))


def _assert_solve_matches_scalar(rows, ncols, rhs_bits):
    m, rhs = DenseBinMatrix(len(rows), ncols, rows), BinVector(len(rows), rhs_bits)
    got = dense_gauss_solve(m, rhs)
    assert got == scalar_gauss_solve(m, rhs)
    return got


H = _HEAD_SPARE
# 0x0, no columns, fewer rows than columns, fewer rows than the head, a head
# with nothing after it, a few rows after it, and A'-sized systems
SOLVE_SHAPES = [(0, 0), (5, 0), (H + 3, 0), (2, 5), (10, 17), (12, 12), (15, 12),
                (12 + H, 12), (12 + H + 1, 12), (40, 25), (135, 37), (120, 80),
                (3 * K + H + 20, 3 * K)]


@pytest.mark.parametrize("nr,ncols", SOLVE_SHAPES)
def test_dense_gauss_solve_matches_scalar(nr, ncols):
    """Full-rank and deficient systems, consistent ones and ones with a
    random right-hand side, against the scalar elimination read out as a
    solution; ``rank`` against its pivot count."""
    rng = np.random.default_rng(1000 * nr + ncols + 7)
    for trial in range(30):
        rank_of = None if trial % 3 == 0 else int(rng.integers(0, min(nr, ncols) + 1))
        rows = _random_rows(rng, nr, ncols, rank=rank_of, density=(0.1, 0.5, 0.9)[trial % 3])
        x = random_vector(ncols, rng).bits
        rhs_bits = _rhs_of(rows, x) if trial % 2 else random_vector(nr, rng).bits
        solution, r = _assert_solve_matches_scalar(rows, ncols, rhs_bits)
        assert r == rank(DenseBinMatrix(nr, ncols, rows)) == len(scalar_gauss_jordan(list(rows), ncols))
        if trial % 2:
            assert solution is not None


def _full_rank_head(rng, ncols):
    while True:
        head = _random_rows(rng, ncols + H, ncols)
        if len(scalar_gauss_jordan(list(head), ncols)) == ncols:
            return head


def test_short_head_falls_back_to_all_rows():
    """A head short of full column rank, with a later row that supplies it:
    the solve eliminates over all rows and still finds the unique solution,
    or the inconsistency a later row brings."""
    rng = np.random.default_rng(11)
    ncols = 3 * K + 1
    for trial in range(20):
        missing = int(rng.integers(0, ncols))
        head = _random_rows(rng, ncols + H, ncols, zero_cols=[missing])
        rows = head + _random_rows(rng, int(rng.integers(1, 12)), ncols)
        rows[-1] |= 1 << missing  # the one row after the head holding that column
        assert rank(DenseBinMatrix(len(head), ncols, head)) < ncols
        x = random_vector(ncols, rng).bits
        rhs_bits = _rhs_of(rows, x)
        assert _assert_solve_matches_scalar(rows, ncols, rhs_bits) == (BinVector(ncols, x), ncols)
        # the same last equation again, with the other right-hand side
        flipped = rhs_bits | (~rhs_bits >> len(rows) - 1 & 1) << len(rows)
        assert _assert_solve_matches_scalar(rows + rows[-1:], ncols, flipped) == (None, ncols)


def test_one_inconsistent_row_after_a_full_rank_head():
    """A head of full column rank fixes the solution; one later row that
    disagrees with it, wherever it sits, makes the system inconsistent."""
    rng = np.random.default_rng(12)
    ncols = 2 * K + 3
    for trial in range(20):
        rows = _full_rank_head(rng, ncols) + _random_rows(rng, int(rng.integers(1, 40)), ncols)
        x = random_vector(ncols, rng).bits
        rhs_bits = _rhs_of(rows, x)
        assert _assert_solve_matches_scalar(rows, ncols, rhs_bits) == (BinVector(ncols, x), ncols)
        bad = int(rng.integers(ncols + H, len(rows)))
        assert _assert_solve_matches_scalar(rows, ncols, rhs_bits ^ 1 << bad) == (None, ncols)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chunk_tables_match_row_parities(data):
    """The chunk-table product equals one row parity per output bit, for
    any shape: no rows, no columns, a last chunk of 1 to 4 columns, and
    more than the 64 columns transposed at a time."""
    ncols = data.draw(st.integers(0, 140))
    rows = data.draw(st.lists(st.integers(0, 2**ncols - 1), max_size=12))
    x = data.draw(st.integers(0, 2**ncols - 1))
    m = DenseBinMatrix(len(rows), ncols, rows)
    assert ChunkTables(rows, ncols).apply(x) == mul_vec(m, BinVector(ncols, x)).bits

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab.binmat import (
    BinVector,
    DenseBinMatrix,
    DimensionError,
    SingularMatrixError,
    SparseBinMatrix,
    dense_from_text,
    dense_gauss_solve,
    dense_to_text,
    invert,
    mul,
    mul_vec,
    rank,
    submatrix_cols,
    submatrix_rows,
)


def test_binvector_basics():
    v = BinVector.from_bits([1, 0, 1, 1])
    assert len(v) == 4
    assert v.to_list() == [1, 0, 1, 1]
    assert v.weight() == 3
    assert v.ones() == [0, 2, 3]
    assert BinVector(5).ones() == []
    v.set(1, 1)
    assert v[1] == 1
    with pytest.raises(DimensionError):
        v ^ BinVector(3)


def test_gauss_identity():
    out = dense_gauss_solve(DenseBinMatrix.identity(3), BinVector.from_bits([1, 0, 1]))
    assert out.unique
    assert out.solution.to_list() == [1, 0, 1]


def test_gauss_duplicate_rows():
    m = DenseBinMatrix.from_rows([[1, 1], [1, 1]])
    out = dense_gauss_solve(m, BinVector(2))
    assert not out.unique
    assert out.rank == 1
    assert len(out.free_cols) == 1


def test_gauss_hamming_zero_syndrome():
    rows = [[(c + 1) >> b & 1 for c in range(7)] for b in range(3)]
    h = DenseBinMatrix.from_rows(rows)
    sub = submatrix_cols(h, [0, 1, 3])  # positions carrying e1, e2, e3
    out = dense_gauss_solve(sub, BinVector(3))
    assert out.unique
    assert out.solution.to_list() == [0, 0, 0]


def test_gauss_dim_mismatch():
    with pytest.raises(DimensionError):
        dense_gauss_solve(DenseBinMatrix.identity(3), BinVector(2))


def test_rank_examples():
    assert rank(DenseBinMatrix.zeros(4, 4)) == 0
    assert rank(DenseBinMatrix.identity(5)) == 5
    assert rank(DenseBinMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])) == 2


def test_invert_examples():
    assert invert(DenseBinMatrix.identity(4)) == DenseBinMatrix.identity(4)
    m = DenseBinMatrix.from_rows([[1, 1], [0, 1]])
    assert invert(m) == m  # self-inverse over GF(2)
    with pytest.raises(SingularMatrixError) as exc:
        invert(DenseBinMatrix.from_rows([[1, 1], [1, 1]]))
    assert exc.value.rank == 1


def test_mul_and_submatrix():
    m = DenseBinMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    assert mul(m, DenseBinMatrix.identity(3)) == m
    assert mul_vec(m, BinVector.from_bits([1, 1, 1])).to_list() == [0, 0]
    sub = submatrix_rows(DenseBinMatrix.identity(4), [1, 3])
    assert sub.to_lists() == [[0, 1, 0, 0], [0, 0, 0, 1]]
    sub = submatrix_cols(m, [2, 0])
    assert sub.to_lists() == [[0, 1], [1, 0]]
    with pytest.raises(IndexError):
        submatrix_rows(m, [5])
    with pytest.raises(DimensionError):
        mul(m, m)


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
        assert mul(m, invert(m)) == DenseBinMatrix.identity(m.rows)
    else:
        with pytest.raises(SingularMatrixError):
            invert(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**30))
def test_sparse_dense_roundtrip(nr, nc, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    dense = DenseBinMatrix(nr, nc, [int(b) for b in rng.integers(0, 2**nc, size=nr, dtype=np.int64)])
    sp = SparseBinMatrix.from_dense(dense)
    assert sp.to_dense() == dense
    for c in range(nc):
        assert sp.col_weight(c) == sum(dense.get(r, c) for r in range(nr))


def test_xor_row_involutive():
    m = DenseBinMatrix.from_rows([[1, 0, 1], [1, 1, 1]])
    orig = m.copy()
    m.xor_row_into(0, 1)
    m.xor_row_into(0, 1)
    assert m == orig


def test_dense_text_roundtrip():
    m = DenseBinMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    text = dense_to_text(m)
    assert text.splitlines()[0] == "3 2"
    assert dense_from_text(text) == m


def test_gauss_matrix_rhs():
    m = DenseBinMatrix.from_rows([[1, 1], [0, 1]])
    out = dense_gauss_solve(m, DenseBinMatrix.identity(2))
    assert out.unique
    assert mul(m, out.solution) == DenseBinMatrix.identity(2)


def test_gauss_does_not_mutate_input():
    m = DenseBinMatrix.from_rows([[1, 1], [1, 0]])
    before = m.copy()
    dense_gauss_solve(m, BinVector(2))
    assert m == before

import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bitwise_encode,
    code_from_rows,
    geira_accumulate,
    loop_rref_masks,
    mul_vec,
    pivot_positions,
    random_vector,
)
from erasurelab.binmat import BinVector, SparseBinMatrix
from erasurelab.ldpc import (
    ConstructionError,
    GeiraSpec,
    Protograph,
    build_geira,
    code_to_text,
    encode,
    _generic_encoder_from_h,
    load_code,
    sample_regular,
)

ARA_BASE = ((2, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 0, 0, 0, 1))


def syndrome(code, cw):
    return mul_vec(code.h.to_dense(), cw)


def test_regular_degrees_3_6():
    code = sample_regular(3, 6, 24, seed=0)
    h = code.h
    assert h.rows == 12 and h.cols == 24
    assert all(len(h.col_adj[c]) == 3 for c in range(24))
    assert all(len(h.row_adj[r]) == 6 for r in range(12))


def test_regular_degrees_2_3():
    code = sample_regular(2, 3, 9, seed=1)
    assert code.h.rows == 6 and code.h.cols == 9
    assert all(len(code.h.col_adj[c]) == 2 for c in range(9))


def test_regular_infeasible():
    with pytest.raises(ConstructionError):
        sample_regular(3, 7, 24)


def test_regular_check_degree_above_n():
    """A check of degree dc joins dc distinct variables, so dc > n is refused
    before any draw; dc = n still builds."""
    with pytest.raises(ConstructionError, match="dc = 4 exceeds n = 3"):
        sample_regular(4, 4, 3)
    assert sample_regular(2, 4, 4).h.rows == 2


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_regular_no_parallel_edges(seed):
    code = sample_regular(3, 6, 48, seed=seed)
    # adjacency lists are strictly sorted, so duplicates would collapse
    assert all(len(code.h.row_adj[r]) == 6 for r in range(code.h.rows))
    assert all(len(code.h.col_adj[c]) == 3 for c in range(48))


def test_encode_zero_and_random(rng):
    code = sample_regular(3, 6, 24, seed=2)
    assert encode(code, BinVector(code.k)).bits.bit_count() == 0
    for _ in range(50):
        cw = encode(code, random_vector(code.k, rng))
        assert syndrome(code, cw).bits.bit_count() == 0


def test_geira_accumulator_structure():
    spec = GeiraSpec(k=4, n=8, taps=frozenset({0, 1}), wc=2, seed=0)
    code = build_geira(spec)
    hp = [[int(4 + c in code.h.row_adj[r]) for c in range(4)] for r in range(4)]
    expected = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
    assert hp == expected


def test_geira_running_xor_single_tap_pair(rng):
    spec = GeiraSpec(k=4, n=8, taps=frozenset({0, 1}), wc=2, seed=3)
    code = build_geira(spec)
    u = BinVector.from_bits([1, 0, 0, 0])
    cw = encode(code, u)
    # with taps {0,1} each parity bit is the running XOR of H_u row sums
    hu_col0 = [int(0 in code.h.row_adj[r]) for r in range(4)]
    acc = 0
    for r in range(4):
        acc ^= hu_col0[r]
        assert cw[4 + r] == acc
    assert syndrome(code, cw).bits.bit_count() == 0


@pytest.mark.parametrize("spec", [
    GeiraSpec(k=512, n=1024, taps=frozenset({0, 1, 4, 10, 20}), wc=5, seed=7),
    GeiraSpec(k=16, n=40, taps=frozenset({0, 3, 23}), wc=3, seed=1),
    GeiraSpec(k=64, n=128, taps=frozenset({0, 1}), wc=3, seed=2),
], ids=["1024-512", "largest-tap-n-k-1", "taps-0-1"])
def test_geira_encoder_matches_accumulator(spec, rng):
    """The parity masks built once equal the accumulator run bit by bit."""
    code = build_geira(spec)
    for _ in range(200):
        u = random_vector(code.k, rng)
        assert encode(code, u) == geira_accumulate(code, spec, u)


@pytest.mark.parametrize("build", [
    lambda: sample_regular(3, 6, 1024, seed=3),
    lambda: build_geira(GeiraSpec(k=512, n=1024, taps=frozenset({0, 1, 4, 10, 20}), wc=5,
                                  seed=7)),
    lambda: replace(sample_regular(4, 8, 320, seed=5), punctured=range(0, 320, 5)),
], ids=["regular", "geira", "regular-4-8-punctured"])
def test_run_scatter_matches_bitwise_encode(build, rng):
    """The chunk-table encoder gives the codeword of the loops that scatter
    the info bits one at a time and take one mask parity per pivot."""
    code = build()
    for _ in range(200):
        u = random_vector(code.k, rng)
        assert encode(code, u) == bitwise_encode(code, u)


# small codes whose k is below 4 or no multiple of 4, or whose info
# positions fall in several runs
SMALL_CODES = {
    "repetition-k1": lambda: code_from_rows([[1, 1, 0], [0, 1, 1]]),
    "spc-k3": lambda: code_from_rows([[1, 1, 1, 1]]),
    "geira-k6": lambda: build_geira(GeiraSpec(k=6, n=13, taps=frozenset({0, 1}), wc=3,
                                              seed=2)),
    "geira-k9": lambda: build_geira(GeiraSpec(k=9, n=20, taps=frozenset({0, 1, 4}), wc=3,
                                              seed=5)),
    "punctured-k11": lambda: replace(sample_regular(2, 4, 20, seed=0), punctured={1, 6, 11}),
    "punctured": lambda: replace(sample_regular(3, 6, 30, seed=4), punctured={0, 2, 4, 8, 12}),
}


@pytest.mark.parametrize("name", sorted(SMALL_CODES))
@settings(max_examples=40, deadline=None)
@given(msg=st.integers(min_value=0))
def test_table_encoder_matches_bitwise_encode_small_codes(name, msg):
    code = SMALL_CODES[name]()
    u = BinVector(code.k, msg)
    assert encode(code, u) == bitwise_encode(code, u)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_table_encoder_matches_bitwise_encode_random_h(data):
    """Random H, zero columns allowed: the info positions left by its RREF
    fall anywhere, in any number of runs, and k takes every value."""
    n = data.draw(st.integers(1, 30))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    h = SparseBinMatrix(len(rows), n, [[c for c in range(n) if w >> c & 1] for w in rows])
    encoder = _generic_encoder_from_h(h)
    k = len(encoder.info_positions)
    code = SimpleNamespace(n=n, encoder=encoder)
    u = BinVector(k, data.draw(st.integers(0, (1 << k) - 1)))
    cw = encoder.encode(u)
    assert cw == bitwise_encode(code, u)
    assert not any((w & cw.bits).bit_count() & 1 for w in rows)


def _assert_rref_masks_match_loop(h):
    encoder = _generic_encoder_from_h(h)
    info, pivots, pmap = loop_rref_masks(h)
    assert encoder.info_positions == info
    assert pivot_positions(encoder) == pivots
    assert encoder.pmap == pmap


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_masks_match_loop_random_h(data):
    """The info positions, pivot positions and per-pivot masks equal those of
    the per-bit gather, for random H of up to 140 columns, zero columns and
    dependent rows allowed."""
    n = data.draw(st.integers(1, 140))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24))
    _assert_rref_masks_match_loop(
        SparseBinMatrix(len(rows), n, [[c for c in range(n) if w >> c & 1] for w in rows]))


@pytest.mark.parametrize("build", [
    lambda: sample_regular(3, 6, 1024, seed=3),
    lambda: build_geira(GeiraSpec(k=512, n=1024, taps=frozenset({0, 1, 4, 10, 20}), wc=5,
                                  seed=7)),
], ids=["regular", "geira"])
def test_rref_masks_match_loop_full_codes(build):
    _assert_rref_masks_match_loop(build().h)


def test_geira_1160_1044_profile(rng):
    spec = GeiraSpec(k=1044, n=1160, taps=frozenset({0, 1, 4, 10, 20}), wc=5, seed=0)
    code = build_geira(spec)
    assert (code.n, code.k) == (1160, 1044)
    for _ in range(100):
        cw = encode(code, random_vector(code.k, rng))
        assert syndrome(code, cw).bits.bit_count() == 0


def test_geira_mean_row_weight_target():
    spec = GeiraSpec(k=502, n=1004, taps=frozenset({0, 1, 4, 10, 20}), wc=5, seed=0)
    code = build_geira(spec)
    m = code.h.rows
    mean_row = sum(len(code.h.row_adj[r]) for r in range(m)) / m
    assert mean_row >= 9


def test_geira_bad_tap():
    with pytest.raises(ConstructionError):
        GeiraSpec(k=4, n=8, taps=frozenset({0, 4}), wc=2)


@pytest.mark.parametrize("taps", [{0, -1}, {-3, -2, -1, 0}])
def test_geira_negative_tap(taps):
    with pytest.raises(ConstructionError, match=f"taps must be >= 0, got {min(taps)}"):
        GeiraSpec(k=8, n=16, taps=taps, wc=2)


@pytest.mark.parametrize("k, n", [(0, 16), (-3, 8), (8, 8), (8, 5)])
def test_geira_needs_a_message_and_parity(k, n):
    """A GeIRA code needs k >= 1 message bits and n - k >= 1 parity checks;
    the error names both, not a tap or an empty code written with exit 0."""
    with pytest.raises(ConstructionError, match=f"got k = {k}, n = {n}"):
        GeiraSpec(k=k, n=n, taps=frozenset({0}), wc=2)


@pytest.mark.parametrize("wc", [4, 5])
def test_geira_column_weight_below_n_k(wc):
    """Each information column takes wc distinct rows of the n-k parity
    checks, so wc = n-k and above are rejected before construction."""
    with pytest.raises(ConstructionError, match=f"wc = {wc} must be below n-k = 4"):
        GeiraSpec(k=4, n=8, taps=frozenset({0, 1}), wc=wc)
    assert build_geira(GeiraSpec(k=4, n=8, taps=frozenset({0, 1}), wc=3)).h.rows == 4


@pytest.mark.parametrize("base", [(), ((),)])
def test_protograph_rejects_empty_base(base):
    with pytest.raises(ConstructionError, match="at least one row and one column"):
        Protograph(base=base)


def test_protograph_rejects_ragged_base():
    with pytest.raises(ConstructionError, match="same length"):
        Protograph(base=((1, 1, 1), (1, 1)))


def test_protograph_rejects_column_without_edge():
    with pytest.raises(ConstructionError, match="base column 2 has no edge"):
        Protograph(base=((3, 3, 0),))


@pytest.mark.parametrize("base, punct, says, lift", [
    (((1.5, 3),), (), "base entries must be integers, got 1.5", 1),
    (((2, "1"),), (), "base entries must be integers, got '1'", 1),
    (((3, 3),), (0.0,), "punctured columns must be integers, got 0.0", 1),
    (((1, 1, 1), (1, 1, 1)), (), "lift must be an integer, got 2.5", 2.5),
    (((1, 1, 1), (1, 1, 1)), (), "lift must be an integer, got '4'", "4"),
    (((1, 1, 1), (1, 1, 1)), (), "lift must be an integer, got None", None),
])
def test_protograph_rejects_non_integers(base, punct, says, lift):
    with pytest.raises(ConstructionError, match=re.escape(says)):
        Protograph(base=base, punctured_cols=frozenset(punct), lift=lift)


@pytest.mark.parametrize("punct, lift, says", [
    *[pytest.param({col}, 1, f"punctured column {col} outside the 5 base", id=str(col))
      for col in (5, 7, -1)],
    pytest.param(set(), 0, "lift must be >= 1, got 0", id="lift0"),
    pytest.param(set(), -4, "lift must be >= 1, got -4", id="lift-4"),
])
def test_protograph_rejects_punctured_column_out_of_range(punct, lift, says):
    """Punctured columns outside the base and lift factors below 1."""
    with pytest.raises(ConstructionError, match=re.escape(says)):
        Protograph(base=ARA_BASE, punctured_cols=frozenset(punct), lift=lift)


def test_protograph_takes_numpy_integers():
    p = Protograph(base=np.array(ARA_BASE), punctured_cols={np.int64(0)}, lift=np.int64(4))
    assert p.base == ARA_BASE and p.punctured_cols == {0}
    assert type(p.lift) is int and p.lift == 4
    assert all(type(e) is int for row in p.base for e in row)


def test_puncture_identity_and_counts():
    code = sample_regular(3, 6, 24, seed=4)
    # puncturing p positions removes exactly p received symbols at eps=0
    punct = replace(code, punctured=range(20, 24))
    assert punct.n_transmitted == code.n_transmitted - 4


def test_save_load_roundtrip(tmp_path):
    code = replace(sample_regular(3, 6, 24, seed=6), punctured={20, 21})
    path = tmp_path / "code.txt"
    path.write_text(code_to_text(code))
    loaded = load_code(path)
    assert loaded.h == code.h
    assert loaded.punctured == code.punctured
    assert (loaded.n, loaded.k) == (code.n, code.k)


def test_load_code_keeps_k_transmitted_positions(tmp_path):
    """A code file may puncture down to k transmitted positions, any
    positions at all, but no further."""
    code = sample_regular(3, 6, 24, seed=6)
    head, body = code_to_text(code).split("\n", 1)
    path = tmp_path / "code.txt"

    def punctured_first(count):
        path.write_text(f"{head}\npunctured: {','.join(map(str, range(count)))}\n{body}")
        return path

    assert load_code(punctured_first(code.n - code.k)).n_transmitted == code.k
    with pytest.raises(ConstructionError, match=f"fewer than k={code.k}"):
        load_code(punctured_first(code.n - code.k + 1))

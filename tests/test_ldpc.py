import re
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
    random_vector,
)
from erasurelab.binmat import BinVector, SparseBinMatrix
from erasurelab.ldpc import (
    ConstructionError,
    GeiraSpec,
    Protograph,
    build_geira,
    encode,
    _generic_encoder_from_h,
    lift_protograph,
    load_code,
    puncture,
    rate_family,
    sample_regular,
    save_code,
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


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_regular_no_parallel_edges(seed):
    code = sample_regular(3, 6, 48, seed=seed)
    # adjacency lists are strictly sorted, so duplicates would collapse
    assert all(len(code.h.row_adj[r]) == 6 for r in range(code.h.rows))
    assert all(len(code.h.col_adj[c]) == 3 for c in range(48))


def test_encode_zero_and_random(rng):
    code = sample_regular(3, 6, 24, seed=2)
    assert encode(code, BinVector(code.k)).weight() == 0
    for _ in range(50):
        cw = encode(code, random_vector(code.k, rng))
        assert syndrome(code, cw).weight() == 0


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
    assert syndrome(code, cw).weight() == 0


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
        assert encode(code, u) == geira_accumulate(code, u)


@pytest.mark.parametrize("build", [
    lambda: sample_regular(3, 6, 1024, seed=3),
    lambda: build_geira(GeiraSpec(k=512, n=1024, taps=frozenset({0, 1, 4, 10, 20}), wc=5,
                                  seed=7)),
    lambda: lift_protograph(Protograph(base=ARA_BASE, punctured_cols=frozenset({0}), lift=64)),
], ids=["regular", "geira", "ara-punctured"])
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
    "lifted-ara": lambda: lift_protograph(Protograph(base=ARA_BASE, punctured_cols=frozenset({0}),
                                                     lift=3), seed=1),
    "punctured": lambda: rate_family(sample_regular(3, 6, 30, seed=4), [0.6])[0],
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
    encoder, k = _generic_encoder_from_h(h)
    code = SimpleNamespace(n=n, encoder=encoder)
    u = BinVector(k, data.draw(st.integers(0, (1 << k) - 1)))
    cw = encoder.encode(u)
    assert cw == bitwise_encode(code, u)
    assert not any((w & cw.bits).bit_count() & 1 for w in rows)


def _assert_rref_masks_match_loop(h):
    encoder, k = _generic_encoder_from_h(h)
    info, pivots, pmap = loop_rref_masks(h)
    assert k == len(info)
    assert encoder.info_positions == info
    assert encoder.pivot_positions == pivots
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
        assert syndrome(code, cw).weight() == 0


def test_geira_mean_row_weight_target():
    spec = GeiraSpec(k=502, n=1004, taps=frozenset({0, 1, 4, 10, 20}), wc=5, seed=0)
    code = build_geira(spec)
    m = code.h.rows
    mean_row = sum(len(code.h.row_adj[r]) for r in range(m)) / m
    assert mean_row >= 9


def test_geira_bad_tap():
    with pytest.raises(ConstructionError):
        GeiraSpec(k=4, n=8, taps=frozenset({0, 4}), wc=2)


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


def test_lift_single_edge_permutation():
    code = lift_protograph(Protograph(base=((1,),), lift=4))
    h = code.h
    assert h.rows == 4 and h.cols == 4
    assert all(len(h.row_adj[r]) == 1 for r in range(4))
    assert all(len(h.col_adj[c]) == 1 for c in range(4))


def test_lift_double_edge_no_parallel():
    code = lift_protograph(Protograph(base=((2,),), lift=8))
    h = code.h
    assert all(len(h.row_adj[r]) == 2 for r in range(8))
    assert all(len(h.col_adj[c]) == 2 for c in range(8))


def test_lift_ara_shape():
    p = Protograph(base=ARA_BASE, punctured_cols=frozenset({0}), lift=256)
    code = lift_protograph(p)
    assert code.n_transmitted == 1024
    assert code.k == 512
    assert len(code.punctured) == 256


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


def test_lift_multiplicity_over_lift():
    with pytest.raises(ConstructionError):
        lift_protograph(Protograph(base=((3,),), lift=2))


def test_puncture_identity_and_counts():
    code = sample_regular(3, 6, 24, seed=4)
    same = puncture(code, [])
    assert same.h == code.h and same.punctured == code.punctured
    # puncturing p positions removes exactly p received symbols at eps=0
    punct = puncture(code, [c for c in range(20, 24)], allow_systematic=True)
    assert punct.n_transmitted == code.n_transmitted - 4


def test_puncture_guards():
    code = sample_regular(3, 6, 24, seed=4)
    with pytest.raises(ConstructionError):
        puncture(code, list(range(13)), allow_systematic=True)  # below k transmitted


def test_rate_family_transmitted_counts():
    spec = GeiraSpec(k=502, n=1004, taps=frozenset({0, 1}), wc=5, seed=0)
    mother = build_geira(spec)
    rates = [1 / 2, 3 / 5, 2 / 3, 3 / 4, 4 / 5]
    family = rate_family(mother, rates)
    assert [c.n_transmitted for c in family] == [1004, 837, 753, 669, 628]
    # nested: higher-rate members puncture supersets
    sets = [c.punctured for c in family]
    for a, b in zip(sets, sets[1:]):
        assert a <= b


def test_save_load_roundtrip(tmp_path):
    code = puncture(sample_regular(3, 6, 24, seed=6), [20, 21], allow_systematic=True)
    path = tmp_path / "code.txt"
    save_code(code, path)
    loaded = load_code(path)
    assert loaded.h == code.h
    assert loaded.punctured == code.punctured
    assert (loaded.n, loaded.k) == (code.n, code.k)

import math

import numpy as np
import pytest

from conftest import full_scan_triangularize, random_vector
from erasurelab.binmat import (
    BinVector,
    DenseBinMatrix,
    SparseBinMatrix,
    mul,
    mul_vec,
    rank,
    submatrix_rows,
)
from erasurelab.decode import InconsistentInputError, triangularize
from erasurelab.raptor import (
    RaptorCode,
    RaptorParams,
    _robust_soliton_cdf,
    build_A,
    derive_params,
    find_systematic_seed,
    gray_half_columns,
    lt_tuple,
    precode,
)


def _slice_cols(m: DenseBinMatrix, lo: int, hi: int) -> DenseBinMatrix:
    mask = (1 << hi) - (1 << lo)
    return DenseBinMatrix(m.rows, hi - lo, [(w & mask) >> lo for w in m.row_words])


def _madd(a: DenseBinMatrix, b: DenseBinMatrix) -> DenseBinMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return DenseBinMatrix(a.rows, a.cols, [x ^ y for x, y in zip(a.row_words, b.row_words)])


def nonsystematic_generator(code: RaptorCode) -> DenseBinMatrix:
    """Closed form G = G_LT^I + G_LT^II G_LDPC + G_LT^III (G_H^I + G_H^II G_LDPC)."""
    k, s, h = code.params.k, code.params.s, code.params.h
    glt = DenseBinMatrix(code.params.n, code.params.L, code.lt_rows)
    g1 = _slice_cols(glt, 0, k)
    g2 = _slice_cols(glt, k, k + s)
    g3 = _slice_cols(glt, k + s, k + s + h)
    gh1 = _slice_cols(code.gh, 0, k)
    gh2 = _slice_cols(code.gh, k, k + s)
    inner = _madd(gh1, mul(gh2, code.gl))
    return _madd(_madd(g1, mul(g2, code.gl)), mul(g3, inner))


def symbols_to_text(received) -> str:
    """Symbol file format: one "esi hexvalue" line per received symbol.

    Symbols here are single bits; multi-bit payloads would just repeat the
    same GF(2) math per bit plane.
    """
    return "\n".join(f"{esi} {sym:x}" for esi, sym in received) + "\n"


def symbols_from_text(text: str) -> list:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        esi, sym = line.split()
        out.append((int(esi), int(sym, 16)))
    return out


@pytest.fixture(scope="module")
def code16():
    return RaptorCode.build(16, 32, seed=0)


def test_derive_params_k10():
    p = derive_params(10, n=20)
    assert (p.s, p.h, p.L) == (7, 6, 23)


def test_derive_params_k4():
    p = derive_params(4, n=8)
    assert math.comb(p.h, p.h_prime) >= 4 + p.s
    assert p.L == 4 + p.s + p.h


def test_derive_params_L_definition():
    for k in (4, 10, 57, 200):
        p = derive_params(k, n=2 * k)
        assert p.L == k + p.s + p.h


def test_gray_half_columns_h4():
    cols = gray_half_columns(4, 4)
    assert cols == [0b0011, 0b0110, 0b0101, 0b1100]


def test_gray_half_columns_h2():
    assert gray_half_columns(2, 1) == [0b01]


def test_gray_half_columns_distinct():
    cols = gray_half_columns(6, 20)
    assert len(set(cols)) == 20
    assert all(c.bit_count() == 3 for c in cols)


def test_gray_half_columns_over_count():
    with pytest.raises(ValueError):
        gray_half_columns(4, 7)  # only C(4,2)=6 weight-2 patterns


def test_lt_tuple_deterministic(code16):
    p = code16.params
    for esi in (1, 5, 999):
        a = lt_tuple(esi, p)
        b = lt_tuple(esi, p)
        assert a == b
        assert all(0 <= t < p.L for t in a.indices)
        assert len(set(a.indices)) == a.degree


def test_lt_degree_histogram():
    p = derive_params(64, n=128)
    cdf = _robust_soliton_cdf(p.L)
    counts = np.zeros(p.L + 1)
    n_samples = 100000
    for esi in range(1, n_samples + 1):
        counts[lt_tuple(esi, p).degree] += 1
    pmf = np.diff(np.concatenate([[0.0], np.asarray(cdf)]))
    for d in range(1, p.L + 1):
        expect = n_samples * pmf[d - 1]
        if expect < 10:
            continue
        sigma = math.sqrt(expect * (1 - pmf[d - 1]))
        assert abs(counts[d] - expect) <= 3.5 * sigma, f"degree {d}"


def test_build_A_structure(code16):
    p = code16.params
    a_empty = build_A(p, [])
    assert a_empty.rows == p.s + p.h and a_empty.cols == p.L
    # top-left: weight-3 LDPC columns; Z block (top-right h columns) all zero
    for c in range(p.k):
        assert sum(a_empty.get(r, c) for r in range(p.s)) == 3
    for c in range(p.k + p.s, p.L):
        assert all(a_empty.get(r, c) == 0 for r in range(p.s))
    a_full = build_A(p, list(range(1, 6)))
    assert a_full.rows == p.s + p.h + 5


def test_precode_examples(code16, rng):
    p = code16.params
    assert precode(BinVector(p.k), p).weight() == 0
    e1 = BinVector(p.k, 1)
    f = precode(e1, p)
    ds = [f[p.k + i] for i in range(p.s)]
    assert sum(ds) == 3  # first G_LDPC column has weight 3
    a_empty = build_A(p, [])
    for _ in range(20):
        f = precode(random_vector(p.k, rng), p)
        assert mul_vec(a_empty, f).weight() == 0


def test_systematic_seed_postcondition():
    seed = find_systematic_seed(10, 20)
    p = derive_params(10, n=20, lt_seed=seed)
    a_k = build_A(p, list(range(1, 11)))
    assert rank(a_k) == p.L
    assert find_systematic_seed(10, 20) == seed  # deterministic search


def test_systematic_transform(code16, rng):
    p = code16.params
    assert code16.systematic_transform(BinVector(p.k)).weight() == 0
    for _ in range(20):
        c = random_vector(p.k, rng)
        e = code16.encode(c)
        assert [e[i] for i in range(p.k)] == c.to_list()


def test_encode_zero(code16):
    assert code16.encode(BinVector(code16.params.k)).weight() == 0


def test_generator_route_agreement(code16, rng):
    p = code16.params
    g = nonsystematic_generator(code16)
    assert (g.rows, g.cols) == (p.n, p.k)
    a = build_A(p, list(range(1, p.n + 1)), code16.gl, code16.gh)
    lt_block = submatrix_rows(a, list(range(p.s + p.h, p.s + p.h + p.n)))
    for _ in range(100):
        d = random_vector(p.k, rng)
        f = precode(d, p, code16.gl, code16.gh)
        # closed-form generator vs the precode + LT route
        assert mul_vec(lt_block, f) == mul_vec(g, d)
    # full rank of the systematic submatrix == seed validity
    gk = submatrix_rows(g, list(range(p.k)))
    assert rank(gk) == p.k


def test_decode_all_symbols(code16, rng):
    p = code16.params
    c = random_vector(p.k, rng)
    e = code16.encode(c)
    received = [(i + 1, e[i]) for i in range(p.n)]
    res = code16.decode(received)
    assert res.ok and res.c == c
    res2 = code16.decode_structured(received)
    assert res2.ok and res2.c == c


def test_decode_insufficient(code16, rng):
    p = code16.params
    c = random_vector(p.k, rng)
    e = code16.encode(c)
    received = [(i + 1, e[i]) for i in range(p.k - 1)]
    assert code16.decode(received).status == "insufficient"
    assert code16.decode_structured(received).status == "insufficient"


def test_structured_matches_dense(code16, rng):
    p = code16.params
    for _ in range(300):
        c = random_vector(p.k, rng)
        e = code16.encode(c)
        r = int(rng.integers(p.k, p.n + 1))
        esis = (rng.choice(p.n, size=r, replace=False) + 1).tolist()
        received = [(esi, e[esi - 1]) for esi in esis]
        a = code16.decode(received)
        b = code16.decode_structured(received)
        assert a.status == b.status
        if a.ok:
            assert a.c == b.c == c
        assert b.stats.system_shape == (p.s + p.h + r, p.L)
        assert b.stats.pivots <= p.L - b.stats.peeled


def test_decoded_c_reencodes(code16, rng):
    p = code16.params
    c = random_vector(p.k, rng)
    e = code16.encode(c)
    esis = (rng.choice(p.n, size=p.k + 6, replace=False) + 1).tolist()
    received = [(esi, e[esi - 1]) for esi in esis]
    res = code16.decode(received)
    if res.ok:
        e2 = code16.encode(res.c)
        assert all(e2[esi - 1] == sym for esi, sym in received)


def test_symbol_file_roundtrip(code16, rng):
    p = code16.params
    e = code16.encode(random_vector(p.k, rng))
    received = [(i + 1, e[i]) for i in range(0, p.n, 3)]
    text = symbols_to_text(received)
    assert text.splitlines()[0] == f"1 {e[0]:x}"
    assert symbols_from_text(text) == received


def test_params_validation():
    with pytest.raises(ValueError):
        RaptorParams(k=2, s=3, h=4, n=8)
    with pytest.raises(ValueError):
        derive_params(10, n=5)  # n < k


@pytest.fixture(scope="module")
def code64():
    return RaptorCode.build(64, 128, seed=0)


def _received(code, rng, delta):
    p = code.params
    e = code.encode(random_vector(p.k, rng))
    esis = (rng.choice(p.n, size=p.k + delta, replace=False) + 1).tolist()
    return [(esi, e[esi - 1]) for esi in esis]


def test_structured_system_pivots_match_full_scan(code64):
    """The cached-adjacency system inactivates the same pivots as a full scan
    over A(i1..ir) assembled by build_A."""
    rng = np.random.default_rng(11)
    p = code64.params
    for delta in (0, 2, 10, 64):
        for _ in range(25):
            received = _received(code64, rng, delta)
            a = build_A(p, [esi for esi, _ in received], code64.gl, code64.gh)
            ref = full_scan_triangularize(SparseBinMatrix.from_dense(a))
            st = triangularize(*code64._structured_system(received))
            assert (st.resolved, st.pivots) == ref


def test_structured_matches_dense_at_low_overhead(code64):
    rng = np.random.default_rng(5)
    statuses = set()
    for delta in (0, 0, 1, 3):
        for _ in range(25):
            received = _received(code64, rng, delta)
            a = code64.decode(received)
            b = code64.decode_structured(received)
            assert (a.status, a.rank) == (b.status, b.rank)
            assert a.c == b.c and a.f == b.f
            statuses.add(a.status)
    assert statuses == {"success", "rank_deficient"}


_TAIL = list(range(3, 19))


@pytest.mark.parametrize("esis", [
    [1, 2, 2] + _TAIL, [0, 1, 2] + _TAIL, [1, 2, 33] + _TAIL,
    # fewer than k symbols: the ESIs are checked before the early return
    [1, 2, 2], [0] + list(range(1, 11)), [1, 2, 33],
])
def test_bad_esis_rejected(code16, esis):
    received = [(esi, 0) for esi in esis]
    for decoder in (code16.decode, code16.decode_structured):
        with pytest.raises(ValueError):
            decoder(received)


def test_flipped_symbol_is_inconsistent(code16, rng):
    """With every symbol received (overhead n - k), a flipped one contradicts
    the rest, and both decoders report corrupted input."""
    p = code16.params
    e = code16.encode(random_vector(p.k, rng))
    received = [(i + 1, e[i]) for i in range(p.n)]
    received[0] = (1, 1 - e[0])
    for decoder in (code16.decode, code16.decode_structured):
        with pytest.raises(InconsistentInputError):
            decoder(received)

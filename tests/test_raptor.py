import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_A,
    erased_at,
    full_scan_triangularize,
    lt_row_recover,
    mul,
    mul_vec,
    precode,
    random_vector,
    rank_seed_search,
    raptor_word,
    submatrix_rows,
    transform_encode,
)
from erasurelab.binmat import BinVector, DenseBinMatrix, SparseBinMatrix, rank
from erasurelab.decode import (
    DecodeResult,
    InconsistentInputError,
    ReceivedWord,
    max_degree_pivot,
    min_row_pivot,
    ml_decode,
    oracle_decode,
    peel_decode,
    triangularize,
)
from erasurelab import raptor
from erasurelab.raptor import (
    NotSystematicError,
    RaptorCode,
    RaptorParams,
    gray_half_columns,
    lt_tuple,
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
    pre = DenseBinMatrix(s + h, code.params.L, code.precode_rows)
    gl = _slice_cols(submatrix_rows(pre, range(s)), 0, k)
    gh = submatrix_rows(pre, range(s, s + h))
    gh1 = _slice_cols(gh, 0, k)
    gh2 = _slice_cols(gh, k, k + s)
    inner = _madd(gh1, mul(gh2, gl))
    return _madd(_madd(g1, mul(g2, gl)), mul(g3, inner))


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


def test_raptor_params_k10():
    p = RaptorParams(10, n=20)
    assert (p.s, p.h, p.L) == (7, 6, 23)


def test_raptor_params_k4():
    p = RaptorParams(4, n=8)
    assert math.comb(p.h, (p.h + 1) // 2) >= 4 + p.s
    assert p.L == 4 + p.s + p.h


def test_raptor_params_L_definition():
    for k in (4, 10, 57, 200):
        p = RaptorParams(k, n=2 * k)
        assert p.L == k + p.s + p.h


def _is_prime(p):
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def test_raptor_params_take_the_least_sizes():
    """For every k in 4..4096, s is the least prime >= ceil(k/100) + X, X the
    least with X(X-1) >= 2k, and h the least count whose C(h, ceil(h/2))
    weight-ceil(h/2) columns number k+s or more: so the k+s Gray columns of
    the pre-code are distinct for every k, with no check at construction."""
    for k in range(4, 4097):
        p = RaptorParams(k, 2 * k)
        x = next(x for x in itertools.count(1) if x * (x - 1) >= 2 * k)
        lo = math.ceil(0.01 * k) + x
        assert p.s >= lo and _is_prime(p.s), k
        assert not any(_is_prime(q) for q in range(lo, p.s)), k
        assert math.comb(p.h, (p.h + 1) // 2) >= k + p.s > math.comb(p.h - 1, p.h // 2), k
    # pinned (s, h, L) at four k
    for k, sizes in ((4, (5, 5, 14)), (10, (7, 6, 23)), (256, (29, 11, 296)),
                     (1024, (59, 13, 1096))):
        p = RaptorParams(k, 2 * k)
        assert (p.s, p.h, p.L) == sizes


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
        assert all(0 <= t < p.L for t in a)
        assert len(set(a)) == len(a)


# the degree table of RFC 5053 §5.4.4.2: degree d[j] for f[j] <= v < f[j+1],
# v uniform on [0, 2^20)
RFC5053_F = (0, 10241, 491582, 712794, 831695, 948446, 1032189, 1048576)
RFC5053_D = (1, 2, 3, 4, 10, 11, 40)


def test_lt_degree_histogram():
    """LT degrees follow the RFC 5053 table, capped at L (86 at k=64, where
    nothing is capped; 14 at k=4, where degree 40 becomes 14), and no other
    degree occurs."""
    for k in (64, 4):
        p = RaptorParams(k, n=2 * k)
        counts = np.zeros(p.L + 1)
        n_samples = 100000
        for esi in range(1, n_samples + 1):
            counts[len(lt_tuple(esi, p))] += 1
        pmf = np.zeros(p.L + 1)
        for d, lo, hi in zip(RFC5053_D, RFC5053_F, RFC5053_F[1:]):
            pmf[min(d, p.L)] += (hi - lo) / 2**20
        assert counts[pmf == 0].sum() == 0, k
        for d in range(1, p.L + 1):
            expect = n_samples * pmf[d]
            if expect < 10:
                continue
            sigma = math.sqrt(expect * (1 - pmf[d]))
            assert abs(counts[d] - expect) <= 3.5 * sigma, f"k={k}, degree {d}"


def test_build_A_structure(code16):
    p = code16.params
    a_empty = build_A(p, [])
    assert a_empty.rows == p.s + p.h and a_empty.cols == p.L
    # top-left: weight-3 LDPC columns; Z block (top-right h columns) all zero
    for c in range(p.k):
        assert sum((w >> c) & 1 for w in a_empty.row_words[: p.s]) == 3
    for c in range(p.k + p.s, p.L):
        assert all((w >> c) & 1 == 0 for w in a_empty.row_words[: p.s])
    a_full = build_A(p, list(range(1, 6)))
    assert a_full.rows == p.s + p.h + 5


def test_precode_examples(code16, rng):
    p = code16.params
    assert precode(BinVector(p.k), p).bits.bit_count() == 0
    e1 = BinVector(p.k, 1)
    f = precode(e1, p)
    ds = [f[p.k + i] for i in range(p.s)]
    assert sum(ds) == 3  # first G_LDPC column has weight 3
    a_empty = build_A(p, [])
    for _ in range(20):
        f = precode(random_vector(p.k, rng), p)
        assert mul_vec(a_empty, f).bits.bit_count() == 0


def test_systematic_seed_postcondition():
    seed = RaptorCode.build(10, 20).params.lt_seed
    p = RaptorParams(10, n=20, lt_seed=seed)
    a_k = build_A(p, list(range(1, 11)))
    assert rank(a_k) == p.L
    assert RaptorCode.build(10, 20).params.lt_seed == seed  # deterministic search


@pytest.mark.parametrize("k, n, seed", [
    (4, 8, 0), (10, 20, 0), (12, 24, 0), (16, 32, 0), (20, 40, 0), (10, 20, 1), (32, 64, 2),
])
def test_build_finds_the_rank_search_seed(k, n, seed):
    """The seed that build accepts, the first one whose single elimination
    finds L pivots, is the smallest seed the rank search over build_A finds;
    the grid holds points whose first seeds fail (lt_seed 2 to 13)."""
    assert RaptorCode.build(k, n, seed=seed).params.lt_seed == rank_seed_search(k, n, seed)


def test_seed_attempt_draws_k_tuples_then_n(monkeypatch):
    """A rejected seed draws only the tuples of ESIs 1..k; the accepted one
    goes on to ESIs k+1..n."""
    drawn = []
    real = raptor.lt_tuple
    monkeypatch.setattr(raptor, "lt_tuple", lambda esi, p: drawn.append(esi) or real(esi, p))
    for lt_seed in range(5):
        drawn.clear()
        with pytest.raises(NotSystematicError):
            RaptorCode(RaptorParams(16, 32, lt_seed=lt_seed))
        assert drawn == list(range(1, 17))
    drawn.clear()
    RaptorCode(RaptorParams(16, 32, lt_seed=5))
    assert drawn == list(range(1, 33))
    drawn.clear()
    code = RaptorCode.build(16, 32)
    assert code.params.lt_seed == 5
    assert len(drawn) == 5 * 16 + 32
    assert code.precode_rows == raptor._precode_rows(code.params)


def test_systematic_transform(code16, rng):
    p = code16.params
    for _ in range(20):
        c = random_vector(p.k, rng)
        e = code16.encode(c)
        assert [e[i] for i in range(p.k)] == c.to_list()


def test_encode_zero(code16):
    assert code16.encode(BinVector(code16.params.k)).bits.bit_count() == 0


@pytest.mark.parametrize("name", ["code16", "code64", "code256"])
def test_encoder_matches_the_transform_route(name, request):
    """The parity-mask encoder gives the codeword of F = A(1..k)^-1 [0; C]
    on random messages and on every unit message e_i, each of which reads
    one message bit out of every parity mask."""
    code = request.getfixturevalue(name)
    k = code.params.k
    rng = np.random.default_rng(7)
    messages = [random_vector(k, rng) for _ in range(50)]
    messages += [BinVector(k, 1 << i) for i in range(k)]
    for c in messages:
        assert code.encode(c) == transform_encode(code, c)


@pytest.mark.parametrize("name", ["code16", "code256"])
def test_recover_c_matches_lt_rows(name, request):
    """The chunk-table product gives the message of the loop that takes one
    LT-row parity per source symbol, on any intermediate symbols."""
    code = request.getfixturevalue(name)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, (1 << code.params.L) - 1))
    def check(bits):
        f = BinVector(code.params.L, bits)
        assert code._recover_c(f) == lt_row_recover(code, f)

    check()


def test_nonsystematic_seed_rejected():
    """For k=16, n=32 the LT seeds 0 to 4 leave A(1..k) singular; 5 is the
    first systematic one."""
    assert RaptorCode.build(16, 32).params.lt_seed == 5
    for lt_seed in range(5):
        with pytest.raises(ValueError, match="not systematic"):
            RaptorCode(RaptorParams(16, 32, lt_seed=lt_seed))


def test_generator_route_agreement(code16, rng):
    p = code16.params
    g = nonsystematic_generator(code16)
    assert (g.rows, g.cols) == (p.n, p.k)
    a = build_A(p, list(range(1, p.n + 1)))
    lt_block = submatrix_rows(a, list(range(p.s + p.h, p.s + p.h + p.n)))
    for _ in range(100):
        d = random_vector(p.k, rng)
        f = precode(d, p)
        # closed-form generator vs the precode + LT route
        assert mul_vec(lt_block, f) == mul_vec(g, d)
    # full rank of the systematic submatrix == seed validity
    gk = submatrix_rows(g, list(range(p.k)))
    assert rank(gk) == p.k


def test_decode_all_symbols(code16, rng):
    p = code16.params
    c = random_vector(p.k, rng)
    e = code16.encode(c)
    received = raptor_word(e, range(1, p.n + 1))
    res = code16.decode(received)
    assert res.ok and res.c == c
    res2 = code16.decode_structured(received)
    assert res2.ok and res2.c == c


def test_decode_below_k_is_rank_deficient(code16, rng):
    """Fewer than k received symbols are no special case: dense and
    structured decoding report the same rank deficiency, below L."""
    p = code16.params
    c = random_vector(p.k, rng)
    e = code16.encode(c)
    received = raptor_word(e, range(1, p.k))
    a = code16.decode(received)
    b = code16.decode_structured(received)
    assert (a.status, a.rank) == (b.status, b.rank)
    assert a.status == "rank_deficient" and a.rank < p.L


def test_every_decoder_returns_a_decode_result(code16, hamming74, rng):
    """LDPC and Raptor decoders share one result type."""
    word = ReceivedWord.from_full(BinVector(7), erased_at(7, [0]))
    for decoder in (peel_decode, ml_decode, oracle_decode):
        assert type(decoder(hamming74, word)) is DecodeResult
    e = code16.encode(random_vector(code16.params.k, rng))
    received = raptor_word(e, range(1, code16.params.n + 1))
    assert type(code16.decode(received)) is DecodeResult
    assert type(code16.decode_structured(received)) is DecodeResult


def test_structured_matches_dense(code16, rng):
    p = code16.params
    for _ in range(300):
        c = random_vector(p.k, rng)
        e = code16.encode(c)
        r = int(rng.integers(p.k, p.n + 1))
        esis = (rng.choice(p.n, size=r, replace=False) + 1).tolist()
        received = raptor_word(e, esis)
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
    res = code16.decode(raptor_word(e, esis))
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
        RaptorParams(k=2, n=8)
    with pytest.raises(ValueError):
        RaptorParams(10, n=5)  # n < k


@pytest.fixture(scope="module")
def code64():
    return RaptorCode.build(64, 128, seed=0)


@pytest.fixture(scope="module")
def code256():
    """The benchmark's raptor-overhead code."""
    return RaptorCode.build(256, 512, seed=0)


def _received(code, rng, delta):
    p = code.params
    e = code.encode(random_vector(p.k, rng))
    esis = (rng.choice(p.n, size=p.k + delta, replace=False) + 1).tolist()
    return raptor_word(e, esis)


def _assert_structured_matches_full_scan(code, strategy, rule):
    """The cached-adjacency system inactivates the same pivots as a full scan
    over A(i1..ir) assembled by build_A."""
    rng = np.random.default_rng(11)
    p = code.params
    for delta in (0, 2, 10, 64):
        for _ in range(25):
            received = _received(code, rng, delta)
            a = build_A(p, (np.flatnonzero(~received.erased_mask) + 1).tolist())
            ref = full_scan_triangularize(SparseBinMatrix.from_dense(a), rule)
            st = triangularize(*code._structured_system(received), strategy)
            assert (st.resolved, st.pivots) == ref


def test_structured_system_pivots_match_full_scan(code64):
    _assert_structured_matches_full_scan(code64, max_degree_pivot, "max_degree")


def test_structured_system_row_pivots_match_full_scan(code64):
    _assert_structured_matches_full_scan(code64, min_row_pivot, "row")


@pytest.mark.parametrize("name", ["code16", "code64"])
def test_code_rows_match_build_A(name, request):
    """The pre-code and LT rows that RaptorCode builds once agree with
    build_A, which draws them afresh."""
    code = request.getfixturevalue(name)
    p = code.params
    assert code.precode_rows == build_A(p, []).row_words
    assert code.precode_rows + code.lt_rows[: p.k] == build_A(p, range(1, p.k + 1)).row_words


def test_structured_matches_dense_at_low_overhead(code64):
    rng = np.random.default_rng(5)
    statuses = set()
    for delta in (0, 0, 1, 3):
        for _ in range(25):
            received = _received(code64, rng, delta)
            a = code64.decode(received)
            b = code64.decode_structured(received)
            assert (a.status, a.rank) == (b.status, b.rank)
            assert a.c == b.c
            statuses.add(a.status)
    assert statuses == {"success", "rank_deficient"}


_TAIL = list(range(3, 19))


@pytest.mark.parametrize("esis", [
    pytest.param([0, 1, 2] + _TAIL, id="esis1"),
    pytest.param([1, 2, 33] + _TAIL, id="esis2"),
    pytest.param([0] + list(range(1, 11)), id="esis4"),
    pytest.param([1, 2, 33], id="esis5"),
])
def test_bad_esis_rejected(code16, esis):
    """A word erases by a mask over its positions, so it cannot name an ESI
    twice or one outside 1..n (ESI 0 would be position -1, ESI n+1 position
    n): a list of positions is refused whatever it holds."""
    n = code16.params.n
    with pytest.raises(ValueError, match="erasure mask must be a boolean numpy array"):
        ReceivedWord(BinVector(n), [esi - 1 for esi in esis])


@pytest.mark.parametrize("length", [31, 33])
def test_word_length_must_be_n(code16, length):
    for decoder in (code16.decode, code16.decode_structured):
        with pytest.raises(ValueError, match="word length"):
            decoder(ReceivedWord(BinVector(length), np.zeros(length, np.bool_)))


def test_flipped_symbol_is_inconsistent(code16, rng):
    """With every symbol received (overhead n - k), a flipped one contradicts
    the rest, and both decoders report corrupted input."""
    p = code16.params
    e = code16.encode(random_vector(p.k, rng))
    received = raptor_word(BinVector(p.n, e.bits ^ 1), range(1, p.n + 1))
    for decoder in (code16.decode, code16.decode_structured):
        with pytest.raises(InconsistentInputError):
            decoder(received)

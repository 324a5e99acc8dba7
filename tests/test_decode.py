import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import code_from_rows, full_scan_triangularize, random_vector
from erasurelab import decode
from erasurelab.binmat import BinVector
from erasurelab.decode import (
    InconsistentInputError,
    ReceivedWord,
    back_substitute,
    hybrid_decode,
    is_stopping_set,
    max_degree_pivot,
    ml_decode,
    oracle_decode,
    peel_decode,
    reduce_to_aprime,
    solve_pivots,
    split_by_erasure,
    triangularize,
)

SPC3 = [[1, 1, 1]]
CHAIN = [[1, 1, 0], [0, 1, 1]]
FOURCYCLE = [[1, 1], [1, 1]]
# stalls under peeling but has independent erased columns, so ML recovers
STALL_ML_OK = [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]


def word(code, bits, erased):
    return ReceivedWord.from_full(BinVector.from_bits(bits), erased)


def test_received_word_reads_zero_at_erasures():
    w = ReceivedWord.from_full(BinVector.from_bits([1, 1, 0, 1]), [3, 1, 3])
    assert w.erased == (1, 3)
    assert w.values.to_list() == [1, 0, 0, 0]
    w = ReceivedWord.from_full(BinVector.from_bits([0, 1, 1]), np.array([2, 1]))
    assert w.erased == (1, 2) and all(type(i) is int for i in w.erased)
    assert w.values.to_list() == [0, 0, 0]
    with pytest.raises(ValueError):
        ReceivedWord(4, BinVector(3), ())


def test_split_no_erasures():
    code = code_from_rows(CHAIN)
    hk, syn = split_by_erasure(code, word(code, [1, 1, 0], []))
    assert hk.cols == 0
    assert syn.to_list() == [0, 1]


def test_split_zero_codeword_zero_syndrome():
    code = code_from_rows(CHAIN)
    _, syn = split_by_erasure(code, word(code, [0, 0, 0], [0, 2]))
    assert syn.weight() == 0


def test_split_spc():
    code = code_from_rows(SPC3)
    hk, syn = split_by_erasure(code, word(code, [1, 0, 0], [2]))
    assert hk.to_dense().to_lists() == [[1]]
    assert syn.to_list() == [1]


def test_peel_spc():
    code = code_from_rows(SPC3)
    res = peel_decode(code, word(code, [1, 0, 0], [2]))
    assert res.ok
    assert res.recovered.to_list() == [1, 0, 1]


def test_peel_chain():
    code = code_from_rows(CHAIN)
    # erasing the two endpoints leaves each check with one unknown
    res = peel_decode(code, word(code, [0, 0, 0], [0, 2]))
    assert res.ok
    assert res.recovered.to_list() == [0, 0, 0]
    # full erasure leaves no degree-1 check: the support is a stopping set
    res = peel_decode(code, word(code, [0, 0, 0], [0, 1, 2]))
    assert res.status == "it_stall"
    assert is_stopping_set(code, res.residual)


def test_peel_4cycle_stall():
    code = code_from_rows(FOURCYCLE)
    res = peel_decode(code, word(code, [0, 0], [0, 1]))
    assert res.status == "it_stall"
    assert set(res.residual) == {0, 1}
    assert is_stopping_set(code, res.residual)


def test_peel_inconsistent_input():
    # two checks force the erased bit to both 1 and 0: corrupted input
    code = code_from_rows([[1, 1], [1, 0]])
    with pytest.raises(InconsistentInputError):
        peel_decode(code, word(code, [0, 1], [0]))


def test_triangularize_lower_triangular_no_pivots():
    code = code_from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    hk, syn = split_by_erasure(code, word(code, [0, 0, 0], [0, 1, 2]))
    state = triangularize(hk, syn)
    assert state.pivots == []
    assert len(state.resolved) == 3


def test_triangularize_4cycle_one_pivot():
    code = code_from_rows(FOURCYCLE)
    hk, syn = split_by_erasure(code, word(code, [0, 0], [0, 1]))
    state = triangularize(hk, syn)
    assert len(state.pivots) == 1
    assert len(state.resolved) == 1


def test_reduce_4cycle():
    code = code_from_rows(FOURCYCLE)
    hk, syn = split_by_erasure(code, word(code, [0, 0], [0, 1]))
    state = triangularize(hk, syn)
    aprime, rhs = reduce_to_aprime(state)
    assert aprime.rows == 1 and aprime.cols == 1
    assert rhs.to_list() == [0]
    # the two columns are identical, so the surviving equation is degenerate
    assert aprime.to_lists() == [[0]]


def test_reduce_zero_pivots_empty_aprime():
    code = code_from_rows([[1, 0], [1, 1]])
    hk, syn = split_by_erasure(code, word(code, [0, 0], [0, 1]))
    state = triangularize(hk, syn)
    aprime, rhs = reduce_to_aprime(state)
    assert aprime.cols == 0
    assert len(rhs) == aprime.rows


def test_solve_pivots_trivial():
    from erasurelab.binmat import DenseBinMatrix

    values, r = solve_pivots(DenseBinMatrix.zeros(0, 0), BinVector(0))
    assert values is not None and len(values) == 0 and r == 0
    values, r = solve_pivots(DenseBinMatrix.from_rows([[1]]), BinVector(1))
    assert values.to_list() == [0] and r == 1


def test_back_substitute_stall_witness():
    code = code_from_rows(STALL_ML_OK)
    hk, syn = split_by_erasure(code, word(code, [0, 0, 0], [0, 1, 2]))
    state = triangularize(hk, syn)
    assert state.pivots  # peeling alone stalls here
    pivot_values, _ = solve_pivots(*reduce_to_aprime(state))
    assert pivot_values is not None
    back_substitute(state, pivot_values)
    assert {state.value[u] for u in state.pivots + state.resolved} == {0}


def test_ml_hamming_independent_columns(hamming74):
    res = ml_decode(hamming74, word(hamming74, [0] * 7, [0, 1, 3]))
    assert res.ok
    assert res.recovered.weight() == 0


def test_ml_hamming_dependent_columns(hamming74):
    # columns at positions 0,1,2 are e1, e2, e1^e2
    res = ml_decode(hamming74, word(hamming74, [0] * 7, [0, 1, 2]))
    assert res.status == "rank_deficient"
    assert res.rank is not None and res.rank < 3


def test_ml_too_many_erasures(hamming74):
    res = ml_decode(hamming74, word(hamming74, [0] * 7, [0, 1, 2, 3]))
    assert res.status == "rank_deficient"


def test_hybrid_peelable_no_pivots():
    code = code_from_rows(SPC3)
    res = hybrid_decode(code, word(code, [1, 0, 0], [2]))
    assert res.ok
    assert res.stats.pivots == 0
    assert res.stats.peeled == 1


def test_hybrid_stall_then_ml():
    code = code_from_rows(STALL_ML_OK)
    res = hybrid_decode(code, word(code, [0, 0, 0], [0, 1, 2]))
    assert res.ok
    assert res.stats.pivots >= 1
    assert res.recovered.weight() == 0


def test_hybrid_4cycle_rank_deficient():
    code = code_from_rows(FOURCYCLE)
    res = hybrid_decode(code, word(code, [0, 0], [0, 1]))
    ml = ml_decode(code, word(code, [0, 0], [0, 1]))
    assert res.status == ml.status == "rank_deficient"


def test_oracle_matches_ml_small_random(rng):
    from erasurelab.ldpc import encode, sample_regular

    code = sample_regular(2, 4, 12, seed=5)
    for _ in range(300):
        u = random_vector(code.k, rng)
        cw = encode(code, u)
        nerase = int(rng.integers(0, 9))
        erased = rng.choice(12, size=nerase, replace=False).tolist()
        w = ReceivedWord.from_full(cw, erased)
        a, b = ml_decode(code, w), oracle_decode(code, w)
        assert a.status == b.status
        if a.ok:
            assert a.recovered == b.recovered == cw


def test_punctured_positions_always_erased():
    code = code_from_rows(CHAIN, punctured={0})
    res = ml_decode(code, ReceivedWord.from_full(BinVector(3), []))
    assert res.ok
    assert res.recovered.to_list() == [0, 0, 0]


def test_is_stopping_set():
    code = code_from_rows(FOURCYCLE)
    assert is_stopping_set(code, [0, 1])
    chain = code_from_rows(CHAIN)
    assert not is_stopping_set(chain, [0])
    assert is_stopping_set(chain, [])


def test_stats_system_shape():
    code = code_from_rows(STALL_ML_OK)
    res = ml_decode(code, word(code, [0, 0, 0], [0, 1, 2]))
    assert res.stats.system_shape == (4, 3)  # checks x erased positions


def test_erasure_of_nothing_is_identity(hamming74):
    rngl = np.random.default_rng(7)
    from erasurelab.ldpc import encode

    u = random_vector(4, rngl)
    cw = encode(hamming74, u)
    for fn in (peel_decode, ml_decode, hybrid_decode):
        res = fn(hamming74, ReceivedWord.from_full(cw, []))
        assert res.ok and res.recovered == cw


def _random_code(rng, rows, cols, density):
    h = rng.random((rows, cols)) < density
    h[rng.integers(rows, size=cols), np.arange(cols)] = True  # no empty column
    return code_from_rows(h.astype(int).tolist())


def _seeded_systems():
    from erasurelab.ldpc import GeiraSpec, build_geira, sample_regular

    rng = np.random.default_rng(2024)
    geira = build_geira(GeiraSpec(k=512, n=1024, taps=frozenset({0, 1, 4, 10, 20}),
                                  wc=5, seed=7))
    regular = sample_regular(3, 6, 1024, seed=3)
    for code, epsilons, count in ((geira, (0.40, 0.46), 25),
                                  (regular, (0.38, 0.44, 0.48), 25)):
        for eps in epsilons:
            for _ in range(count):
                yield code, np.flatnonzero(rng.random(code.n) < eps).tolist()
    for _ in range(200):
        code = _random_code(rng, int(rng.integers(2, 9)), int(rng.integers(2, 13)), 0.35)
        yield code, np.flatnonzero(rng.random(code.n) < 0.6).tolist()


def test_fixed_pivot_order_matches_full_scan():
    """Both routes into triangularize, the split erased submatrix and the
    ML decoder's stalled peel, resolve and inactivate exactly the unknowns,
    in exactly the order, of a scan over every unresolved unknown."""
    checked = 0
    for code, erased in _seeded_systems():
        w = ReceivedWord.from_full(BinVector(code.n), erased)
        hk, syn = split_by_erasure(code, w)
        ref_resolved, ref_pivots = full_scan_triangularize(hk)
        fresh = triangularize(hk, syn)
        assert (fresh.resolved, fresh.pivots) == (ref_resolved, ref_pivots)
        peeled = decode._peel_core(code, w)
        if peeled.left:
            triangularize(peeled, None)
        local = {c: i for i, c in enumerate(w.erased)}
        assert [local[u] for u in peeled.resolved] == ref_resolved
        assert [local[u] for u in peeled.pivots] == ref_pivots
        checked += bool(ref_pivots)
    assert checked > 150  # most systems need pivots


def test_pivot_strategy_called_once_per_pivot():
    # column weights 2, 3, 3 and no check with a single erased symbol
    code = code_from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1], [0, 1, 1]])
    calls = []

    def strategy(unresolved, coldeg):
        calls.append((list(unresolved), {u: coldeg[u] for u in unresolved}))
        return max_degree_pivot(unresolved, coldeg)

    res = ml_decode(code, word(code, [0, 0, 0], [0, 1, 2]), strategy)
    assert len(calls) == res.stats.pivots == 1
    assert calls[0] == ([1, 2, 0], {0: 2, 1: 3, 2: 3})


@st.composite
def _codeword_and_erasures(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(2, 10))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    for c in range(cols):  # every column of H must be nonzero
        if not any(row[c] for row in bits):
            bits[draw(st.integers(0, rows - 1))][c] = 1
    punctured = draw(st.sets(st.integers(0, cols - 1), max_size=cols // 2))
    code = code_from_rows(bits, punctured)
    u = draw(st.integers(min(code.k, 1), (1 << code.k) - 1))  # nonzero when k > 0
    erased = draw(st.sets(st.integers(0, cols - 1)))
    return code, u, sorted(erased)


@settings(max_examples=300, deadline=None)
@given(_codeword_and_erasures())
def test_ml_matches_oracle_on_random_codewords(case):
    """Non-zero codewords of random small codes, some positions punctured:
    ML agrees with the oracle, and peeling succeeds only on the codeword.
    The punctured positions arrive flipped, so a decoder that reads them
    fails."""
    from erasurelab.ldpc import encode

    code, u, erased = case
    cw = encode(code, BinVector(code.k, u))
    flipped = BinVector(cw.n, cw.bits ^ sum(1 << i for i in code.punctured))
    w = ReceivedWord.from_full(flipped, erased)
    a, b = ml_decode(code, w), oracle_decode(code, w)
    assert a.status == b.status
    if a.ok:
        assert a.recovered == b.recovered == cw
    p = peel_decode(code, w)
    if p.ok:
        assert a.ok and p.recovered == cw

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    code_from_rows,
    from_rows,
    full_scan_triangularize,
    loop_is_stopping_set,
    loop_parities,
    loop_peel_core,
    random_vector,
    sum_cleared,
    to_lists,
)
from erasurelab import decode
from erasurelab.binmat import BinVector, SparseBinMatrix
from erasurelab.decode import (
    InconsistentInputError,
    InternalConsistencyError,
    ReceivedWord,
    back_substitute,
    hybrid_decode,
    is_stopping_set,
    max_degree_pivot,
    min_row_pivot,
    ml_decode,
    oracle_decode,
    peel_decode,
    reduce_to_aprime,
    solve_pivots,
    split_by_erasure,
    triangularize,
)
from erasurelab.ldpc import GeiraSpec, build_geira, sample_regular
from erasurelab.raptor import RaptorCode

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
    # a sorted list of numpy integers skips the sort but still becomes ints
    w = ReceivedWord.from_full(BinVector.from_bits([1, 1, 1]), list(np.array([0, 2])))
    assert w.erased == (0, 2) and all(type(i) is int for i in w.erased)
    assert w.values.to_list() == [0, 1, 0]
    for erased in ([1, 3], (1, 3), [3, 1], (3, 3, 1), [1, 1, 3]):
        w = ReceivedWord.from_full(BinVector.from_bits([1, 1, 0, 1]), erased)
        assert w.erased == (1, 3) and w.values.to_list() == [1, 0, 0, 0]
    with pytest.raises(TypeError):  # not truncated to position 1
        ReceivedWord.from_full(BinVector(4), [1.5])


def test_received_word_rejects_bools_as_positions():
    """Only a boolean numpy array of length n is read as an erasure mask:
    bools in a list, a tuple or any other container are not positions 0
    and 1, and a mask of another shape is not truncated or padded."""
    full = BinVector(4, 0b1111)
    for erased in ([True, False, True, False], (True, False), [1, True],
                   list(np.array([True, False, True, False])), [np.True_]):
        with pytest.raises(ValueError, match="boolean numpy array"):
            ReceivedWord.from_full(full, erased)
    for mask in (np.ones(3, np.bool_), np.zeros(5, np.bool_), np.zeros((2, 2), np.bool_)):
        with pytest.raises(ValueError, match="erasure mask shape"):
            ReceivedWord.from_full(full, mask)


def test_positions_beyond_any_array_index_are_out_of_range():
    for erased in ([2**70], [-2**70], [1, 2**64]):
        with pytest.raises(ValueError, match=r"erased positions must lie in 0\.\.3"):
            ReceivedWord.from_full(BinVector(4), erased)


def test_mask_and_positions_build_equal_words():
    """A word built from an erasure mask equals the word built from the
    mask's positions: the same values, erased positions and mask, the
    latter the very array given."""
    rng = np.random.default_rng(29)
    for n in (1, 7, 8, 9, 64, 200):
        for share in (0.0, 0.3, 1.0):
            full = random_vector(n, rng)
            mask = rng.random(n) < share
            from_mask = ReceivedWord.from_full(full, mask)
            from_list = ReceivedWord.from_full(full, np.flatnonzero(mask).tolist())
            assert from_mask.erased_mask is mask
            assert from_mask.values == from_list.values
            assert from_mask.erased == from_list.erased
            assert all(type(i) is int for i in from_mask.erased)
            assert np.array_equal(from_mask.erased_mask, from_list.erased_mask)


def test_erasure_mask_matches_the_generator():
    """The numpy mask clears exactly the bits the per-position generator
    sum clears, on random words with no, some and all positions erased; the
    word keeps that mask, built once, for its decoder to read."""
    rng = np.random.default_rng(17)
    for n in (1, 7, 8, 9, 64, 200, 1024):
        for share in (0.0, 0.05, 0.4, 0.9, 1.0):
            for _ in range(5):
                full = random_vector(n, rng)
                erased = np.flatnonzero(rng.random(n) < share).tolist()
                if share == 1.0:
                    assert erased == list(range(n))
                w = ReceivedWord.from_full(full, erased)
                assert w.values.bits == sum_cleared(full, erased)
                assert np.flatnonzero(w.erased_mask).tolist() == erased
                assert w.erased_mask is w.erased_mask


_LDPC = sample_regular(3, 6, 48, seed=0)
_RAPTOR = RaptorCode.build(16, 32, seed=0)


@pytest.mark.parametrize("code, decoder", [
    (_LDPC, peel_decode), (_LDPC, ml_decode), (_LDPC, hybrid_decode), (_LDPC, oracle_decode),
    (_RAPTOR, RaptorCode.decode), (_RAPTOR, RaptorCode.decode_structured),
], ids=["peel", "ml", "hybrid", "oracle", "raptor-dense", "raptor-structured"])
@pytest.mark.parametrize("where", ["below", "above"])
@pytest.mark.parametrize("zero", [True, False], ids=["zero-word", "random-word"])
def test_out_of_range_erasures_rejected(code, decoder, where, zero):
    """An erased position outside 0..n-1 is a ValueError, not a wrapped
    numpy index, an IndexError or a negative shift."""
    n = code.n
    values = BinVector(n) if zero else random_vector(n, np.random.default_rng(n))
    erased = [-1, 3] if where == "below" else [3, n]
    with pytest.raises(ValueError, match="erased positions"):
        decoder(code, ReceivedWord.from_full(values, erased))


@pytest.mark.parametrize("decoder", [peel_decode, ml_decode, oracle_decode])
@pytest.mark.parametrize("length", [47, 49])
@pytest.mark.parametrize("zero", [True, False], ids=["zero-word", "random-word"])
def test_ldpc_word_length_must_be_n(decoder, length, zero):
    """A word one position short or long is a ValueError, whatever its bits:
    the decoders read its erased mask against H's columns."""
    values = BinVector(length) if zero else random_vector(length, np.random.default_rng(3))
    with pytest.raises(ValueError, match="word length"):
        decoder(_LDPC, ReceivedWord(values, [3]))


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
    assert to_lists(hk.to_dense()) == [[1]]
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
    # two checks force the erased bit to both 1 and 0: corrupted input; the
    # peel finishes, so the re-check fires first and the scan names the row
    code = code_from_rows([[1, 1], [1, 0]])
    for decoder in (peel_decode, ml_decode, hybrid_decode):
        with pytest.raises(InconsistentInputError,
                           match="^check row 1 violated by known symbols$"):
            decoder(code, word(code, [0, 1], [0]))


def test_inconsistent_input_at_a_stall():
    # rows 0 and 1 hold both erased bits, so the peel stalls; row 2 holds
    # only the known bit, which violates it
    code = code_from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    for decoder in (peel_decode, ml_decode, hybrid_decode):
        with pytest.raises(InconsistentInputError,
                           match="^check row 2 violated by known symbols$"):
            decoder(code, word(code, [0, 0, 1], [0, 1]))


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
    assert to_lists(aprime) == [[0]]


def test_reduce_zero_pivots_empty_aprime():
    code = code_from_rows([[1, 0], [1, 1]])
    hk, syn = split_by_erasure(code, word(code, [0, 0], [0, 1]))
    state = triangularize(hk, syn)
    aprime, rhs = reduce_to_aprime(state)
    assert aprime.cols == 0
    assert len(rhs) == aprime.rows


def test_solve_pivots_trivial():
    from erasurelab.binmat import DenseBinMatrix

    values, r = solve_pivots(DenseBinMatrix(0, 0, []), BinVector(0))
    assert values is not None and len(values) == 0 and r == 0
    values, r = solve_pivots(from_rows([[1]]), BinVector(1))
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


@pytest.mark.parametrize("code", [
    pytest.param(sample_regular(3, 6, 12, seed=4), id="regular-3-6-n12"),
    pytest.param(build_geira(GeiraSpec(k=7, n=14, taps=frozenset({0, 1}), wc=3, seed=1)),
                 id="geira-7-14"),
])
def test_peel_residual_is_the_largest_stopping_set(code):
    """Peeling stalls on the union of the stopping sets inside the erasure
    set, the largest stopping set there (Di, Proietti, Telatar, Richardson &
    Urbanke, IEEE T-IT 2002), and succeeds when that union is empty. The
    code's stopping sets are listed once; then every erasure pattern is
    checked against them."""
    n = code.n
    patterns = np.arange(1 << n)
    bits = (patterns[:, None] >> np.arange(n)) & 1
    stopping = patterns[[is_stopping_set(code, np.flatnonzero(b)) for b in bits]]
    for mask in patterns:
        largest = np.bitwise_or.reduce(stopping[(stopping & ~mask) == 0])
        res = peel_decode(code, ReceivedWord(BinVector(n), np.flatnonzero(bits[mask]).tolist()))
        assert sum(1 << j for j in res.residual) == largest, mask


def test_is_stopping_set():
    code = code_from_rows(FOURCYCLE)
    assert is_stopping_set(code, [0, 1])
    chain = code_from_rows(CHAIN)
    assert not is_stopping_set(chain, [0])
    assert is_stopping_set(chain, [])
    assert is_stopping_set(chain, set())
    assert not is_stopping_set(chain, np.flatnonzero([1, 0, 0]))


def test_is_stopping_set_rejects_negative_positions():
    code = sample_regular(3, 6, 12, seed=4)
    with pytest.raises(ValueError, match=r"^erased positions must lie in 0\.\.11$"):
        is_stopping_set(code, [-1])


def test_is_stopping_set_rejects_a_list_of_bools():
    # read as a mask, [True] * 12 would be the whole word, a stopping set;
    # as positions it would be {1}, which is not one
    code = sample_regular(3, 6, 12, seed=4)
    assert is_stopping_set(code, range(12)) and not is_stopping_set(code, [1])
    with pytest.raises(ValueError, match="^erased positions must be integers"):
        is_stopping_set(code, [True] * 12)


def test_is_stopping_set_rejects_bad_positions():
    # the errors of ReceivedWord, not numpy's indexing errors
    code = sample_regular(3, 6, 12, seed=4)
    for positions in ([12], [0, 2**70]):
        with pytest.raises(ValueError, match=r"^erased positions must lie in 0\.\.11$"):
            is_stopping_set(code, positions)
    with pytest.raises(TypeError):  # not truncated to position 1
        is_stopping_set(code, [1.5])


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


def _assert_matches_full_scan(strategy, rule):
    """Both routes into triangularize, the split erased submatrix and the
    ML decoder's stalled peel, resolve and inactivate exactly the unknowns,
    in exactly the order, of the full-scan reference for ``rule``."""
    checked = 0
    for code, erased in _seeded_systems():
        w = ReceivedWord.from_full(BinVector(code.n), erased)
        hk, syn = split_by_erasure(code, w)
        ref_resolved, ref_pivots = full_scan_triangularize(hk, rule)
        fresh = triangularize(hk, syn, strategy)
        assert (fresh.resolved, fresh.pivots) == (ref_resolved, ref_pivots)
        peeled = decode._peel_core(code, w)
        if peeled.left:
            triangularize(peeled, None, strategy)
        local = {c: i for i, c in enumerate(w.erased)}
        assert [local[u] for u in peeled.resolved] == ref_resolved
        assert [local[u] for u in peeled.pivots] == ref_pivots
        checked += bool(ref_pivots)
    assert checked > 150  # most systems need pivots


def test_fixed_pivot_order_matches_full_scan():
    _assert_matches_full_scan(max_degree_pivot, "max_degree")


def test_row_pivot_order_matches_full_scan():
    _assert_matches_full_scan(min_row_pivot, "row")


def test_peel_start_matches_loop():
    """The bincount start of the peel leaves exactly the state of the loop
    over the erased columns, before and after triangularization."""
    from erasurelab.ldpc import encode

    rng = np.random.default_rng(3)
    for code, erased in _seeded_systems():
        w = ReceivedWord.from_full(encode(code, random_vector(code.k, rng)), erased)
        fast, ref = decode._peel_core(code, w), loop_peel_core(code, w)
        assert fast == ref
        if fast.left:
            triangularize(fast, None)
            triangularize(ref, None)
            assert fast == ref


@st.composite
def sparse_words(draw):
    """A random sparse H (any row may be empty) and a word of its length:
    random, zero or all ones."""
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=6), min_size=1, max_size=20))
    kind = draw(st.sampled_from(["random", "zero", "ones"]))
    bits = {"random": draw(st.integers(0, (1 << n) - 1)), "zero": 0, "ones": (1 << n) - 1}[kind]
    return SparseBinMatrix(len(rows), n, rows), BinVector(n, bits)


@settings(max_examples=200, deadline=None)
@given(sparse_words(), st.booleans())
def test_is_stopping_set_matches_loop(case, repeat):
    """The bincount over H's edge arrays gives the dict loop's verdict on
    the set of a word's set bits, given as a tuple, with each position
    twice or once."""
    h, v = case
    code = SimpleNamespace(h=h)
    positions = tuple(v.ones()) * (2 if repeat else 1)
    assert is_stopping_set(code, positions) == loop_is_stopping_set(code, positions)


@settings(max_examples=200, deadline=None)
@given(sparse_words())
def test_parities_and_recheck_match_loop(case):
    """The bincount syndrome equals the loop over the word's set bits, and
    the re-check of a recovered word fails exactly when that syndrome is
    nonzero, naming its first violated row."""
    h, v = case
    ref = loop_parities(h, v)
    assert (decode._row_sums(h, v.unpacked()) & 1).tolist() == ref
    if any(ref):
        with pytest.raises(InternalConsistencyError, match=f"check row {ref.index(1)} "):
            decode._finish(h, v.unpacked(), decode.DecodeStats())
    else:
        assert decode._finish(h, v.unpacked(), decode.DecodeStats()).recovered == v


def _assert_start_matches_loop(h, w):
    """The fused start gives each row's count of erased positions, from a
    count loop, and its known parity, from the syndrome loop, and takes the
    word's bits as the first values."""
    counts, rowpar, value = decode._word_start(h, w)
    assert counts.tolist() == [sum(w.erased_mask[c] for c in cs) for cs in h.row_adj]
    assert rowpar == loop_parities(h, w.values)
    assert value == bytearray(w.values.to_list())


@settings(max_examples=200, deadline=None)
@given(sparse_words(), st.data())
def test_word_start_matches_loop(case, data):
    """Empty rows, the zero word and the all-ones word included, with any
    positions erased."""
    h, v = case
    erased = data.draw(st.sets(st.integers(0, h.cols - 1)))
    _assert_start_matches_loop(h, ReceivedWord.from_full(v, sorted(erased)))


def test_word_start_counts_past_a_byte():
    """A row of 300 entries, more than any 8-bit field of the key holds,
    every one of them erased or every one a known 1."""
    n = 400
    h = SparseBinMatrix(3, n, [range(300), [], range(1, n, 2)])
    ones = BinVector(n, (1 << n) - 1)
    for erased in (range(300), range(299), range(n), (), (299,)):
        for v in (ones, BinVector(n)):
            _assert_start_matches_loop(h, ReceivedWord.from_full(v, list(erased)))


def test_row_pivot_from_a_two_unknown_row_resolves_an_unknown():
    """Under the row rule, a pivot taken while some row holds two unknowns
    leaves that row with one, so the diagonal extension after it resolves
    at least one unknown."""
    pairs = 0
    for code, erased in _seeded_systems():
        st = decode._peel_core(code, ReceivedWord.from_full(BinVector(code.n), erased))
        seen = []  # per pivot: unknowns resolved so far, whether a row held two

        def strategy(state):
            seen.append((len(state.resolved), 2 in state.rowcnt))
            return min_row_pivot(state)

        if st.left:
            triangularize(st, None, strategy)
        seen.append((len(st.resolved), False))
        for (done, pair), (after, _) in zip(seen, seen[1:]):
            assert after > done or not pair
            pairs += pair
    assert pairs > 1000


def test_row_pivot_takes_the_first_row_of_two_unknowns():
    """On every stall of the seeded systems, through the peel and through a
    fresh system, the row whose unknown ``min_row_pivot`` inactivates is the
    lowest-index unanchored row holding exactly two unknowns, found by a
    scan that counts each row's unknowns afresh; with no such row, the
    lowest-index row of the fewest unknowns above two."""
    stalls = fallbacks = 0

    def strategy(state):
        nonlocal stalls, fallbacks
        counts = [0 if state.anchored[r] else sum(state.unknown[u] for u in cs)
                  for r, cs in enumerate(state.row_adj)]
        assert counts == state.rowcnt
        fewest = min((cnt for cnt in counts if cnt > 1), default=None)
        p = min_row_pivot(state)
        stalls += 1
        if fewest is None:
            assert p == next(u for u, unk in enumerate(state.unknown) if unk)
            return p
        fallbacks += fewest > 2
        row = counts.index(fewest)
        assert state.unknown[p] and p in state.row_adj[row]
        heaviest = max(len(state.col_adj[u]) for u in state.row_adj[row] if state.unknown[u])
        assert p == min(u for u in state.row_adj[row]
                        if state.unknown[u] and len(state.col_adj[u]) == heaviest)
        return p

    for code, erased in _seeded_systems():
        w = ReceivedWord.from_full(BinVector(code.n), erased)
        triangularize(decode._peel_core(code, w), None, strategy)
        triangularize(*split_by_erasure(code, w), strategy)
    assert stalls > 5000 and fallbacks > 0


def test_pivot_strategy_called_once_per_pivot():
    # column weights 2, 3, 3 and no check with a single erased symbol
    code = code_from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1], [0, 1, 1]])
    calls = []

    def strategy(state):
        p = min_row_pivot(state)
        calls.append((state.rowcnt[:], p))
        return p

    w = word(code, [0, 0, 0], [0, 1, 2])
    st = triangularize(decode._peel_core(code, w), None, strategy)
    assert len(calls) == len(st.pivots) == 1
    # every row holds two unknowns; row 0's are 0 and 1, and 1 weighs more
    assert calls == [([2, 2, 2, 2], 1)]


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

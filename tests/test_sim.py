import numpy as np
import pytest

from conftest import list_erased_positions, random_vector, raptor_esi_draw
from erasurelab import decode, sim
from erasurelab.binmat import BinVector
from erasurelab.decode import DecodeResult, ReceivedWord
from erasurelab.ldpc import puncture, rate_family, sample_regular
from erasurelab.raptor import RaptorCode
from erasurelab.sim import (
    CSV_COLUMNS,
    ChannelModel,
    SimPlan,
    records_to_csv,
    run_sweep,
    run_trial,
    wilson_halfwidth,
)


@pytest.fixture(scope="module")
def small_code():
    return sample_regular(3, 6, 48, seed=0)


@pytest.fixture(scope="module")
def raptor_code():
    return RaptorCode.build(16, 32, seed=0)


@pytest.fixture(scope="module")
def punctured_code():
    """The rate-3/4 member of a rate-compatible family: 32 of 96 punctured."""
    return rate_family(sample_regular(3, 6, 96, seed=5), [0.5, 0.6, 0.75])[2]


CHANNELS = [ChannelModel("bec", epsilon=e) for e in (0.0, 0.1, 0.45, 1.0)] + [
    ChannelModel("overhead", delta=d) for d in (-30, 0, 3, 100)]


def _drawn_word(code, channel, seed):
    """The channel's erasure mask for one seed, checked for shape, and the
    word built from it."""
    mask = sim._erasure_mask(code, channel, np.random.default_rng(seed))
    assert mask.dtype == np.bool_ and mask.shape == (code.n,)
    word = ReceivedWord.from_full(BinVector(code.n), mask)
    assert word.erased_mask is mask
    assert all(type(i) is int for i in word.erased)
    return word


def test_erased_positions_match_the_list_draw(small_code, punctured_code):
    """The numpy mask draw erases exactly the positions of the per-index
    list draw, for unpunctured and punctured codes alike, and the word built
    from it holds them as Python ints."""
    codes = [small_code, punctured_code,
             puncture(small_code, [40, 41, 47], allow_systematic=True)]
    for code in codes:
        for channel in CHANNELS:
            for seed in range(10):
                old = list_erased_positions(code, channel, np.random.default_rng(seed))
                assert list(_drawn_word(code, channel, seed).erased) == old


def test_raptor_erased_positions_match_the_esi_draw(raptor_code):
    """On a Raptor code the shared draw erases exactly the positions whose
    ESIs the per-code ESI draw does not receive, from the same generator
    calls."""
    n = raptor_code.params.n
    for channel in CHANNELS:
        for seed in range(10):
            erased = _drawn_word(raptor_code, channel, seed).erased
            esis = raptor_esi_draw(raptor_code, channel, np.random.default_rng(seed))
            received = {esi - 1 for esi in esis}
            assert list(erased) == [i for i in range(n) if i not in received]


# it-decoder sweeps of ``punctured_code`` with random codewords, seed 13, 200
# trials per point, as the per-index list draw produced them
PUNCTURED_IT_CSV = {
    "bec": ("sweep_value,trials,errors,cer,ci95,mean_pivots,mean_ge_dim\n"
            "0.1,200,93,0.465,0.068473945,0,0\n0.2,200,190,0.95,0.031097752,0,0\n"),
    "overhead": ("sweep_value,trials,errors,cer,ci95,mean_pivots,mean_ge_dim\n"
                 "2,200,200,1,0.0094226633,0,0\n8,200,136,0.68,0.064126826,0,0\n"),
}


@pytest.mark.parametrize("kind,sweep", [("bec", [0.1, 0.2]), ("overhead", [2, 8])])
def test_punctured_csv_pinned(punctured_code, kind, sweep):
    plan = SimPlan(code=punctured_code, decoder="it", channel_kind=kind, sweep=sweep,
                   target_errors=10**9, max_trials=200, seed=13, zero_codeword=False)
    assert records_to_csv(run_sweep(plan)) == PUNCTURED_IT_CSV[kind]


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelModel("awgn")
    with pytest.raises(ValueError):
        ChannelModel("bec", epsilon=1.5)


def test_trial_eps0_always_succeeds(small_code):
    ch = ChannelModel("bec", epsilon=0.0)
    for t in range(20):
        ok, _ = run_trial(small_code, "ml", ch, np.random.default_rng(t))
        assert ok


def test_trial_eps1_always_fails(small_code):
    ch = ChannelModel("bec", epsilon=1.0)
    for t in range(20):
        ok, _ = run_trial(small_code, "ml", ch, np.random.default_rng(t))
        assert not ok


def test_trial_full_overhead_equals_eps0(small_code):
    ch = ChannelModel("overhead", delta=small_code.n - small_code.k)
    for t in range(20):
        ok, _ = run_trial(small_code, "hybrid", ch, np.random.default_rng(t))
        assert ok


def test_degenerate_plan_cer0(small_code):
    plan = SimPlan(code=small_code, decoder="it", channel_kind="bec",
                   sweep=[0.0], target_errors=1, max_trials=10)
    rec = run_sweep(plan)[0]
    assert rec.cer == 0.0 and rec.trials == 10 and rec.errors == 0


def test_replay_identical_csv(small_code):
    plan = SimPlan(code=small_code, decoder="hybrid", channel_kind="bec",
                   sweep=[0.3, 0.4], target_errors=5, max_trials=300, seed=9)
    a = records_to_csv(run_sweep(plan))
    b = records_to_csv(run_sweep(plan))
    assert a == b


def test_worker_count_does_not_change_csv(small_code, raptor_code):
    base = dict(code=small_code, decoder="ml", channel_kind="bec",
                sweep=[0.35], target_errors=5, max_trials=300, seed=4)
    serial = records_to_csv(run_sweep(SimPlan(**base, workers=1)))
    parallel = records_to_csv(run_sweep(SimPlan(**base, workers=3)))
    assert serial == parallel
    base = dict(code=raptor_code, decoder="ml", channel_kind="overhead",
                sweep=[0, 2], target_errors=5, max_trials=300, seed=4)
    serial = records_to_csv(run_sweep(SimPlan(**base, workers=1)))
    parallel = records_to_csv(run_sweep(SimPlan(**base, workers=2)))
    assert serial == parallel


def test_dominance_ml_vs_it(small_code):
    base = dict(code=small_code, channel_kind="bec", sweep=[0.38],
                target_errors=10**9, max_trials=400, seed=2)
    rec_it = run_sweep(SimPlan(**base, decoder="it"))[0]
    rec_ml = run_sweep(SimPlan(**base, decoder="ml"))[0]
    rec_hy = run_sweep(SimPlan(**base, decoder="hybrid"))[0]
    # paired trials: identical seeds generate identical erasure patterns
    assert rec_ml.errors <= rec_it.errors
    assert rec_hy.errors == rec_ml.errors


def test_wilson_halfwidth():
    assert wilson_halfwidth(0, 0) == 0.0
    hw = wilson_halfwidth(10, 100)
    assert 0.0 < hw < 0.1
    assert wilson_halfwidth(10, 1000) < hw


def test_csv_format():
    plan_header = {"decoder": "ml", "seed": 3}
    from erasurelab.sim import SimRecord

    rec = SimRecord(0.3, 100, 7, 0.07, 0.049, 1.5)
    text = records_to_csv([rec], plan_header)
    lines = text.splitlines()
    assert lines[0] == "# decoder=ml"
    assert lines[1] == "# seed=3"
    assert lines[2] == CSV_COLUMNS
    assert lines[3].startswith("0.3,100,7,0.07,")


def test_raptor_overhead_trials(raptor_code):
    ch = ChannelModel("overhead", delta=16)  # all n symbols received
    for t in range(10):
        ok, _ = run_trial(raptor_code, "ml", ch, np.random.default_rng(t))
        assert ok


def test_raptor_it_rejected(raptor_code):
    with pytest.raises(ValueError, match="ML decoding only"):
        SimPlan(code=raptor_code, decoder="it", channel_kind="bec", sweep=[0.1])


@pytest.mark.parametrize("field, value", [("channel_kind", "BEC"), ("decoder", "xx")])
def test_plan_rejects_unknown_names(small_code, field, value):
    """A misspelt channel kind or decoder fails at plan construction, not as
    another channel or at the first trial in a pool worker."""
    plan = dict(code=small_code, decoder="ml", channel_kind="bec", sweep=[0.4])
    plan[field] = value
    with pytest.raises(ValueError, match=repr(value)):
        SimPlan(**plan)


@pytest.mark.parametrize("field", ["target_errors", "max_trials", "workers"])
@pytest.mark.parametrize("value", [0, -5])
def test_plan_rejects_counts_below_one(small_code, field, value):
    """No trial budget, error target or worker count below 1: a plan with
    ``max_trials=0`` would write a CER of 0 from no trials, and one with
    ``workers=0`` would run as one worker."""
    plan = dict(code=small_code, decoder="ml", channel_kind="bec", sweep=[0.3])
    plan[field] = value
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
        SimPlan(**plan)


@pytest.mark.parametrize("code_name, lo, hi", [
    ("small_code", -24, 24), ("punctured_code", -48, 16), ("raptor_code", -16, 16),
])
def test_plan_rejects_overheads_the_draw_clamps(code_name, lo, hi, request):
    """An overhead sweep spans -k..n_transmitted-k: past either end the draw
    receives none or all of the transmitted symbols, so such a point would
    run another point's channel under its own label."""
    code = request.getfixturevalue(code_name)
    plan = dict(code=code, decoder="ml", channel_kind="overhead")
    for bad in (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=f"overhead {bad} outside {lo}..{hi}"):
            SimPlan(**plan, sweep=[0, bad])
    assert SimPlan(**plan, sweep=[hi, lo]).sweep == [lo, hi]


@pytest.mark.parametrize("code_name, decoder", [
    ("raptor_code", "it"), ("raptor_code", "xx"), ("small_code", "xx"), ("small_code", "ML"),
])
def test_run_trial_rejects_a_decoder_the_code_lacks(code_name, decoder, request):
    """A direct ``run_trial`` (as the Raptor demo makes) names the decoder in
    a ValueError instead of ending in a bare KeyError."""
    code = request.getfixturevalue(code_name)
    ch = ChannelModel("overhead", delta=2)
    with pytest.raises(ValueError, match=f"no decoder {decoder!r}"):
        run_trial(code, decoder, ch, np.random.default_rng(0))


def test_wrong_recovered_word_counts_as_error(small_code, monkeypatch):
    # a decoder that claims success with the all-zero word
    zero = BinVector(small_code.n)
    monkeypatch.setattr(sim, "ml_decode",
                        lambda code, word: DecodeResult("success", recovered=zero))
    ch = ChannelModel("bec", epsilon=0.1)
    ok, _ = run_trial(small_code, "ml", ch, np.random.default_rng(1), zero_codeword=True)
    assert ok
    ok, _ = run_trial(small_code, "ml", ch, np.random.default_rng(1), zero_codeword=False)
    assert not ok
    plan = SimPlan(code=small_code, decoder="ml", channel_kind="bec", sweep=[0.1],
                   target_errors=10**6, max_trials=20, seed=1, zero_codeword=False)
    assert run_sweep(plan)[0].errors == 20


def _punctured_codes(small_code, punctured_code):
    return [punctured_code, puncture(small_code, [40, 41, 47], allow_systematic=True)]


def test_with_punctured_keeps_a_word_that_erases_them(small_code, punctured_code):
    """A word whose mask already erases every punctured position, or any
    word of a code with none, is the word the decoders read: not rebuilt."""
    rng = np.random.default_rng(31)
    for code in [small_code] + _punctured_codes(small_code, punctured_code):
        for share in (0.0, 0.3, 1.0):
            mask = rng.random(code.n) < share
            mask[code.punctured_array] = True
            word = ReceivedWord.from_full(random_vector(code.n, rng), mask)
            assert decode._with_punctured(code, word) is word


def test_with_punctured_equals_the_word_built_from_positions(small_code, punctured_code):
    """Otherwise the union of the word's mask with the punctured positions
    gives the word built from the erased and punctured positions: the same
    values, every punctured bit cleared, and the same mask; the word given
    is left as it was."""
    rng = np.random.default_rng(37)
    for code in _punctured_codes(small_code, punctured_code):
        for share in (0.0, 0.1, 0.5, 0.9):
            for _ in range(10):
                full = random_vector(code.n, rng)
                mask = rng.random(code.n) < share
                mask[code.punctured_array[0]] = False
                word = ReceivedWord.from_full(full, mask)
                got = decode._with_punctured(code, word)
                ref = ReceivedWord.from_full(
                    full, np.flatnonzero(mask).tolist() + sorted(code.punctured))
                assert got.values == ref.values
                assert np.array_equal(got.erased_mask, ref.erased_mask)
                assert word.erased_mask is mask and not mask[code.punctured_array[0]]


def test_trial_path_builds_no_positions(monkeypatch, small_code, punctured_code, raptor_code):
    """No word of a simulated trial derives its erased positions: the draw,
    the union with the punctured positions and every decoder read the mask
    alone, on trials that peel, stall under peeling, and fail."""
    words = []
    build = ReceivedWord.from_full.__func__

    def recording(cls, full, erased):
        words.append(build(cls, full, erased))
        return words[-1]

    monkeypatch.setattr(ReceivedWord, "from_full", classmethod(recording))
    outcomes = set()
    for code, decoders in [(small_code, ("it", "ml", "hybrid")),
                           (punctured_code, ("it", "ml", "hybrid")), (raptor_code, ("ml",))]:
        for decoder in decoders:
            for eps in (0.1, 0.45, 0.8):
                for seed in range(6):
                    ok, _ = run_trial(code, decoder, ChannelModel("bec", epsilon=eps),
                                      np.random.default_rng(seed), zero_codeword=False)
                    outcomes.add(ok)
    assert outcomes == {True, False}
    assert len(words) == (7 + 3) * 3 * 6  # a word per trial, a union per punctured trial
    assert not [w for w in words if "erased" in w.__dict__]

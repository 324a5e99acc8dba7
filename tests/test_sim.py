import numpy as np
import pytest

from erasurelab import sim
from erasurelab.binmat import BinVector
from erasurelab.decode import DecodeResult
from erasurelab.ldpc import sample_regular
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


def test_worker_count_does_not_change_csv(small_code):
    base = dict(code=small_code, decoder="ml", channel_kind="bec",
                sweep=[0.35], target_errors=5, max_trials=300, seed=4)
    serial = records_to_csv(run_sweep(SimPlan(**base, workers=1)))
    parallel = records_to_csv(run_sweep(SimPlan(**base, workers=3)))
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


def test_raptor_overhead_trials():
    code = RaptorCode.build(16, 32, seed=0)
    ch = ChannelModel("overhead", delta=16)  # all n symbols received
    for t in range(10):
        ok, _ = run_trial(code, "ml", ch, np.random.default_rng(t))
        assert ok


def test_raptor_it_rejected():
    code = RaptorCode.build(16, 32, seed=0)
    with pytest.raises(ValueError):
        run_trial(code, "it", ChannelModel("bec", epsilon=0.1),
                  np.random.default_rng(0))


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

"""Pinned CSV text of short seeded sweeps. The ``trials``, ``errors``,
``cer`` and ``ci95`` columns date from the first decoder that scanned every
unresolved unknown for each pivot. The pivot columns were regenerated once,
when the row-driven pivot rule replaced the column-weight rule; the rule's
full-scan reference in conftest pins the pivot sets, and these tests hold
them, and with them ``mean_pivots``, fixed across rewrites of the
decoders. ``RAPTOR_CSV`` was regenerated whole once more, when the LT degrees
moved from a truncated robust soliton to the RFC 5053 table, which changes
the code itself. ``REGULAR_CSV``, the one pin on random codewords, was
generated before the start and the re-check of a word-driven decode became
one pass each over H's edges, and holds that rewrite to the same bytes."""

import pytest

from erasurelab import ldpc, raptor, sim

GEIRA_CSV = (
    "sweep_value,trials,errors,cer,ci95,mean_pivots,mean_ge_dim\n"
    "0.4,32,0,0,0.0535896,39.71875,39.71875\n"
    "0.46,32,0,0,0.0535896,80,80\n"
)
RAPTOR_CSV = (
    "sweep_value,trials,errors,cer,ci95,mean_pivots,mean_ge_dim\n"
    "0,32,26,0.8125,0.13209805,35.375,35.375\n"
    "5,32,3,0.09375,0.10489,32.3125,32.3125\n"
)
REGULAR_CSV = {
    "it": (
        "sweep_value,trials,errors,cer,ci95,mean_pivots,mean_ge_dim\n"
        "0.38,32,0,0,0.0535896,0,0\n"
        "0.42,32,10,0.3125,0.15307068,0,0\n"
        "0.44,32,24,0.75,0.14427079,0,0\n"
    ),
    "ml": (
        "sweep_value,trials,errors,cer,ci95,mean_pivots,mean_ge_dim\n"
        "0.38,32,0,0,0.0535896,0,0\n"
        "0.42,32,0,0,0.0535896,1.625,1.625\n"
        "0.44,32,0,0,0.0535896,7.625,7.625\n"
    ),
}


def _csv(code, decoder, kind, sweep, workers=1, zero_codeword=True):
    plan = sim.SimPlan(code=code, decoder=decoder, channel_kind=kind, sweep=sweep,
                       target_errors=10**9, max_trials=32, seed=5,
                       zero_codeword=zero_codeword, workers=workers)
    return sim.records_to_csv(sim.run_sweep(plan))


@pytest.mark.parametrize("decoder", ["ml", "hybrid"])
def test_geira_csv_pinned(decoder):
    code = ldpc.build_geira(ldpc.GeiraSpec(k=512, n=1024, taps=frozenset({0, 1, 4, 10, 20}),
                                           wc=5, seed=7))
    assert _csv(code, decoder, "bec", [0.40, 0.46]) == GEIRA_CSV


def test_raptor_csv_pinned():
    code = raptor.RaptorCode.build(256, 512, seed=0)
    for workers in (1, 2):
        assert _csv(code, "ml", "overhead", [0, 5], workers) == RAPTOR_CSV


@pytest.mark.parametrize("decoder", ["it", "ml"])
def test_regular_random_codeword_csv_pinned(decoder):
    """Random codewords: the only pin that runs the non-zero syndrome, the
    peeling decoder and the fill of a recovered word."""
    code = ldpc.sample_regular(3, 6, 1024, seed=3)
    for workers in (1, 2):
        csv = _csv(code, decoder, "bec", [0.38, 0.42, 0.44], workers, zero_codeword=False)
        assert csv == REGULAR_CSV[decoder]

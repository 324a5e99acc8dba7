"""Pinned CSV text of short seeded sweeps. The ``trials``, ``errors``,
``cer`` and ``ci95`` columns date from the first decoder that scanned every
unresolved unknown for each pivot. The pivot columns were regenerated once,
when the row-driven pivot rule replaced the column-weight rule; the rule's
full-scan reference in conftest pins the pivot sets, and these tests hold
them, and with them ``mean_pivots``, fixed across rewrites of the
decoders."""

import pytest

from erasurelab import ldpc, raptor, sim

GEIRA_CSV = (
    "sweep_value,trials,errors,cer,ci95,mean_pivots,mean_ge_dim\n"
    "0.4,32,0,0,0.0535896,39.71875,39.71875\n"
    "0.46,32,0,0,0.0535896,80,80\n"
)
RAPTOR_CSV = (
    "sweep_value,trials,errors,cer,ci95,mean_pivots,mean_ge_dim\n"
    "0,32,23,0.71875,0.14904965,51.1875,51.1875\n"
    "5,32,2,0.0625,0.092080333,46.15625,46.15625\n"
)


def _csv(code, decoder, kind, sweep, workers=1):
    plan = sim.SimPlan(code=code, decoder=decoder, channel_kind=kind, sweep=sweep,
                       target_errors=10**9, max_trials=32, seed=5, workers=workers)
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

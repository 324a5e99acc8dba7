"""Tests of the benchmark itself: span arithmetic, the tracer's span tree and
the correctness gate. Run with `python3 -m pytest bench -q` from the
repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from erasurelab import decode, ldpc, sim  # noqa: E402
from tracing import Span  # noqa: E402

TINY = workloads.SimWorkload(
    lambda: ldpc.sample_regular(3, 6, 48, seed=1), ("it", "ml", "hybrid"), "bec",
    (0.30, 0.45), trials=12, zero_codeword=False, pool_workers=2, sample=6, oracle_sample=6)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, -1),
        Span("a", 1.0, 3.0, 0, -1),
        Span("b", 2.0, 5.0, 0, -1),  # overlaps a: union [1, 5]
        Span("c", 9.0, 12.0, 0, -1),  # clipped to [9, 10]
        Span("a.x", 1.5, 2.5, 1, -1),  # grandchild: counts against a only
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])
    stats = tracing.summarize(spans)
    assert stats["a"].calls == 1 and stats["a"].self_total == pytest.approx(1.0)
    # with nested, non-overlapping children the self times add up to the root
    nested = [spans[0], spans[1], spans[4]]  # a.x keeps parent index 1 (a)
    assert sum(tracing.self_times(nested)) == pytest.approx(10.0)


def test_tracer_records_parents_and_trials():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    point = tr.wrap_run_point(lambda plan, i, v, ex=None: [
        tr.wrap("ldpc.encode", lambda: None)(),
        tr.wrap("decode.ml_decode", tr.wrap("decode.triangularize", lambda: None))(),
        tr.wrap("decode.peel_decode", lambda: None)(),
    ])
    point(None, 1, 0.3)
    names = [(s.name, s.parent, s.trial) for s in tr.spans]
    assert names == [("sim.run_point", -1, 0), ("ldpc.encode", 0, 0),
                     ("decode.ml_decode", 0, 0), ("decode.triangularize", 2, 0),
                     ("decode.peel_decode", 0, 1)]
    assert tr.trials == [("ml", 1), ("it", 1)]
    assert layers.stage_sum_share(tr) == pytest.approx(1.0)


def test_instrument_restores_every_attribute():
    before = (sim.run_point, sim.ml_decode, decode.triangularize,
              decode.ReceivedWord.__dict__["from_full"])
    with tracing.instrument(tracing.Tracer()):
        assert sim.ml_decode is not before[1]
    after = (sim.run_point, sim.ml_decode, decode.triangularize,
             decode.ReceivedWord.__dict__["from_full"])
    assert after == before


def test_gate_passes_on_unchanged_code():
    out = workloads.measure(TINY, seed=1, seconds=0.01)
    assert out.failed == 0 and len(out.checks) > 20
    assert out.timed_ops == TINY.ops


def test_gate_trips_when_ml_status_is_flipped(monkeypatch):
    real = sim.ml_decode

    def flipped(code, word, *args):
        res = real(code, word, *args)
        res.status = "rank_deficient" if res.ok else "success"
        return res

    monkeypatch.setattr(sim, "ml_decode", flipped)
    out = workloads.measure(TINY, seed=1, seconds=0.01)
    failed = {label for label, ok in out.checks if not ok}
    assert "ml status agrees with the dense-GE reference" in failed
    assert "hybrid status equals ml status" in failed


def test_traced_run_reports_every_layer_metric():
    out = workloads.measure_traced(TINY, seed=2, seconds=0.01)
    assert out.failed == 0
    assert set(out.metrics) == set(layers.LAYER_METRICS)
    assert out.metrics["decode.ml_decode.calls"] > 0
    assert out.metrics["decode.it.pt1.ms_p50"] > 0
    assert out.metrics["sim.parallel_eff"] > 0


def test_ensemble_gate_trips_on_a_wrong_threshold():
    wl = workloads.WORKLOADS["ensemble-analysis"]
    p = wl.run_pass(wl.build(), seed=0)
    good = workloads.Outcome()
    wl.check(None, None, [p], good)
    assert good.failed == 0
    reports, ara, bounds = p.values
    reports = dict(reports)
    e_it, e_ml, deg = reports[(3, 6)]
    reports[(3, 6)] = (e_it + 1e-3, e_ml, deg)
    bad = workloads.Outcome()
    wl.check(None, None, [workloads.EnsemblePass((reports, ara, bounds), p.units)], bad)
    assert bad.failed == 1


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "regular-peel",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

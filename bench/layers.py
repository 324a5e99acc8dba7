"""Per-layer metrics of a traced run, computed from its spans.

Every metric named here is reported on every workload; one that a workload
does not exercise reads 0. Times per call are means, so that self times add
up; counts are per pass, and every pass of a run does the same work.
"""

from __future__ import annotations

import math
import statistics

import tracing

# name -> (unit, better)
LAYER_METRICS = {
    "sim.rng_us": ("us", "lower"),
    "sim.parallel_eff": ("ratio", "higher"),
    "sim.it_trials_per_s": ("1/s", "higher"),
    "sim.ml_trials_per_s": ("1/s", "higher"),
    "sim.hybrid_trials_per_s": ("1/s", "higher"),
    "decode.received_word_us": ("us", "lower"),
    "ldpc.construct_s": ("s", "lower"),
    "ldpc.encode_us": ("us", "lower"),
    "ldpc.encode.calls": ("count", "lower"),
    "raptor.build_s": ("s", "lower"),
    "raptor.seed_attempts": ("count", "lower"),
    "raptor.encode_us": ("us", "lower"),
    "raptor.decode_structured.self_us": ("us", "lower"),
    "raptor.decode_structured.calls": ("count", "lower"),
    "decode.peel_decode.self_us": ("us", "lower"),
    "decode.peel_decode.calls": ("count", "lower"),
    "decode.hybrid_decode.self_us": ("us", "lower"),
    "decode.hybrid_decode.calls": ("count", "lower"),
    "decode.hybrid_stall_share": ("ratio", "lower"),
    "decode.split_by_erasure_us": ("us", "lower"),
    "decode.split_by_erasure.calls": ("count", "lower"),
    "decode.triangularize.self_us": ("us", "lower"),
    "decode.triangularize.calls": ("count", "lower"),
    "decode.pivot_choice_us": ("us", "lower"),
    "decode.pivot_choice.calls": ("count", "lower"),
    "decode.pivots.p50": ("count", "lower"),
    "decode.pivots.p90": ("count", "lower"),
    "decode.pivots.max": ("count", "lower"),
    "decode.reduce_to_aprime_us": ("us", "lower"),
    "decode.solve_pivots_us": ("us", "lower"),
    "binmat.dense_gauss_solve_us": ("us", "lower"),
    "binmat.ge_cells": ("count", "lower"),
    "decode.back_substitute_us": ("us", "lower"),
    "decode.ml_decode.self_us": ("us", "lower"),
    "decode.ml_decode.calls": ("count", "lower"),
}
for _dec in ("it", "ml", "hybrid"):
    for _pt in (0, 1):
        for _q in ("p50", "p90"):
            LAYER_METRICS[f"decode.{_dec}.pt{_pt}.ms_{_q}"] = ("ms", "lower")
LAYER_METRICS.update({
    "analysis.it_threshold_s": ("s", "lower"),
    "analysis.ml_threshold_bound_s": ("s", "lower"),
    "analysis.protograph_it_threshold_s": ("s", "lower"),
    "analysis.protograph_ml_bound_s": ("s", "lower"),
    "analysis.bounds_s": ("s", "lower"),
    "analysis.protograph_de_calls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})

# µs per call: metric -> (span name, use self time)
_PER_CALL_US = {
    "decode.received_word_us": ("decode.received_word", False),
    "ldpc.encode_us": ("ldpc.encode", False),
    "raptor.encode_us": ("raptor.encode", False),
    "raptor.decode_structured.self_us": ("raptor.decode_structured", True),
    "decode.peel_decode.self_us": ("decode.peel_decode", True),
    "decode.hybrid_decode.self_us": ("decode.hybrid_decode", True),
    "decode.split_by_erasure_us": ("decode.split_by_erasure", False),
    "decode.triangularize.self_us": ("decode.triangularize", True),
    "decode.pivot_choice_us": ("decode.pivot_choice", False),
    "decode.reduce_to_aprime_us": ("decode.reduce_to_aprime", False),
    "decode.solve_pivots_us": ("decode.solve_pivots", False),
    "binmat.dense_gauss_solve_us": ("binmat.dense_gauss_solve", False),
    "decode.back_substitute_us": ("decode.back_substitute", False),
    "decode.ml_decode.self_us": ("decode.ml_decode", True),
}
_CALLS = ("ldpc.encode", "raptor.decode_structured", "decode.peel_decode",
          "decode.hybrid_decode", "decode.split_by_erasure", "decode.triangularize",
          "decode.pivot_choice", "decode.ml_decode")
# seconds per pass, summed over the spans named
_ANALYSIS_S = {
    "analysis.it_threshold_s": ("analysis.it_threshold",),
    "analysis.ml_threshold_bound_s": ("analysis.ml_threshold_bound",),
    "analysis.protograph_it_threshold_s": ("analysis.protograph_it_threshold",),
    "analysis.protograph_ml_bound_s": ("analysis.protograph_ml_bound",),
    "analysis.bounds_s": ("analysis.singleton_bound", "analysis.berlekamp_bound"),
}
# spans inside sim.run_point that belong to a trial but not to its decoder
_TRIAL_SETUP = ("ldpc.encode", "raptor.encode", "decode.received_word")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    vals = sorted(values)
    return vals[max(math.ceil(q * len(vals)), 1) - 1]


def construct_metrics(setup: tracing.Tracer, construct_span: str) -> dict:
    """Code construction, timed once per repeat in ``setup``."""
    builds = [s.end - s.start for s in setup.spans if s.name == construct_span]
    if construct_span == "raptor.build":
        ranks = sum(1 for s in setup.spans if s.name == "binmat.rank")
        return {"raptor.build_s": statistics.median(builds),
                "raptor.seed_attempts": ranks / len(builds)}
    return {"ldpc.construct_s": statistics.median(builds)}


def stage_sum_share(tracer: tracing.Tracer) -> float:
    """Sum of the self times of every span inside a trial-level decoder span,
    divided by the summed duration of those decoder spans."""
    spans = tracer.spans
    inside = total = 0.0
    for s, st in zip(spans, tracing.self_times(spans)):
        if s.trial < 0 or s.name == "sim.run_point" or s.name in _TRIAL_SETUP:
            continue
        inside += st
        if tracing.is_trial(spans, s):
            total += s.end - s.start
    return inside / total if total else 1.0


def layer_metrics(tracer: tracing.Tracer, passes: int) -> dict:
    """Metrics of the spans of ``passes`` identical traced passes."""
    spans = tracer.spans
    kids = tracing.children_of(spans)
    stats = tracing.summarize(spans, tracing.self_times(spans, kids))
    m = {}
    for metric, (name, use_self) in _PER_CALL_US.items():
        st = stats.get(name)
        if st:
            m[metric] = (st.self_total if use_self else st.total) / st.calls * 1e6
    for name in _CALLS:
        if name in stats:
            m[f"{name}.calls"] = stats[name].calls / passes
    for metric, names in _ANALYSIS_S.items():
        m[metric] = sum(stats[n].total for n in names if n in stats) / passes
    if "analysis.protograph_de" in stats:
        m["analysis.protograph_de_calls"] = stats["analysis.protograph_de"].calls / passes
    if "binmat.ge_cells" in tracer.counters:
        m["binmat.ge_cells"] = tracer.counters["binmat.ge_cells"] / passes
    if tracer.trials:
        m["sim.rng_us"] = stats["sim.run_point"].self_total / len(tracer.trials) * 1e6

    pivots, stalls, hybrids = [], 0, 0
    per_point = {}
    for i, s in enumerate(spans):
        if s.name == "decode.triangularize":
            pivots.append(sum(1 for k in kids[i] if spans[k].name == "decode.pivot_choice"))
        elif s.name == "decode.hybrid_decode":
            hybrids += 1
            stalls += any(spans[k].name == "decode.ml_decode" for k in kids[i])
        if tracing.is_trial(spans, s):
            per_point.setdefault(tracer.trials[s.trial], []).append((s.end - s.start) * 1e3)
    if pivots:
        m["decode.pivots.p50"] = quantile(pivots, 0.5)
        m["decode.pivots.p90"] = quantile(pivots, 0.9)
        m["decode.pivots.max"] = max(pivots)
    if hybrids:
        m["decode.hybrid_stall_share"] = stalls / hybrids
    for (dec, pt), ms in per_point.items():
        m[f"decode.{dec}.pt{pt}.ms_p50"] = quantile(ms, 0.5)
        m[f"decode.{dec}.pt{pt}.ms_p90"] = quantile(ms, 0.9)
    return m

"""erasurelab benchmark: one workload, one run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout this file sits in. The
run prints a run record, every metric by name and unit, the correctness-gate
verdict, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics with tracing off; ``--trace 1`` reports the per-layer
metrics of a traced run. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

E2E_UNITS = {"setup_s": "s", "pass_ref": "ref", "peak_rss_mb": "MB"}


def _args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def _git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_describe": _git_describe(),
    }


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of import plus code construction."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child
    (set-up probes and pool workers); Linux reports kilobytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "erasurelab" / "__init__.py").is_file():
        print(f"bench: error: no package source at {src / 'erasurelab'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    print("run-record " + json.dumps(record), flush=True)

    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        out = workloads.measure_traced(wl, args.seed, args.seconds)
        units = {k: u for k, (u, _) in layers.LAYER_METRICS.items()}
    else:
        setup = setup_seconds(args.workload)
        out = workloads.measure(wl, args.seed, args.seconds)
        out.metrics = {"setup_s": setup, **out.metrics, "peak_rss_mb": peak_rss_mb()}
        units = E2E_UNITS

    for label, ok in out.checks:
        if not ok:
            print(f"gate FAIL: {label}")
    print(f"gate: {len(out.checks) - sum(ok for _, ok in out.checks)} of "
          f"{len(out.checks)} checks failed")
    for name, (value, unit) in out.info.items():
        print(f"{name} {value!r} {unit}")
    failed_share = out.failed / max(out.attempted, 1)
    print(f"failed_share {failed_share!r} share")
    correct = out.failed == 0 and set(out.metrics) == set(units)
    metrics = {}
    for name, value in out.metrics.items():
        print(f"{name} {value!r} {units[name]}")
        metrics[name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": max(out.attempted, 1),
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark several times and report each metric's median and spread.

Usage (from the repository root):

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                            [--seconds 10] [--trace 0] [--out runs.jsonl]

Run i uses seed first_seed + i. For every metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread: the
distance between the quartiles as a share of the median. With ``--out``,
each run's run record and result line are appended to that file as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench/spread.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append run records and results here (JSON lines)")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be >= 2")

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"run with seed {seed} failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if args.out:
            record = json.loads(lines[0].split(" ", 1)[1])
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"record": record, "result": result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

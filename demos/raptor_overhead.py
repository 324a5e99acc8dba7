"""Fixed-rate Raptor code under reception-overhead sweeps.

A (k=64, n=128) systematic Raptor code is decoded from k + delta received
symbols chosen uniformly at random. The inactivation decoder solves a
system whose size depends only on k (plus the small precode overhead), not
on n, and decoding already succeeds sometimes at delta = 0, which a plain
LT-only decoder (needing all L intermediate symbols) cannot do.
"""

from erasurelab.raptor import RaptorCode
from erasurelab.sim import SimPlan, run_sweep

code = RaptorCode.build(64, 128, seed=0)
p = code.params
print(f"# k={p.k} n={p.n} s={p.s} h={p.h} L={p.L} lt_seed={p.lt_seed}")
print(f"# structured-GE system: (k+delta+{p.s + p.h}) x {p.L} regardless of n")
print(f"{'delta':>5} {'trials':>7} {'errors':>7} {'CER':>9} {'ci95':>9}")

plan = SimPlan(code=code, decoder="ml", channel_kind="overhead", sweep=list(range(0, 13, 2)),
               target_errors=30, max_trials=2000, seed=0)
for r in run_sweep(plan):
    print(f"{r.sweep_value:5d} {r.trials:7d} {r.errors:7d} {r.cer:9.4f} {r.ci95:9.4f}")

"""Fixed-rate Raptor code under reception-overhead sweeps.

A (k=64, n=128) systematic Raptor code is decoded from k + delta received
symbols chosen uniformly at random. The inactivation decoder solves a
system whose size depends only on k (plus the small precode overhead), not
on n, and decoding already succeeds sometimes at delta = 0, which a plain
LT-only decoder (needing all L intermediate symbols) cannot do.
"""

import numpy as np

from erasurelab.raptor import RaptorCode
from erasurelab.sim import ChannelModel, run_trial, wilson_halfwidth

code = RaptorCode.build(64, 128, seed=0)
p = code.params
print(f"# k={p.k} n={p.n} s={p.s} h={p.h} L={p.L} lt_seed={p.lt_seed}")
print(f"# structured-GE system: (k+delta+{p.s + p.h}) x {p.L} regardless of n")
print(f"{'delta':>5} {'trials':>7} {'errors':>7} {'CER':>9} {'ci95':>9}")

for delta in range(0, 13, 2):
    ch = ChannelModel("overhead", delta=delta)
    errors = trials = 0
    while errors < 30 and trials < 2000:
        rng = np.random.default_rng((0, delta, trials))
        ok, _ = run_trial(code, "ml", ch, rng)
        errors += not ok
        trials += 1
    cer = errors / trials
    print(f"{delta:5d} {trials:7d} {errors:7d} {cer:9.4f} "
          f"{wilson_halfwidth(errors, trials):9.4f}")

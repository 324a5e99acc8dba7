"""Threshold survey: where iterative decoding gives up and how much of the
gap to capacity ML decoding wins back.

For a handful of regular ensembles we compute the iterative (density
evolution) threshold, the area-theorem upper bound on the ML threshold, and
the Shannon limit 1 - R. The punchline is how tightly the ML bound hugs the
Shannon limit even for ensembles whose iterative threshold is mediocre.
"""

from erasurelab.analysis import (
    DegreeDistribution,
    protograph_it_threshold,
    protograph_ml_bound,
    threshold_report,
)
from erasurelab.ldpc import Protograph

print(f"{'ensemble':>10} {'eps_IT':>8} {'eps_ML<=':>9} {'eps_Sh':>8} {'IT gap':>8} {'ML gap':>8}")
for dv, dc in [(3, 6), (4, 8), (5, 10), (6, 12), (3, 9), (4, 12), (5, 15)]:
    rep = threshold_report(DegreeDistribution.regular(dv, dc))
    print(f"({dv:>2},{dc:>2})    {rep.eps_it:8.4f} {rep.eps_ml_bound:9.4f} "
          f"{rep.eps_sh:8.4f} {rep.eps_sh - rep.eps_it:8.4f} "
          f"{rep.eps_sh - rep.eps_ml_bound:8.4f}")

# The same analysis works on protographs. This accumulate-repeat-accumulate
# base matrix (first column punctured, never transmitted) describes an
# ensemble of rate 1/2; its ML bound lands within half a percent of capacity.
ara = Protograph(base=((2, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 0, 0, 0, 1)),
                 punctured_cols=frozenset({0}))
e_it = protograph_it_threshold(ara)
e_ml, _ = protograph_ml_bound(ara)
print(f"\nARA protograph (rate 1/2, punctured col 0):")
print(f"  eps_IT = {e_it:.4f}, eps_ML <= {e_ml:.4f}, eps_Sh = 0.5000")

"""Estimate the relaxation constant b of a b-metric from data.

A b-metric satisfies the relaxed triangle inequality
d(x, y) <= b (d(x, z) + d(z, y)) with b >= 1. estimate_b searches triples
for the largest observed ratio d(x, y) / (d(x, z) + d(z, y)), giving a
lower witness for the true b. On a dense grid the estimate is sharp:

* |x - y|^p with p >= 1 has b = 2^(p-1)
* the truncated l^p distance with 0 < p < 1 in dimension m has b <= m^(1/p-1)

check_axioms does the complementary job: it samples (or enumerates) triples
and counts the violations of symmetry, identity, and the relaxed triangle
inequality at the declared b, keeping the first and the worst of each.

Run with:  python3 demos/03_bmetric_constants.py
"""

import numpy as np

from presic_lab import Box, check_axioms, estimate_b, lp_truncated, power, squared_euclidean

box = Box(np.zeros(1), np.full(1, 2.0))

print(f"{'space':<22} {'declared b':>10} {'b_hat (grid)':>13}")
for p in (2.0, 3.0):
    space = power(p, box)
    est = estimate_b(space, sample_count=0, seed=0, grid_points=100)
    print(f"{'power p=' + format(p, 'g'):<22} {space.b:>10.3f} {est['b_hat']:>13.6f}")

space = squared_euclidean(box)
est = estimate_b(space, sample_count=0, seed=0, grid_points=100)
print(f"{'squared_euclidean':<22} {space.b:>10.3f} {est['b_hat']:>13.6f}")

box4 = Box(np.zeros(4), np.full(4, 2.0))
space = lp_truncated(0.5, box4)
est = estimate_b(space, sample_count=20000, seed=3)
print(f"{'lp p=1/2, dim 4':<22} {space.b:>10.3f} {est['b_hat']:>13.6f}"
      f"   (m^(1/p-1) = 4 is the sharp ceiling)")

print("\naxiom check for squared_euclidean on [0, 2] (all triples of a 30-point grid):")
report = check_axioms(squared_euclidean(box), sample_count=0, seed=0, grid_points=30)
print(f"  triples checked: {report.checked_triples}, all axioms ok: {report.ok}")

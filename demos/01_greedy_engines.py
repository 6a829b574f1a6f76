"""Greedy submodular maximization engines on a facility-location instance.

Builds a small coverage problem, runs the four greedy variants, and compares
them against the exhaustive optimum.
"""

import math

import numpy as np

from glister.numerics import SeededRng
from glister.submodular import (
    MatroidQuota,
    exhaustive_max,
    facility_location,
    lazy_greedy,
    naive_greedy,
    randomized_greedy,
    stochastic_greedy,
)

rng = SeededRng(7)
points = rng.normals(2 * 12).reshape(12, 2) * 2.0
labels = np.array([i % 2 for i in range(12)])
f = facility_location(points, labels)

k = 4
sel_naive = naive_greedy(f, k)
sel_lazy = lazy_greedy(f, k)
sel_stoch = stochastic_greedy(f, k, epsilon=0.01, rng=SeededRng(1))
sel_rand = randomized_greedy(f, k, SeededRng(2))
opt_set, opt_val = exhaustive_max(f, k)

print("facility location over 12 points, budget 4")
print(f"  naive greedy      {sel_naive}  value {f.value(sel_naive):.3f}")
print(f"  lazy greedy       {list(sel_lazy)}  ({sel_lazy.evaluations} gains scored)")
print(f"  stochastic greedy {sel_stoch}  value {f.value(sel_stoch):.3f}")
print(f"  randomized greedy {sel_rand}  value {f.value(sel_rand):.3f}")
print(f"  exhaustive optimum {sorted(opt_set)}  value {opt_val:.3f}")
print(f"  greedy/OPT ratio {f.value(sel_naive) / opt_val:.4f}"
      f"  (guarantee {1 - 1 / math.e:.4f})")

quota = MatroidQuota.from_proportions(labels, 2, k)
sel_quota = naive_greedy(f, k, quota)
print(f"\nwith per-class quotas {quota.per_class}: selection {sel_quota}, "
      f"class counts {np.bincount(labels[sel_quota]).tolist()}")

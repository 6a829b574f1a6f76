"""Batch active learning over an unlabeled pool.

Compares validation-gain acquisition (with hypothesized labels), plain
random acquisition, and uncertainty-filtered coverage on a pool whose two
overlapping classes are rare: every rare label random misses is a label the
gain-driven acquirer banks early.
"""

import numpy as np

from glister.active import initial_labeled, run_active
from glister.core import GlisterConfig
from glister.numerics import SeededRng
from glister.verify import ACTIVE_SETUP, compose_four_class, downsample_classes
from glister.models import LossKind, ModelSpec

seed = 1
pool = compose_four_class(ACTIVE_SETUP["n_majority"], 260, 100 + seed)
pool = downsample_classes(pool, {2: ACTIVE_SETUP["n_rare"], 3: ACTIVE_SETUP["n_rare"]},
                           SeededRng(seed).split(5))
val = compose_four_class(25, 25, 300 + seed)
test = compose_four_class(50, 50, 400 + seed)
rare_mask = np.isin(pool.labels, [2, 3])
print(f"pool {pool.n} rows, rare classes hold {int(rare_mask.sum())} rows; "
      f"balanced validation {val.n} rows")

cfg = GlisterConfig(r_frac=0.03, lr=ACTIVE_SETUP["lr"], batch_size=ACTIVE_SETUP["batch_size"],
                    loss=LossKind.CROSS_ENTROPY, seed=seed)
spec = ModelSpec("mlp", hidden=ACTIVE_SETUP["hidden"])
initial = initial_labeled(pool, ACTIVE_SETUP["initial"], SeededRng(seed).split(71))

for strat in ("glister", "random", "fass"):
    _, state, trace = run_active(
        strat, pool, val, test, initial, spec, cfg,
        rounds=ACTIVE_SETUP["rounds"], batch=ACTIVE_SETUP["batch"],
        epochs_per_round=ACTIVE_SETUP["epochs_per_round"],
    )
    rare_got = sum(int(rare_mask[b].sum()) for b in state.batches)
    per_round = [int(rare_mask[b].sum()) for b in state.batches]
    print(f"\n{strat:8s} final test acc {trace.final_test_acc:.3f}; "
          f"rare labels acquired {rare_got}/{int(rare_mask.sum())} {per_round}")

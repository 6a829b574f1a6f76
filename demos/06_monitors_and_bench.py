"""Descent-condition monitors and the stale-refresh speedup.

Runs a small online-selection training, checks the per-selection descent
conditions (gradient alignment and the step-size bound) against the actual
validation-loss path, prints the diagnostic convergence bound, and times
selection with per-pick refreshes against r = 0.03k refreshes.
"""

from glister.core import GlisterConfig, glister_online_train, monitor_theorem2, monitor_theorem3
from glister.data import SplitSpec, gen_synthetic, split
from glister.models import LossKind, ModelSpec
from glister.verify import suite_efficiency

full = gen_synthetic("separable-2", 125, seed=9)
train, val, test = split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))
cfg = GlisterConfig(budget_frac=0.3, select_every=20, r_frac=0.03,
                    lr=0.005, batch_size=10, loss=LossKind.CROSS_ENTROPY, seed=4)
_, _, trace = glister_online_train(train, val, test, ModelSpec("mlp", hidden=100), cfg, 100)

report = monitor_theorem2(trace)
print("descent-condition monitor (per selection epoch):")
for row in report["rows"]:
    print(f"  epoch {row['epoch']:3d}: alignment>=0 {row['dot_nonneg']}, "
          f"lr within bound {row['lr_within_bound']}, "
          f"val decreased {row['val_decreased']}, violation {row['violation']}")
print(f"violations: {report['violations']}")

diag = monitor_theorem3(trace)
print(f"\nconvergence diagnostic: observed gap {diag['gap']:.4f} "
      f"vs bound {diag['bound']:.2f} "
      f"(sigma_T {diag['sigma_t']:.2f}, delta_min {diag['delta_min']:.3f})")

print("\ntiming r = k against r = 0.03k at n=5000, d=20, k=500 ...")
for check in suite_efficiency():
    print(f"  {check.name}: {check.detail}")

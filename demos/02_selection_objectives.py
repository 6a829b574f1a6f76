"""The closed-form selection objectives and their diminishing returns.

Shows the naive-bayes feature-coverage function, the linear-regression
objective, and the loss-specific one-step gain proxies, sampling
subset/superset pairs to exhibit the diminishing-returns property each one
carries.
"""

import numpy as np

from glister.core import taylor_proxy
from glister.data import SplitSpec, discretize_features, gen_synthetic, split
from glister.models import LossKind, init_params, output_width
from glister.numerics import SeededRng
from glister.submodular import lr_submodular, naive_greedy, nb_feature_function
from glister.verify import worst_dr_violation

full = gen_synthetic("separable-2", 40, seed=3)
train, val, _ = split(full, SplitSpec(0.75, 0.125, 0.125, seed=1))
print(f"train {train.n} rows, validation {val.n} rows")

train_b, val_b = discretize_features(train, (val,), bins=8)
nb = nb_feature_function(train_b, val_b)
print(f"\nnaive-bayes feature coverage: value(empty) = {nb.value([]):.2f}, "
      f"greedy top-5 = {naive_greedy(nb, 5)}")
print("  worst diminishing-returns violation over 200 triples: "
      f"{worst_dr_violation(nb, 200, SeededRng(9)):.2e}")

lr_oracle = lr_submodular(train.take(range(12)), val, m_clusters=3, seed=4)
print(f"\nlinear-regression objective (modular minus graph cut):")
print(f"  cut entries nonnegative: {bool(np.all(lr_oracle.cut >= 0))}")
print(f"  worst violation over 200 triples: {worst_dr_violation(lr_oracle, 200, SeededRng(9)):.2e}")

for kind in (LossKind.LOGISTIC, LossKind.HINGE, LossKind.PERCEPTRON, LossKind.SQUARED):
    params = init_params([2, output_width(kind, 2)], "identity", SeededRng(13))
    proxy = taylor_proxy(params, train, val, kind, eta=0.05, k=8)
    print(f"\n{kind.value} one-step gain proxy "
          f"({'monotone' if proxy.monotone else 'non-monotone'}):")
    print(f"  worst violation over 200 triples: {worst_dr_violation(proxy, 200, SeededRng(9)):.2e}")

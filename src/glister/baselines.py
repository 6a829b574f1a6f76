"""Data-selection baselines for the efficiency and robustness experiments."""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .models import LossKind, ModelParams, last_layer_per_sample_grads
from .numerics import SeededRng
from .submodular import MatroidQuota, cross_facility_location, facility_location, lazy_greedy

__all__ = [
    "STRATEGIES",
    "random_subset",
    "craig_subset",
    "knn_submod_subset",
]

STRATEGIES = (
    "full",
    "random",
    "random_prior",
    "craig",
    "knnsub_train",
    "knnsub_val",
    "glister",
)


def random_subset(
    train: Dataset,
    k: int,
    rng: SeededRng,
    match_distribution: Dataset | None = None,
) -> list[int]:
    """Uniform subset without replacement; with `match_distribution` the
    per-class counts follow the reference set's proportions (largest
    remainder), each capped at the class's training rows, and the classes
    are drawn in order from the one stream `rng`."""
    if not 0 <= k <= train.n:
        raise ValueError("budget out of range")
    if match_distribution is None:
        return rng.sample(np.arange(train.n), k).tolist()
    quota = MatroidQuota.from_proportions(
        match_distribution.labels, train.num_classes, k, available=train.class_counts()
    )
    return sorted(
        i for c, q in sorted(quota.per_class.items())
        for i in rng.sample(np.flatnonzero(train.labels == c), q).tolist()
    )


def craig_subset(train: Dataset, params: ModelParams, k: int, kind: LossKind) -> list[int]:
    """Gradient-matching selection: facility location over last-layer
    per-sample gradient similarity, lazy greedy, uniform weights."""
    grads = last_layer_per_sample_grads(params, train.features, train.labels, kind)
    return list(lazy_greedy(facility_location(grads), k))


def knn_submod_subset(train: Dataset, reference: Dataset, k: int) -> list[int]:
    """Per-class nearest-neighbor coverage of a reference set by selected
    training rows, with per-class quotas from the reference proportions,
    each capped at the class's training rows."""
    ref_classes = set(np.unique(reference.labels).tolist())
    train_classes = set(np.unique(train.labels).tolist())
    missing = ref_classes - train_classes
    if missing:
        raise ValueError(f"reference classes {sorted(missing)} absent from train")
    oracle = cross_facility_location(
        train.features, train.labels, reference.features, reference.labels
    )
    quota = MatroidQuota.from_proportions(
        reference.labels, reference.num_classes, k, available=train.class_counts()
    )
    return list(lazy_greedy(oracle, k, quota))

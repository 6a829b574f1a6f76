import math

import numpy as np
import pytest

from glister.baselines import STRATEGIES, craig_subset, knn_submod_subset, random_subset
from glister.core import GlisterConfig
from glister.data import Dataset, SplitSpec, gen_synthetic, inject_class_imbalance, split
from glister.experiments import run_cell
from glister.models import (
    LossKind, ModelParams, ModelSpec, init_params, last_layer_per_sample_grads,
)
from glister.numerics import SeededRng
from glister.submodular import exhaustive_max, from_callable
from glister.verify import IMBALANCE_SETUP


@pytest.fixture(scope="module")
def data():
    full = gen_synthetic("separable-2", 50, seed=2)
    return split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))


def test_random_subset_k_equals_n(data):
    train, _, _ = data
    assert random_subset(train, train.n, SeededRng(1)) == list(range(train.n))


def test_random_subset_deterministic(data):
    train, _, _ = data
    assert random_subset(train, 10, SeededRng(5)) == random_subset(train, 10, SeededRng(5))


def test_random_subset_matches_reference_distribution(data):
    train, val, _ = data
    sel = random_subset(train, 10, SeededRng(3), match_distribution=val)
    counts = np.bincount(train.labels[sel], minlength=2)
    assert counts.tolist() == [5, 5]


def test_random_subset_quota_infeasible():
    feats = np.zeros((6, 2))
    train = Dataset(feats, np.array([0] * 5 + [1]), 2)
    ref = Dataset(feats, np.array([1] * 6), 2)
    with pytest.raises(ValueError):
        random_subset(train, 4, SeededRng(0), match_distribution=ref)


def test_craig_zero_gradients_degenerate_tie_rule(data):
    train, _, _ = data
    # hinge loss with a huge-margin model gives exactly zero gradients
    params = ModelParams(((np.array([[50.0], [0.0]]), np.zeros(1)),))
    sel = craig_subset(train, params, 5, LossKind.HINGE)
    assert sel == [0, 1, 2, 3, 4]


def test_craig_k_equals_n(data):
    train, _, _ = data
    params = init_params([2, 2], "identity", SeededRng(0))
    sel = craig_subset(train, params, train.n, LossKind.CROSS_ENTROPY)
    assert sorted(sel) == list(range(train.n))


def test_craig_ratio_against_enumeration(data):
    train, _, _ = data
    small = train.take(range(12))
    params = init_params([2, 2], "identity", SeededRng(4))
    sel = craig_subset(small, params, 4, LossKind.CROSS_ENTROPY)

    # rebuild the similarity exactly as craig does, then enumerate
    g = last_layer_per_sample_grads(params, small.features, small.labels, LossKind.CROSS_ENTROPY)
    sq = np.einsum("ij,ij->i", g, g)
    dists = np.clip(sq[:, None] + sq[None, :] - 2 * (g @ g.T), 0, None)
    np.fill_diagonal(dists, 0.0)
    sim = dists.max() - dists

    def value(s):
        s = list(s)
        return float(sim[s].max(axis=0).sum()) if s else 0.0

    f = from_callable(12, value, True)
    _, opt = exhaustive_max(f, 4)
    assert value(sel) >= (1 - 1 / math.e) * opt


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_validation_quotas_capped_on_imbalanced_train(seed):
    """Criterion-6 data: the balanced validation set asks 22 of each class
    for k = 88, but each rare class keeps 20 train rows.  Both rare quotas
    are capped at 20 and the shortfall goes to the two other classes."""
    cfgd = IMBALANCE_SETUP
    full = gen_synthetic("overlapping-4", cfgd["n_per_class"], 100 + seed)
    train, val, _ = split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))
    train = inject_class_imbalance(train, cfgd["affected_frac"], cfgd["keep_frac"], 7 + seed)
    k = GlisterConfig(budget_frac=cfgd["budget"]).resolve_k(train.n)
    rows = train.class_counts()
    assert k == 88 and sorted(rows) == [20, 20, 200, 200]
    want = np.where(rows == 20, 20, 24)
    for sel in (
        random_subset(train, k, SeededRng(seed), match_distribution=val),
        knn_submod_subset(train, val, k),
    ):
        assert len(set(sel)) == k
        assert np.array_equal(np.bincount(train.labels[sel], minlength=4), want)


def test_knn_submod_quotas_met(data):
    train, val, _ = data
    sel = knn_submod_subset(train, val, 8)
    counts = np.bincount(train.labels[sel], minlength=2)
    assert counts.tolist() == [4, 4]
    assert len(sel) == len(set(sel)) == 8


def test_knn_submod_missing_class_rejected():
    train = Dataset(np.zeros((4, 2)), np.array([0, 0, 0, 0]), 2)
    ref = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
    with pytest.raises(ValueError, match="absent"):
        knn_submod_subset(train, ref, 2)


def test_knn_submod_single_class_medoid():
    rng = SeededRng(9)
    pts = rng.normals(20).reshape(10, 2)
    ds = Dataset(pts, np.zeros(10, dtype=int), 1)
    sel = knn_submod_subset(ds, ds, 1)
    d = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    best = min(range(10), key=lambda i: (d[i].sum(), i))
    assert sel == [best]


def test_knn_submod_k1_per_class_brute_force(data):
    train, val, _ = data
    small_train = train.take(list(range(7)) + list(range(train.n - 7, train.n)))
    small_val = val
    sel = knn_submod_subset(small_train, small_val, 2)
    counts = np.bincount(small_train.labels[sel], minlength=2)
    assert counts.tolist() == [1, 1]
    # the chosen row of each class must maximize coverage of that class's
    # reference rows among same-class candidates
    for c in range(2):
        chosen = [i for i in sel if small_train.labels[i] == c][0]
        vc = small_val.features[small_val.labels == c]
        tc = np.flatnonzero(small_train.labels == c)
        d_all = (
            (small_train.features[:, None, :] - small_val.features[None, :, :]) ** 2
        ).sum(-1)
        d_max = d_all.max()

        def cover(i):
            dc = ((small_train.features[i] - vc) ** 2).sum(-1)
            return float((d_max - dc).sum())

        best = max(tc, key=lambda i: (cover(i), -i))
        assert chosen == best


# per-epoch subset digests (first 12 hex digits) of every strategy on a tiny
# 4-class run, captured before the strategies shared one select-every-L loop
PINNED_DIGESTS = {
    "full": ["315e8ec92e81"] * 5,
    "random": ["3d86c1a10d20"] * 5,
    "random_prior": ["2a5604d279c0"] * 5,
    "craig": ["07950ff5eb1b", "07950ff5eb1b", "69d64b929901", "69d64b929901", "0b1411b6f60a"],
    "knnsub_train": ["15dc67b8c28a"] * 5,
    "knnsub_val": ["a3e9d80c1a61"] * 5,
    "glister": ["f3db7870f38b", "f3db7870f38b", "4f6145d28b6a", "4f6145d28b6a", "4eb0b12e9fdf"],
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_cell_schedule_pinned(strategy):
    train, val, test = split(gen_synthetic("overlapping-4", 20, seed=2), SplitSpec(0.6, 0.2, 0.2, seed=1))
    cfg = GlisterConfig(budget_frac=0.25, select_every=2, lr=0.01, batch_size=8, seed=7)
    _, _, trace = run_cell(strategy, train, val, test, ModelSpec("mlp", hidden=6), cfg, 5)
    assert [r.subset_digest[:12] for r in trace.records] == PINNED_DIGESTS[strategy]
    # only glister's selection epochs carry the descent-monitor columns
    monitored = [0, 2, 4] if strategy == "glister" else []
    for r in trace.records:
        columns = (r.dot_vt, r.cos_theta, r.grad_norm_t, r.lr_bound)
        if r.epoch in monitored:
            assert all(c is not None for c in columns), r.epoch
        else:
            assert all(c is None for c in columns), r.epoch

import heapq
import math

import numpy as np
import pytest

from glister.data import Dataset, SplitSpec, discretize_features, gen_synthetic, split
from glister.numerics import SeededRng
from glister.submodular import (
    MatroidQuota,
    SetFunctionOracle,
    cross_facility_location,
    exhaustive_max,
    facility_location,
    from_callable,
    kmeans,
    lazy_greedy,
    lr_submodular,
    naive_greedy,
    nb_feature_function,
    randomized_greedy,
    stochastic_greedy,
)

from test_numerics import same_bits


def modular_oracle(weights, labels=None):
    w = np.asarray(weights, dtype=float)
    return from_callable(len(w), lambda s: float(sum(w[i] for i in s)), True, labels)


def random_fl(seed, n=12, per_class=False):
    rng = SeededRng(seed)
    pts = rng.normals(2 * n).reshape(n, 2) * 2
    labels = np.array([rng.randint(2) for _ in range(n)])
    return facility_location(pts, labels, per_class=per_class), labels


def test_naive_greedy_modular_topk():
    f = modular_oracle([1.0, 5.0, 3.0, 2.0, 4.0])
    assert naive_greedy(f, 3) == [1, 4, 2]


def test_naive_greedy_k_equals_n():
    f = modular_oracle([1.0, 2.0, 3.0])
    assert sorted(naive_greedy(f, 3)) == [0, 1, 2]


def test_naive_greedy_tie_breaks_lowest_index():
    f = modular_oracle([2.0, 2.0, 2.0, 1.0])
    assert naive_greedy(f, 2) == [0, 1]


def test_naive_greedy_ratio_facility_location():
    f, _ = random_fl(1)
    sel = naive_greedy(f, 4)
    _, opt = exhaustive_max(f, 4)
    assert f.value(sel) >= (1 - 1 / math.e) * opt


def test_lazy_equals_naive_on_50_instances():
    for seed in range(50):
        f, _ = random_fl(seed + 10)
        assert list(lazy_greedy(f, 4)) == naive_greedy(f, 4)


def test_lazy_modular_one_eval_per_pick_after_first_round():
    f = modular_oracle([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
    sel = lazy_greedy(f, 3)
    # n initial evaluations plus one refresh per later pick
    assert sel.evaluations == f.n + 2


def test_lazy_k_zero():
    f = modular_oracle([1.0, 2.0])
    assert list(lazy_greedy(f, 0)) == []


def test_stochastic_greedy_tiny_epsilon_matches_naive():
    f, _ = random_fl(3)
    naive = naive_greedy(f, 4)
    # sample size (n/k) ln(1/eps) >= n forces full candidate coverage
    assert stochastic_greedy(f, 4, 1e-12, SeededRng(0)) == naive


def test_stochastic_greedy_deterministic():
    f, _ = random_fl(4)
    a = stochastic_greedy(f, 4, 0.2, SeededRng(9))
    b = stochastic_greedy(f, 4, 0.2, SeededRng(9))
    assert a == b


def test_stochastic_greedy_mean_quality():
    rng = SeededRng(7)
    pts = rng.normals(200).reshape(100, 2) * 3
    f = facility_location(pts)
    base = f.value(naive_greedy(f, 10))
    vals = [
        f.value(stochastic_greedy(f, 10, 0.01, SeededRng(s))) for s in range(20)
    ]
    assert np.mean(vals) >= 0.9 * base


def test_randomized_greedy_k1_picks_best():
    f = modular_oracle([1.0, 9.0, 3.0])
    assert randomized_greedy(f, 1, SeededRng(0)) == [1]


def test_randomized_greedy_exact_cardinality_with_negative_gains():
    w = np.array([3.0, 1.0, -2.0, -5.0])
    f = modular_oracle(w)
    for s in range(10):
        sel = randomized_greedy(f, 4, SeededRng(s))
        assert len(sel) == 4 and len(set(sel)) == 4


def test_randomized_greedy_nonmonotone_mean_ratio():
    rng = SeededRng(17)
    mod = rng.uniforms(10) * 4
    cut = np.abs(rng.normals(100)).reshape(10, 10) * 0.15
    cut = (cut + cut.T) / 2

    def value(s):
        s = list(s)
        return float(sum(mod[i] for i in s) - sum(cut[i, j] for i in s for j in s))

    f = from_callable(10, value, False)
    _, opt = exhaustive_max(f, 4)
    vals = [f.value(randomized_greedy(f, 4, SeededRng(s))) for s in range(50)]
    assert np.mean(vals) >= opt / math.e


def test_exhaustive_modular():
    f = modular_oracle([1.0, 2.0, 3.0, 4.0])
    subset, value = exhaustive_max(f, 2)
    assert set(subset) == {2, 3} and value == 7.0


def test_exhaustive_at_least_greedy():
    f, _ = random_fl(21)
    sel = naive_greedy(f, 4)
    _, opt = exhaustive_max(f, 4)
    assert opt >= f.value(sel) - 1e-12


def test_exhaustive_budget_guard():
    f = modular_oracle(np.ones(60))
    with pytest.raises(ValueError, match="budget"):
        exhaustive_max(f, 30)


def test_exhaustive_budget_above_ground_set():
    # as every other engine, instead of returning (None, -inf)
    f = modular_oracle(np.ones(5))
    with pytest.raises(ValueError, match="budget exceeds ground set"):
        exhaustive_max(f, 6)


def test_exhaustive_with_quota_cross_class_pair():
    f, labels = random_fl(31)
    quota = MatroidQuota({0: 1, 1: 1})
    subset, value = exhaustive_max(f, 2, quota)
    assert sorted(labels[list(subset)].tolist()) == [0, 1]
    best = -math.inf
    import itertools

    for pair in itertools.combinations(range(f.n), 2):
        if sorted(labels[list(pair)].tolist()) == [0, 1]:
            best = max(best, f.value(pair))
    assert value == pytest.approx(best)


def test_quota_from_proportions_sums_to_k():
    labels = np.array([0] * 50 + [1] * 30 + [2] * 20)
    quota = MatroidQuota.from_proportions(labels, 3, 10)
    assert quota.total == 10
    assert quota.per_class == {0: 5, 1: 3, 2: 2}


def test_quota_largest_remainder_correction():
    labels = np.array([0, 0, 1, 1, 2, 2])
    quota = MatroidQuota.from_proportions(labels, 3, 4)
    assert quota.total == 4


def test_greedy_quota_exact_counts():
    f, labels = random_fl(41, per_class=False)
    quota = MatroidQuota.from_proportions(labels, 2, 4)
    sel = naive_greedy(f, 4, quota)
    counts = np.bincount(labels[sel], minlength=2)
    assert {c: int(counts[c]) for c in quota.per_class} == quota.per_class
    assert list(lazy_greedy(f, 4, quota)) == sel


def test_greedy_quota_infeasible():
    f, labels = random_fl(43)
    n1 = int((labels == 1).sum())
    quota = MatroidQuota({0: 0, 1: n1 + 1}) if n1 + 1 <= f.n else MatroidQuota({1: f.n})
    with pytest.raises(ValueError):
        naive_greedy(f, quota.total, quota)


def _stepwise_quota(reference_labels, num_classes, k):
    """The largest-remainder correction as a loop of single moves, each to the
    best-ranked class at that step (ties to the lowest class id)."""
    counts = np.bincount(reference_labels, minlength=num_classes)
    exact = k * counts / counts.sum()
    quota = np.floor(exact + 0.5).astype(np.int64)
    diff = k - int(quota.sum())
    remainders = exact - quota
    while diff != 0:
        step = 1 if diff > 0 else -1
        if step > 0:
            c = min(range(num_classes), key=lambda c: (-remainders[c], c))
        else:
            c = min((c for c in range(num_classes) if quota[c] > 0), key=lambda c: (remainders[c], c))
        quota[c] += step
        remainders[c] -= step
        diff -= step
    return {c: int(quota[c]) for c in range(num_classes) if quota[c] > 0}


def test_quota_from_proportions_matches_stepwise_correction():
    rng = np.random.default_rng(5)
    for _ in range(1500):
        c = int(rng.integers(1, 12))
        counts = rng.integers(0, 30, c)
        counts[rng.random(c) < 0.3] = 0  # zero-count classes
        counts[0] += counts.sum() == 0
        labels = rng.permutation(np.repeat(np.arange(c), counts))
        k = int(rng.integers(0, 2 * counts.sum() + 3))  # up to above the total
        assert MatroidQuota.from_proportions(labels, c, k).per_class == _stepwise_quota(labels, c, k)
    with pytest.raises(ValueError, match="num_classes"):
        MatroidQuota.from_proportions(np.array([0, 1, 2, 2]), 2, 3)


def test_quota_caps_at_available_rows():
    labels = np.repeat(np.arange(3), [40, 30, 30])

    def quota(available):
        return MatroidQuota.from_proportions(labels, 3, 10, available=available).per_class

    assert quota([50, 50, 50]) == {0: 4, 1: 3, 2: 3}  # no cap binds
    assert quota([2, 50, 50]) == {0: 2, 1: 4, 2: 4}
    # class 1 goes over only once class 0's shortfall is shared out
    assert quota([2, 3, 50]) == {0: 2, 1: 3, 2: 5}
    with pytest.raises(ValueError, match="too few rows"):
        quota([2, 3, 4])
    rng = np.random.default_rng(6)
    for _ in range(500):
        c = int(rng.integers(1, 8))
        labels = np.repeat(np.arange(c), rng.integers(1, 30, c))
        available = rng.integers(0, 20, c)
        k = int(rng.integers(0, available.sum() + 1))
        plain = MatroidQuota.from_proportions(labels, c, k).per_class
        capped = MatroidQuota.from_proportions(labels, c, k, available=available).per_class
        assert sum(capped.values()) == k
        assert all(q <= available[y] for y, q in capped.items())
        if all(q <= available[y] for y, q in plain.items()):
            assert capped == plain


def _stepwise_greedy(f, k, quota=None, rng=None, sample_size=None, top_k=None):
    """Reference step loop with a full lexsort ranking: the feasible pool under
    the quota left, optionally a seeded sample of `sample_size` from it, then
    the best entry, or with `top_k` a uniform pick among the first top_k."""
    left = None if quota is None else dict(quota.per_class)
    selected, pool = [], np.arange(f.n)
    for _ in range(k):
        feas = pool
        if left is not None:
            allowed = {c for c, q in left.items() if q > 0}
            feas = pool[np.array([int(f.labels[e]) in allowed for e in pool], dtype=bool)]
        if sample_size is not None:
            s = min(len(feas), max(sample_size, 1))
            feas = feas[np.sort(rng.choice_no_replace(len(feas), s))]
        ranked = feas[np.lexsort((feas, -f.marginals(feas, selected)))]
        if top_k is None:
            pick = int(ranked[0])
        else:
            top = ranked[: min(top_k, len(ranked))]
            pick = int(top[rng.randint(len(top))])
        selected.append(pick)
        if left is not None:
            left[int(f.labels[pick])] -= 1
        pool = pool[pool != pick]
    return selected


def _pin_oracles(seed, n=14):
    rng = SeededRng(seed)
    labels = np.array([rng.randint(3) for _ in range(n)])
    weights = np.round(rng.normals(n), 1)  # one decimal, so gains tie
    pts = rng.normals(2 * n).reshape(n, 2)
    mod = rng.uniforms(n) * 4
    cut = np.abs(rng.normals(n * n)).reshape(n, n) * 0.2
    cut = (cut + cut.T) / 2

    def modular_minus_cut(s):
        s = list(s)
        return float(mod[s].sum() - cut[np.ix_(s, s)].sum()) if s else 0.0

    return [
        modular_oracle(weights, labels),
        facility_location(pts, labels),
        from_callable(n, modular_minus_cut, False, labels),
    ]


def test_greedy_engines_match_stepwise_loop():
    k = 5
    for seed in range(6):
        for f in _pin_oracles(seed):
            quota = MatroidQuota.from_proportions(f.labels, 3, k)
            for q in (None, quota):
                assert naive_greedy(f, k, q) == _stepwise_greedy(f, k, q)
                for eps in (0.05, 0.5):
                    got_rng, want_rng = SeededRng(seed), SeededRng(seed)
                    size = int(math.ceil((f.n / k) * math.log(1.0 / eps)))
                    want = _stepwise_greedy(f, k, q, want_rng, sample_size=size)
                    assert stochastic_greedy(f, k, eps, got_rng, q) == want
                    assert got_rng._counter == want_rng._counter
            for kk in (1, 4, f.n):
                got_rng, want_rng = SeededRng(seed + 50), SeededRng(seed + 50)
                want = _stepwise_greedy(f, kk, rng=want_rng, top_k=kk)
                assert randomized_greedy(f, kk, got_rng) == want
                assert got_rng._counter == want_rng._counter


def test_facility_location_identical_points():
    pts = np.ones((4, 2))
    f = facility_location(pts)
    assert f.value(range(4)) == 0.0  # max distance is 0, so the cap is 0


def test_facility_location_two_points():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    f = facility_location(pts)
    assert f.value([0]) == pytest.approx(25.0)  # covers itself at d_max + other at 0


def test_facility_location_marginal_identity():
    f, _ = random_fl(51)
    rng = SeededRng(3)
    for _ in range(30):
        size = rng.randint(6)
        s = [int(v) for v in rng.choice_no_replace(f.n, size)]
        rest = [e for e in range(f.n) if e not in s]
        e = rest[rng.randint(len(rest))]
        direct = f.value(s + [e]) - f.value(s)
        assert f.marginal(e, s) == pytest.approx(direct, abs=1e-9)


def test_facility_location_per_class_uncovered_contributes_zero():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    labels = np.array([0, 0, 1])
    f = facility_location(pts, labels, per_class=True)
    # selecting only class-0 rows leaves the class-1 row uncovered; each
    # selected row covers itself at the d_max similarity cap
    v = f.value([0, 1])
    d = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    assert v == pytest.approx(2 * d.max())
    assert f.value([0, 1, 2]) == pytest.approx(3 * d.max())


def test_per_class_facility_location_needs_labels():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    labels = np.array([0, 0, 1])
    with pytest.raises(ValueError, match="needs labels"):
        facility_location(pts, None, per_class=True)
    with pytest.raises(ValueError, match="needs labels"):
        cross_facility_location(pts, labels, pts, None)
    with pytest.raises(ValueError, match="needs labels"):
        cross_facility_location(pts, None, pts, labels)


def fl_factories(seed, n=40, n_cover=15, dup=0):
    """Constructors of a plain, a per-class and a cross facility location;
    the last `dup` ground rows repeat earlier ones, so gains tie exactly."""
    rng = SeededRng(seed)
    pts = rng.normals(3 * (n - dup)).reshape(n - dup, 3)
    if dup:
        pts = np.vstack([pts, pts[rng.choice_no_replace(n - dup, dup)]])
    labels = np.array([rng.randint(3) for _ in range(n)])
    cover = rng.normals(3 * n_cover).reshape(n_cover, 3)
    cover_labels = np.array([rng.randint(3) for _ in range(n_cover)])
    return [
        lambda: facility_location(pts),
        lambda: facility_location(pts, labels, per_class=True),
        lambda: cross_facility_location(pts, labels, cover, cover_labels),
    ]


@pytest.mark.parametrize("which", [0, 1, 2])
def test_facility_location_cache_matches_fresh_oracle(which):
    make = fl_factories(5)[which]
    f = make()
    cands = list(range(f.n))

    def check(subset):
        fresh = make()
        assert f.value(subset) == fresh.value(subset)
        assert np.array_equal(f.marginals(cands, subset), make().marginals(cands, subset))
        assert all(f.marginal(e, subset) == make().marginal(e, subset) for e in (0, 7, 39))

    grown = []
    for e in (3, 17, 0, 25, 9, 31):  # a growing prefix, as greedy engines pass it
        grown.append(e)
        check(grown)
    check(grown + [11, 13])  # two new rows at once
    check([3, 0, 17])  # same rows in another order: not a prefix
    check([17, 25])  # not a prefix
    check([17])  # shorter
    check([])
    mutated = [4, 8, 12]
    check(mutated)
    mutated[1] = 30  # the caller edits its list after the call
    check(mutated)
    mutated.append(2)
    check(mutated)
    check(np.array([4, 30, 12, 2, 5]))


class _Uncached(SetFunctionOracle):
    """Delegates each call to a newly built oracle, so nothing is carried."""

    def __init__(self, make):
        probe = make()
        super().__init__(probe.n, probe.monotone, probe.labels)
        self._make = make

    def value(self, subset):
        return self._make().value(subset)

    def marginal(self, e, subset):
        return self._make().marginal(e, subset)

    def marginals(self, candidates, subset):
        return self._make().marginals(candidates, subset)


def test_lazy_greedy_unchanged_by_coverage_cache():
    for seed in (1, 2):
        for make in fl_factories(seed):
            f = make()
            runs = [(12, None)]
            if f.labels is not None:
                runs.append((9, MatroidQuota.from_proportions(f.labels, 3, 9)))
            for k, quota in runs:
                got = lazy_greedy(f, k, quota)
                want = lazy_greedy(_Uncached(make), k, quota)
                assert list(got) == list(want)
                assert got.evaluations == want.evaluations


def test_diminishing_returns_all_oracles():
    rng = SeededRng(77)
    full = gen_synthetic("separable-2", 30, seed=5)
    train, val, _ = split(full, SplitSpec(0.6, 0.2, 0.2, seed=1))
    train_b, val_b = discretize_features(train, (val,), bins=6)
    oracles = [
        random_fl(61)[0],
        facility_location(train.features, train.labels, per_class=True),
        nb_feature_function(train_b, val_b),
        lr_submodular(train.take(range(12)), val, m_clusters=3, seed=2),
    ]
    for f in oracles:
        for _ in range(100):
            size_y = 1 + rng.randint(min(10, f.n - 1))
            y_set = [int(v) for v in rng.choice_no_replace(f.n, size_y)]
            x_set = y_set[: rng.randint(len(y_set) + 1)]
            rest = [i for i in range(f.n) if i not in y_set]
            e = rest[rng.randint(len(rest))]
            assert f.marginal(e, x_set) >= f.marginal(e, y_set) - 1e-9


def test_monotone_oracles_nonnegative_marginals():
    rng = SeededRng(88)
    full = gen_synthetic("separable-2", 30, seed=6)
    train, val, _ = split(full, SplitSpec(0.6, 0.2, 0.2, seed=1))
    train_b, val_b = discretize_features(train, (val,), bins=6)
    for f in (random_fl(71)[0], nb_feature_function(train_b, val_b)):
        for _ in range(50):
            size = rng.randint(8)
            s = [int(v) for v in rng.choice_no_replace(f.n, size)]
            rest = [e for e in range(f.n) if e not in s]
            e = rest[rng.randint(len(rest))]
            assert f.marginal(e, s) >= -1e-9


def _demo_nb_instance():
    full = gen_synthetic("separable-2", 40, seed=3)
    train, val, _ = split(full, SplitSpec(0.75, 0.125, 0.125, seed=1))
    return nb_feature_function(*discretize_features(train, (val,), bins=8))


def test_nb_marginals_match_value_differences():
    rng = SeededRng(3)
    f = _demo_nb_instance()
    cand = np.arange(f.n)
    for size in (0, 1, 5, 12):
        s = [int(v) for v in rng.choice_no_replace(f.n, size)]
        got = f.marginals(cand, s)
        np.testing.assert_allclose(got, SetFunctionOracle.marginals(f, cand, s), rtol=1e-9, atol=0)


def test_nb_greedy_keeps_exact_ties():
    # rows 1 and 2 tie exactly at the first step; the tie goes to the lower index
    f = _demo_nb_instance()
    gains = f.marginals([1, 2], [])
    assert gains[0] == gains[1]
    assert naive_greedy(f, 5) == [1, 2, 30, 34, 33]


def test_nb_empty_set_value_is_smoothing_floor():
    full = gen_synthetic("separable-2", 20, seed=7)
    train, val, _ = split(full, SplitSpec(0.5, 0.25, 0.25, seed=1))
    train_b, val_b = discretize_features(train, (val,), bins=5)
    f = nb_feature_function(train_b, val_b)
    expect = val_b.n * val_b.d * math.log(1e-2)
    assert f.value([]) == pytest.approx(expect)


def test_nb_identical_rows_marginal_strictly_decreases():
    feats = np.array([[1.0, 2.0]] * 3 + [[0.0, 0.0]])
    train = Dataset(feats, np.array([0, 0, 0, 1]), 2)
    val = Dataset(np.array([[1.0, 2.0]]), np.array([0]), 2)
    f = nb_feature_function(train, val)
    g1 = f.marginal(1, [0])
    g2 = f.marginal(2, [0, 1])
    assert g1 > g2 - 1e-12 and f.marginal(0, []) > g1


def test_nb_requires_validation():
    train = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2)
    empty_val = Dataset(np.zeros((0, 2)), np.array([], dtype=int), 2)
    with pytest.raises(ValueError):
        nb_feature_function(train, empty_val)


def test_lr_submodular_shifted_cut_nonnegative():
    full = gen_synthetic("binary-slack", 15, seed=8)
    train, val, _ = split(full, SplitSpec(0.5, 0.25, 0.25, seed=1))
    f = lr_submodular(train, val, m_clusters=3, seed=4)
    assert np.all(f.cut >= 0)


def test_lr_submodular_pure_modular_when_cut_zero():
    # identical z vectors arise when the cut matrix is constant; force the
    # degenerate case by zeroing it out and checking greedy = top-k
    full = gen_synthetic("binary-slack", 10, seed=9)
    train, val, _ = split(full, SplitSpec(0.5, 0.25, 0.25, seed=1))
    f = lr_submodular(train, val, m_clusters=2, seed=5)
    f.cut[:] = 0.0
    order = np.lexsort((np.arange(f.n), -f.modular))
    assert naive_greedy(f, 3) == [int(i) for i in order[:3]]


def test_kmeans_deterministic_and_partitioning():
    rng = SeededRng(12)
    pts = rng.normals(60).reshape(30, 2)
    c1, a1 = kmeans(pts, 4, SeededRng(3))
    c2, a2 = kmeans(pts, 4, SeededRng(3))
    assert np.array_equal(c1, c2) and np.array_equal(a1, a2)
    assert set(np.unique(a1)) <= set(range(4))


def _kmeans_rebuilding_seed_distances(points, k, rng, iters=25):
    """`kmeans` as it was before the seeding kept a running minimum: every
    k-means++ step recomputes each center's distances with a second
    expression.  The reference its centroids and assignments must equal."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    centers = [points[rng.randint(n)]]
    for _ in range(1, k):
        d2 = np.min([np.sum((points - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.randint(n)])
            continue
        target = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), target))
        centers.append(points[min(idx, n - 1)])
    centroids = np.array(centers)
    assign = np.zeros(n, dtype=np.int64)
    for it in range(iters):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if it > 0 and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids, assign


def test_kmeans_matches_rebuilding_seed_reference():
    for seed in range(40):
        rng = SeededRng(100 + seed)
        n, d = 5 + rng.randint(60), 1 + rng.randint(40)
        pts = rng.normals(n * d).reshape(n, d) * (1.0 + rng.randint(50)) + rng.randint(100)
        if seed % 4 == 1:  # duplicate rows
            pts = np.vstack([pts, pts[rng.choice_no_replace(n, n // 2)]])
        elif seed % 4 == 2:  # one repeated row: every seeding total is exactly 0
            pts = np.tile(pts[rng.randint(n)], (n, 1))
        k = 1 + rng.randint(min(12, len(pts)))
        got = kmeans(pts, k, SeededRng(seed))
        want = _kmeans_rebuilding_seed_distances(pts, k, SeededRng(seed))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _one_at_a_time_lazy_greedy(f, k, quota=None):
    """Minoux's loop re-scoring one stale bound per step with `marginal`, the
    reference for the block re-scoring of `lazy_greedy`."""
    left = None if quota is None else dict(quota.per_class)
    selected = []
    heap = [(-float(g), e, 0) for e, g in enumerate(f.marginals(np.arange(f.n), []))]
    heapq.heapify(heap)
    while len(selected) < k:
        _, e, at = heapq.heappop(heap)
        if left is not None and left.get(int(f.labels[e]), 0) <= 0:
            continue
        if at == len(selected):
            selected.append(e)
            if left is not None:
                left[int(f.labels[e])] -= 1
        else:
            heapq.heappush(heap, (-f.marginal(e, selected), e, len(selected)))
    return selected


# rows past numpy's 128-entry pairwise-summation block, 60 of them repeated
_LARGE_FL = {"n": 300, "n_cover": 150, "dup": 60}


@pytest.mark.parametrize("which", [0, 1, 2])
def test_facility_location_marginals_match_marginal_bitwise(which):
    """Block re-scoring in `lazy_greedy` rests on this: one row of `marginals`
    is the same float as `marginal` of that row."""
    k = 40
    for seed in (1, 2):
        f = fl_factories(seed, **_LARGE_FL)[which]()
        cands = np.arange(f.n)
        picks = list(naive_greedy(f, k))
        for subset in ([], picks[:1], picks[:17], picks):
            block = f.marginals(cands, subset)
            rows = np.array([f.marginal(e, subset) for e in cands])
            assert np.array_equal(block, rows)
            mixed = cands[::-7]  # an unsorted block, as the heap pops it
            assert np.array_equal(f.marginals(mixed, subset), rows[mixed])


@pytest.mark.parametrize("which", [0, 1, 2])
def test_facility_location_empty_set_gains_equal_the_clamped_path(which):
    """On the empty set `marginals` skips subtracting the zero coverage and
    the clamp at 0: every entry of the similarities is >= +0.0, so the gains
    are bit for bit those of the path that takes both steps."""
    for seed in (1, 2):
        f = fl_factories(seed, **_LARGE_FL)[which]()
        assert (f._sim >= 0.0).all() and not np.signbit(f._sim).any()
        for cands in (np.arange(f.n), np.arange(f.n)[::-7]):
            block = f._sim[cands] - np.zeros(f._sim.shape[1])
            clamped = np.maximum(block, 0.0, out=block).sum(axis=1)
            got = f.marginals(cands, [])
            assert same_bits(got, clamped)
            assert same_bits(got, f.marginals(cands, np.array([], dtype=np.int64)))


def test_lazy_greedy_blocks_match_one_at_a_time_loop():
    for seed in (1, 2, 3):
        for make in fl_factories(seed, **_LARGE_FL):
            f = make()
            runs = [(60, None), (f.n, None)]
            if f.labels is not None:
                runs.append((45, MatroidQuota.from_proportions(f.labels, 3, 45)))
            for k, quota in runs:
                got = lazy_greedy(f, k, quota)
                want = _one_at_a_time_lazy_greedy(make(), k, quota)
                assert list(got) == want
                assert list(got) == naive_greedy(make(), k, quota)
                assert got.evaluations >= f.n + k - 1


def test_lazy_greedy_exact_ties_go_to_lower_index():
    pts = np.repeat(SeededRng(4).normals(20).reshape(10, 2), 3, axis=0)
    f = facility_location(pts)
    got = lazy_greedy(f, 10)
    assert list(got) == _one_at_a_time_lazy_greedy(f, 10)
    # every point has three copies; the first copy of each is picked
    assert all(e % 3 == 0 for e in got)

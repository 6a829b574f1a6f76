"""Constrained set-function maximization plus the closed-form objectives.

Every selector ranks by one rule, `_top_ranked`: best score first, ties to
the lowest index, NaN last (lazy greedy's heap breaks ties the same way), so
that different algorithms select identically.  Every non-lazy greedy step
picks by one rule, `greedy_pick`: once per step in the engines' loop
`_greedy`, once per round in GreedyDSS.  The facility-location oracle caches
its last coverage, so one instance must not be shared between threads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .numerics import SeededRng, pairwise_sq_dists

__all__ = [
    "GREEDY_VARIANTS",
    "SetFunctionOracle",
    "MatroidQuota",
    "from_callable",
    "naive_greedy",
    "lazy_greedy",
    "stochastic_greedy",
    "randomized_greedy",
    "greedy_pick",
    "exhaustive_max",
    "facility_location",
    "cross_facility_location",
    "nb_feature_function",
    "lr_submodular",
    "kmeans",
]

GREEDY_VARIANTS = ("naive", "stochastic", "randomized")


class SetFunctionOracle:
    """Evaluable set function over ground set {0..n-1}.

    Subclasses implement `value` and may vectorize `marginals`, which
    defaults to a loop of value differences.  `marginal` is one entry of
    `marginals` and no oracle here overrides it, so a single gain and a
    batched one are the same to the bit.
    """

    def __init__(self, n: int, monotone: bool, labels: np.ndarray | None = None):
        self.n = n
        self.monotone = monotone
        # class id per ground-set element, used by quota-constrained greedy
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)

    def value(self, subset) -> float:
        raise NotImplementedError

    def marginal(self, e: int, subset) -> float:
        return float(self.marginals([int(e)], subset)[0])

    def marginals(self, candidates, subset) -> np.ndarray:
        base = self.value(list(subset))
        s = list(subset)
        return np.array([self.value(s + [e]) - base for e in candidates], dtype=np.float64)


class _CallableOracle(SetFunctionOracle):
    def __init__(self, n, fn, monotone, labels=None):
        super().__init__(n, monotone, labels)
        self._fn = fn

    def value(self, subset) -> float:
        return float(self._fn(frozenset(subset)))


def from_callable(n: int, fn, monotone: bool, labels=None) -> SetFunctionOracle:
    return _CallableOracle(n, fn, monotone, labels)


def _top_ranked(pool: np.ndarray, scores, m: int) -> np.ndarray:
    """The first m entries of `pool` ranked by score, best first, ties to the
    lower pool entry and NaN last: `pool[np.lexsort((pool, -scores))][:m]`.
    Only the entries at or above the m-th best key are sorted; they are a
    prefix of the full ranking."""
    key = -np.asarray(scores, dtype=np.float64)
    if m < len(pool):
        kth = np.partition(key, m - 1)[m - 1]
        if not np.isnan(kth):
            keep = np.flatnonzero(key <= kth)
            pool, key = pool[keep], key[keep]
    return pool[np.lexsort((pool, key))][:m]


@dataclass(frozen=True)
class MatroidQuota:
    """Per-class selection budget; quotas sum to k exactly."""

    per_class: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.per_class.values())

    @staticmethod
    def from_proportions(
        reference_labels: np.ndarray, num_classes: int, k: int, available=None
    ) -> "MatroidQuota":
        """quota_y = round(k * count_y / total), corrected by largest
        remainder (ties to the lowest class id) so the sum is exactly k.
        The remainders lie in [-1/2, 1/2) and sum to the correction, so at
        most half the classes move, each by one, and a class losing one has
        a negative remainder, hence a quota >= 1.

        With `available` (rows per class), a quota above its class's rows is
        capped there and the rest of the budget is shared out over the
        uncapped classes by the same rule, until no class is over; zero
        weights stay at 0.  Where no cap binds, the quotas are those
        without `available`."""
        counts = np.bincount(np.asarray(reference_labels, dtype=np.int64), minlength=num_classes)
        if len(counts) > num_classes:
            raise ValueError("reference labels must lie in [0, num_classes)")
        if counts.sum() == 0:
            raise ValueError("empty reference set")
        cap = np.full(num_classes, k) if available is None else np.asarray(available, dtype=np.int64)
        capped = np.zeros(num_classes, dtype=bool)
        while True:
            weights = np.where(capped, 0, counts)
            if not weights.any():
                raise ValueError(f"the reference classes have too few rows for a budget of {k}")
            budget = k - int(cap[capped].sum())
            exact = budget * weights / weights.sum()
            quota = np.floor(exact + 0.5).astype(np.int64)
            diff = budget - int(quota.sum())
            step = int(np.sign(diff))
            quota[_top_ranked(np.arange(num_classes), step * (exact - quota), abs(diff))] += step
            quota[capped] = cap[capped]
            if not (over := quota > cap).any():
                return MatroidQuota({c: int(quota[c]) for c in range(num_classes) if quota[c] > 0})
            capped |= over


def _quota_left(f: SetFunctionOracle, k: int, quota: MatroidQuota | None) -> dict | None:
    """The picks each class has left under `quota`, or None without one;
    raises for a budget above the ground set or a quota that cannot apply."""
    if k > f.n:
        raise ValueError("budget exceeds ground set")
    if quota is None:
        return None
    if quota.total != k:
        raise ValueError("quota must sum to k")
    if f.labels is None:
        raise ValueError("quota constraint needs element labels on the oracle")
    return dict(quota.per_class)


def greedy_pick(pool, score, count, variant, rng, k, n, epsilon) -> np.ndarray:
    """`count` picks from the sorted `pool` by `score(entries)`, for budget k
    of n: naive takes the top; stochastic (Mirzasoleiman et al.) the top of a
    sample of count * ceil((n/k) ln(1/epsilon)) entries, or of the whole pool
    if smaller; randomized (Buchbinder et al.) each uniform over the top k."""
    if variant == "stochastic":
        per_pick = math.ceil((n / k) * math.log(1.0 / epsilon))
        pool = rng.sample(pool, min(len(pool), count * per_pick))
    if variant != "randomized":
        return _top_ranked(pool, score(pool), count)
    # removing one entry leaves the rest of the ranking in order
    live = _top_ranked(pool, score(pool), count + k).tolist()
    return np.array([live.pop(rng.randint(min(k, len(live)))) for _ in range(count)], np.int64)


def _greedy(f: SetFunctionOracle, k: int, quota, variant="naive", rng=None, epsilon=0.01) -> list:
    """The step loop of every non-lazy engine: k times, `greedy_pick` takes
    one of the unselected elements whose class still has quota.  Returns
    elements in selection order."""
    left = _quota_left(f, k, quota)
    selected: list[int] = []
    pool = np.arange(f.n)

    def gains(entries):
        return f.marginals(entries, selected)

    for _ in range(k):
        feas = pool
        if left is not None:
            feas = pool[np.isin(f.labels[pool], [c for c, q in left.items() if q > 0])]
            if len(feas) == 0:
                raise ValueError("infeasible quota: class exhausted")
        pick = int(greedy_pick(feas, gains, 1, variant, rng, k, f.n, epsilon)[0])
        selected.append(pick)
        if left is not None:
            left[int(f.labels[pick])] -= 1
        pool = pool[pool != pick]
    return selected


def naive_greedy(f: SetFunctionOracle, k: int, quota: MatroidQuota | None = None) -> list[int]:
    """k rounds of best-marginal-gain selection; ties to the lowest index.
    Returns elements in selection order."""
    return _greedy(f, k, quota)


class _SelectionList(list):
    """List subclass carrying the lazy-greedy evaluation counter."""

    evaluations: int = 0


_LAZY_BLOCK = 32  # widest block of stale bounds scored by one `marginals` call


def lazy_greedy(f: SetFunctionOracle, k: int, quota: MatroidQuota | None = None) -> list[int]:
    """Accelerated greedy (Minoux) with stale upper bounds, re-scored in
    blocks.  Each step re-scores the top stale bound alone and picks it if it
    is still on top, so a modular objective costs one evaluation per later
    pick.  Otherwise it re-scores the next stale, quota-feasible bounds in
    blocks of 2, 4, ... up to 32 entries, one `marginals` call per block,
    until the top bound is fresh, and picks that.

    The pick is the argmax of (gain, -index) over the feasible elements,
    naive_greedy's, whenever no gain exceeds its stale bound, which holds
    exactly for submodular objectives whose gains do not rise in floating
    point either.  Facility location is one: coverage is an exact max, and
    subtraction, max(., 0) and summation are monotone in each operand.  The
    extra entries of a block only tighten bounds, so they do not change the
    pick.  The returned list carries the number of scored candidates, the
    first round's n included, in its `.evaluations` attribute."""
    left = _quota_left(f, k, quota)
    selected: list[int] = []
    gains = f.marginals(np.arange(f.n), [])
    evals = f.n
    # heap of (-gain, index, |S| at evaluation time)
    heap = [(-float(g), int(e), 0) for e, g in enumerate(gains)]
    heapq.heapify(heap)
    while len(selected) < k:
        now, width = len(selected), 1
        while True:
            block: list[int] = []
            while heap and len(block) < width:
                e, at = heap[0][1:]
                if left is not None and left.get(int(f.labels[e]), 0) <= 0:
                    heapq.heappop(heap)  # quota only shrinks, so e never returns
                elif at == now:
                    break
                else:
                    block.append(heapq.heappop(heap)[1])
            if not block:
                break
            for e, g in zip(block, f.marginals(block, selected)):
                heapq.heappush(heap, (-float(g), e, now))
            evals += len(block)
            width = min(2 * width, _LAZY_BLOCK)
        if not heap:
            raise ValueError("infeasible quota: class exhausted")
        e = heapq.heappop(heap)[1]
        selected.append(e)
        if left is not None:
            left[int(f.labels[e])] -= 1
    result = _SelectionList(selected)
    result.evaluations = evals
    return result


def stochastic_greedy(
    f: SetFunctionOracle,
    k: int,
    epsilon: float,
    rng: SeededRng,
    quota: MatroidQuota | None = None,
) -> list[int]:
    """Each step scores a uniform sample of ceil((n/k) ln(1/eps)) feasible
    candidates and adds the best; deterministic given the seed."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return _greedy(f, k, quota, "stochastic", rng, epsilon)


def randomized_greedy(f: SetFunctionOracle, k: int, rng: SeededRng) -> list[int]:
    """Non-monotone-safe greedy: each step picks uniformly among the top-k
    feasible elements by marginal gain.  Always returns exactly k elements,
    even when late marginals are negative."""
    return _greedy(f, k, None, "randomized", rng)


def exhaustive_max(
    f: SetFunctionOracle, k: int, quota: MatroidQuota | None = None
) -> tuple[tuple[int, ...], float]:
    """True optimum by enumeration; refuses instances beyond 2e6 subsets."""
    left = _quota_left(f, k, quota)
    if left is None:
        groups = [(range(f.n), k)]
    else:
        groups = [(np.flatnonzero(f.labels == c).tolist(), q) for c, q in sorted(left.items())]
    total = 1
    for members, q in groups:
        if left is not None and len(members) < q:
            raise ValueError("infeasible quota: class exhausted")
        total *= math.comb(len(members), q)
        if total > 2_000_000:
            raise ValueError("combinatorial budget exceeded")
    best_set, best_val = None, -math.inf
    for combo in itertools.product(*(itertools.combinations(m, q) for m, q in groups)):
        subset = tuple(sorted(itertools.chain.from_iterable(combo)))
        v = f.value(subset)
        if v > best_val:
            best_set, best_val = subset, v
    return best_set, best_val


class _FacilityLocation(SetFunctionOracle):
    """Coverage of `cover` rows (the ground rows themselves without `cover`)
    by selected `ground` rows under the similarity w(i, j) = d_max -
    ||x_i - x_j||^2; uncovered rows contribute 0 (the max over an empty set
    is defined as 0).  The constructor is the one build of every variant.

    With cover labels, a ground row covers only cover rows of its own label.
    Since w >= 0 (d_max is the largest distance), setting the cross-class
    entries of `sim` to 0 once, in place, gives every value and gain the
    clamp max(masked max, 0) would give, with no masking per call.  Every
    gain goes through `marginals`; `marginal` is one entry of it.

    The oracle remembers the subset of its last call and the column-wise max
    over its rows.  A call whose subset extends that one, as greedy engines
    pass it, folds in only the new rows; since max is exact, the coverage is
    bit-identical to a recomputation.
    """

    def __init__(self, ground, ground_labels=None, cover=None, cover_labels=None):
        sim = pairwise_sq_dists(ground, cover)
        np.subtract(float(sim.max()), sim, out=sim)
        super().__init__(sim.shape[0], monotone=True, labels=ground_labels)
        if cover_labels is not None:
            sim[self.labels[:, None] != np.asarray(cover_labels)[None, :]] = 0.0
        self._sim = sim  # (n_ground, n_cover)
        # a copy of the last subset, so later edits by the caller do not leak in
        self._last_rows: list = []
        self._last_best: np.ndarray | None = None

    def _coverage(self, subset) -> np.ndarray:
        rows = list(subset)
        if len(rows) == 0:
            return np.zeros(self._sim.shape[1])
        seen = len(self._last_rows)
        if 0 < seen <= len(rows) and rows[:seen] == self._last_rows:
            best = self._last_best
            if len(rows) > seen:
                best = np.maximum(best, self._sim[rows[seen:]].max(axis=0))
        else:
            best = self._sim[rows].max(axis=0)
        self._last_rows, self._last_best = rows, best
        return best

    def value(self, subset) -> float:
        return float(self._coverage(subset).sum())

    def marginals(self, candidates, subset) -> np.ndarray:
        block = self._sim[np.asarray(candidates, dtype=np.int64)]
        # every entry of sim is >= +0.0, so on the empty set, whose coverage
        # is 0, the subtraction and the clamp would return the block as it is
        if len(subset):
            block -= self._coverage(subset)
            np.maximum(block, 0.0, out=block)
        return block.sum(axis=1)


def facility_location(
    features: np.ndarray, labels: np.ndarray | None = None, per_class: bool = False
) -> SetFunctionOracle:
    """Facility location over the rows of `features`; with per_class=True the
    coverage is restricted to rows of the matching label."""
    if per_class and labels is None:
        raise ValueError("per_class facility location needs labels")
    return _FacilityLocation(features, labels, cover_labels=labels if per_class else None)


def cross_facility_location(
    ground_features: np.ndarray,
    ground_labels: np.ndarray,
    cover_features: np.ndarray,
    cover_labels: np.ndarray,
) -> SetFunctionOracle:
    """Per-class facility location where selected ground rows cover the rows
    of their own label in a separate set (the nearest-neighbor objective
    with a reference set)."""
    if ground_labels is None or cover_labels is None:
        raise ValueError("per_class facility location needs labels")
    return _FacilityLocation(ground_features, ground_labels, cover_features, cover_labels)


def kmeans(points: np.ndarray, k: int, rng: SeededRng, iters: int = 25):
    """Seeded k-means with k-means++ init; returns (centroids, assignment)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n points")

    def sq_dists(centers: np.ndarray) -> np.ndarray:
        # direct differences: the Gram form of `pairwise_sq_dists` rounds
        # differently and would move the centroids
        return ((points[:, None, :] - centers[None]) ** 2).sum(axis=2)

    centers = [points[rng.randint(n)]]
    d2 = np.full(n, np.inf)  # squared distance to the nearest center so far
    for _ in range(1, k):
        d2 = np.minimum(d2, sq_dists(centers[-1][None])[:, 0])
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
        new_assign = sq_dists(centroids).argmin(axis=1)
        if it > 0 and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids, assign


class _ConcaveOverModular(SetFunctionOracle):
    """f(S) = sum_i w_i term(s_i(S)) over the modular sums s_i(S) = sum_{j in
    S} g[i, j] of a nonnegative g of shape (m, n, ...); trailing axes give
    each i several sums.  `term` maps sums of shape (m, j, ...) to (m, j),
    one column per set, and is concave and nondecreasing in the sums; with
    weights w >= 0 (default 1), f is monotone, and submodular when each i
    has one sum.

    A marginal sums w_i times the per-i differences of terms, so an i that
    the candidate does not touch adds exactly 0 and equal gains stay equal."""

    def __init__(self, g: np.ndarray, term, weights=None, labels=None):
        super().__init__(g.shape[1], monotone=True, labels=labels)
        self._g = g
        self._term = term
        self._w = np.ones((g.shape[0], 1)) if weights is None else np.asarray(weights)[:, None]

    def _sums(self, subset) -> np.ndarray:
        s = np.asarray(list(subset), dtype=np.int64)
        if s.size == 0:
            return np.zeros((self._g.shape[0],) + self._g.shape[2:])
        return self._g[:, s].sum(axis=1)

    def value(self, subset) -> float:
        return float((self._w * self._term(self._sums(subset)[:, None])).sum())

    def marginals(self, candidates, subset) -> np.ndarray:
        cand = np.asarray(list(candidates), dtype=np.int64)
        su = self._sums(subset)[:, None]
        return (self._w * (self._term(su + self._g[:, cand]) - self._term(su))).sum(axis=0)


def nb_feature_function(train: Dataset, val: Dataset) -> SetFunctionOracle:
    """Naive-Bayes-style feature coverage of the validation cell counts by
    the selected training rows: the sum over (feature, value, class) cells
    of the validation count times the log of the selected count, where an
    empty cell counts as 1e-2.  Features must already be discretized (see
    `data.discretize_features`)."""
    if val.n == 0:
        raise ValueError("empty validation set")
    t_vals = train.features.astype(np.int64)
    v_vals = val.features.astype(np.int64)
    n_vals = int(max(t_vals.max(initial=0), v_vals.max(initial=0))) + 1
    n_classes = max(train.num_classes, val.num_classes)

    def encode(vals: np.ndarray, labels: np.ndarray) -> np.ndarray:
        d = vals.shape[1]
        feat_ids = np.arange(d)[None, :]
        return (feat_ids * n_vals + vals) * n_classes + labels[:, None]

    train_codes = encode(t_vals, train.labels)
    cells, freq = np.unique(encode(v_vals, val.labels), return_counts=True)
    # 0/1 incidence of the validation cells (rows) in the train rows (columns)
    at = np.searchsorted(cells, train_codes).clip(max=len(cells) - 1)
    hit = cells[at] == train_codes
    incidence = np.zeros((len(cells), train.n))
    incidence[at[hit], np.nonzero(hit)[0]] = 1.0

    def term(counts):
        return np.log(np.maximum(counts, 1e-2))

    return _ConcaveOverModular(incidence, term, freq.astype(np.float64), train.labels)


class _ModularMinusCut(SetFunctionOracle):
    """f(S) = sum_{i in S} modular_i - sum_{i,j in S} cut_ij with cut >= 0;
    non-monotone submodular."""

    def __init__(self, modular: np.ndarray, cut: np.ndarray, labels=None):
        super().__init__(len(modular), monotone=False, labels=labels)
        self.modular = modular
        self.cut = cut

    def value(self, subset) -> float:
        s = np.asarray(list(subset), dtype=np.int64)
        if s.size == 0:
            return 0.0
        return float(self.modular[s].sum() - self.cut[np.ix_(s, s)].sum())

    def marginals(self, candidates, subset) -> np.ndarray:
        cand = np.asarray(list(candidates), dtype=np.int64)
        s = np.asarray(list(subset), dtype=np.int64)
        gains = self.modular[cand] - np.diag(self.cut)[cand]
        if s.size:
            gains = gains - self.cut[np.ix_(cand, s)].sum(axis=1) - self.cut[np.ix_(s, cand)].sum(axis=0)
        return gains


def lr_submodular(
    train: Dataset,
    val: Dataset,
    m_clusters: int,
    seed: int = 0,
    targets: np.ndarray | None = None,
    val_targets: np.ndarray | None = None,
) -> SetFunctionOracle:
    """Linear-regression selection objective: a signed modular term plus a
    negative graph cut, with the inverse Gram matrix approximated from
    mass-weighted k-means centroids (ridge 1e-6 I if singular).

    Class labels double as regression targets unless explicit real targets
    are given; binary labels map to -1/+1.
    """
    if m_clusters < 1:
        raise ValueError("need at least one cluster")

    def default_targets(ds: Dataset) -> np.ndarray:
        if ds.num_classes == 2:
            return 2.0 * ds.labels.astype(np.float64) - 1.0
        return ds.labels.astype(np.float64)

    y_t = default_targets(train) if targets is None else np.asarray(targets, dtype=np.float64)
    y_v = default_targets(val) if val_targets is None else np.asarray(val_targets, dtype=np.float64)
    rng = SeededRng(seed)
    centroids, assign = kmeans(train.features, m_clusters, rng)
    mass = np.bincount(assign, minlength=m_clusters).astype(np.float64) / train.n
    gram = sum(mass[c] * np.outer(centroids[c], centroids[c]) for c in range(m_clusters))
    try:
        d_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        d_inv = np.linalg.inv(gram + 1e-6 * np.eye(gram.shape[0]))
    xi_yi = train.features * y_t[:, None]  # rows x_i^t y_i^t
    # modular term: sum_j 2 (y_j x_j^T D)(x_i y_i)
    modular = 2.0 * (xi_yi @ d_inv @ (val.features * y_v[:, None]).sum(axis=0))
    z = (val.features @ d_inv @ xi_yi.T)  # (M, n): column i is x_k^T D x_i y_i
    s_mat = z.T @ z
    s_min = float(s_mat.min())
    cut = s_mat - s_min  # shift to nonnegative
    return _ModularMinusCut(modular, cut, labels=train.labels)

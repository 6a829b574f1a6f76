"""Batch active learning over an unlabeled pool with hypothesized labels.

Neither selection nor the round metrics read the true label of an unlabeled
point: selection runs on model-predicted labels, the metrics on the
validation and test sets, and ground truth is read only when a chosen batch
is revealed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    GlisterConfig,
    Run,
    _SELECT_STREAM,
    _selection_loop,
    greedy_dss,
    init_model_params,
    subset_digest,
)
from .data import Dataset
from .models import (
    ModelParams,
    ModelSpec,
    accuracy,
    forward,
    hypothesized_labels,
    loss_value,
)
from .numerics import SeededRng, log_sum_exp_rows, row_sum
from .submodular import _top_ranked, facility_location, lazy_greedy

__all__ = [
    "PoolState",
    "initial_labeled",
    "ActiveRound",
    "ActiveTrace",
    "random_acquire",
    "fass_acquire",
    "active_run",
    "train_active",
    "run_active",
    "ACQUIRE_STRATEGIES",
]

ACQUIRE_STRATEGIES = ("glister", "random", "fass")
FILTER_MULT = 5.0  # fass keeps the FILTER_MULT * batch most uncertain points


class PoolState:
    """The pool's revealed labels as one boolean mask, plus the batch acquired
    in each round.  The seed labels are set at construction and `acquire` is
    the only other place the mask changes, so the labeled and unlabeled rows
    partition the pool and the batches are disjoint by construction."""

    def __init__(self, pool_size: int, initial=()):
        self.mask = np.zeros(pool_size, dtype=bool)
        self.batches: list[list[int]] = []
        self.mask[self._new_rows(initial)] = True

    @property
    def labeled(self) -> list[int]:
        return np.flatnonzero(self.mask).tolist()

    @property
    def unlabeled(self) -> np.ndarray:
        return np.flatnonzero(~self.mask)

    def _new_rows(self, rows) -> list[int]:
        """`rows` sorted, after checking they are distinct, unlabeled rows of the pool."""
        rows = sorted(int(i) for i in rows)
        if rows and (rows[0] < 0 or rows[-1] >= self.mask.size):
            raise ValueError(f"rows must lie in [0, {self.mask.size})")
        if len(set(rows)) < len(rows) or self.mask[rows].any():
            raise ValueError("rows must be distinct and unlabeled")
        return rows

    def acquire(self, batch) -> None:
        rows = self._new_rows(batch)
        self.mask[rows] = True
        self.batches.append(rows)


def initial_labeled(pool: Dataset, n: int, rng: SeededRng) -> list[int]:
    """`n` seed labels, drawn class by class from the one stream `rng`: each
    class gets its rounded proportional share of the pool, at least one, then
    the largest quota loses or the class furthest below its exact share gains
    one label at a time until the total is `n`, which must cover every class."""
    if n < pool.num_classes:
        raise ValueError(f"{n} seed labels cannot cover {pool.num_classes} classes")
    counts = pool.class_counts()
    exact = n * counts / counts.sum()
    quota = {c: max(1, round(exact[c])) for c in range(pool.num_classes)}
    while sum(quota.values()) > n:
        quota[max(quota, key=quota.get)] -= 1
    while sum(quota.values()) < n:
        quota[max(quota, key=lambda c: exact[c] - quota[c])] += 1
    return sorted(
        i for c, q in quota.items() for i in rng.sample(np.flatnonzero(pool.labels == c), q).tolist()
    )


@dataclass
class ActiveRound:
    round: int
    labeled_count: int
    val_loss: float
    test_acc: float
    batch_digest: str


@dataclass
class ActiveTrace:
    rounds: list[ActiveRound] = field(default_factory=list)
    final_val_loss: float = math.nan
    final_test_acc: float = math.nan


def random_acquire(unlabeled: np.ndarray, batch: int, rng: SeededRng) -> list[int]:
    """Seeded uniform batch from the sorted unlabeled rows, without replacement."""
    if batch > len(unlabeled):
        raise ValueError("batch exceeds the unlabeled pool")
    return rng.sample(unlabeled, batch).tolist()


def _predictive_entropy(params: ModelParams, x: np.ndarray) -> np.ndarray:
    z = forward(params, x)
    if z.shape[1] == 1:
        z = np.concatenate([np.zeros_like(z), z], axis=1)
    logp = z - log_sum_exp_rows(z)[:, None]
    return -row_sum(np.exp(logp) * logp)


def fass_acquire(
    pool: Dataset,
    unlabeled: np.ndarray,
    params: ModelParams,
    batch: int,
    filter_mult: float,
) -> list[int]:
    """Uncertainty-filtered coverage: keep the filter_mult * batch most
    uncertain of the sorted `unlabeled` rows (entropy ties break by index),
    then pick the batch by per-hypothesized-class facility location."""
    if filter_mult < 1:
        raise ValueError("filter_mult must be at least 1")
    if batch > len(unlabeled):
        raise ValueError("batch exceeds the unlabeled pool")
    entropy = _predictive_entropy(params, pool.features[unlabeled])
    # clamped before rounding, so that a huge filter_mult keeps every row
    keep = max(batch, int(round(min(filter_mult * batch, len(unlabeled)))))
    cand = np.sort(_top_ranked(unlabeled, entropy, keep))
    hyp = hypothesized_labels(params, pool.features[cand])
    oracle = facility_location(pool.features[cand], hyp, per_class=True)
    picked = lazy_greedy(oracle, batch)
    return sorted(int(cand[p]) for p in picked)


def active_run(
    strategy: str, pool: Dataset, val: Dataset, test: Dataset, initial, model_spec: ModelSpec,
    cfg: GlisterConfig, rounds: int, batch: int, epochs_per_round: int, filter_mult: float = FILTER_MULT,
) -> tuple[Run, PoolState, ActiveTrace]:
    """Batch active learning as a `Run` whose subset is the labeled set, for
    (rounds + 1) * epochs_per_round epochs.  It first selects the seed
    labels; at epoch (r + 1) * epochs_per_round it acquires batch r of
    `batch` rows (the budget in place of `cfg.k`; drawn from
    SeededRng(cfg.seed).split(_SELECT_STREAM + r)), reveals it and appends
    the round, with metrics at the parameters trained so far.  It keeps no
    per-epoch records, which would read unrevealed labels."""
    if strategy not in ACQUIRE_STRATEGIES:
        raise ValueError(f"unknown acquisition strategy {strategy!r}")
    if rounds < 1:
        raise ValueError("need at least one round")
    state = PoolState(pool.n, initial)
    if len(state.labeled) + rounds * batch > pool.n:
        raise ValueError("unlabeled pool exhausted")
    select_cfg = replace(cfg, k=batch)
    root = SeededRng(cfg.seed)
    trace = ActiveTrace()
    round_of_call = itertools.count(-1)

    def select(params, _):
        r = next(round_of_call)
        if r < 0:
            return state.labeled
        unl = state.unlabeled
        rng = root.split(_SELECT_STREAM + r)
        # the acquirers are module names looked up per call, so patching one
        # (as perfbench's timer does) takes effect here
        if strategy == "random":
            chosen = random_acquire(unl, batch, rng)
        elif strategy == "fass":
            chosen = fass_acquire(pool, unl, params, batch, filter_mult)
        else:
            x = pool.features[unl]
            hypothesized = Dataset(x, hypothesized_labels(params, x), pool.num_classes)
            picked = greedy_dss(hypothesized, val, params, select_cfg, rng=rng)
            chosen = np.sort(unl[picked]).tolist()
        # reveal: true labels of `chosen` become visible from here on
        state.acquire(chosen)
        trace.rounds.append(ActiveRound(
            round=r + 1, labeled_count=len(state.labeled),
            val_loss=loss_value(params, val.features, val.labels, cfg.loss),
            test_acc=accuracy(params, test), batch_digest=subset_digest(chosen),
        ))
        return state.labeled

    params = init_model_params(pool, model_spec, cfg)
    run = Run(pool, val, test, params, cfg, select, epochs_per_round, strategy, record=False)
    return run, state, trace


def train_active(actives, epochs: int) -> list[ModelParams]:
    """Step the (run, state, trace) of each `active_run` together for
    `epochs` epochs; sets each trace's final metrics and returns each run's
    final parameters."""
    results = _selection_loop([run for run, _, _ in actives], epochs)
    for (run, _, trace), (params, _, _) in zip(actives, results):
        trace.final_val_loss = loss_value(params, run.val.features, run.val.labels, run.cfg.loss)
        trace.final_test_acc = accuracy(params, run.test)
    return [params for params, _, _ in results]


def run_active(
    strategy: str, pool: Dataset, val: Dataset, test: Dataset, initial, model_spec: ModelSpec,
    cfg: GlisterConfig, rounds: int, batch: int, epochs_per_round: int, filter_mult: float = FILTER_MULT,
) -> tuple[ModelParams, PoolState, ActiveTrace]:
    """One active run alone, `active_run` as a list of one: per round, train
    on the labeled set, acquire a batch and reveal it; then train once more."""
    run, state, trace = active_run(
        strategy, pool, val, test, initial, model_spec, cfg, rounds, batch, epochs_per_round, filter_mult
    )
    return train_active([(run, state, trace)], (rounds + 1) * epochs_per_round)[0], state, trace

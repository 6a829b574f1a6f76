"""Batch active learning over an unlabeled pool with hypothesized labels.

Scoring never reads the true label of an unlabeled point: selection runs on
model-predicted labels, and ground truth is read only at the reveal step
after a batch is chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GlisterConfig,
    _SELECT_STREAM,
    _train_epochs,
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
from .numerics import SeededRng, log_sum_exp_rows
from .submodular import _top_ranked, facility_location, lazy_greedy

__all__ = [
    "PoolState",
    "ActiveRound",
    "ActiveTrace",
    "random_acquire",
    "fass_acquire",
    "run_active",
    "ACQUIRE_STRATEGIES",
]

ACQUIRE_STRATEGIES = ("glister", "random", "fass")
FILTER_MULT = 5.0  # fass keeps the FILTER_MULT * batch most uncertain points


@dataclass
class PoolState:
    """Partition of the pool into labeled and unlabeled indices plus the
    acquisition history; the three invariants (disjoint, covering, disjoint
    batches) are re-checked after every round."""

    labeled: list[int]
    unlabeled: list[int]
    rounds_completed: int = 0
    batches: list[list[int]] = field(default_factory=list)

    def check(self, pool_size: int) -> None:
        lab, unl = set(self.labeled), set(self.unlabeled)
        if lab & unl:
            raise AssertionError("labeled and unlabeled sets overlap")
        if lab | unl != set(range(pool_size)):
            raise AssertionError("pool partition does not cover the pool")
        seen: set[int] = set()
        for batch in self.batches:
            b = set(batch)
            if b & seen:
                raise AssertionError("acquired batches overlap")
            if not b <= lab:
                raise AssertionError("acquired batch not in labeled set")
            seen |= b

    def acquire(self, batch: list[int]) -> None:
        unl = set(self.unlabeled)
        if not set(batch) <= unl:
            raise ValueError("batch must come from the unlabeled pool")
        self.batches.append(sorted(batch))
        self.labeled = sorted(set(self.labeled) | set(batch))
        self.unlabeled = sorted(unl - set(batch))
        self.rounds_completed += 1


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


def random_acquire(pool_state: PoolState, batch: int, rng: SeededRng) -> list[int]:
    """Seeded uniform batch from the unlabeled pool, without replacement."""
    if batch > len(pool_state.unlabeled):
        raise ValueError("batch exceeds the unlabeled pool")
    unl = np.asarray(pool_state.unlabeled, dtype=np.int64)
    return rng.sample(unl, batch).tolist()


def _predictive_entropy(params: ModelParams, x: np.ndarray) -> np.ndarray:
    z = forward(params, x)
    if z.shape[1] == 1:
        z = np.concatenate([np.zeros_like(z), z], axis=1)
    logp = z - log_sum_exp_rows(z)[:, None]
    return -(np.exp(logp) * logp).sum(axis=1)


def fass_acquire(
    pool: Dataset,
    pool_state: PoolState,
    params: ModelParams,
    batch: int,
    filter_mult: float,
) -> list[int]:
    """Uncertainty-filtered coverage: keep the filter_mult * batch most
    uncertain unlabeled points (entropy ties break by index), then pick the
    batch by per-hypothesized-class facility location."""
    if filter_mult < 1:
        raise ValueError("filter_mult must be at least 1")
    if batch > len(pool_state.unlabeled):
        raise ValueError("batch exceeds the unlabeled pool")
    unl = np.asarray(pool_state.unlabeled, dtype=np.int64)
    entropy = _predictive_entropy(params, pool.features[unl])
    keep = min(len(unl), max(batch, int(round(filter_mult * batch))))
    cand = np.sort(_top_ranked(unl, entropy, keep))
    hyp = hypothesized_labels(params, pool.features[cand])
    oracle = facility_location(pool.features[cand], hyp, per_class=True)
    picked = lazy_greedy(oracle, batch)
    return sorted(int(cand[p]) for p in picked)


def run_active(
    strategy: str,
    pool: Dataset,
    val: Dataset,
    test: Dataset,
    initial_labeled,
    model_spec: ModelSpec,
    cfg: GlisterConfig,
    rounds: int,
    batch: int,
    epochs_per_round: int,
    filter_mult: float = FILTER_MULT,
) -> tuple[ModelParams, PoolState, ActiveTrace]:
    """Shared acquisition loop: per round, train on the labeled set
    (continuing from the previous parameters), acquire a batch from the
    unlabeled pool, reveal it, and finish with one more training pass after
    the last round."""
    if strategy not in ACQUIRE_STRATEGIES:
        raise ValueError(f"unknown acquisition strategy {strategy!r}")
    if rounds < 1:
        raise ValueError("need at least one round")
    initial = sorted(int(i) for i in initial_labeled)
    state = PoolState(
        labeled=initial,
        unlabeled=sorted(set(range(pool.n)) - set(initial)),
    )
    root = SeededRng(cfg.seed)
    params = init_model_params(pool, model_spec, cfg)
    trace = ActiveTrace()
    for r in range(rounds):
        if batch > len(state.unlabeled):
            raise ValueError("unlabeled pool exhausted")
        params = _train_epochs(
            params, pool, state.labeled, cfg, epochs_per_round, root, r * epochs_per_round
        )
        rng = root.split(_SELECT_STREAM + r)
        if strategy == "random":
            chosen = random_acquire(state, batch, rng)
        elif strategy == "fass":
            chosen = fass_acquire(pool, state, params, batch, filter_mult)
        else:
            unl = np.asarray(state.unlabeled, dtype=np.int64)
            hyp = hypothesized_labels(params, pool.features[unl])
            hypothesized = Dataset(pool.features[unl], hyp, pool.num_classes)
            picked = greedy_dss(hypothesized, val, params, cfg, rng=rng, k=batch)
            chosen = sorted(int(unl[p]) for p in picked)
        # reveal: true labels of `chosen` become visible from here on
        state.acquire(chosen)
        state.check(pool.n)
        trace.rounds.append(
            ActiveRound(
                round=r + 1,
                labeled_count=len(state.labeled),
                val_loss=loss_value(params, val.features, val.labels, cfg.loss),
                test_acc=accuracy(params, test),
                batch_digest=subset_digest(chosen),
            )
        )
    params = _train_epochs(
        params, pool, state.labeled, cfg, epochs_per_round, root, rounds * epochs_per_round
    )
    trace.final_val_loss = loss_value(params, val.features, val.labels, cfg.loss)
    trace.final_test_acc = accuracy(params, test)
    return params, state, trace

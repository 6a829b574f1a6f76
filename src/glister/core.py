"""Validation-gain subset selection and the online training loop.

The selection objective scores a candidate training point by how much one
gradient step on it would raise the validation log-likelihood.  Writing
``theta^S = theta + eta * sum_{j in S} grad LL_T(theta, j)`` for the
one-step lookahead on the last layer, the gain of adding e to S is
linearized as ``eta * grad LL_T(theta, e) . grad LL_V(theta^S)``.  The exact
(non-linearized) gain is kept alongside as the fidelity oracle, and the
loss-specific closed-form proxies are exposed as evaluable set functions for
the submodularity checks.

Sign convention: log-likelihoods are negative losses, so per-element rows
here store ``-grad Loss`` and the lookahead adds them (gradient ascent on
the log-likelihood equals descent on the loss).
"""

from __future__ import annotations

import hashlib
import math
import numbers
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .models import (
    LossKind,
    ModelParams,
    ModelSpec,
    accuracy,
    flatten_grads,
    forward,
    grad_full,
    init_params,
    last_layer_inputs,
    last_layer_per_sample_grads,
    last_layer_rows,
    logit_grads,
    loss_value,
    output_width,
    sgd_epoch_stack,
)
from .numerics import SeededRng, log_sum_exp_rows, pairwise_sq_dists
from .submodular import (
    GREEDY_VARIANTS, SetFunctionOracle, _ConcaveOverModular, _ModularMinusCut, facility_location,
    greedy_pick,
)

__all__ = [
    "GlisterConfig",
    "GainState",
    "RunTrace",
    "EpochRecord",
    "Run",
    "make_gain_state",
    "taylor_gain",
    "exact_objective",
    "exact_gain",
    "taylor_proxy",
    "greedy_dss",
    "glister_online_train",
    "glister_run",
    "init_model_params",
    "monitor_theorem2",
    "monitor_theorem3",
    "subset_digest",
]

# the regularizers, each with the lambda it takes when none is given
_LAMBDA_DEFAULTS = {"none": 0.0, "facility_location": 100.0, "random": 0.9, "diversity": 1.0}

# dedicated sub-stream indices so selection randomness never perturbs the
# SGD shuffle stream (epoch t shuffles with split(t))
_INIT_STREAM = 1 << 32
_SELECT_STREAM = (1 << 32) + 1


@dataclass(frozen=True)
class GlisterConfig:
    """Knobs for GreedyDSS and the online loop.

    Exactly one of `k` / `budget_frac` fixes the budget.  `refreshes` (an
    integer >= 1, or `r_frac` in (0, 1], default 0.03) sets how many times
    the validation gradient is recomputed exactly; between refreshes stale
    scores pick k/r elements per round.  `eta` defaults to the optimizer
    learning rate, and a `lam` of None the regularizer's default
    (`resolve_lam`).
    """

    k: int | None = None
    budget_frac: float | None = None
    select_every: int = 20
    refreshes: int | None = None
    r_frac: float | None = None
    eta: float | None = None
    lr: float = 0.05
    batch_size: int = 32
    regularizer: str = "none"
    lam: float | None = None
    greedy: str = "naive"
    epsilon: float = 0.01
    loss: LossKind = LossKind.CROSS_ENTROPY
    seed: int = 0

    def __post_init__(self):
        if self.regularizer not in _LAMBDA_DEFAULTS:
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if self.greedy not in GREEDY_VARIANTS:
            raise ValueError(f"unknown greedy variant {self.greedy!r}")
        for name in ("select_every", "batch_size", "refreshes"):
            value = getattr(self, name)
            if value is None and name == "refreshes":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("r_frac", "eta", "lr", "lam", "epsilon"):
            value = getattr(self, name)
            if value is None and name in ("r_frac", "eta", "lam"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number")
        if self.r_frac is not None and not 0.0 < self.r_frac <= 1.0:
            raise ValueError("r_frac must lie in (0, 1]")
        lam = self.resolve_lam()
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError("lambda must be finite and nonnegative")
        if self.regularizer == "random" and lam > 1:
            raise ValueError("random regularizer needs lambda in [0, 1]")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and > 0")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be finite and > 0")

    def resolve_lam(self) -> float:
        return _LAMBDA_DEFAULTS[self.regularizer] if self.lam is None else self.lam

    def resolve_k(self, n: int) -> int:
        if (self.k is None) == (self.budget_frac is None):
            raise ValueError("set exactly one of k / budget_frac")
        k = self.k if self.k is not None else int(round(self.budget_frac * n))
        if not 1 <= k <= n:
            raise ValueError(f"budget {k} out of range for n={n}")
        return k

    def resolve_r(self, k: int) -> int:
        if self.refreshes is not None:
            r = self.refreshes
        else:
            frac = 0.03 if self.r_frac is None else self.r_frac
            r = int(math.ceil(frac * k))
        if r > k:
            raise ValueError("refreshes cannot exceed the budget")
        return r


@dataclass
class GainState:
    """Cached state for the linearized validation gain, in factored form.

    Only the last layer moves in a lookahead, so the penultimate activations
    `hidden` (h) are fixed for the whole selection, and a candidate's
    log-likelihood row is ``-[h (x) delta, delta]``, where `logit_grads`
    (delta) is its loss gradient w.r.t. the logits.  The (n, H*C) row table
    is never built: a score is ``-eta * (h . (V_W delta) + V_b . delta)``.
    `refresh` recomputes delta and the validation gradient exactly at the
    current lookahead, and projects every row once (`hidden_val_w`, h V_W);
    between refreshes all three are frozen while `add` folds elements into
    the lookahead.  The candidates are the training rows.  Nothing in the
    package reads `cand_features`; perfbench's tracer counts its rows as
    the work of each refresh (`perfbench/tracing.py`), so it stays.
    """

    theta_lookahead: np.ndarray
    cand_features: np.ndarray
    cand_labels: np.ndarray
    kind: LossKind
    eta: float
    params_template: ModelParams
    hidden: np.ndarray  # (n_cand, H) penultimate activations
    logit_grads: np.ndarray | None = None  # (n_cand, C) delta at the last refresh
    val_grad_at_lookahead: np.ndarray | None = None
    hidden_val_w: np.ndarray | None = None  # (n_cand, C) h V_W at the last refresh
    refresh_count: int = 0
    _val_hidden: tuple | None = None  # (val, its penultimate activations)

    def lookahead_params(self) -> ModelParams:
        return self.params_template.with_last_layer_vector(self.theta_lookahead)

    def _set_logit_grads(self, params: ModelParams) -> None:
        w, b = params.layers[-1]
        self.logit_grads = logit_grads(self.hidden @ w + b, self.cand_labels, self.kind)

    def refresh(self, val: Dataset) -> None:
        """Exact recomputation of the candidate logit gradients and the
        validation log-likelihood gradient at the current lookahead."""
        look = self.lookahead_params()
        self._set_logit_grads(look)
        if self._val_hidden is None or self._val_hidden[0] is not val:
            self._val_hidden = (val, last_layer_inputs(look, val.features))
        h_v = self._val_hidden[1]
        w, b = look.layers[-1]
        delta_v = logit_grads(h_v @ w + b, val.labels, self.kind)
        v_w = -(h_v.T @ delta_v)
        self.val_grad_at_lookahead = np.concatenate([v_w.ravel(), -delta_v.sum(axis=0)])
        self.hidden_val_w = self.hidden @ v_w
        self.refresh_count += 1

    def add(self, positions) -> None:
        """Fold the gradients of the candidates at `positions` into the lookahead."""
        if len(positions):
            rows = -last_layer_rows(self.hidden[positions], self.logit_grads[positions])
            self.theta_lookahead = self.theta_lookahead + self.eta * rows.sum(axis=0)


def make_gain_state(params: ModelParams, train: Dataset, kind: LossKind, eta: float) -> GainState:
    """Gain state over every training row, its lookahead at `params`."""
    state = GainState(
        theta_lookahead=params.last_layer_vector(),
        cand_features=train.features,
        cand_labels=train.labels,
        kind=kind,
        eta=eta,
        params_template=params,
        hidden=last_layer_inputs(params, train.features),
    )
    # logit grads at the base parameters so elements can be folded before the
    # first refresh; each refresh recomputes them at the current lookahead
    state._set_logit_grads(params)
    return state


def taylor_gain(state: GainState, e: int) -> float:
    """Linearized marginal gain of candidate position e given the state."""
    return float(_taylor_gains(state, np.array([int(e)]))[0])


def _taylor_gains(state: GainState, positions: np.ndarray) -> np.ndarray:
    """eta * (candidate row . validation gradient) for each position, with the
    row kept in its factors h and delta.  h V_W is read from the refresh's
    projection of every row, so no pool copies `hidden[positions]`."""
    v = state.val_grad_at_lookahead
    if v is None:
        raise ValueError("state has never been refreshed")
    delta = state.logit_grads[positions]
    hv = state.hidden_val_w[positions]
    return -state.eta * (np.einsum("ij,ij->i", hv, delta) + delta @ v[-delta.shape[1]:])


def exact_objective(
    params: ModelParams, train: Dataset, val: Dataset, kind: LossKind, subset, eta: float
) -> float:
    """Validation log-likelihood after one summed lookahead step on `subset`
    (no linearization)."""
    subset = np.asarray(list(subset), dtype=np.int64)
    theta = params.last_layer_vector()
    if subset.size:
        rows = -last_layer_per_sample_grads(
            params, train.features[subset], train.labels[subset], kind
        )
        theta = theta + eta * rows.sum(axis=0)
    look = params.with_last_layer_vector(theta)
    return -loss_value(look, val.features, val.labels, kind)


def exact_gain(
    params: ModelParams,
    train: Dataset,
    val: Dataset,
    kind: LossKind,
    subset,
    e: int,
    eta: float,
) -> float:
    """Exact marginal gain of adding e to subset; the fidelity oracle for
    `taylor_gain`."""
    s = list(subset)
    return exact_objective(params, train, val, kind, s + [int(e)], eta) - exact_objective(
        params, train, val, kind, s, eta
    )


# ---------------------------------------------------------------------------
# Loss-specific closed-form proxies (evaluable set functions)
# ---------------------------------------------------------------------------


def _augmented_last_inputs(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Penultimate activations with a constant 1 column (the bias input)."""
    h = last_layer_inputs(params, x)
    return np.concatenate([h, np.ones((h.shape[0], 1))], axis=1)


def taylor_proxy(
    params: ModelParams,
    train: Dataset,
    val: Dataset,
    kind: LossKind,
    eta: float,
    k: int,
) -> SetFunctionOracle:
    """Closed-form proxy set function of the one-step validation gain for a
    fixed budget k, built on the last-layer parameters.

    Logistic, hinge and perceptron produce monotone submodular oracles;
    squared loss a non-monotone one; cross-entropy a monotone weakly
    submodular one.
    """
    xv = _augmented_last_inputs(params, val.features)
    zv = forward(params, val.features)
    if kind == LossKind.CROSS_ENTROPY:
        p = logit_grads(forward(params, train.features), train.labels, kind)
        xt = _augmented_last_inputs(params, train.features)
        kernel = xv @ xt.T  # (m, n): augmented inner products
        g = kernel[:, :, None] * p[None, :, :]  # g[i, j, c]
        g_min = float(g.min())
        g_true = g[np.arange(val.n)[:, None], np.arange(train.n)[None, :], val.labels[:, None]]
        # C shifted sums >= 1 per class, then a modular bonus >= 0
        stacked = np.concatenate([g - g_min + 1.0, (g.max() - g_true)[:, :, None]], axis=2)
        log_c = (zv + k * (g_min - 1.0))[:, None]

        def term(sums):
            return eta * sums[..., -1] - log_sum_exp_rows(log_c - eta * sums[..., :-1])

        return _ConcaveOverModular(stacked, term, labels=train.labels)

    g_train = last_layer_per_sample_grads(params, train.features, train.labels, kind)
    s_val = 2.0 * val.labels.astype(np.float64) - 1.0
    if kind == LossKind.SQUARED:
        g_val = last_layer_per_sample_grads(params, val.features, val.labels, kind)
        modular = eta * (g_train @ g_val.sum(axis=0))
        b = xv @ g_train.T  # (m, n): x_i . grad_j
        s_mat = b.T @ b
        cut = (eta**2) * (s_mat - float(s_mat.min()))
        return _ModularMinusCut(modular, cut, labels=train.labels)

    # margin losses share g_ij = -s_i x_i . gradLoss_j
    g = -(s_val[:, None] * (xv @ g_train.T))  # (m, n)
    g_min = float(g.min())
    gp = g - g_min
    f_val = zv[:, 0]
    if kind == LossKind.LOGISTIC:
        log_c = (-s_val * f_val - eta * k * g_min)[:, None]  # log C_i
        l_max = float(np.logaddexp(0.0, log_c).max())

        def term(sums):
            return l_max - np.logaddexp(0.0, log_c - eta * sums)

    elif kind in (LossKind.HINGE, LossKind.PERCEPTRON):
        c = (s_val * f_val - 1.0) if kind == LossKind.HINGE else s_val * f_val
        c_shift = (c + eta * k * g_min)[:, None]

        def term(sums):
            return np.minimum(0.0, c_shift + eta * sums)

    else:
        raise ValueError(f"unknown loss kind {kind}")
    return _ConcaveOverModular(gp, term, labels=train.labels)


# ---------------------------------------------------------------------------
# GreedyDSS
# ---------------------------------------------------------------------------


def greedy_dss(
    train: Dataset,
    val: Dataset,
    params: ModelParams,
    cfg: GlisterConfig,
    rng: SeededRng | None = None,
) -> list[int]:
    """Regularized r-round greedy selection of `cfg.resolve_k(train.n)`
    training indices.

    Each round refreshes the validation gradient exactly at the current
    lookahead, picks k/r of the remaining candidates (remainder in the final
    round) by `greedy_pick`, scored by the linearized gain plus lambda times
    the regularizer marginal, and folds their gradients into the lookahead.
    Deterministic given the config seed; returns indices in selection order.
    """
    n_cand = train.n
    k_total = cfg.resolve_k(n_cand)
    rng = SeededRng(cfg.seed).split(_SELECT_STREAM) if rng is None else rng
    eta = cfg.lr if cfg.eta is None else cfg.eta
    lam = cfg.resolve_lam()

    # random mixing mode: lam is the share picked by gain, the rest uniform random
    k_gain = int(round(lam * k_total)) if cfg.regularizer == "random" else k_total
    k_rand = k_total - k_gain

    # the regularizer marginal of each pool entry given the picks
    regularizer = None
    if cfg.regularizer == "facility_location":
        regularizer = facility_location(train.features, train.labels, per_class=True).marginals
    elif cfg.regularizer == "diversity":
        dists = np.sqrt(pairwise_sq_dists(train.features))

        def regularizer(pool, picked):
            return dists[np.ix_(pool, picked)].sum(axis=1) if picked else 0.0

    state = make_gain_state(params, train, cfg.loss, eta)
    order: list[int] = []
    left = np.ones(n_cand, dtype=bool)  # candidates not yet picked

    def score(pool):
        gains = _taylor_gains(state, pool)
        return gains if regularizer is None else gains + lam * regularizer(pool, order)

    if k_gain > 0:
        # the random mixing mode leaves only k_gain picks to spread over rounds
        r = min(cfg.resolve_r(k_total), k_gain)
        base = k_gain // r
        for count in [base] * (r - 1) + [k_gain - base * (r - 1)]:
            state.refresh(val)
            picked = greedy_pick(
                np.flatnonzero(left), score, count, cfg.greedy, rng, k_total, n_cand, cfg.epsilon
            )
            state.add(picked)
            order.extend(picked.tolist())
            left[picked] = False
    if k_rand > 0:
        order.extend(rng.sample(np.flatnonzero(left), k_rand).tolist())
    return order


# ---------------------------------------------------------------------------
# Online training loop and monitors
# ---------------------------------------------------------------------------


def subset_digest(indices) -> str:
    """sha256 of the sorted index list (hex)."""
    payload = ",".join(str(int(i)) for i in sorted(indices))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class EpochRecord:
    epoch: int
    wall_s: float
    sel_s: float
    train_loss: float
    full_train_loss: float
    val_loss: float
    test_acc: float
    subset_digest: str
    dot_vt: float | None = None
    cos_theta: float | None = None
    grad_norm_t: float | None = None
    lr_bound: float | None = None
    grad_norm_v: float | None = None  # derived field, not a CSV column


@dataclass
class RunTrace:
    records: list[EpochRecord] = field(default_factory=list)
    lr: float = math.nan  # carried for the monitors
    sgd_s: float = 0.0  # elapsed time of the run's SGD epochs, shared by its stack

    def selection_records(self) -> list[EpochRecord]:
        return [r for r in self.records if r.dot_vt is not None]


def init_model_params(train: Dataset, model_spec: ModelSpec, cfg: GlisterConfig) -> ModelParams:
    """Seeded initial parameters shared by every training path for a config."""
    dims = model_spec.layer_dims(train.d, output_width(cfg.loss, train.num_classes))
    return init_params(dims, "relu", SeededRng(cfg.seed).split(_INIT_STREAM))


def _descent_monitor(train: Dataset, val: Dataset, kind: LossKind):
    """Per-selection monitor columns (dot_vt, cos_theta, grad_norm_t,
    lr_bound, grad_norm_v), with running estimates of the validation-gradient
    Lipschitz constant and the largest subset-gradient norm for the step-size
    bound of the descent condition."""
    lhat = None
    sigma_t_hat = 0.0
    prev = None  # (theta, g_v) at the previous selection

    def monitor(params: ModelParams, subset: list[int]) -> tuple:
        nonlocal lhat, sigma_t_hat, prev
        g_t = flatten_grads(grad_full(params, train.features[subset], train.labels[subset], kind))
        g_v = flatten_grads(grad_full(params, val.features, val.labels, kind))
        nt = float(np.linalg.norm(g_t))
        nv = float(np.linalg.norm(g_v))
        dot = float(g_v @ g_t)
        cos = dot / (nt * nv) if nt > 0 and nv > 0 else 0.0
        sigma_t_hat = max(sigma_t_hat, nt)
        theta = np.concatenate([w.ravel() for w, _ in params.layers])
        if prev is not None:
            dtheta = float(np.linalg.norm(theta - prev[0]))
            if dtheta > 0:
                ratio = float(np.linalg.norm(g_v - prev[1])) / dtheta
                lhat = ratio if lhat is None else max(lhat, ratio)
        prev = (theta, g_v)
        bound = 2.0 * nv * cos / (lhat * sigma_t_hat) if lhat and sigma_t_hat > 0 else math.inf
        return dot, cos, nt, bound, nv

    return monitor


@dataclass(frozen=True)
class Run:
    """One run of the select-every-L loop: its data, starting parameters,
    config (seed, lr, batch size, loss), selector ``select(params, rng)``,
    selection period `every`, the `name` its errors carry, an optional
    `monitor(params, subset)` of the selection epochs' monitor columns, and
    whether it keeps per-epoch `record`s (one that keeps none reads no
    label outside its subset)."""

    train: Dataset
    val: Dataset
    test: Dataset
    params: ModelParams
    cfg: GlisterConfig
    select: Callable
    every: int
    name: str
    monitor: Callable | None = None
    record: bool = True


def _selection_loop(runs: list[Run], epochs: int) -> list[tuple[ModelParams, list[int], RunTrace]]:
    """Select-every-L training shared by every strategy, over a list of runs
    stepped together; returns (params, subset, trace) per run.

    Epoch t: each run calls ``select(params, rng)`` when t mod its `every`
    == 0 and sorts the subset; then one `sgd_epoch_stack` call runs one
    epoch of mini-batch SGD for every run on its subset; then each run is
    evaluated and gets its own record.  Run i draws selections from the
    stream SeededRng(seed).split(_SELECT_STREAM + t) and SGD from split(t)
    of its own seed, so each run's trace is the one it has alone (none
    unless `record`).  The runs must share lr, batch size, loss,
    architecture and subset size.  `sel_s`
    times only the run's `select` call; its `monitor` then fills the
    selection epoch's monitor columns.  `wall_s` is the elapsed time of the
    whole list, selections included, up to the end of the epoch's SGD; the
    trace's `sgd_s` sums the elapsed time of the stacked SGD calls alone.  A
    ValueError of a selection, or of a run whose parameters go non-finite,
    is raised with the run's name and the epoch in front of its message.
    """
    if epochs < 1:
        raise ValueError("need at least one epoch")
    cfg = runs[0].cfg
    if any((r.cfg.lr, r.cfg.batch_size, r.cfg.loss) != (cfg.lr, cfg.batch_size, cfg.loss) for r in runs):
        raise ValueError("the runs of a stack need one lr, batch size and loss")
    roots = [SeededRng(r.cfg.seed) for r in runs]
    params = [r.params for r in runs]
    subsets: list[list[int]] = [[] for _ in runs]
    held: list[tuple] = [()] * len(runs)  # (rows, labels, digest) of each subset
    traces = [RunTrace(lr=cfg.lr) for _ in runs]
    start = time.perf_counter()
    for t in range(epochs):
        sel_s = [0.0] * len(runs)
        columns = [None] * len(runs)
        for i, run in enumerate(runs):
            if t % run.every == 0:
                t0 = time.perf_counter()
                try:
                    subsets[i] = sorted(run.select(params[i], roots[i].split(_SELECT_STREAM + t)))
                except ValueError as exc:
                    raise ValueError(f"{run.name}, epoch {t}: {exc}") from exc
                sel_s[i] = time.perf_counter() - t0
                # the subset holds until the next selection, and so do these
                subset = subsets[i]
                held[i] = (run.train.features[subset], run.train.labels[subset], subset_digest(subset))
                if run.monitor is not None:
                    columns[i] = run.monitor(params[i], subset)
        t0 = time.perf_counter()
        params = sgd_epoch_stack(
            params, [r.train for r in runs], subsets, cfg.lr, cfg.batch_size,
            [root.split(t) for root in roots], cfg.loss, [f"{r.name}, epoch {t}" for r in runs],
        )
        end = time.perf_counter()
        wall_s = end - start
        for run, p, (sub_x, sub_y, digest), s, cols, trace in zip(
            runs, params, held, sel_s, columns, traces
        ):
            trace.sgd_s += end - t0
            if not run.record:
                continue
            rec = EpochRecord(
                epoch=t,
                wall_s=wall_s,
                sel_s=s,
                train_loss=loss_value(p, sub_x, sub_y, cfg.loss),
                full_train_loss=loss_value(p, run.train.features, run.train.labels, cfg.loss),
                val_loss=loss_value(p, run.val.features, run.val.labels, cfg.loss),
                test_acc=accuracy(p, run.test),
                subset_digest=digest,
            )
            if cols is not None:
                rec.dot_vt, rec.cos_theta, rec.grad_norm_t, rec.lr_bound, rec.grad_norm_v = cols
            trace.records.append(rec)
    return list(zip(params, subsets, traces))


def glister_run(
    train: Dataset,
    val: Dataset,
    test: Dataset,
    model_spec: ModelSpec,
    cfg: GlisterConfig,
    name: str = "glister",
) -> Run:
    """GLISTER-ONLINE as a `Run`: GreedyDSS reselects the subset every
    `select_every` epochs (from epoch 0), with the descent monitors on each
    selection."""

    def select(params, rng):
        return greedy_dss(train, val, params, cfg, rng=rng)

    return Run(
        train, val, test, init_model_params(train, model_spec, cfg), cfg, select,
        cfg.select_every, name, _descent_monitor(train, val, cfg.loss),
    )


def glister_online_train(
    train: Dataset,
    val: Dataset,
    test: Dataset,
    model_spec: ModelSpec,
    cfg: GlisterConfig,
    epochs: int,
) -> tuple[ModelParams, list[int], RunTrace]:
    """GLISTER-ONLINE alone: `glister_run` as a list of one."""
    return _selection_loop([glister_run(train, val, test, model_spec, cfg)], epochs)[0]


def monitor_theorem2(trace: RunTrace, tol: float = 1e-7) -> dict:
    """Check the descent conditions at every selection epoch and flag the
    epochs where both held yet the validation loss rose."""
    if not trace.selection_records():
        raise ValueError("trace has no selection records")
    by_epoch = {r.epoch: r for r in trace.records}
    rows = []
    violations = 0
    for rec in trace.selection_records():
        cond_dot = rec.dot_vt >= 0.0
        cond_lr = trace.lr <= rec.lr_bound
        nxt = by_epoch.get(rec.epoch + 1)
        decreased = None
        violated = False
        if nxt is not None:
            decreased = nxt.val_loss <= rec.val_loss + tol
            violated = cond_dot and cond_lr and not decreased
        if violated:
            violations += 1
        rows.append(
            {
                "epoch": rec.epoch,
                "dot_nonneg": bool(cond_dot),
                "lr_within_bound": bool(cond_lr),
                "val_decreased": decreased,
                "violation": bool(violated),
            }
        )
    return {"rows": rows, "violations": violations}


def _grad_norm_v(rec: EpochRecord) -> float | None:
    if rec.grad_norm_v is not None:
        return rec.grad_norm_v
    # reconstruct from dot = cos * |g_t| * |g_v| when well defined
    if rec.cos_theta and rec.grad_norm_t:
        denom = rec.cos_theta * rec.grad_norm_t
        if denom != 0:
            return abs(rec.dot_vt / denom)
    return None


def monitor_theorem3(trace: RunTrace) -> dict:
    """Diagnostic convergence bound from trace-estimated constants.

    sigma_T is the largest observed subset-gradient norm, delta_min the
    smallest observed ratio |grad L_T| / |grad L_V|, and the parameter radius
    is proxied by lr * sigma_T * T (the farthest SGD could travel).
    """
    sel = trace.selection_records()
    if not sel:
        raise ValueError("trace has no selection records")
    t_total = len(trace.records)
    sigma_t = max(r.grad_norm_t for r in sel)
    deltas = []
    for r in sel:
        nv = _grad_norm_v(r)
        if nv and nv > 0:
            deltas.append(r.grad_norm_t / nv)
    delta_min = min(deltas) if deltas else math.nan
    radius = trace.lr * sigma_t * t_total
    cos_terms = [math.sqrt(max(0.0, 1.0 - min(1.0, r.cos_theta))) for r in sel]
    if delta_min and delta_min > 0:
        bound = radius * sigma_t / (delta_min * math.sqrt(t_total)) + (
            radius * sigma_t * sum(cos_terms)
        ) / (t_total * delta_min)
    else:
        bound = math.inf
    min_val_all = min(r.val_loss for r in trace.records)
    min_val_sel = min(r.val_loss for r in sel)
    return {
        "bound": bound,
        "gap": min_val_sel - min_val_all,
        "sigma_t": sigma_t,
        "delta_min": delta_min,
        "radius": radius,
        "cos_theta": [r.cos_theta for r in sel],
    }

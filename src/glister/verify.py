"""Built-in property and oracle suites.

Each suite re-derives its expected values from an independent oracle (central
finite differences, exhaustive enumeration, paired baseline runs) and returns
one named check per assertion, so the CLI `verify` command and the test suite
share a single implementation.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .active import ACQUIRE_STRATEGIES, active_run, initial_labeled, run_active, train_active
from .baselines import random_subset
from .core import (
    GlisterConfig,
    Run,
    _selection_loop,
    exact_gain,
    glister_online_train,
    glister_run,
    greedy_dss,
    init_model_params,
    make_gain_state,
    monitor_theorem2,
    subset_digest,
    taylor_gain,
    taylor_proxy,
)
from .data import Dataset, SplitSpec, gen_synthetic, inject_class_imbalance, inject_label_noise, split
from .experiments import TRACE_COLUMNS, _cell_run, run_cell, trace_to_csv
from .models import (
    LossKind,
    ModelSpec,
    accuracy,
    flatten_grads,
    grad_full,
    init_params,
    loss_value,
    output_width,
    sgd_epoch,
)
from .numerics import SeededRng, finite_diff_grad
from .submodular import (
    exhaustive_max,
    facility_location,
    lazy_greedy,
    lr_submodular,
    naive_greedy,
    randomized_greedy,
)

__all__ = [
    "Check",
    "SUITES",
    "run_suite",
    "NOISE_SETUP",
    "IMBALANCE_SETUP",
    "ACTIVE_SETUP",
    "MONITOR_SETUP",
    "EFFICIENCY_SETUP",
    "noise_experiment",
    "noise_checks",
    "imbalance_experiment",
    "imbalance_checks",
    "active_experiment",
    "suite_active",
    "suite_monitor",
    "suite_efficiency",
    "strip_timing",
    "compose_four_class",
    "worst_dr_violation",
]


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


# The instances, seeds and thresholds of criteria 5-9.
# The noise rate is the smallest of 0.30/0.35/0.40/0.45 at which the clean
# ceiling leaves the noisy random baseline at least `min_headroom` (see the
# README's noise-robustness note); it is read off the baseline alone.
NOISE_SETUP = dict(
    n_per_class=625, noise_rate=0.4, budget=0.3, hidden=100,
    epochs=200, select_every=20, r_frac=0.03, lr=0.001, batch_size=20,
    seeds=(1, 2, 3, 4, 5), margin=0.05, min_headroom=0.05, flipped_cap=0.15, max_s=300.0,
)
IMBALANCE_SETUP = dict(
    n_per_class=250, affected_frac=0.3, keep_frac=0.1, budget=0.2, hidden=100,
    epochs=200, select_every=20, r_frac=0.03, lr=0.002, batch_size=10,
    seeds=(1, 2, 3, 4, 5), margin=0.03, rare_ratio=2.0, max_s=300.0,
)
ACTIVE_SETUP = dict(
    n_majority=500, n_rare=7, rare_offset=(0.0, 6.0), rounds=10, batch=50,
    epochs_per_round=200, initial=20, hidden=100, lr=0.002, batch_size=10,
    seeds=(1, 2, 3, 4, 5), margin=0.02, max_s=600.0,
)
MONITOR_SETUP = dict(
    n_per_class=125, budget=0.3, hidden=100, epochs=100, select_every=20, r_frac=0.03,
    lr=0.005, batch_size=10, seeds=(1, 2, 3, 4, 5), tol=1e-7, max_violations=0,
)
EFFICIENCY_SETUP = dict(
    n=5000, d=20, k=500, r_frac=0.03, lr=0.01, batch_size=32, seed=0, speedup=5.0,
    epoch_repeats=5,
)


def _runtime(start: float, limit: float) -> Check:
    """The wall-clock bound of a suite that began at `start`."""
    elapsed = time.perf_counter() - start
    return Check(f"runtime < {limit:g} s", elapsed < limit, f"{elapsed:.1f} s")


def _seed_means(experiment, seeds) -> list[float]:
    """The mean over `seeds` of each value that `experiment(seed)` returns."""
    return _means([experiment(seed) for seed in seeds])


def _means(res) -> list[float]:
    """The mean over the tuples `res` of each of their values."""
    return [float(np.mean([r[i] for r in res])) for i in range(len(res[0]))]


def _online_config(setup: dict, seed: int) -> GlisterConfig:
    """The online-selection settings of a *_SETUP table for one seed."""
    return GlisterConfig(
        budget_frac=setup["budget"], select_every=setup["select_every"],
        r_frac=setup["r_frac"], lr=setup["lr"], batch_size=setup["batch_size"],
        loss=LossKind.CROSS_ENTROPY, seed=seed,
    )


def _fixed_run(train: Dataset, val: Dataset, test: Dataset, spec: ModelSpec, cfg: GlisterConfig,
               subset, epochs: int, name: str) -> Run:
    """A baseline that trains on the fixed `subset` for `epochs` epochs from
    the config's initial parameters, with no per-epoch records."""
    params = init_model_params(train, spec, cfg)
    return Run(train, val, test, params, cfg, lambda _params, _rng: subset, epochs, name, record=False)


def _final_only(run: Run) -> Run:
    """`run` with no per-epoch records or monitor columns, which its
    experiment never reads: its selections and parameters stay the same,
    and a stack of such runs steps whole windows between selections."""
    return replace(run, monitor=None, record=False)


def _away_from_kinks(params, x, y, kind, margin=1e-4) -> bool:
    """Finite differences need the loss to be smooth in an h-neighbourhood;
    reject samples sitting on a hinge/perceptron/ReLU kink."""
    from .models import forward, _signs

    if params.activation == "relu":
        h = x
        for w, b in params.layers[:-1]:
            z = h @ w + b
            if np.min(np.abs(z)) < margin:
                return False
            h = np.maximum(z, 0.0)
    z = forward(params, x)
    if kind in (LossKind.HINGE, LossKind.PERCEPTRON):
        m = _signs(np.asarray(y)) * z[:, 0]
        ref = 1.0 if kind == LossKind.HINGE else 0.0
        if np.min(np.abs(m - ref)) < margin:
            return False
    return True


def suite_gradients(seed: int = 0) -> list[Check]:
    """Criterion: analytic vs central finite differences (h = 1e-6) for all
    five losses and both architectures, >= 50 cases, rel err <= 1e-5."""
    checks = []
    cases = 0
    worst = 0.0
    start = time.perf_counter()
    case_seed = seed
    for arch in ("logistic", "mlp"):
        for kind in LossKind:
            done = 0
            while done < 6:
                case_seed += 1
                rng = SeededRng(case_seed)
                d = 2 + rng.randint(3)
                n = 3 + rng.randint(5)
                c = (2 + rng.randint(3)) if kind == LossKind.CROSS_ENTROPY else 2
                dims = (
                    [d, output_width(kind, c)]
                    if arch == "logistic"
                    else [d, 4 + rng.randint(4), output_width(kind, c)]
                )
                params = init_params(dims, "relu", rng.split(1))
                x = rng.split(2).normals(n * d).reshape(n, d)
                y = np.array([rng.split(3).randint(c) for _ in range(n)])
                if not _away_from_kinks(params, x, y, kind):
                    continue
                g = flatten_grads(grad_full(params, x, y, kind))
                fd = finite_diff_grad(
                    lambda v: loss_value(params.with_theta(v), x, y, kind), params.theta, 1e-6
                )
                denom = max(float(np.linalg.norm(g)), 1e-10)
                rel = float(np.linalg.norm(g - fd)) / denom
                worst = max(worst, rel)
                cases += 1
                done += 1
    checks.append(Check("gradient cases >= 50", cases >= 50, f"{cases} cases"))
    checks.append(Check("max relative error <= 1e-5", worst <= 1e-5, f"worst {worst:.2e}"))
    checks.append(_runtime(start, 10.0))
    return checks


def _proxy_instance(seed: int, n_per_class: int, kind: LossKind, eta=0.05, k=8):
    full = gen_synthetic("separable-2", n_per_class, seed)
    train, val, _ = split(full, SplitSpec(0.75, 0.125, 0.125, seed=1))
    c = 2
    spec = ModelSpec("logistic")
    dims = spec.layer_dims(train.d, output_width(kind, c))
    params = init_params(dims, "identity", SeededRng(seed + 13))
    return taylor_proxy(params, train, val, kind, eta, k), train, val, params


def worst_dr_violation(f, trials: int, rng: SeededRng) -> float:
    """Worst diminishing-returns violation over sampled X subset-of Y, e."""
    worst = 0.0
    for _ in range(trials):
        size_y = 1 + rng.randint(min(12, f.n - 1))
        y_set = [int(v) for v in rng.choice_no_replace(f.n, size_y)]
        x_set = y_set[: rng.randint(len(y_set) + 1)]
        rest = [i for i in range(f.n) if i not in y_set]
        e = rest[rng.randint(len(rest))]
        worst = min(worst, f.marginal(e, x_set) - f.marginal(e, y_set))
    return worst


def suite_submodularity(seed: int = 0) -> list[Check]:
    """Criterion: the loss-specific gain proxies show diminishing returns
    within 1e-9 (logistic/hinge/perceptron via 200 sampled triples on a
    60-point ground set, squared loss exhaustively on 10 points, where it is
    also non-monotone)."""
    checks = []
    start = time.perf_counter()
    for kind in (LossKind.LOGISTIC, LossKind.HINGE, LossKind.PERCEPTRON):
        f, *_ = _proxy_instance(seed + 40, 40, kind)  # 60 training points
        worst = worst_dr_violation(f, 200, SeededRng(seed + 7))
        checks.append(
            Check(f"{kind.value} proxy diminishing returns (200 triples)",
                  worst >= -1e-9, f"worst violation {worst:.2e}")
        )
    f, train, val, params = _proxy_instance(seed + 40, 40, LossKind.SQUARED)
    small = train.take(range(10))
    f = taylor_proxy(params, small, val, LossKind.SQUARED, 0.05, 4)
    worst = 0.0
    min_marginal = math.inf
    for size in range(0, 9):
        for s in itertools.combinations(range(10), size):
            rest = [e for e in range(10) if e not in s]
            for e in rest:
                gain_here = f.marginal(e, list(s))
                min_marginal = min(min_marginal, gain_here)
                for e2 in rest:
                    if e2 != e:
                        worst = min(worst, gain_here - f.marginal(e, list(s) + [e2]))
    checks.append(Check("squared proxy submodular (exhaustive n=10)",
                        worst >= -1e-9, f"worst violation {worst:.2e}"))
    checks.append(Check("squared proxy non-monotone",
                        min_marginal < 0, f"min marginal {min_marginal:.3f}"))
    checks.append(_runtime(start, 30.0))
    return checks


def _random_fl_instance(seed: int, n=12):
    rng = SeededRng(seed)
    pts = rng.normals(2 * n).reshape(n, 2) * 2.0
    labels = np.array([rng.randint(2) for _ in range(n)])
    return facility_location(pts, labels, per_class=False)


def suite_greedy_ratio(seed: int = 0) -> list[Check]:
    """Criterion: naive (= lazy) greedy reaches (1 - 1/e) OPT on 25 facility
    location and 25 logistic-proxy instances (n=12, k=4); randomized greedy
    on the regression objective reaches OPT/e on average over 50 seeds."""
    checks = []
    start = time.perf_counter()
    bound = 1.0 - 1.0 / math.e
    worst_ratio = math.inf
    lazy_equal = True
    for i in range(25):
        f = _random_fl_instance(seed + 100 + i)
        ng = naive_greedy(f, 4)
        lg = lazy_greedy(f, 4)
        lazy_equal = lazy_equal and (list(lg) == ng)
        opt_val = exhaustive_max(f, 4)[1]
        if opt_val > 0:
            worst_ratio = min(worst_ratio, f.value(ng) / opt_val)
    checks.append(Check("facility location: greedy >= (1-1/e) OPT (25 instances)",
                        worst_ratio >= bound, f"worst ratio {worst_ratio:.4f}"))
    checks.append(Check("lazy greedy identical to naive greedy", lazy_equal))

    worst_ratio = math.inf
    for i in range(25):
        f, train, val, params = _proxy_instance(seed + 200 + i, 8, LossKind.LOGISTIC, k=4)
        small_f = taylor_proxy(params, train.take(range(12)), val, LossKind.LOGISTIC, 0.05, 4)
        ng = naive_greedy(small_f, 4)
        opt_val = exhaustive_max(small_f, 4)[1]
        if opt_val > 1e-9:
            worst_ratio = min(worst_ratio, small_f.value(ng) / opt_val)
    checks.append(Check("logistic proxy: greedy >= (1-1/e) OPT (25 instances)",
                        worst_ratio >= bound, f"worst ratio {worst_ratio:.4f}"))

    full = gen_synthetic("binary-slack", 20, seed + 300)
    train, val, _ = split(full, SplitSpec(0.5, 0.25, 0.25, seed=2))
    f = lr_submodular(train.take(range(10)), val, m_clusters=3, seed=seed + 5)
    opt_val = exhaustive_max(f, 4)[1]
    # the regression objective drops negative constants and sits below zero,
    # so the 1/e guarantee is checked on values shifted by the worst k-set
    # (both endpoints come from the same enumeration oracle)
    worst_val = min(f.value(c) for c in itertools.combinations(range(f.n), 4))
    vals = [f.value(randomized_greedy(f, 4, SeededRng(seed + 400 + s))) for s in range(50)]
    mean_val = float(np.mean(vals))
    ok = (mean_val - worst_val) >= (opt_val - worst_val) / math.e
    checks.append(Check(
        "regression objective: randomized greedy mean >= OPT/e (50 seeds, worst-shifted)",
        ok,
        f"mean {mean_val - worst_val:.3f} vs OPT/e {(opt_val - worst_val) / math.e:.3f}"))
    checks.append(_runtime(start, 60.0))
    return checks


def suite_taylor_fidelity(seed: int = 0) -> list[Check]:
    """Criterion: top-1 agreement between the linearized and exact gains
    >= 80% over 100 trials at eta = 0.01, and the error shrinks at a
    second-order rate in eta (log-log slope >= 1.7)."""
    checks = []
    start = time.perf_counter()
    full = gen_synthetic("separable-2", 100, seed + 1)
    train, val, _ = split(full, SplitSpec(0.8, 0.1, 0.1, seed=3))
    kind = LossKind.CROSS_ENTROPY
    spec = ModelSpec("logistic")
    agree = 0
    for trial in range(100):
        rng = SeededRng(seed + 500 + trial)
        params = init_params(
            spec.layer_dims(train.d, output_width(kind, 2)), "identity", rng.split(0)
        )
        s_size = rng.randint(6)
        subset = [int(v) for v in rng.choice_no_replace(train.n, s_size)]
        cand = [int(v) for v in rng.split(1).choice_no_replace(train.n, 25) if int(v) not in subset]
        state = make_gain_state(params, train, kind, 0.01)
        state.add(subset)
        state.refresh(val)
        tg = [taylor_gain(state, e) for e in cand]
        eg = [exact_gain(params, train, val, kind, subset, e, 0.01) for e in cand]
        if cand[int(np.argmax(tg))] == cand[int(np.argmax(eg))]:
            agree += 1
    checks.append(Check("top-1 agreement >= 80% at eta=0.01",
                        agree >= 80, f"{agree}/100"))

    etas = (1e-1, 1e-2, 1e-3)
    errs = []
    for eta in etas:
        trial_errs = []
        for trial in range(20):
            rng = SeededRng(seed + 900 + trial)
            params = init_params(
                spec.layer_dims(train.d, output_width(kind, 2)), "identity", rng.split(0)
            )
            subset = [int(v) for v in rng.choice_no_replace(train.n, 4)]
            e = int(rng.split(1).randint(train.n))
            while e in subset:
                e = (e + 1) % train.n
            state = make_gain_state(params, train, kind, eta)
            state.add(subset)
            state.refresh(val)
            trial_errs.append(
                abs(taylor_gain(state, e) - exact_gain(params, train, val, kind, subset, e, eta))
            )
        errs.append(float(np.mean(trial_errs)))
    slope = float(np.polyfit(np.log(etas), np.log(errs), 1)[0])
    checks.append(Check("second-order error slope >= 1.7", slope >= 1.7, f"slope {slope:.2f}"))
    checks.append(_runtime(start, 30.0))
    return checks


def noise_experiment(seed: int):
    """Paired glister / plain-random run on noisy separable data; returns
    (glister_acc, random_acc, flipped_fraction_in_final_subset, clean_acc).

    `clean_acc` is the random baseline's clean-label ceiling: the same
    indices, init and SGD stream trained on the pre-noise labels."""
    cfgd = NOISE_SETUP
    full = gen_synthetic("separable-2", cfgd["n_per_class"], 100 + seed)
    clean, val, test = split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))
    train = inject_label_noise(clean, cfgd["noise_rate"], 42 + seed)
    cfg = _online_config(cfgd, seed)
    spec = ModelSpec("mlp", hidden=cfgd["hidden"])
    rsubset = SeededRng(cfg.seed).split(1 << 33).sample(np.arange(train.n), cfg.resolve_k(train.n)).tolist()
    epochs = cfgd["epochs"]
    (params, subset, _), (noisy, _, _), (ceiling, _, _) = _selection_loop([
        _final_only(glister_run(train, val, test, spec, cfg)),
        _fixed_run(train, val, test, spec, cfg, rsubset, epochs, "random"),
        _fixed_run(clean, val, test, spec, cfg, rsubset, epochs, "random on clean labels"),
    ], epochs)
    return (
        accuracy(params, test),
        accuracy(noisy, test),
        float(train.noise_flipped[subset].mean()),
        accuracy(ceiling, test),
    )


def noise_checks(seed: int = 0) -> list[Check]:
    """Criterion 5 on the seed means of `noise_experiment`: the instance
    must leave the baseline room to lose (headroom), then selection must
    beat it (margin) with a clean subset (flipped fraction)."""
    cfgd = NOISE_SETUP
    start = time.perf_counter()
    g, rn, flipped, clean = _seed_means(noise_experiment, cfgd["seeds"])
    headroom = clean - rn
    acc = f"glister {g:.3f} vs random {rn:.3f}, clean ceiling {clean:.3f}, headroom {headroom:+.3f}"
    headroom_ok = headroom >= cfgd["min_headroom"]
    margin_ok = g >= rn + cfgd["margin"]
    return [
        Check(f"noise: clean ceiling - random >= {cfgd['min_headroom']:.2f}", headroom_ok,
              acc if headroom_ok else f"instance leaves the baseline no headroom: {acc}"),
        Check(f"noise: glister accuracy >= random + {cfgd['margin']:.2f}", margin_ok,
              acc if margin_ok else f"selection not more robust than random: {acc}"),
        Check(f"noise: flipped fraction in subset <= {cfgd['flipped_cap']:.2f}",
              flipped <= cfgd["flipped_cap"],
              f"{flipped:.3f} vs cap {cfgd['flipped_cap']:.2f} at rate {cfgd['noise_rate']:.2f}"),
        _runtime(start, cfgd["max_s"]),
    ]


def imbalance_experiment(seed: int):
    """Paired glister / proportional-random run on an imbalanced 4-class
    problem with balanced validation; returns (glister_acc, random_acc,
    rare fraction in glister subset, rare fraction in the train pool)."""
    cfgd = IMBALANCE_SETUP
    full = gen_synthetic("overlapping-4", cfgd["n_per_class"], 100 + seed)
    train, val, test = split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))
    balanced_counts = train.class_counts()
    train = inject_class_imbalance(train, cfgd["affected_frac"], cfgd["keep_frac"], 7 + seed)
    rare = np.flatnonzero(train.class_counts() < balanced_counts * 0.5)
    cfg = _online_config(cfgd, seed)
    spec = ModelSpec("mlp", hidden=cfgd["hidden"])
    k = cfg.resolve_k(train.n)
    rsubset = random_subset(train, k, SeededRng(cfg.seed).split(1 << 33), match_distribution=train)
    (params, subset, _), (rparams, _, _) = _selection_loop([
        _final_only(glister_run(train, val, test, spec, cfg)),
        _fixed_run(train, val, test, spec, cfg, rsubset, cfgd["epochs"], "proportional random"),
    ], cfgd["epochs"])
    rare_mask = np.isin(train.labels, rare)
    return (
        accuracy(params, test),
        accuracy(rparams, test),
        float(rare_mask[subset].mean()),
        float(rare_mask.mean()),
    )


def imbalance_checks(seed: int = 0) -> list[Check]:
    """Criterion 6 on the seed means of `imbalance_experiment`: selection
    must over-sample the rare classes and beat proportional random."""
    cfgd = IMBALANCE_SETUP
    start = time.perf_counter()
    g, rn, rare_sel, rare_pool = _seed_means(imbalance_experiment, cfgd["seeds"])
    return [
        Check(f"imbalance: rare-class fraction >= {cfgd['rare_ratio']:g} x pool fraction",
              rare_sel >= cfgd["rare_ratio"] * rare_pool, f"subset {rare_sel:.3f} vs pool {rare_pool:.3f}"),
        Check(f"imbalance: glister accuracy >= proportional random + {100 * cfgd['margin']:.0f} points",
              g >= rn + cfgd["margin"], f"glister {g:.3f} vs random {rn:.3f}"),
        _runtime(start, cfgd["max_s"]),
    ]


def suite_robustness(seed: int = 0) -> list[Check]:
    """Criteria 5 and 6: label-noise and class-imbalance desk experiments."""
    return noise_checks(seed) + imbalance_checks(seed)


def compose_four_class(n_majority: int, n_rare_gen: int, seed: int) -> Dataset:
    """4-class pool: a well-separated binary pair (classes 0/1) plus an
    overlapping pair (classes 2/3) translated to its own region."""
    maj = gen_synthetic("separable-2", n_majority, seed)
    rare = gen_synthetic("binary-slack", max(n_rare_gen, 2), seed + 1)
    offset = np.array(ACTIVE_SETUP["rare_offset"])
    feats = np.vstack([maj.features, rare.features + offset])
    labels = np.concatenate([maj.labels, rare.labels + 2])
    return Dataset(feats, labels, 4)


def downsample_classes(ds: Dataset, per_class: dict, rng: SeededRng) -> Dataset:
    keep = []
    for c in range(ds.num_classes):
        rows = np.flatnonzero(ds.labels == c)
        cap = per_class.get(c, len(rows))
        if cap >= len(rows):
            keep.extend(int(r) for r in rows)
        else:
            keep.extend(rng.sample(rows, cap).tolist())
    return ds.take(sorted(keep))


def _active_runs(seed: int) -> list:
    """The glister-active and random-acquisition `active_run`s of one seed
    on a pool whose two overlapping classes are rare.

    Every rare label is irreplaceable here, so acquisition quality shows up
    directly in the final accuracy."""
    cfgd = ACTIVE_SETUP
    pool = compose_four_class(cfgd["n_majority"], 260, 100 + seed)
    pool = downsample_classes(
        pool, {2: cfgd["n_rare"], 3: cfgd["n_rare"]}, SeededRng(seed).split(5)
    )
    val = compose_four_class(25, 25, 300 + seed)
    test = compose_four_class(50, 50, 400 + seed)
    cfg = GlisterConfig(
        r_frac=0.03, lr=cfgd["lr"], batch_size=cfgd["batch_size"], loss=LossKind.CROSS_ENTROPY, seed=seed
    )
    spec = ModelSpec("mlp", hidden=cfgd["hidden"])
    initial = initial_labeled(pool, cfgd["initial"], SeededRng(seed).split(71))
    args = (pool, val, test, initial, spec, cfg, cfgd["rounds"], cfgd["batch"], cfgd["epochs_per_round"])
    return [active_run(strat, *args) for strat in ("glister", "random")]


def _active_accuracies(seeds) -> list[tuple[float, ...]]:
    """(glister_acc, random_acc) per seed, from one `train_active` stack of
    every seed's `_active_runs`: the runs share the architecture, lr, batch
    size and labeled-set sizes, and each trains as it would alone."""
    cfgd = ACTIVE_SETUP
    per_seed = [_active_runs(seed) for seed in seeds]
    train_active([a for actives in per_seed for a in actives], (cfgd["rounds"] + 1) * cfgd["epochs_per_round"])
    return [tuple(trace.final_test_acc for _, _, trace in actives) for actives in per_seed]


def active_experiment(seed: int):
    """Paired glister-active / random-acquisition run of one seed, stepped as
    one stack; returns (glister_acc, random_acc)."""
    return _active_accuracies([seed])[0]


def suite_active(seed: int = 0) -> list[Check]:
    """Criterion 7: on the seed means of `active_experiment`, glister-active
    acquisition must beat random acquisition.  All seeds train as one
    stack."""
    cfgd = ACTIVE_SETUP
    start = time.perf_counter()
    g, rn = _means(_active_accuracies(cfgd["seeds"]))
    return [
        Check(f"active: glister-active accuracy >= random acquisition + {100 * cfgd['margin']:.0f} points",
              g >= rn + cfgd["margin"], f"glister-active {g:.3f} vs random acquisition {rn:.3f}"),
        _runtime(start, cfgd["max_s"]),
    ]


def suite_monitor(seed: int = 0) -> list[Check]:
    """Criterion 8: the Theorem 2 descent-condition monitor flags no
    violation on online glister runs of MONITOR_SETUP."""
    cfgd = MONITOR_SETUP
    spec = ModelSpec("mlp", hidden=cfgd["hidden"])
    violations = rows = 0
    for run_seed in cfgd["seeds"]:
        full = gen_synthetic("separable-2", cfgd["n_per_class"], 200 + run_seed)
        train, val, test = split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))
        _, _, trace = glister_online_train(
            train, val, test, spec, _online_config(cfgd, run_seed), cfgd["epochs"]
        )
        report = monitor_theorem2(trace, tol=cfgd["tol"])
        violations += report["violations"]
        rows += len(report["rows"])
    return [
        Check(f"monitor: descent-condition violations <= {cfgd['max_violations']}",
              violations <= cfgd["max_violations"],
              f"{violations} violations over {rows} selection epochs, {len(cfgd['seeds'])} seeds"),
    ]


def _two_gaussians(n: int, d: int, seed: int) -> tuple[Dataset, Dataset]:
    """Two-class d-dimensional Gaussian train set of n rows, split in half at
    -2 / +2 along the first axis, and a validation set of max(n // 10, 10)
    rows drawn the same way."""
    rng = SeededRng(seed)
    half = n // 2
    feats = rng.normals(n * d).reshape(n, d)
    feats[:half, 0] -= 2.0
    feats[half:, 0] += 2.0
    train = Dataset(feats, np.array([0] * half + [1] * (n - half)), 2)
    m = max(n // 10, 10)
    vx = rng.normals(m * d).reshape(m, d)
    vx[: m // 2, 0] -= 2.0
    vx[m // 2:, 0] += 2.0
    vy = np.array([0] * (m // 2) + [1] * (m - m // 2))
    return train, Dataset(vx, vy, 2)


def suite_efficiency(seed: int = 0) -> list[Check]:
    """Criterion 9: on a logistic model, selection with r = ceil(r_frac * k)
    refreshes is faster than with r = k, and a k-row subset epoch is faster
    than a full epoch (each timed as its best of `epoch_repeats` runs), each
    by the EFFICIENCY_SETUP speedup."""
    cfgd = EFFICIENCY_SETUP
    k = cfgd["k"]
    cfg = GlisterConfig(
        k=k, r_frac=cfgd["r_frac"], lr=cfgd["lr"], batch_size=cfgd["batch_size"], seed=cfgd["seed"]
    )
    train, val = _two_gaussians(cfgd["n"], cfgd["d"], cfgd["seed"])
    params = init_model_params(train, ModelSpec("logistic"), cfg)
    r = cfg.resolve_r(k)
    sel = []
    for refreshes in (k, r):
        start = time.perf_counter()
        greedy_dss(train, val, params, replace(cfg, refreshes=refreshes))
        sel.append(time.perf_counter() - start)
    # an epoch takes milliseconds, so one scheduler stall could swamp a
    # single timing: each epoch counts as the best of epoch_repeats runs
    epochs = []
    for i, rows in enumerate((list(range(train.n)), list(range(k)))):
        best = math.inf
        for _ in range(cfgd["epoch_repeats"]):
            start = time.perf_counter()
            sgd_epoch(params, train, rows, cfg.lr, cfg.batch_size, SeededRng(cfgd["seed"]).split(i))
            best = min(best, time.perf_counter() - start)
        epochs.append(best)
    sel_speedup = sel[0] / max(sel[1], 1e-12)
    train_speedup = epochs[0] / max(epochs[1], 1e-12)
    return [
        Check(f"efficiency: r = {cfgd['r_frac']:g}k selection speedup >= {cfgd['speedup']:g}x",
              sel_speedup >= cfgd["speedup"],
              f"{sel_speedup:.1f}x (r={k} {sel[0]:.2f} s, r={r} {sel[1]:.2f} s)"),
        Check(f"efficiency: subset-epoch training speedup >= {cfgd['speedup']:g}x",
              train_speedup >= cfgd["speedup"],
              f"{train_speedup:.1f}x (full epoch {1e3 * epochs[0]:.1f} ms, "
              f"subset epoch {1e3 * epochs[1]:.1f} ms)"),
    ]


def strip_timing(csv_text: str) -> str:
    """A trace CSV with the wall-clock cells (wall_s, sel_s) of every row
    below the header replaced by "-", for comparing runs."""
    timing = [TRACE_COLUMNS.index(c) for c in ("wall_s", "sel_s")]
    lines = csv_text.splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        for j in timing:
            cells[j] = "-"
        lines[i] = ",".join(cells)
    return "\n".join(lines)


def suite_determinism(seed: int = 0) -> list[Check]:
    """Criterion: identical config and seed give bit-identical subset digests
    and traces (timing columns excluded, as wall-clock is physical), for
    glister and for a baseline that reselects (craig), and bit-identical
    parameters from one SGD epoch, so a BLAS or numpy build that breaks the
    reproducibility of the in-place step shows here.  Cells stepped in
    lockstep must give the traces they give alone, so a build whose stacked
    products differ from the per-run ones shows here too; so must active
    runs on a tiny pool, in their round traces and final metrics, stacked
    within one seed and across two."""
    checks = []
    full = gen_synthetic("separable-2", 100, seed + 3)
    train, val, test = split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))
    cfg = GlisterConfig(budget_frac=0.3, select_every=5, lr=0.003, batch_size=10, seed=seed)
    spec = ModelSpec("mlp", hidden=16)
    runs = [glister_online_train(train, val, test, spec, cfg, 12) for _ in range(2)]
    digests = [subset_digest(r[1]) for r in runs]
    checks.append(Check("subset digests bit-identical", digests[0] == digests[1], digests[0][:12]))

    t0, t1 = (strip_timing(trace_to_csv(r[2])) for r in runs)
    checks.append(Check("traces bit-identical outside timing columns", t0 == t1))
    c0, c1 = (strip_timing(trace_to_csv(run_cell("craig", train, val, test, spec, cfg, 12)[2]))
              for _ in range(2))
    checks.append(Check("craig traces bit-identical outside timing columns", c0 == c1))
    strategies = ("glister", "craig", "random")
    solo = [t0, c0, strip_timing(trace_to_csv(run_cell("random", train, val, test, spec, cfg, 12)[2]))]
    lockstep = _selection_loop([_cell_run(s, train, val, test, spec, cfg, 12) for s in strategies], 12)
    same = [strip_timing(trace_to_csv(trace)) == alone for (_, _, trace), alone in zip(lockstep, solo)]
    checks.append(Check("lockstep cells match solo runs", all(same),
                        ", ".join(s for s, ok in zip(strategies, same) if not ok)))
    initial = initial_labeled(train, 6, SeededRng(seed).split(71))
    args = (train, val, test, initial, spec, replace(cfg, budget_frac=None), 2, 5, 3)
    actives = [active_run(s, *args) for s in ACQUIRE_STRATEGIES]
    train_active(actives, 9)
    # an ActiveTrace compares every round's metrics and digest, and the final metrics
    same = [trace == run_active(s, *args)[2] for s, (_, _, trace) in zip(ACQUIRE_STRATEGIES, actives)]
    checks.append(Check("lockstep active runs match solo runs", all(same),
                        ", ".join(s for s, ok in zip(ACQUIRE_STRATEGIES, same) if not ok)))
    # two seeds in one stack, each with its own seed labels, as criterion 7 trains
    per_seed = [
        (train, val, test, initial_labeled(train, 6, SeededRng(s).split(71)), spec,
         replace(cfg, budget_frac=None, seed=s), 2, 5, 3)
        for s in (seed, seed + 1)
    ]
    cross = [(s, a, active_run(s, *a)) for a in per_seed for s in ("glister", "random")]
    finals = train_active([active for _, _, active in cross], 9)
    same = []
    for (s, a, (_, _, trace)), p in zip(cross, finals):
        alone, _, solo = run_active(s, *a)
        same.append(trace == solo and np.array_equal(p.theta, alone.theta))
    checks.append(Check("cross-seed active stack matches per-seed runs", all(same),
                        ", ".join(f"{s} seed {a[5].seed}" for (s, a, _), ok in zip(cross, same) if not ok)))
    params = init_model_params(train, spec, cfg)
    sels = [greedy_dss(train, val, params, cfg) for _ in range(2)]
    checks.append(Check("greedy selection identical across runs", sels[0] == sels[1]))
    subset = list(range(0, train.n, 2))
    steps = [
        sgd_epoch(params, train, subset, cfg.lr, cfg.batch_size, SeededRng(seed).split(1), cfg.loss)
        for _ in range(2)
    ]
    checks.append(Check("sgd_epoch parameters bit-identical", np.array_equal(steps[0].theta, steps[1].theta)))
    return checks


SUITES = {
    "gradients": suite_gradients,  # criterion 1
    "submodularity": suite_submodularity,  # 2
    "greedy-ratio": suite_greedy_ratio,  # 3
    "taylor-fidelity": suite_taylor_fidelity,  # 4
    "robustness": suite_robustness,  # 5 and 6
    "active": suite_active,  # 7
    "monitor": suite_monitor,  # 8
    "efficiency": suite_efficiency,  # 9
    "determinism": suite_determinism,  # 10
}


def run_suite(name: str, seed: int = 0) -> tuple[list[tuple[str, list[Check], float]], bool]:
    """(suite name, its checks, its seconds) for suite `name` ("all" runs
    every suite in criterion order) and whether all checks passed; raises
    KeyError for an unknown name."""
    suites = SUITES if name == "all" else {name: SUITES[name]}
    runs = []
    for n, suite in suites.items():
        start = time.perf_counter()
        checks = suite(seed)
        runs.append((n, checks, time.perf_counter() - start))
    return runs, all(c.passed for _, checks, _ in runs for c in checks)

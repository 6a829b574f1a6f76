"""Experiment orchestration: strategy x budget x seed cells, trace CSV and
summary JSON emission, and the benchmark harness.

All randomness flows from the per-run seed, derived as
``mix64(config_seed XOR strategy_hash XOR budget_index)`` so cells are
independent and reproducible in isolation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .active import ACQUIRE_STRATEGIES, run_active
from .baselines import STRATEGIES, craig_subset, knn_submod_subset, random_subset
from .core import (
    EpochRecord,
    GlisterConfig,
    RunTrace,
    _selection_loop,
    glister_online_train,
    greedy_dss,
    init_model_params,
    stratified_random_subset,
)
from .data import (
    Dataset,
    SplitSpec,
    SYNTHETIC_KINDS,
    gen_synthetic,
    inject_class_imbalance,
    inject_label_noise,
    parse_libsvm,
    split,
    standardize,
)
from .models import LossKind, ModelSpec, sgd_epoch
from .numerics import SeededRng
from .numerics import _mix64 as _mix

__all__ = [
    "ExperimentConfig",
    "load_experiment_config",
    "load_active_config",
    "run_cell",
    "run_experiment",
    "run_active_experiment",
    "run_bench",
    "trace_to_csv",
    "trace_from_csv",
    "active_trace_to_csv",
    "derive_run_seed",
]

# the CSV columns, in order: attributes of EpochRecord and of ActiveRound
TRACE_COLUMNS = (
    "epoch", "wall_s", "sel_s", "train_loss", "full_train_loss", "val_loss", "test_acc",
    "subset_digest", "dot_vt", "cos_theta", "grad_norm_t", "lr_bound",
)
ACTIVE_COLUMNS = ("round", "labeled_count", "val_loss", "test_acc", "batch_digest")
TRACE_HEADER = ",".join(TRACE_COLUMNS)
ACTIVE_HEADER = ",".join(ACTIVE_COLUMNS)


def _fmt(x) -> str:
    """A CSV cell: counts and digests as they are, other numbers by repr,
    None as empty."""
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return str(x)
    return repr(float(x))


def _records_to_csv(columns: tuple, records) -> str:
    lines = [",".join(columns)]
    lines += [",".join(_fmt(getattr(r, c)) for c in columns) for r in records]
    return "\n".join(lines) + "\n"


def trace_to_csv(trace: RunTrace) -> str:
    return _records_to_csv(TRACE_COLUMNS, trace.records)


def active_trace_to_csv(trace) -> str:
    return _records_to_csv(ACTIVE_COLUMNS, trace.rounds)


def trace_from_csv(text: str, lr: float = math.nan) -> RunTrace:
    trace = RunTrace(lr=lr)
    for row in csv.DictReader(io.StringIO(text)):
        numbers = {
            c: None if row[c] == "" else float(row[c])
            for c in TRACE_COLUMNS
            if c not in ("epoch", "subset_digest")
        }
        trace.records.append(
            EpochRecord(epoch=int(row["epoch"]), subset_digest=row["subset_digest"], **numbers)
        )
    return trace


def derive_run_seed(config_seed: int, strategy: str, budget_index: int) -> int:
    strat_hash = int.from_bytes(strategy.encode()[:8].ljust(8, b"\0"), "little")
    return _mix((config_seed ^ strat_hash ^ budget_index) & 0xFFFFFFFFFFFFFFFF)


# keys shared by `glister run` and `glister active` configs
_COMMON_KEYS = {
    "schema_version",
    "dataset",
    "split",
    "standardize",
    "model",
    "loss",
    "strategies",
    "select_every",
    "refreshes",
    "r_frac",
    "lr",
    "batch_size",
    "eta",
    "lambda",
    "regularizer",
    "greedy",
    "epsilon",
    "seeds",
    "corruption",
    "output_dir",
}
_CONFIG_KEYS = _COMMON_KEYS | {"budgets", "epochs"}
_ACTIVE_KEYS = _COMMON_KEYS | {"rounds", "batch", "epochs_per_round", "initial_labeled", "filter_mult"}

# selection settings read into GlisterConfig, whose constructor checks ranges
_NUMBER_KEYS = ("select_every", "refreshes", "r_frac", "lr", "batch_size", "eta", "lambda", "epsilon")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """A validated `glister run` or `glister active` config."""

    raw: dict

    @property
    def output_dir(self) -> Path:
        return Path(self.raw["output_dir"])


def _is_number(value) -> bool:
    """True for a JSON number (not a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """True for a JSON integer (not a bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    """True for a JSON integer (not a bool) >= 1."""
    return _is_int(value) and value >= 1


def _validate(raw: dict, active: bool) -> None:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - (_ACTIVE_KEYS if active else _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("schema_version") != 1:
        raise ConfigError("schema_version must be 1")
    for key in ("dataset", "seeds", "output_dir", "strategies"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    ds = raw["dataset"]
    if not isinstance(ds, dict):
        raise ConfigError("dataset must be a JSON object")
    if ds.get("kind") == "synthetic":
        if ds.get("name") not in SYNTHETIC_KINDS:
            raise ConfigError(f"unknown synthetic dataset {ds.get('name')!r}")
    elif ds.get("kind") == "libsvm":
        if "path" not in ds:
            raise ConfigError("libsvm dataset needs a path")
    else:
        raise ConfigError("dataset.kind must be 'synthetic' or 'libsvm'")
    _validate_data(raw)
    seeds = raw["seeds"]
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a non-empty list")
    if not all(_is_int(s) for s in seeds):
        raise ConfigError("seeds must be integers")
    # loop lengths and sizes
    counts = ("rounds", "batch", "epochs_per_round", "initial_labeled") if active else ("epochs",)
    for key in counts:
        if key in raw and not _is_count(raw[key]):
            raise ConfigError(f"{key} must be an integer >= 1")
    for key in _NUMBER_KEYS:
        if raw.get(key) is not None and not _is_number(raw[key]):
            raise ConfigError(f"{key} must be a number")
    if "filter_mult" in raw:
        mult = raw["filter_mult"]
        if not (_is_number(mult) and math.isfinite(mult) and mult >= 1):
            raise ConfigError("filter_mult must be a finite number >= 1")
    try:
        _model_spec(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid model: {exc}") from None
    try:
        glister_config(raw, 0, None)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid selection settings: {exc}") from None
    strategies = raw["strategies"]
    if not isinstance(strategies, list):
        raise ConfigError("strategies must be a list")
    valid = ACQUIRE_STRATEGIES if active else STRATEGIES
    bad = [s for s in strategies if not isinstance(s, str) or s not in valid]
    if bad:
        raise ConfigError(f"unknown strategies: {bad}")
    if not active:
        budgets = raw.get("budgets", [])
        if not isinstance(budgets, list) or not all(_is_number(b) for b in budgets):
            raise ConfigError("budgets must be a list of numbers")
        if not all(0.0 < b <= 1.0 for b in budgets):
            raise ConfigError("budget fractions must lie in (0, 1]")
        if any(s != "full" for s in strategies) and not budgets:
            raise ConfigError("non-full strategies need budgets")


def _validate_data(raw: dict) -> None:
    """The data-side keys `build_datasets` reads, checked without coercion."""
    ds = raw["dataset"]
    n_per_class = ds.get("n_per_class", 250)
    if not (_is_count(n_per_class) and n_per_class >= 2):
        raise ConfigError("dataset.n_per_class must be an integer >= 2")
    if "split" in raw:
        spec = raw["split"]
        if not isinstance(spec, dict) or not {"train", "val", "test"} <= set(spec):
            raise ConfigError("split must be an object with train, val and test fractions")
        fracs = [spec[key] for key in ("train", "val", "test")]
        seed = spec.get("seed", 1)
        if not all(_is_number(f) for f in fracs) or not _is_int(seed):
            raise ConfigError("split fractions must be numbers and its seed an integer")
        try:
            SplitSpec(*fracs, seed)
        except ValueError as exc:
            raise ConfigError(f"invalid split: {exc}") from None
    corruption = raw.get("corruption") or {}
    if not isinstance(corruption, dict):
        raise ConfigError("corruption must be a JSON object")
    rate = corruption.get("noise_rate", 0.0)
    if not (_is_number(rate) and 0.0 <= rate < 1.0):
        raise ConfigError("corruption.noise_rate must be a number in [0, 1)")
    imbalance = corruption.get("imbalance", {})
    if not isinstance(imbalance, dict) or not all(
        _is_number(imbalance.get(key, 0.5)) and 0.0 < imbalance.get(key, 0.5) < 1.0
        for key in ("affected_frac", "keep_frac")
    ):
        raise ConfigError("corruption.imbalance needs affected_frac and keep_frac in (0, 1)")
    seeds = (ds.get("seed", 0), corruption.get("noise_seed", 0), imbalance.get("seed", 0))
    if not all(_is_int(s) for s in seeds):
        raise ConfigError("dataset, noise and imbalance seeds must be integers")
    if not isinstance(raw.get("standardize", True), bool):
        raise ConfigError("standardize must be true or false")


def load_experiment_config(path) -> ExperimentConfig:
    raw = json.loads(Path(path).read_text())
    _validate(raw, active=False)
    return ExperimentConfig(raw)


def load_active_config(path) -> ExperimentConfig:
    raw = json.loads(Path(path).read_text())
    _validate(raw, active=True)
    return ExperimentConfig(raw)


def build_datasets(raw: dict, seed: int):
    """Materialize (train, val, test) plus the achieved feature-norm bound
    for one run: generate or load, split, corrupt the train part, and
    standardize unless disabled."""
    ds_spec = raw["dataset"]
    split_spec = raw.get("split", {"train": 0.8, "val": 0.1, "test": 0.1, "seed": 1})
    if ds_spec["kind"] == "synthetic":
        kind = ds_spec["name"]
        n_per_class = int(ds_spec.get("n_per_class", 250))
        gen_seed = int(ds_spec.get("seed", seed))
        out = gen_synthetic(kind, n_per_class, gen_seed)
        if isinstance(out, tuple):
            # shifted-validation kinds: the full base set trains, and both
            # validation and test come from the shifted distribution
            train, val = out
            _, test = gen_synthetic(kind, max(n_per_class // 4, 2), gen_seed + 1)
        else:
            train, val, test = split(
                out,
                SplitSpec(
                    split_spec["train"], split_spec["val"], split_spec["test"],
                    split_spec.get("seed", 1),
                ),
            )
    else:
        base = parse_libsvm(Path(ds_spec["path"]).read_bytes())
        train, val, test = split(
            base,
            SplitSpec(
                split_spec["train"], split_spec["val"], split_spec["test"],
                split_spec.get("seed", 1),
            ),
        )
    corruption = raw.get("corruption") or {}
    if "noise_rate" in corruption:
        train = inject_label_noise(
            train, float(corruption["noise_rate"]), int(corruption.get("noise_seed", seed))
        )
    if "imbalance" in corruption:
        imb = corruption["imbalance"]
        train = inject_class_imbalance(
            train,
            float(imb.get("affected_frac", 0.3)),
            float(imb.get("keep_frac", 0.1)),
            int(imb.get("seed", seed)),
        )
    max_norm = float(np.sqrt((train.features**2).sum(axis=1)).max())
    if raw.get("standardize", True):
        train, (val, test), stats = standardize(train, (val, test))
        max_norm = stats.max_row_norm
    return train, val, test, max_norm


# documented defaults when the config leaves lambda unset
_LAMBDA_DEFAULTS = {"none": 0.0, "random": 0.9, "facility_location": 100.0, "diversity": 1.0}


def glister_config(raw: dict, seed: int, budget: float | None) -> GlisterConfig:
    regularizer = raw.get("regularizer", "none")
    lam = raw.get("lambda")
    if lam is None:
        lam = _LAMBDA_DEFAULTS.get(regularizer, 0.0)
    return GlisterConfig(
        budget_frac=budget,
        select_every=raw.get("select_every", 20),
        refreshes=raw.get("refreshes"),
        r_frac=raw.get("r_frac"),
        eta=raw.get("eta"),
        lr=float(raw.get("lr", 0.05)),
        batch_size=raw.get("batch_size", 32),
        regularizer=regularizer,
        lam=float(lam),
        greedy=raw.get("greedy", "naive"),
        epsilon=float(raw.get("epsilon", 0.01)),
        loss=LossKind(raw.get("loss", "cross_entropy")),
        seed=seed,
    )


def _model_spec(raw: dict) -> ModelSpec:
    m = raw.get("model", {"arch": "mlp", "hidden": 100})
    if not isinstance(m, dict):
        raise TypeError("model must be a JSON object")
    hidden = m.get("hidden", 100)
    if not _is_int(hidden):
        raise TypeError("model.hidden must be an integer")
    return ModelSpec(m.get("arch", "mlp"), hidden)


def run_cell(
    strategy: str,
    train: Dataset,
    val: Dataset,
    test: Dataset,
    model_spec: ModelSpec,
    cfg: GlisterConfig,
    epochs: int,
):
    """One (strategy, budget, seed) training run; returns (params, subset,
    trace).  `glister` and `craig` reselect every L epochs, the one-shot
    strategies select at epoch 0 only, `full` trains on everything."""
    if strategy == "glister":
        return glister_online_train(train, val, test, model_spec, cfg, epochs)
    k = train.n if strategy == "full" else cfg.resolve_k(train.n)
    selectors = {
        "full": lambda params, rng: range(train.n),
        "random": lambda params, rng: random_subset(train, k, rng),
        "random_prior": lambda params, rng: random_subset(train, k, rng, match_distribution=val),
        "craig": lambda params, rng: craig_subset(train, params, k, cfg.loss),
        "knnsub_train": lambda params, rng: knn_submod_subset(train, train, k),
        "knnsub_val": lambda params, rng: knn_submod_subset(train, val, k),
    }
    if strategy not in selectors:
        raise ValueError(f"unknown strategy {strategy!r}")
    every = cfg.select_every if strategy == "craig" else epochs
    params = init_model_params(train, model_spec, cfg)
    return _selection_loop(train, val, test, params, cfg, epochs, selectors[strategy], every)


def _write_runs(config: ExperimentConfig, cells) -> list[dict]:
    """Write each cell's trace file as the cell finishes, then summary.json
    with one row per cell; returns the rows."""
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for trace_file, csv_text, row in cells:
        (out_dir / trace_file).write_text(csv_text)
        summary.append({**row, "trace_file": trace_file})
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def _online_cells(raw: dict):
    """(trace file, trace CSV, summary row) per strategy x budget x seed."""
    model_spec = _model_spec(raw)
    epochs = int(raw.get("epochs", 200))
    for strategy in raw["strategies"]:
        budgets = [None] if strategy == "full" else raw["budgets"]
        for b_idx, budget in enumerate(budgets):
            for seed in raw["seeds"]:
                run_seed = derive_run_seed(int(seed), strategy, b_idx)
                train, val, test, max_norm = build_datasets(raw, int(seed))
                cfg = glister_config(raw, run_seed, budget if budget is not None else 1.0)
                _, _, trace = run_cell(strategy, train, val, test, model_spec, cfg, epochs)
                tag = "full" if budget is None else f"b{int(round(budget * 100))}"
                last = trace.records[-1]
                yield f"trace_{strategy}_{tag}_s{seed}.csv", trace_to_csv(trace), {
                    "strategy": strategy,
                    "budget": budget,
                    "seed": int(seed),
                    "run_seed": run_seed,
                    "final_test_acc": last.test_acc,
                    "final_val_loss": last.val_loss,
                    "total_wall_s": last.wall_s,
                    "total_sel_s": sum(r.sel_s for r in trace.records),
                    "subset_digest": last.subset_digest,
                    "max_row_norm": max_norm,
                }


def _active_cells(raw: dict):
    """(trace file, round CSV, summary row) per acquisition strategy x seed."""
    model_spec = _model_spec(raw)
    rounds = int(raw.get("rounds", 10))
    batch = int(raw.get("batch", 50))
    epochs_per_round = int(raw.get("epochs_per_round", 200))
    n_initial = int(raw.get("initial_labeled", 20))
    for strategy in raw["strategies"]:
        for seed in raw["seeds"]:
            run_seed = derive_run_seed(int(seed), strategy, 0)
            pool, val, test, _ = build_datasets(raw, int(seed))
            cfg = replace(glister_config(raw, run_seed, None), k=batch)
            initial = stratified_random_subset(
                pool.labels, pool.num_classes, n_initial, SeededRng(run_seed).split(71)
            )
            _, state, trace = run_active(
                strategy, pool, val, test, initial, model_spec, cfg,
                rounds, batch, epochs_per_round,
                filter_mult=float(raw.get("filter_mult", 5.0)),
            )
            yield f"active_{strategy}_s{seed}.csv", active_trace_to_csv(trace), {
                "strategy": strategy,
                "seed": int(seed),
                "run_seed": run_seed,
                "rounds": rounds,
                "batch": batch,
                "final_test_acc": trace.final_test_acc,
                "final_val_loss": trace.final_val_loss,
                "labeled_count": len(state.labeled),
            }


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """`glister run`: the cross product of strategies x budgets x seeds;
    writes one trace CSV per cell plus summary.json, and returns the
    summary rows."""
    return _write_runs(config, _online_cells(config.raw))


def run_active_experiment(config: ExperimentConfig) -> list[dict]:
    """`glister active`: strategies x seeds of batch active learning;
    writes one round CSV per run plus summary.json, and returns the
    summary rows."""
    return _write_runs(config, _active_cells(config.raw))


def make_bench_data(n: int, d: int, seed: int) -> tuple[Dataset, Dataset]:
    """Two-class d-dimensional Gaussian data for the benchmark harness."""
    rng = SeededRng(seed)
    half = n // 2
    x0 = rng.normals(half * d).reshape(half, d)
    x1 = rng.normals((n - half) * d).reshape(n - half, d)
    x0[:, 0] -= 2.0
    x1[:, 0] += 2.0
    feats = np.vstack([x0, x1])
    labels = np.array([0] * half + [1] * (n - half))
    train = Dataset(feats, labels, 2)
    m = max(n // 10, 10)
    vx = rng.normals(m * d).reshape(m, d)
    vx[: m // 2, 0] -= 2.0
    vx[m // 2:, 0] += 2.0
    vy = np.array([0] * (m // 2) + [1] * (m - m // 2))
    return train, Dataset(vx, vy, 2)


def run_bench(n: int, d: int, k: int, r_frac: float, seed: int = 0) -> dict:
    """Times r = k against r = ceil(r_frac * k) selection, and a full
    against a k-sized-subset training epoch."""
    train, val = make_bench_data(n, d, seed)
    model_spec = ModelSpec("logistic")
    base = GlisterConfig(k=k, lr=0.01, batch_size=32, seed=seed)
    params = init_model_params(train, model_spec, base)
    timings = []
    for r in (k, max(1, int(math.ceil(r_frac * k)))):
        cfg = GlisterConfig(k=k, refreshes=r, lr=0.01, batch_size=32, seed=seed)
        t0 = time.perf_counter()
        greedy_dss(train, val, params, cfg, k=k)
        timings.append({"r": r, "sel_s": time.perf_counter() - t0})
    rng = SeededRng(seed)
    t0 = time.perf_counter()
    sgd_epoch(params, train, list(range(train.n)), 0.01, 32, rng.split(0))
    full_epoch = time.perf_counter() - t0
    t0 = time.perf_counter()
    sgd_epoch(params, train, list(range(k)), 0.01, 32, rng.split(1))
    subset_epoch = time.perf_counter() - t0
    return {
        "n": n,
        "d": d,
        "k": k,
        "selection": timings,
        "train_full_epoch_s": full_epoch,
        "train_subset_epoch_s": subset_epoch,
        "selection_speedup": timings[0]["sel_s"] / max(timings[1]["sel_s"], 1e-12),
        "training_speedup": full_epoch / max(subset_epoch, 1e-12),
    }

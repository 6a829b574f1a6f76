"""Experiment orchestration: config parsing, strategy x budget x seed cells,
and trace CSV and summary JSON emission.

All randomness flows from the per-run seed, derived as
``mix64(config_seed XOR strategy_hash XOR budget_index)`` so cells are
independent and reproducible in isolation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .active import ACQUIRE_STRATEGIES, FILTER_MULT, active_run, initial_labeled, train_active
from .baselines import STRATEGIES, craig_subset, knn_submod_subset, random_subset
from .core import (
    EpochRecord,
    GlisterConfig,
    Run,
    RunTrace,
    _selection_loop,
    glister_run,
    init_model_params,
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
from .models import LossKind, ModelSpec, output_width
from .numerics import SeededRng
from .numerics import _mix64 as _mix

__all__ = [
    "ExperimentConfig",
    "load_experiment_config",
    "load_active_config",
    "run_cell",
    "run_experiment",
    "run_active_experiment",
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


class ConfigError(ValueError):
    pass


def _is_number(value) -> bool:
    """True for a JSON number (not a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """True for a JSON integer (not a bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


# the rule of every config value, keyed by the words its error message uses
_RULES = {
    "an integer": _is_int,
    "an integer >= 1": lambda v: _is_int(v) and v >= 1,
    "an integer >= 2": lambda v: _is_int(v) and v >= 2,
    "a number": _is_number,
    "a number in [0, 1)": lambda v: _is_number(v) and 0.0 <= v < 1.0,
    "a number in (0, 1)": lambda v: _is_number(v) and 0.0 < v < 1.0,
    "a finite number >= 1": lambda v: _is_number(v) and 1 <= v < math.inf,
    "a non-empty list": lambda v: isinstance(v, list) and bool(v),
    "a list of numbers in (0, 1]": lambda v: (
        isinstance(v, list) and all(_is_number(b) and 0.0 < b <= 1.0 for b in v)
    ),
    "a non-empty list of integers": lambda v: isinstance(v, list) and bool(v) and all(map(_is_int, v)),
    "a JSON object": lambda v: isinstance(v, dict),
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "'synthetic' or 'libsvm'": lambda v: v in ("synthetic", "libsvm"),
    "a known synthetic kind": lambda v: v in SYNTHETIC_KINDS,
}
_REQUIRED = object()


def _read(table: dict, name: str, default, rule: str):
    """The value of config key `name` (dotted; its last part keys `table`),
    or `default` when absent; a value breaking `rule` raises ConfigError."""
    key = name.rsplit(".", 1)[-1]
    if key not in table:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {name!r}")
        return default
    if not _RULES[rule](table[key]):
        raise ConfigError(f"{name} must be {rule}")
    return table[key]


def _no_repeats(name: str, values: list) -> None:
    """Cells name their trace files by these values, so none may repeat."""
    repeated = sorted({v for i, v in enumerate(values) if v in values[:i]})
    if repeated:
        raise ConfigError(f"{name} repeat: {repeated}")


def _budget_tag(budget: float) -> str:
    return f"b{round(budget * 100)}"


@dataclass(frozen=True)
class DataSpec:
    """Where a run's rows come from, how they split and what corrupts the
    train part.  A seed of None means the run seed."""

    source: str | Dataset  # a synthetic kind, or the rows of a LIBSVM file
    n_per_class: int
    seed: int | None
    split: SplitSpec
    noise: tuple | None  # (rate, seed), or no label noise
    imbalance: tuple | None  # (affected_frac, keep_frac, seed), or none
    standardize: bool


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed `glister run` or `glister active` config: every value a run
    uses, checked once and with its default applied.  `datasets` maps each
    seed to its built (train, val, test, max_row_norm), which every cell of
    that seed shares.  `selection` is a template with seed 0 and no budget,
    which each cell completes."""

    output_dir: Path
    strategies: list
    seeds: list
    datasets: dict
    model: ModelSpec
    selection: GlisterConfig
    # `glister run` reads budgets and epochs, `glister active` the rest
    budgets: Sequence[float] = ()
    epochs: int = 200
    rounds: int = 10
    batch: int = 50
    epochs_per_round: int = 200
    initial_labeled: int = 20
    filter_mult: float = FILTER_MULT


# the ExperimentConfig fields a config may set; the ones it leaves out keep
# their defaults there
_LOOP_RULES = {
    "budgets": "a list of numbers in (0, 1]",
    **dict.fromkeys(("epochs", "rounds", "batch", "epochs_per_round", "initial_labeled"), "an integer >= 1"),
    "filter_mult": "a finite number >= 1",
}
# selection settings, passed to GlisterConfig only when set, so that its
# defaults and range checks are the only ones
_SELECTION_KEYS = (
    "select_every", "refreshes", "r_frac", "lr", "batch_size", "eta", "regularizer", "greedy", "epsilon",
)
_COMMON_KEYS = {
    "schema_version", "dataset", "split", "standardize", "corruption", "model", "loss", "lambda",
    "strategies", "seeds", "output_dir", *_SELECTION_KEYS,
}
_CONFIG_KEYS = _COMMON_KEYS | {"budgets", "epochs"}
_ACTIVE_KEYS = _COMMON_KEYS | {"rounds", "batch", "epochs_per_round", "initial_labeled", "filter_mult"}


def glister_config(raw: dict) -> GlisterConfig:
    """The selection template (seed 0, no budget) from the keys the config
    sets; an unset or null `lambda` takes its regularizer's default."""
    settings = {key: raw[key] for key in _SELECTION_KEYS if key in raw}
    if "loss" in raw:
        settings["loss"] = LossKind(raw["loss"])
    return GlisterConfig(**settings, lam=raw.get("lambda"))


def _data_spec(raw: dict) -> DataSpec:
    spec = _read(raw, "split", {"train": 0.8, "val": 0.1, "test": 0.1}, "a JSON object")
    fracs = [_read(spec, f"split.{key}", _REQUIRED, "a number") for key in ("train", "val", "test")]
    try:
        split_spec = SplitSpec(*fracs, _read(spec, "split.seed", 1, "an integer"))
    except ValueError as exc:
        raise ConfigError(f"invalid split: {exc}") from None
    ds = _read(raw, "dataset", _REQUIRED, "a JSON object")
    if _read(ds, "dataset.kind", _REQUIRED, "'synthetic' or 'libsvm'") == "libsvm":
        path = _read(ds, "dataset.path", _REQUIRED, "a string")
        try:
            source = parse_libsvm(Path(path).read_bytes())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load dataset.path {path!r}: {exc}") from None
    else:
        source = _read(ds, "dataset.name", _REQUIRED, "a known synthetic kind")
    corruption = _read(raw, "corruption", {}, "a JSON object")
    noise = imbalance = None
    if "noise_rate" in corruption:
        noise = (
            _read(corruption, "corruption.noise_rate", None, "a number in [0, 1)"),
            _read(corruption, "corruption.noise_seed", None, "an integer"),
        )
    if "imbalance" in corruption:
        imb = _read(corruption, "corruption.imbalance", None, "a JSON object")
        imbalance = (
            _read(imb, "corruption.imbalance.affected_frac", 0.3, "a number in (0, 1)"),
            _read(imb, "corruption.imbalance.keep_frac", 0.1, "a number in (0, 1)"),
            _read(imb, "corruption.imbalance.seed", None, "an integer"),
        )
    return DataSpec(
        source, _read(ds, "dataset.n_per_class", 250, "an integer >= 2"),
        _read(ds, "dataset.seed", None, "an integer"), split_spec,
        noise, imbalance, _read(raw, "standardize", True, "true or false"),
    )


def _parse(raw, active: bool) -> ExperimentConfig:
    """Check every key of a decoded config and return the values a run
    uses, with each seed's datasets built; raises ConfigError before
    anything is written."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - (_ACTIVE_KEYS if active else _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("schema_version") != 1:
        raise ConfigError("schema_version must be 1")
    strategies = _read(raw, "strategies", _REQUIRED, "a non-empty list")
    bad = [s for s in strategies if s not in (ACQUIRE_STRATEGIES if active else STRATEGIES)]
    if bad:
        raise ConfigError(f"unknown strategies: {bad}")
    _no_repeats("strategies", strategies)
    loop = {key: _read(raw, key, None, rule) for key, rule in _LOOP_RULES.items() if key in raw}
    if not active and not loop.get("budgets") and any(s != "full" for s in strategies):
        raise ConfigError("non-full strategies need budgets")
    _no_repeats("budget trace tags", [_budget_tag(b) for b in loop.get("budgets", ())])
    output_dir = Path(_read(raw, "output_dir", _REQUIRED, "a string"))
    seeds = _read(raw, "seeds", _REQUIRED, "a non-empty list of integers")
    _no_repeats("seeds", seeds)
    data = _data_spec(raw)
    model_keys = _read(raw, "model", {}, "a JSON object")
    try:
        model = ModelSpec(**{"arch": "mlp", **model_keys})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}") from None
    try:
        selection = glister_config(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid selection settings: {exc}") from None
    try:
        datasets = {seed: build_datasets(data, seed) for seed in seeds}
    except ValueError as exc:
        raise ConfigError(f"invalid dataset: {exc}") from None
    config = ExperimentConfig(output_dir, strategies, seeds, datasets, model, selection, **loop)
    _check_fit(config, active)
    return config


def _check_fit(config: ExperimentConfig, active: bool) -> None:
    """Raise ConfigError unless the built rows of every seed suit the loss,
    the budgets, glister's refreshes and (for `active`) the seed labels and
    rounds."""
    classes = config.datasets[config.seeds[0]][0].num_classes
    n_train = min(train.n for train, *_ in config.datasets.values())
    try:
        output_width(config.selection.loss, classes)  # a margin loss needs two classes
        ks = [replace(config.selection, budget_frac=b).resolve_k(n_train) for b in config.budgets]
        if "glister" in config.strategies:  # it refreshes at most k times
            for k in [config.batch] if active else ks:
                config.selection.resolve_r(k)
    except ValueError as exc:
        raise ConfigError(f"invalid selection settings: {exc}") from None
    if not active:
        return
    if config.initial_labeled < classes:
        raise ConfigError(f"initial_labeled must cover the {classes} classes")
    wanted = config.initial_labeled + config.rounds * config.batch  # each round takes a full batch
    if wanted > n_train:
        raise ConfigError(f"initial_labeled + rounds * batch = {wanted} exceeds the {n_train}-row pool")


def load_experiment_config(path) -> ExperimentConfig:
    return _parse(json.loads(Path(path).read_text()), active=False)


def load_active_config(path) -> ExperimentConfig:
    return _parse(json.loads(Path(path).read_text()), active=True)


def build_datasets(data: DataSpec, seed: int):
    """Materialize (train, val, test) plus the achieved feature-norm bound
    for config seed `seed`: generate synthetic rows or take the LIBSVM rows,
    split them, corrupt the train part with its label noise and class
    imbalance, and standardize unless disabled."""
    gen_seed = seed if data.seed is None else data.seed
    rows = data.source
    if isinstance(rows, str):
        rows = gen_synthetic(rows, data.n_per_class, gen_seed)
    if isinstance(rows, tuple):
        # shifted-validation kinds: the full base set trains, and both
        # validation and test come from the shifted distribution
        train, val = rows
        _, test = gen_synthetic(data.source, max(data.n_per_class // 4, 2), gen_seed + 1)
    else:
        train, val, test = split(rows, data.split)
    if data.noise is not None:
        rate, noise_seed = data.noise
        train = inject_label_noise(train, rate, seed if noise_seed is None else noise_seed)
    if data.imbalance is not None:
        affected_frac, keep_frac, imb_seed = data.imbalance
        train = inject_class_imbalance(
            train, affected_frac, keep_frac, seed if imb_seed is None else imb_seed
        )
    if data.standardize:
        train, (val, test), _ = standardize(train, (val, test))
    return train, val, test, float(np.sqrt((train.features**2).sum(axis=1)).max())


def _cell_run(
    strategy: str,
    train: Dataset,
    val: Dataset,
    test: Dataset,
    model_spec: ModelSpec,
    cfg: GlisterConfig,
    epochs: int,
    name: str | None = None,
) -> Run:
    """The `Run` of one (strategy, budget, seed) cell.  `glister` and
    `craig` reselect every L epochs, the one-shot strategies select at
    epoch 0 only, `full` trains on everything."""
    name = strategy if name is None else name
    if strategy == "glister":
        return glister_run(train, val, test, model_spec, cfg, name)
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
    return Run(train, val, test, params, cfg, selectors[strategy], every, name)


def run_cell(
    strategy: str,
    train: Dataset,
    val: Dataset,
    test: Dataset,
    model_spec: ModelSpec,
    cfg: GlisterConfig,
    epochs: int,
):
    """One (strategy, budget, seed) training run alone; returns (params,
    subset, trace)."""
    return _selection_loop([_cell_run(strategy, train, val, test, model_spec, cfg, epochs)], epochs)[0]


def _write_runs(config: ExperimentConfig, cells) -> list[dict]:
    """Write each cell's trace file when its turn in the summary order
    comes, then summary.json with one row per cell; returns the rows.
    summary.json is written to a temp file that then replaces it, so a
    failed write leaves the previous summary whole."""
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for trace_file, csv_text, row in cells:
        (out_dir / trace_file).write_text(csv_text)
        summary.append({**row, "trace_file": trace_file})
    tmp = out_dir / "summary.json.tmp"
    try:
        with tmp.open("w") as f:
            json.dump(summary, f, indent=2)
        os.replace(tmp, out_dir / "summary.json")
    finally:
        tmp.unlink(missing_ok=True)  # a no-op once the rename is done
    return summary


def _online_cells(config: ExperimentConfig):
    """(trace file, trace CSV, summary row) per strategy x budget x seed, in
    that order.  The cells of one (budget, seed) share the subset size, lr,
    batch size, loss and model, so they train in lockstep: one
    `_selection_loop` over their runs.  `full` trains on every row, so its
    cell of each seed is a group of its own.  A group runs when its first
    cell is due; its other cells wait for their turn in the order.  A row's
    `total_wall_s` is its group's clock; `total_train_s` is the cell's own
    selection time plus the elapsed time of its group's SGD epochs."""
    cells = [
        (strategy, b_idx, budget, seed)
        for strategy in config.strategies
        for b_idx, budget in enumerate([None] if strategy == "full" else config.budgets)
        for seed in config.seeds
    ]
    done = {}  # cell -> (run, trace)
    for cell in cells:
        if cell not in done:
            group = [c for c in cells if c[2:] == cell[2:]]
            runs = []
            for strategy, b_idx, budget, seed in group:
                train, val, test, _ = config.datasets[seed]
                cfg = replace(
                    config.selection,
                    seed=derive_run_seed(seed, strategy, b_idx),
                    budget_frac=1.0 if budget is None else budget,
                )
                name = f"strategy {strategy!r}, budget {budget}, seed {seed}"
                runs.append(_cell_run(strategy, train, val, test, config.model, cfg, config.epochs, name))
            results = _selection_loop(runs, config.epochs)
            done.update((c, (run, trace)) for c, run, (_, _, trace) in zip(group, runs, results))
        strategy, _, budget, seed = cell
        run, trace = done.pop(cell)
        tag = "full" if budget is None else _budget_tag(budget)
        last = trace.records[-1]
        total_sel_s = sum(r.sel_s for r in trace.records)
        yield f"trace_{strategy}_{tag}_s{seed}.csv", trace_to_csv(trace), {
            "strategy": strategy,
            "budget": budget,
            "seed": seed,
            "run_seed": run.cfg.seed,
            "final_test_acc": last.test_acc,
            "final_val_loss": last.val_loss,
            "total_wall_s": last.wall_s,
            "total_sel_s": total_sel_s,
            "total_train_s": total_sel_s + trace.sgd_s,
            "subset_digest": last.subset_digest,
            "max_row_norm": config.datasets[seed][3],
        }


def _active_cells(config: ExperimentConfig):
    """(trace file, round CSV, summary row) per acquisition strategy x seed,
    in that order.  The strategies of a seed hold equal label counts, so
    they train in lockstep, when the seed's first cell is due."""
    done = {}  # (strategy, seed) -> (run, state, trace)
    for strategy in config.strategies:
        for seed in config.seeds:
            if (strategy, seed) not in done:
                pool, val, test, _ = config.datasets[seed]
                for s in config.strategies:
                    cfg = replace(config.selection, seed=derive_run_seed(seed, s, 0))
                    initial = initial_labeled(pool, config.initial_labeled, SeededRng(cfg.seed).split(71))
                    run, state, trace = active_run(
                        s, pool, val, test, initial, config.model, cfg,
                        config.rounds, config.batch, config.epochs_per_round, config.filter_mult,
                    )
                    done[s, seed] = (replace(run, name=f"strategy {s!r}, seed {seed}"), state, trace)
                train_active([done[s, seed] for s in config.strategies],
                             (config.rounds + 1) * config.epochs_per_round)
            run, state, trace = done.pop((strategy, seed))
            yield f"active_{strategy}_s{seed}.csv", active_trace_to_csv(trace), {
                "strategy": strategy,
                "seed": seed,
                "run_seed": run.cfg.seed,
                "rounds": config.rounds,
                "batch": config.batch,
                "final_test_acc": trace.final_test_acc,
                "final_val_loss": trace.final_val_loss,
                "labeled_count": len(state.labeled),
            }


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """`glister run`: the cross product of strategies x budgets x seeds;
    writes one trace CSV per cell plus summary.json, and returns the
    summary rows."""
    return _write_runs(config, _online_cells(config))


def run_active_experiment(config: ExperimentConfig) -> list[dict]:
    """`glister active`: strategies x seeds of batch active learning;
    writes one round CSV per run plus summary.json, and returns the
    summary rows."""
    return _write_runs(config, _active_cells(config))

"""`glister run` steps the cells of one (budget, seed) together, and `glister
active` the strategies of one seed; every cell must still give the trace and
summary row it gives alone."""

import json
from dataclasses import replace

import numpy as np
import pytest

from glister.active import initial_labeled, run_active
from glister.data import SplitSpec
from glister.experiments import (
    DataSpec,
    active_trace_to_csv,
    build_datasets,
    derive_run_seed,
    load_active_config,
    load_experiment_config,
    run_active_experiment,
    run_cell,
    run_experiment,
    trace_to_csv,
)
from glister.numerics import SeededRng
from glister.verify import strip_timing

STRATEGIES = ["full", "random", "craig", "knnsub_val", "glister"]
BUDGETS = [0.2, 0.4]
SEEDS = [1, 2]


def _config(tmp_path, **overrides):
    raw = {
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "name": "separable-2", "n_per_class": 25, "seed": 4},
        "split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": 1},
        "model": {"arch": "mlp", "hidden": 6},
        "corruption": {"noise_rate": 0.2},
        "strategies": STRATEGIES,
        "budgets": BUDGETS,
        "seeds": SEEDS,
        "epochs": 5,
        "select_every": 2,
        "refreshes": 2,
        "lr": 0.02,
        "batch_size": 7,
        "output_dir": str(tmp_path / "out"),
        **overrides,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return load_experiment_config(path)


def test_lockstep_cells_match_run_cell_alone(tmp_path):
    config = _config(tmp_path)
    rows = run_experiment(config)
    # the summary keeps the strategies x budgets x seeds order
    expected_order = [
        (s, b, seed)
        for s in STRATEGIES
        for b in ([None] if s == "full" else BUDGETS)
        for seed in SEEDS
    ]
    assert [(r["strategy"], r["budget"], r["seed"]) for r in rows] == expected_order
    for row in rows:
        strategy, budget, seed = row["strategy"], row["budget"], row["seed"]
        b_idx = 0 if budget is None else BUDGETS.index(budget)
        cfg = replace(
            config.selection,
            seed=derive_run_seed(seed, strategy, b_idx),
            budget_frac=1.0 if budget is None else budget,
        )
        train, val, test, max_norm = config.datasets[seed]
        _, _, trace = run_cell(strategy, train, val, test, config.model, cfg, config.epochs)
        alone = trace_to_csv(trace)
        written = (config.output_dir / row["trace_file"]).read_text()
        assert strip_timing(written) == strip_timing(alone), row["trace_file"]
        last = trace.records[-1]
        timing = ("total_wall_s", "total_sel_s", "total_train_s")
        assert {k: v for k, v in row.items() if k not in timing} == {
            "strategy": strategy,
            "budget": budget,
            "seed": seed,
            "run_seed": cfg.seed,
            "final_test_acc": last.test_acc,
            "final_val_loss": last.val_loss,
            "subset_digest": last.subset_digest,
            "max_row_norm": max_norm,
            "trace_file": row["trace_file"],
        }


def test_lockstep_wall_clock_is_the_groups(tmp_path):
    """The cells of one (budget, seed) share one clock, so their records
    carry the same `wall_s`; `full` keeps its own.  Each row's
    `total_train_s` adds the cell's own selection time to its group's SGD
    time."""
    config = _config(tmp_path, strategies=["full", "random", "glister"], budgets=[0.3], seeds=[1])
    rows = {row["strategy"]: row for row in run_experiment(config)}
    sgd_s = {s: row["total_train_s"] - row["total_sel_s"] for s, row in rows.items()}
    assert all(v > 0 for v in sgd_s.values())
    assert sgd_s["random"] == pytest.approx(sgd_s["glister"], rel=1e-9)
    # glister's greedy selection takes longer than a random draw
    assert rows["glister"]["total_train_s"] > rows["random"]["total_train_s"]
    walls = {
        name: [line.split(",")[1] for line in (config.output_dir / name).read_text().splitlines()[1:]]
        for name in ("trace_random_b30_s1.csv", "trace_glister_b30_s1.csv", "trace_full_full_s1.csv")
    }
    assert walls["trace_random_b30_s1.csv"] == walls["trace_glister_b30_s1.csv"]
    assert walls["trace_full_full_s1.csv"] != walls["trace_random_b30_s1.csv"]


@pytest.mark.parametrize(
    "eta, culprit",
    [
        # SGD diverges in the stack; the first run of the stack is named
        pytest.param(0.01, "strategy 'random'", id="sgd"),
        # glister's lookahead diverges in its selection, before any SGD
        pytest.param(None, "strategy 'glister'", id="selection"),
    ],
)
def test_divergence_in_a_stack_names_the_cell(tmp_path, eta, culprit):
    config = _config(tmp_path, strategies=["random", "glister"], budgets=[0.4], seeds=[2],
                     lr=1e308, eta=eta)
    with np.errstate(all="ignore"), pytest.raises(
        ValueError, match=f"^{culprit}, budget 0.4, seed 2, epoch 0: parameters must be finite"
    ):
        run_experiment(config)


def test_active_lockstep_cells_match_run_active_alone(tmp_path):
    strategies = ["glister", "random", "fass"]
    raw = {
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "name": "separable-2", "n_per_class": 25, "seed": 4},
        "model": {"arch": "mlp", "hidden": 6},
        "strategies": strategies,
        "seeds": SEEDS,
        "rounds": 2,
        "batch": 5,
        "epochs_per_round": 3,
        "initial_labeled": 4,
        "lr": 0.02,
        "batch_size": 3,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "active.json"
    path.write_text(json.dumps(raw))
    config = load_active_config(path)
    rows = run_active_experiment(config)
    assert [(r["strategy"], r["seed"]) for r in rows] == [(s, seed) for s in strategies for seed in SEEDS]
    for row in rows:
        strategy, seed = row["strategy"], row["seed"]
        cfg = replace(config.selection, seed=derive_run_seed(seed, strategy, 0))
        pool, val, test, _ = config.datasets[seed]
        initial = initial_labeled(pool, config.initial_labeled, SeededRng(cfg.seed).split(71))
        _, state, trace = run_active(
            strategy, pool, val, test, initial, config.model, cfg,
            config.rounds, config.batch, config.epochs_per_round, config.filter_mult,
        )
        written = (config.output_dir / row["trace_file"]).read_text()
        assert written == active_trace_to_csv(trace), row["trace_file"]
        assert row == {
            "strategy": strategy,
            "seed": seed,
            "run_seed": cfg.seed,
            "rounds": config.rounds,
            "batch": config.batch,
            "final_test_acc": trace.final_test_acc,
            "final_val_loss": trace.final_val_loss,
            "labeled_count": len(state.labeled),
            "trace_file": row["trace_file"],
        }


@pytest.mark.parametrize("scaled", [False, True])
def test_row_norm_bound_is_that_of_the_final_train_rows(scaled):
    """`build_datasets` reports the largest row norm of the train rows it
    returns, standardized or not."""
    split = SplitSpec(0.8, 0.1, 0.1, seed=1)
    data = DataSpec("separable-2", 25, 4, split, (0.2, None), None, scaled)
    train, _, _, bound = build_datasets(data, 1)
    assert bound == float(np.sqrt((train.features**2).sum(axis=1)).max())

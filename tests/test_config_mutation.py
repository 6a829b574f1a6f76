"""Config mutation: every one-key change to a valid config either runs
(exit 0) or is rejected (exit 2) before any output exists.

Each key of a tiny `run` and `active` config, nested keys included, is set
in turn to each value of a fixed set of wrong types and edge values.  An
exit 1 or a traceback means a bad value got past the config parse.
"""

import copy
import json
import os

import pytest

from glister.cli import cmd_active, cmd_run

_DATA = {
    "schema_version": 1,
    "dataset": {"kind": "synthetic", "name": "separable-2", "n_per_class": 20, "seed": 3},
    "split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": 1},
    "standardize": True,
    "corruption": {
        "noise_rate": 0.1,
        "noise_seed": 4,
        "imbalance": {"affected_frac": 0.5, "keep_frac": 0.5, "seed": 5},
    },
    "model": {"arch": "mlp", "hidden": 4},
    "loss": "cross_entropy",
    "regularizer": "none",
    "lambda": 0.5,
    "select_every": 1,
    "refreshes": 1,
    "r_frac": 0.5,
    "lr": 0.01,
    "eta": 0.01,
    "batch_size": 8,
    "greedy": "naive",
    "epsilon": 0.01,
    "seeds": [1],
    "output_dir": "out",
}
BASES = {
    "run": {**_DATA, "strategies": ["glister", "random"], "budgets": [0.5], "epochs": 2},
    "active": {
        **_DATA, "strategies": ["glister", "random", "fass"], "rounds": 2, "batch": 4,
        "epochs_per_round": 2, "initial_labeled": 4, "filter_mult": 2.0,
    },
}
COMMANDS = {"run": cmd_run, "active": cmd_active}
MUTANTS = [None, True, 0, -1, 2.5, 1e308, "x", [], {}]


def _key_paths(table: dict, prefix: tuple = ()):
    """Every key of `table` and of the objects nested in it, as key tuples."""
    for key, value in table.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _key_paths(value, (*prefix, key))


def _mutated(base: dict, path: tuple, value) -> dict:
    config = copy.deepcopy(base)
    table = config
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] = value
    return config


def _cases():
    for command, base in BASES.items():
        for path in _key_paths(base):
            for value in MUTANTS:
                # a learning rate of 1e308 diverges during training, which is
                # not yet detected as such (ROADMAP item 8)
                diverges = path == ("lr",) and value == 1e308
                marks = pytest.mark.xfail(strict=True, reason="divergence exits 1") if diverges else ()
                name = f"{command}-{'.'.join(path)}={json.dumps(value)}"
                yield pytest.param(command, path, value, id=name, marks=marks)


@pytest.mark.parametrize("command, path, value", list(_cases()))
def test_mutated_config_runs_or_exits_2_before_output(tmp_path, monkeypatch, command, path, value):
    monkeypatch.chdir(tmp_path)  # a relative output_dir lands here
    with open("config.json", "w") as f:
        json.dump(_mutated(BASES[command], path, value), f)
    code = COMMANDS[command]("config.json")
    assert code in (0, 2)
    if code == 2:
        assert os.listdir(".") == ["config.json"]

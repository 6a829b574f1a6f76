"""The benchmark's workloads (perfbench/workloads.py) drive the package through
its public entry points: a config file through `load_experiment_config` and
`run_experiment`, `glister_online_train`, and `run_active`.  Running each at
its toy size here fails as soon as one of those calls changes shape, rather
than at benchmark time."""

import importlib.util
from pathlib import Path

import pytest

from glister import verify
from glister.active import initial_labeled
from glister.numerics import SeededRng

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["online-noise", "select-scale", "active-rare"])
def test_toy_workload_ops_ok(tmp_path, name):
    entry, check = load_workloads().WORKLOADS[name](1, "toy", tmp_path)
    result = check(entry())
    assert result["ops"]
    assert [op["error"] for op in result["ops"] if not op["ok"]] == []


@pytest.mark.parametrize("size", ["full", "toy"])
def test_benchmark_seed_labels_match_initial_labeled(size):
    """`active-rare` keeps its own copy of the criterion-7 seed-label rule;
    on its pools it must draw the rows `initial_labeled` draws."""
    workloads = load_workloads()
    p = workloads.ACTIVE_SIZES[size]
    for seed in range(11):
        pool = verify.compose_four_class(p["n_majority"], p["n_rare_gen"], 100 + seed)
        pool = verify.downsample_classes(pool, {2: p["n_rare"], 3: p["n_rare"]}, SeededRng(seed).split(5))
        draws = [f(pool, p["initial"], SeededRng(seed).split(71))
                 for f in (workloads._initial_labeled, initial_labeled)]
        assert draws[0] == draws[1]

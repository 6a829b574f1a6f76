"""The benchmark's workloads (perfbench/workloads.py) drive the package through
its public entry points: a config file through `load_experiment_config` and
`run_experiment`, `glister_online_train`, and `run_active`.  Running each at
its toy size here fails as soon as one of those calls changes shape, rather
than at benchmark time."""

import importlib.util
from pathlib import Path

import pytest

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

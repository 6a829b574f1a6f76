"""The benchmark's workloads (perfbench/workloads.py) drive the package through
its public entry points: a config file through `load_experiment_config` and
`run_experiment`, `glister_online_train`, and `run_active`.  Running each at
its toy size here fails as soon as one of those calls changes shape, and one
full-size `select-scale` run fails as soon as its subset digests move, rather
than at benchmark time."""

import importlib.util
import json
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
    # active-rare times its acquirers by patching them in `glister.active`;
    # an acquirer the package binds at import would escape the patch and
    # read as a selection time of zero
    assert result["sel_s"] > 0


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


def test_select_scale_full_size_digests_match_reference(tmp_path):
    """The full-size `select-scale` selections of seed 0 must pass the digest
    verdict of `perfbench/run.py` (`check_ops`) against
    `perfbench/reference.json`, so a change that moves them fails here rather
    than only when the benchmark runs.  The reference digests were recorded
    on one host's BLAS (see perfbench/README.md); a BLAS build that rounds a
    product differently can flip a near-tie pick and fail this test with no
    change to the code."""
    entry, check = load_workloads().WORKLOADS["select-scale"](0, "full", tmp_path)
    unit = check(entry())
    spec = importlib.util.spec_from_file_location("perfbench_run", WORKLOADS.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    reference = json.loads(run.REFERENCE.read_text())["select-scale"]["0"]
    verdicts = run.check_ops([unit], reference)
    assert verdicts
    assert [(v["id"], v["error"]) for v in verdicts if v["error"]] == []

"""The benchmark's tracer (perfbench/tracing.py) patches package functions by
name; installing it here fails as soon as a traced name is renamed or
deleted, rather than at benchmark time."""

import importlib.util
from pathlib import Path

import glister.experiments  # noqa: F401 - loads every module the tracer patches
from glister import baselines, core
from glister.data import gen_synthetic
from glister.models import ModelSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_package_and_uninstalls():
    tracing = load_tracing()
    original = core.greedy_dss
    train = gen_synthetic("separable-2", 20, seed=1)
    val = gen_synthetic("separable-2", 5, seed=2)
    cfg = core.GlisterConfig(k=6, refreshes=2, lr=0.01, batch_size=4, seed=1)
    params = core.init_model_params(train, ModelSpec("logistic"), cfg)
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert core.greedy_dss is not original
        picked = core.greedy_dss(train, val, params, cfg)
    finally:
        tracer.uninstall()
    assert core.greedy_dss is original
    assert picked == original(train, val, params, cfg)
    names = [span[0] for span in tracer.spans]
    assert names.count("core.greedy_dss") == 1
    assert names.count("core.refresh") == 2
    assert names.count("core.make_gain_state") == 1
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(tracing.LAYER_UNITS)
    # each refresh counts the candidate rows (GainState.cand_features)
    assert metrics["core.refresh.rows_per_pick"] == 2 * train.n / 6


def test_each_facility_location_build_is_one_span():
    """CRAIG and the KNN-submodular baseline each build one oracle, so each
    call records one `submodular.facility_location` span, under its own
    baseline span: neither public constructor calls the other."""
    tracing = load_tracing()
    train = gen_synthetic("separable-2", 20, seed=1)
    val = gen_synthetic("separable-2", 8, seed=2)
    cfg = core.GlisterConfig(k=6, refreshes=2, lr=0.01, batch_size=4, seed=1)
    params = core.init_model_params(train, ModelSpec("logistic"), cfg)
    calls = [
        ("baselines.craig_subset", lambda: baselines.craig_subset(train, params, 6, cfg.loss)),
        ("baselines.knn_submod_subset", lambda: baselines.knn_submod_subset(train, train, 6)),
        ("baselines.knn_submod_subset", lambda: baselines.knn_submod_subset(train, val, 6)),
    ]
    for caller, call in calls:
        untraced = call()
        tracer = tracing.Tracer("test")
        tracer.install()
        try:
            assert call() == untraced
        finally:
            tracer.uninstall()
        builds = [span for span in tracer.spans if span[0] == "submodular.facility_location"]
        assert len(builds) == 1
        assert tracer.spans[builds[0][3]][0] == caller

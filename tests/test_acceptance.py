"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantities.  Expected values come from independent
oracles: central finite differences, exhaustive enumeration, paired baseline
runs, and wall-clock measurement.

Run with `pytest tests/test_acceptance.py -v -s`.  `glister verify --suite all`
runs the checks of criteria 1-6 and 10 from the CLI; criteria 7-9 run only here.
"""

import time

import numpy as np

from glister.core import GlisterConfig, glister_online_train, monitor_theorem2
from glister.data import SplitSpec, gen_synthetic, split
from glister.experiments import run_bench
from glister.models import LossKind, ModelSpec
from glister.verify import (
    ACTIVE_SETUP,
    Check,
    imbalance_checks,
    noise_checks,
    noise_summary,
    strip_timing,
    suite_determinism,
    suite_gradients,
    suite_greedy_ratio,
    suite_submodularity,
    suite_taylor_fidelity,
)


def report(name: str, checks) -> bool:
    ok = all(c.passed for c in checks)
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    for c in checks:
        print(f"    [{'PASS' if c.passed else 'FAIL'}] {c.name}  {c.detail}")
    return ok


def test_criterion_1_gradient_correctness():
    assert report("criterion 1: gradient correctness", suite_gradients(0))


def test_criterion_2_proxy_submodularity():
    assert report("criterion 2: proxy submodularity", suite_submodularity(0))


def test_criterion_3_greedy_approximation_ratio():
    assert report("criterion 3: greedy approximation ratio", suite_greedy_ratio(0))


def test_criterion_4_taylor_fidelity():
    assert report("criterion 4: taylor fidelity", suite_taylor_fidelity(0))


def test_criterion_5_noise_robustness():
    start = time.perf_counter()
    headroom, margin, flipped = noise_checks(noise_summary())
    elapsed = time.perf_counter() - start
    time_ok = elapsed < 300.0
    report("criterion 5: noise robustness", [
        headroom, margin, flipped, Check("runtime < 300 s", time_ok, f"{elapsed:.0f} s")])
    # The margin only means something if the noisy random baseline has room
    # to fall below its clean-label ceiling on this instance.
    assert headroom.passed, headroom.detail
    assert margin.passed, margin.detail
    assert flipped.passed, flipped.detail
    assert time_ok, f"runtime {elapsed:.0f} s >= 300 s"


def test_criterion_6_class_imbalance():
    start = time.perf_counter()
    checks = imbalance_checks()
    elapsed = time.perf_counter() - start
    time_ok = elapsed < 300.0
    assert report("criterion 6: class imbalance",
                  [*checks, Check("runtime < 300 s", time_ok, f"{elapsed:.0f} s")])


def test_criterion_7_active_learning():
    from glister.verify import active_experiment

    start = time.perf_counter()
    res = [active_experiment(s) for s in ACTIVE_SETUP["seeds"]]
    elapsed = time.perf_counter() - start
    g = float(np.mean([r[0] for r in res]))
    rn = float(np.mean([r[1] for r in res]))
    acc_ok = g >= rn + 0.02
    time_ok = elapsed < 600.0
    print(f"\n[{'PASS' if acc_ok and time_ok else 'FAIL'}] criterion 7: active learning")
    print(f"    [{'PASS' if acc_ok else 'FAIL'}] accuracy: glister-active {g:.3f} vs random acquisition {rn:.3f} (need +2 points)")
    print(f"    [{'PASS' if time_ok else 'FAIL'}] runtime {elapsed:.0f}s < 600s")
    assert acc_ok and time_ok


def test_criterion_8_theorem2_monitor():
    violations = 0
    rows = 0
    for seed in (1, 2, 3, 4, 5):
        full = gen_synthetic("separable-2", 125, seed=200 + seed)
        train, val, test = split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))
        cfg = GlisterConfig(budget_frac=0.3, select_every=20, r_frac=0.03,
                            lr=0.005, batch_size=10, loss=LossKind.CROSS_ENTROPY, seed=seed)
        spec = ModelSpec("mlp", hidden=100)
        _, _, trace = glister_online_train(train, val, test, spec, cfg, epochs=100)
        rep = monitor_theorem2(trace, tol=1e-7)
        violations += rep["violations"]
        rows += len(rep["rows"])
    ok = violations == 0
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion 8: descent-condition monitor "
          f"({violations} violations over {rows} selection epochs, 5 seeds)")
    assert ok


def test_criterion_9_efficiency():
    result = run_bench(5000, 20, 500, 0.03, seed=0)
    sel_ok = result["selection_speedup"] >= 5.0
    train_ok = result["training_speedup"] >= 5.0
    print(f"\n[{'PASS' if sel_ok and train_ok else 'FAIL'}] criterion 9: efficiency")
    print(f"    [{'PASS' if sel_ok else 'FAIL'}] r = 0.03k selection speedup {result['selection_speedup']:.1f}x (need 5x)")
    print(f"    [{'PASS' if train_ok else 'FAIL'}] subset-epoch training speedup {result['training_speedup']:.1f}x (need 5x)")
    assert sel_ok and train_ok


def test_criterion_10_determinism(tmp_path):
    import json
    from glister.cli import cmd_run

    checks = suite_determinism(0)
    ok_suite = all(c.passed for c in checks)
    cfg = {
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "name": "separable-2", "n_per_class": 60, "seed": 4},
        "split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": 1},
        "model": {"arch": "mlp", "hidden": 16},
        "strategies": ["glister"],
        "budgets": [0.3],
        "epochs": 8,
        "select_every": 4,
        "lr": 0.003,
        "batch_size": 10,
        "seeds": [7],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    texts = []
    digests = []
    for _ in range(2):
        assert cmd_run(str(path)) == 0
        trace = (tmp_path / "out" / "trace_glister_b30_s7.csv").read_text()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        digests.append(summary[0]["subset_digest"])
        texts.append(strip_timing(trace))  # wall-clock columns are physical
    ok_cli = texts[0] == texts[1] and digests[0] == digests[1]
    print(f"\n[{'PASS' if ok_suite and ok_cli else 'FAIL'}] criterion 10: determinism "
          f"(digest {digests[0][:12]}..., traces identical outside timing columns)")
    assert ok_suite and ok_cli

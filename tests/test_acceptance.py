"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantities.  Expected values come from independent
oracles: central finite differences, exhaustive enumeration, paired baseline
runs, and wall-clock measurement.

Run with `pytest tests/test_acceptance.py -v -s`.  Each test calls the
`glister.verify` function that holds its criterion's instance and
thresholds; `glister verify --suite all` runs the same checks from the CLI.
"""

import json

from glister.cli import cmd_run
from glister.verify import (
    Check,
    imbalance_checks,
    noise_checks,
    strip_timing,
    suite_active,
    suite_determinism,
    suite_efficiency,
    suite_gradients,
    suite_greedy_ratio,
    suite_monitor,
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
    # the headroom check comes first: the margin only means something if the
    # noisy random baseline has room to fall below its clean-label ceiling
    assert report("criterion 5: noise robustness", noise_checks(0))


def test_criterion_6_class_imbalance():
    assert report("criterion 6: class imbalance", imbalance_checks(0))


def test_criterion_7_active_learning():
    assert report("criterion 7: active learning", suite_active(0))


def test_criterion_8_theorem2_monitor():
    assert report("criterion 8: descent-condition monitor", suite_monitor(0))


def test_criterion_9_efficiency():
    assert report("criterion 9: efficiency", suite_efficiency(0))


def test_criterion_10_determinism(tmp_path):
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
    rerun = Check("glister run reruns: identical digest and traces outside timing columns",
                  texts[0] == texts[1] and digests[0] == digests[1], f"digest {digests[0][:12]}...")
    assert report("criterion 10: determinism", [*suite_determinism(0), rerun])

import errno
import json
from pathlib import Path

import pytest

from glister.cli import cmd_active, cmd_run, cmd_verify, main
from glister.core import RunTrace
from glister.experiments import derive_run_seed, trace_from_csv, trace_to_csv
from glister.verify import strip_timing


# model settings that must fail validation, before any output exists
BAD_MODELS = [
    pytest.param({"model": {"arch": "bogus"}}, id="model-arch-bogus"),
    pytest.param({"model": "mlp"}, id="model-not-object"),
    pytest.param({"model": {"arch": "mlp", "hidden": "a"}}, id="model-hidden-str"),
    pytest.param({"model": {"arch": "mlp", "hidden": 0}}, id="model-hidden-0"),
    pytest.param({"model": {"arch": "mlp", "hidden": 2.5}}, id="model-hidden-2.5"),
    pytest.param({"model": {"arch": "mlp", "hidden": True}}, id="model-hidden-true"),
    pytest.param({"model": {"arch": "mlp", "width": 5}}, id="model-unknown-key"),
]

# selection counts and refresh settings that must fail validation instead of
# running truncated, or crashing after the output directory exists
BAD_SELECTION = [
    pytest.param({"select_every": 2.5}, id="select_every-2.5"),
    pytest.param({"batch_size": 2.5}, id="batch_size-2.5"),
    pytest.param({"refreshes": 2.5}, id="refreshes-2.5"),
    pytest.param({"refreshes": 0}, id="refreshes-0"),
    pytest.param({"r_frac": -1}, id="r_frac-neg"),
    pytest.param({"r_frac": 5.0}, id="r_frac-5.0"),
    pytest.param({"r_frac": True}, id="r_frac-true"),
    pytest.param({"lr": True}, id="lr-true"),
    pytest.param({"eta": True}, id="eta-true"),
    pytest.param({"lambda": True}, id="lambda-true"),
    pytest.param({"lambda": "1"}, id="lambda-str"),
    pytest.param({"lambda": float("inf")}, id="lambda-inf"),
    pytest.param({"lambda": 10**400}, id="lambda-huge"),
]

_DATASET = {"kind": "synthetic", "name": "separable-2", "seed": 3}

# data-side settings that must fail validation, before any output exists
BAD_DATA = [
    pytest.param({"dataset": {**_DATASET, "n_per_class": 0}}, id="n_per_class-0"),
    pytest.param({"dataset": {**_DATASET, "n_per_class": "a"}}, id="n_per_class-str"),
    pytest.param({"dataset": {**_DATASET, "n_per_class": 12.5}}, id="n_per_class-float"),
    # floor(0.1 * 5) = 0 rows of each class for val and test
    pytest.param({"dataset": {**_DATASET, "n_per_class": 5}}, id="n_per_class-split-empty"),
    pytest.param({"split": {"train": 0.5}}, id="split-missing-keys"),
    pytest.param({"split": {"train": 2, "val": 0.1, "test": 0.1}}, id="split-train-2"),
    pytest.param({"split": {"train": 0.8, "val": 0.3, "test": 0.1}}, id="split-sum"),
    pytest.param({"split": {"train": "0.8", "val": 0.1, "test": 0.1}}, id="split-str"),
    pytest.param({"split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": 1.5}}, id="split-seed"),
    pytest.param({"split": [0.8, 0.1, 0.1]}, id="split-list"),
    pytest.param({"corruption": {"noise_rate": 2}}, id="noise_rate-2"),
    pytest.param({"corruption": {"noise_rate": "x"}}, id="noise_rate-str"),
    pytest.param({"corruption": {"noise_rate": -0.1}}, id="noise_rate-neg"),
    pytest.param({"corruption": "noise"}, id="corruption-str"),
    pytest.param({"dataset": {**_DATASET, "seed": 2.5}}, id="dataset-seed-float"),
    pytest.param({"corruption": {"noise_rate": 0.1, "noise_seed": "7"}}, id="noise_seed-str"),
    pytest.param({"corruption": {"imbalance": [1]}}, id="imbalance-list"),
    pytest.param({"corruption": {"imbalance": {"keep_frac": "0.5"}}}, id="imbalance-keep-str"),
    pytest.param({"corruption": {"imbalance": {"affected_frac": 1.0}}}, id="imbalance-affected-1"),
    pytest.param({"corruption": {"imbalance": {"seed": 1.5}}}, id="imbalance-seed-float"),
    pytest.param({"standardize": "no"}, id="standardize-str"),
    pytest.param({"standardize": 0}, id="standardize-0"),
    pytest.param({"dataset": {"kind": "libsvm", "path": 3}}, id="libsvm-path-int"),
    pytest.param({"dataset": {"kind": "libsvm"}}, id="libsvm-path-missing"),
    pytest.param({"dataset": {"kind": "libsvm", "path": str(Path(__file__).with_name("missing.libsvm"))}},
                 id="libsvm-file-missing"),
    pytest.param({"dataset": {"kind": "libsvm", "path": str(Path(__file__).parent)}}, id="libsvm-file-dir"),
    # this test module is not LIBSVM text
    pytest.param({"dataset": {"kind": "libsvm", "path": str(Path(__file__))}}, id="libsvm-file-malformed"),
    pytest.param({"dataset": {**_DATASET, "name": "overlapping-4"}, "loss": "hinge"}, id="hinge-4-classes"),
    pytest.param({"dataset": {"kind": "libsvm", "path": str(Path(__file__).with_name("one_class.libsvm"))},
                  "corruption": {"noise_rate": 0.2}}, id="libsvm-one-class-noise"),
]

# repeated values that would give two cells one trace file
BAD_REPEATS = [
    pytest.param({"strategies": ["random", "random"]}, id="strategies-repeated"),
    pytest.param({"seeds": [1, 1]}, id="seeds-repeated"),
]


def base_config(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "name": "separable-2", "n_per_class": 50, "seed": 3},
        "split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": 1},
        "model": {"arch": "logistic"},
        "loss": "cross_entropy",
        "strategies": ["glister", "random"],
        "budgets": [0.2, 0.4],
        "epochs": 6,
        "select_every": 3,
        "lr": 0.003,
        "batch_size": 10,
        "seeds": [1, 2],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_run_produces_cross_product(tmp_path):
    path, cfg = base_config(tmp_path)
    assert cmd_run(str(path)) == 0
    out = Path(cfg["output_dir"])
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    # 2 strategies x 2 budgets x 2 seeds
    assert len(traces) == 8
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary) == 8


def test_run_full_ignores_budgets(tmp_path):
    path, cfg = base_config(tmp_path, strategies=["full"], seeds=[1, 2, 3])
    assert cmd_run(str(path)) == 0
    out = Path(cfg["output_dir"])
    assert len(list(out.glob("trace_full_*.csv"))) == 3


def test_run_summary_matches_trace_final_row(tmp_path):
    path, cfg = base_config(tmp_path, strategies=["random"], budgets=[0.3], seeds=[1])
    assert cmd_run(str(path)) == 0
    out = Path(cfg["output_dir"])
    summary = json.loads((out / "summary.json").read_text())
    row = summary[0]
    assert list(row) == [
        "strategy", "budget", "seed", "run_seed", "final_test_acc", "final_val_loss",
        "total_wall_s", "total_sel_s", "total_train_s", "subset_digest", "max_row_norm",
        "trace_file",
    ]
    text = (out / row["trace_file"]).read_text()
    assert text.splitlines()[0] == (
        "epoch,wall_s,sel_s,train_loss,full_train_loss,val_loss,test_acc,"
        "subset_digest,dot_vt,cos_theta,grad_norm_t,lr_bound"
    )
    trace = trace_from_csv(text)
    last = trace.records[-1]
    assert row["final_test_acc"] == last.test_acc
    assert row["final_val_loss"] == last.val_loss
    assert row["total_wall_s"] == last.wall_s
    assert row["total_train_s"] >= row["total_sel_s"]
    assert row["subset_digest"] == last.subset_digest


def test_run_summary_roundtrip(tmp_path):
    path, cfg = base_config(tmp_path, strategies=["random"], budgets=[0.3], seeds=[1])
    cmd_run(str(path))
    out = Path(cfg["output_dir"])
    text = (out / "summary.json").read_text()
    assert json.loads(json.dumps(json.loads(text))) == json.loads(text)


def test_failed_summary_write_keeps_previous_summary(tmp_path, monkeypatch):
    """A summary write that fails part way (here a full disk) leaves the
    previous summary.json whole and no temp file behind."""
    path, cfg = base_config(tmp_path, strategies=["random"], budgets=[0.3], seeds=[1], epochs=2)
    assert cmd_run(str(path)) == 0
    out = Path(cfg["output_dir"])
    before = (out / "summary.json").read_text()
    real_open = Path.open

    class FullDisk:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[:5])
            raise OSError(errno.ENOSPC, "No space left on device")

    def open_on_full_disk(self, mode="r", *args, **kwargs):
        f = real_open(self, mode, *args, **kwargs)
        return FullDisk(f) if "w" in mode and self.name.startswith("summary") else f

    monkeypatch.setattr(Path, "open", open_on_full_disk)
    assert cmd_run(str(path)) == 1
    monkeypatch.undo()
    assert (out / "summary.json").read_text() == before
    assert sorted(p.name for p in out.iterdir() if p.name.startswith("summary")) == ["summary.json"]


def test_unknown_keys_rejected(tmp_path):
    path, _ = base_config(tmp_path, typo_key=1)
    assert cmd_run(str(path)) == 2


def test_bad_schema_version(tmp_path):
    path, _ = base_config(tmp_path, schema_version=2)
    assert cmd_run(str(path)) == 2


def test_unknown_strategy_rejected(tmp_path):
    path, _ = base_config(tmp_path, strategies=["warp"])
    assert cmd_run(str(path)) == 2


def test_bad_budget_rejected(tmp_path):
    path, _ = base_config(tmp_path, budgets=[1.5])
    assert cmd_run(str(path)) == 2


@pytest.mark.parametrize(
    "bad",
    [
        {"lr": float("nan")},
        {"lr": 0.0},
        {"lr": -0.1},
        {"lr": None},
        {"lr": 10**400},
        {"lr": "0.05"},
        {"eta": float("nan")},
        {"eta": float("inf")},
        {"eta": 0.0},
        {"batch_size": 0},
        {"batch_size": -3},
        {"epochs": 0},
        {"epochs": -1},
        {"epochs": 2.5},
        {"greedy": "bogus"},
        {"greedy": "lazy"},
        {"regularizer": "bogus"},
        {"select_every": 0},
        {"epsilon": 2.0},
        {"lambda": -1},
        {"regularizer": "random", "lambda": 2.0},
        {"loss": "bogus"},
        {"seeds": []},
        {"seeds": ["a"]},
        {"seeds": [1.5]},
        {"seeds": [True]},
        {"dataset": "separable-2"},
        {"dataset": ["synthetic"]},
        {"budgets": ["0.3"]},
        {"budgets": [None]},
        {"budgets": 0.3},
        {"strategies": {"glister": 1}},
        {"strategies": []},
        pytest.param({"budgets": [0.3, 0.301]}, id="budgets-same-tag"),
        # 80 train rows: k = round(0.08) = 0
        pytest.param({"budgets": [0.001]}, id="budget-k-0"),
        # glister refreshes at most k = round(0.1 * 80) = 8 times
        pytest.param({"budgets": [0.1], "refreshes": 9}, id="refreshes-above-k"),
        # one class keeps ceil(0.1 * 40) = 4 of its 40 rows: k = round(0.44) = 0
        pytest.param(
            {"budgets": [0.3, 0.01], "corruption": {"imbalance": {"affected_frac": 0.3, "keep_frac": 0.1}}},
            id="budget-k-0-after-imbalance",
        ),
        *BAD_MODELS,
        *BAD_DATA,
        *BAD_SELECTION,
        *BAD_REPEATS,
    ],
    ids=lambda bad: "-".join(f"{k}={v!r:.8}" for k, v in bad.items()),
)
def test_bad_optimizer_settings_rejected(tmp_path, bad):
    path, cfg = base_config(tmp_path, **bad)
    assert cmd_run(str(path)) == 2
    assert not Path(cfg["output_dir"]).exists()


def test_missing_config_file(tmp_path):
    assert cmd_run(str(tmp_path / "nope.json")) == 2


def test_output_dir_must_be_a_string(tmp_path):
    path, _ = base_config(tmp_path, output_dir=3)
    assert cmd_run(str(path)) == 2
    assert not (tmp_path / "3").exists()


def test_all_strategies_run(tmp_path):
    path, cfg = base_config(
        tmp_path,
        strategies=["full", "random", "random_prior", "craig", "knnsub_train", "knnsub_val", "glister"],
        budgets=[0.3],
        seeds=[1],
        epochs=4,
    )
    assert cmd_run(str(path)) == 0
    out = Path(cfg["output_dir"])
    assert len(list(out.glob("trace_*.csv"))) == 7


def test_corruption_config(tmp_path):
    path, cfg = base_config(
        tmp_path,
        strategies=["random"],
        budgets=[0.5],
        seeds=[1],
        corruption={"noise_rate": 0.2, "noise_seed": 5},
    )
    assert cmd_run(str(path)) == 0


def test_small_n_per_class_needs_a_plain_kind(tmp_path):
    """Only the plain kinds split; a shifted-validation kind uses every row."""
    dataset = {"kind": "synthetic", "name": "shifted-validation-2", "n_per_class": 5, "seed": 3}
    path, cfg = base_config(
        tmp_path, dataset=dataset, strategies=["random"], budgets=[0.5], seeds=[1], epochs=2
    )
    assert cmd_run(str(path)) == 0
    assert Path(cfg["output_dir"]).exists()


def test_proportional_strategies_run_on_imbalanced_train(tmp_path):
    """Validation-proportional quotas above a rare class's train rows are
    capped, so the run finishes every cell."""
    path, cfg = base_config(
        tmp_path,
        dataset={"kind": "synthetic", "name": "overlapping-4", "n_per_class": 250, "seed": 101},
        corruption={"imbalance": {"affected_frac": 0.3, "keep_frac": 0.1, "seed": 8}},
        strategies=["random_prior", "knnsub_val"],
        budgets=[0.2],
        seeds=[1],
        epochs=2,
    )
    assert cmd_run(str(path)) == 0
    assert len(list(Path(cfg["output_dir"]).glob("trace_*.csv"))) == 2


def test_trace_csv_roundtrip():
    from glister.core import EpochRecord

    trace = RunTrace(lr=0.01)
    trace.records.append(
        EpochRecord(0, 0.5, 0.1, 1.25, 2.5, 0.75, 0.9, "abc",
                    dot_vt=0.3, cos_theta=0.8, grad_norm_t=1.5, lr_bound=0.02)
    )
    trace.records.append(EpochRecord(1, 0.9, 0.0, 1.0, 2.0, 0.7, 0.95, "def"))
    back = trace_from_csv(trace_to_csv(trace), lr=0.01)
    assert back.records[0].dot_vt == 0.3
    assert back.records[1].dot_vt is None
    assert trace_to_csv(back) == trace_to_csv(trace)


def test_active_cli(tmp_path):
    cfg = {
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "name": "separable-2", "n_per_class": 60, "seed": 2},
        "split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": 1},
        "model": {"arch": "logistic"},
        "strategies": ["glister", "random", "fass"],
        "rounds": 3,
        "batch": 10,
        "epochs_per_round": 4,
        "initial_labeled": 8,
        "lr": 0.003,
        "batch_size": 10,
        "seeds": [1],
        "output_dir": str(tmp_path / "active_out"),
    }
    path = tmp_path / "active.json"
    path.write_text(json.dumps(cfg))
    assert cmd_active(str(path)) == 0
    out = Path(cfg["output_dir"])
    traces = list(out.glob("active_*.csv"))
    assert len(traces) == 3
    text = (out / "active_glister_s1.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "round,labeled_count,val_loss,test_acc,batch_digest"
    assert len(lines) == 1 + 3
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == [18, 28, 38]
    summary = json.loads((out / "summary.json").read_text())
    assert [r["trace_file"] for r in summary] == [
        "active_glister_s1.csv", "active_random_s1.csv", "active_fass_s1.csv"
    ]
    assert list(summary[0]) == [
        "strategy", "seed", "run_seed", "rounds", "batch",
        "final_test_acc", "final_val_loss", "labeled_count", "trace_file",
    ]
    assert summary[0]["labeled_count"] == 38


@pytest.mark.parametrize(
    "bad",
    [
        {"rounds": 0},
        {"initial_labeled": 0},
        {"batch": 0},
        {"epochs_per_round": 0},
        {"rounds": 2.5},
        {"select_every": 0},
        {"seeds": []},
        {"seeds": ["a"]},
        {"dataset": 3},
        {"strategies": {"fass": 1}},
        {"strategies": []},
        pytest.param({"strategies": ["fass"], "filter_mult": 0.5}, id="filter_mult=0.5"),
        pytest.param({"strategies": ["fass"], "filter_mult": "x"}, id="filter_mult='x'"),
        pytest.param({"dataset": {**_DATASET, "name": "overlapping-4"}, "initial_labeled": 3},
                     id="initial_labeled-below-4-classes"),
        # the pool holds 2 x 48 rows: too many seed labels, then too many rounds
        pytest.param({"initial_labeled": 97}, id="initial_labeled-above-pool"),
        pytest.param({"rounds": 9}, id="rounds-exhaust-pool"),
        pytest.param({"refreshes": 11}, id="refreshes-above-batch"),
        *BAD_MODELS,
        *BAD_DATA,
        *BAD_SELECTION,
        *BAD_REPEATS,
    ],
    ids=lambda bad: "-".join(f"{k}={v!r:.8}" for k, v in bad.items()),
)
def test_bad_active_settings_rejected(tmp_path, bad):
    cfg = {
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "name": "separable-2", "n_per_class": 60, "seed": 2},
        "model": {"arch": "logistic"},
        "strategies": ["glister", "random"],
        "rounds": 2,
        "batch": 10,
        "epochs_per_round": 2,
        "initial_labeled": 8,
        "seeds": [1],
        "output_dir": str(tmp_path / "active_out"),
        **bad,
    }
    path = tmp_path / "active.json"
    path.write_text(json.dumps(cfg))
    assert cmd_active(str(path)) == 2
    assert not (tmp_path / "active_out").exists()


def test_active_rounds_may_fill_the_pool(tmp_path):
    """8 seed labels and 8 batches of 11 take all 96 pool rows."""
    cfg = {
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "name": "separable-2", "n_per_class": 60, "seed": 2},
        "model": {"arch": "logistic"},
        "strategies": ["random"],
        "rounds": 8,
        "batch": 11,
        "epochs_per_round": 1,
        "initial_labeled": 8,
        "seeds": [1],
        "output_dir": str(tmp_path / "active_out"),
    }
    path = tmp_path / "active.json"
    path.write_text(json.dumps(cfg))
    assert cmd_active(str(path)) == 0
    assert json.loads((tmp_path / "active_out" / "summary.json").read_text())[0]["labeled_count"] == 96


def test_verify_unknown_suite():
    assert cmd_verify("bogus") == 2


def test_verify_determinism_suite(capsys):
    rc = cmd_verify("determinism", seed=1)
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out
    assert "sgd_epoch parameters bit-identical" in out
    assert "lockstep cells match solo runs" in out
    assert "lockstep active runs match solo runs" in out


def test_verify_json_matches_text(capsys):
    assert main(["verify", "--suite", "determinism", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["verify", "--suite", "determinism"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert report["passed"] is True and list(report["seconds"]) == ["determinism"]
    assert [c["suite"] for c in report["checks"]] == ["determinism"] * len(report["checks"])
    assert len(lines) == len(report["checks"]) + 1
    for line, check in zip(lines, report["checks"]):
        status = "PASS" if check["passed"] else "FAIL"
        assert line.startswith(f"[{status}] {check['name']}") and line.endswith(check["detail"])


def test_verify_monitor_suite(capsys):
    assert main(["verify", "--suite", "monitor"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] monitor: descent-condition violations <= 0" in out
    assert "1/1 checks passed" in out


def test_libsvm_config_path(tmp_path):
    data = "\n".join(
        f"{i % 2} 1:{(i % 7) * 0.5} 2:{(i % 3) * 1.0}" for i in range(40)
    )
    data_path = tmp_path / "toy.libsvm"
    data_path.write_text(data)
    path, cfg = base_config(
        tmp_path,
        dataset={"kind": "libsvm", "path": str(data_path)},
        strategies=["random"],
        budgets=[0.5],
        seeds=[1],
        epochs=3,
    )
    assert cmd_run(str(path)) == 0


def test_libsvm_zero_budget_exits_2_before_output(tmp_path):
    data_path = tmp_path / "toy.libsvm"
    data_path.write_text("\n".join(f"{i % 2} 1:{i}" for i in range(40)))
    # the default split trains on 32 of the 40 rows: k = round(0.32) = 0
    path, cfg = base_config(tmp_path, dataset={"kind": "libsvm", "path": str(data_path)}, budgets=[0.01])
    assert cmd_run(str(path)) == 2
    assert not Path(cfg["output_dir"]).exists()


@pytest.mark.parametrize(
    "rows, loss",
    [
        # the default 0.8/0.1/0.1 split leaves this file no validation row
        pytest.param(["1 1:0.5", "0 1:1.5", "1 1:2.5"], "cross_entropy", id="3-rows"),
        pytest.param([f"{i % 3} 1:{i}" for i in range(30)], "hinge", id="hinge-3-classes"),
    ],
)
def test_libsvm_data_errors_exit_2(tmp_path, rows, loss):
    data_path = tmp_path / "data.libsvm"
    data_path.write_text("\n".join(rows))
    path, cfg = base_config(tmp_path, dataset={"kind": "libsvm", "path": str(data_path)}, loss=loss)
    assert cmd_run(str(path)) == 2
    active = {key: value for key, value in cfg.items() if key not in ("budgets", "epochs")}
    path.write_text(json.dumps(active))
    assert cmd_active(str(path)) == 2
    assert not Path(cfg["output_dir"]).exists()


def test_derive_run_seed_distinct():
    seeds = {
        derive_run_seed(1, s, b)
        for s in ("glister", "random", "craig")
        for b in range(3)
    }
    assert len(seeds) == 9


def test_main_dispatch(tmp_path, capsys):
    assert main(["verify", "--suite", "bogus"]) == 2
    path, _ = base_config(tmp_path, strategies=["random"], budgets=[0.3], seeds=[1], epochs=2)
    assert main(["run", "--config", str(path)]) == 0


def test_rerun_overwrites_deterministically(tmp_path):
    path, cfg = base_config(tmp_path, strategies=["glister"], budgets=[0.3], seeds=[1], epochs=4)
    cmd_run(str(path))
    out = Path(cfg["output_dir"])
    first = {p.name: p.read_text() for p in out.glob("trace_*.csv")}
    cmd_run(str(path))
    second = {p.name: p.read_text() for p in out.glob("trace_*.csv")}
    assert first.keys() == second.keys()
    for name in first:
        assert strip_timing(first[name]) == strip_timing(second[name])

"""The benchmark's three workloads, each split into set-up and entry call.

A workload function takes the workload seed, a size ("full" or "toy") and a
scratch directory, builds the inputs, and returns ``(entry, check)``:

- ``entry()`` makes the timed calls into the package's public entry points
  and returns their raw outputs; an exception inside one operation is caught
  and recorded so the other operations still run;
- ``check(raw)`` turns those outputs into ``sel_s``, ``test_acc`` and one
  record per operation (id, ok, digest, error).

Everything the program sees is generated here from the seed.  The package
modules are reached through their module objects (``experiments.run_experiment``)
so that the tracer's patches are the functions called.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback

import numpy as np

from glister import active, core, data, experiments, models, verify
from glister.numerics import SeededRng

# online-noise: the criterion-5 noise setup run through `glister run`
ONLINE_SIZES = {
    "full": dict(n_per_class=625, epochs=200, select_every=20, hidden=100),
    "toy": dict(n_per_class=40, epochs=4, select_every=2, hidden=8),
}
ONLINE_STRATEGIES = ("glister", "random", "craig", "knnsub_val")

# select-scale: the multi-class MLP scale config
SCALE_SIZES = {
    "full": dict(n_train=20000, n_val=2000, n_test=2000, d=50, classes=10,
                 hidden=100, k=2000, refreshes=60),
    "toy": dict(n_train=400, n_val=80, n_test=80, d=10, classes=4,
                hidden=8, k=40, refreshes=4),
}
SCALE_EPOCHS = 2  # select_every=1, so two selections

# active-rare: the criterion-7 rare-class pool
ACTIVE_SIZES = {
    "full": dict(n_majority=500, n_rare_gen=260, n_rare=7, rounds=10, batch=50,
                 epochs_per_round=25, initial=20, hidden=100),
    "toy": dict(n_majority=30, n_rare_gen=20, n_rare=4, rounds=2, batch=5,
                epochs_per_round=2, initial=8, hidden=8),
}
ACTIVE_STRATEGIES = ("glister", "random", "fass")


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _op(op_id: str, ok: bool, digest: str | None, error: str | None = None) -> dict:
    return {"id": op_id, "ok": bool(ok), "digest": digest, "error": error}


def online_noise(seed: int, size: str, work_dir):
    """`glister run` on noisy two-blob data: four strategies, one seed."""
    p = ONLINE_SIZES[size]
    raw = {
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "name": "separable-2",
                    "n_per_class": p["n_per_class"], "seed": 100 + seed},
        "split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": 1},
        "standardize": True,
        "model": {"arch": "mlp", "hidden": p["hidden"]},
        "loss": "cross_entropy",
        "strategies": list(ONLINE_STRATEGIES),
        "budgets": [0.3],
        "epochs": p["epochs"],
        "select_every": p["select_every"],
        "r_frac": 0.03,
        "lr": 0.001,
        "batch_size": 20,
        "seeds": [seed],
        "corruption": {"noise_rate": 0.3, "noise_seed": 42 + seed},
        "output_dir": str(work_dir / "out"),
    }
    path = work_dir / "experiment.json"
    path.write_text(json.dumps(raw))
    config = experiments.load_experiment_config(path)

    def entry():
        try:
            experiments.run_experiment(config)
        except Exception as exc:  # the unit reports every cell as failed
            traceback.print_exc()
            return _failure(exc)
        return None

    def check(error):
        summary_path = config.output_dir / "summary.json"
        rows = {} if error else {r["strategy"]: r for r in json.loads(summary_path.read_text())}
        ops, accs, sel_s = [], [], 0.0
        for strategy in ONLINE_STRATEGIES:
            row = rows.get(strategy)
            if row is None:
                ops.append(_op(f"cell:{strategy}", False, None, error or "cell missing from summary"))
                continue
            ok = _finite(row["final_test_acc"], row["final_val_loss"], row["total_sel_s"])
            ops.append(_op(f"cell:{strategy}", ok, row["subset_digest"],
                           None if ok else "non-finite metric in summary"))
            accs.append(row["final_test_acc"])
            sel_s += row["total_sel_s"]
        return {"sel_s": sel_s, "test_acc": _mean(accs), "ops": ops}

    return entry, check


def scale_blobs(seed: int, n: int, d: int, classes: int, rng_stream: int, centers=None):
    """`n` rows of `classes` Gaussian blobs in `d` dimensions, labels
    interleaved (row i has class i mod classes).  Centers are drawn from
    SeededRng(seed) unless given; each call uses its own sub-stream."""
    rng = SeededRng(seed)
    if centers is None:
        centers = 0.6 * rng.split(0).normals(classes * d).reshape(classes, d)
    labels = np.arange(n) % classes
    feats = centers[labels] + rng.split(rng_stream).normals(n * d).reshape(n, d)
    return data.Dataset(feats, labels, classes), centers


def select_scale(seed: int, size: str, work_dir):
    """`glister_online_train` on 10-class d=50 blobs with k=2000, r=60."""
    p = SCALE_SIZES[size]
    shape = dict(d=p["d"], classes=p["classes"])
    train, centers = scale_blobs(seed, p["n_train"], rng_stream=1, **shape)
    val, _ = scale_blobs(seed, p["n_val"], rng_stream=2, centers=centers, **shape)
    test, _ = scale_blobs(seed, p["n_test"], rng_stream=3, centers=centers, **shape)
    train, (val, test), _ = data.standardize(train, (val, test))
    spec = models.ModelSpec("mlp", hidden=p["hidden"])
    cfg = core.GlisterConfig(k=p["k"], refreshes=p["refreshes"], select_every=1,
                             lr=0.001, batch_size=20, seed=seed)

    def entry():
        try:
            return core.glister_online_train(train, val, test, spec, cfg, SCALE_EPOCHS)
        except Exception as exc:
            traceback.print_exc()
            return _failure(exc)

    def check(result):
        if isinstance(result, str):
            ops = [_op(f"selection:{t}", False, None, result) for t in range(SCALE_EPOCHS)]
            return {"sel_s": math.nan, "test_acc": math.nan, "ops": ops}
        _, _, trace = result
        ops = []
        for rec in trace.selection_records():
            ok = _finite(rec.sel_s, rec.val_loss, rec.test_acc, rec.dot_vt, rec.cos_theta)
            ops.append(_op(f"selection:{rec.epoch}", ok, rec.subset_digest,
                           None if ok else "non-finite metric in trace"))
        if len(ops) != SCALE_EPOCHS:
            ops.append(_op("selection:count", False, None, f"{len(ops)} selections"))
        return {"sel_s": sum(r.sel_s for r in trace.records),
                "test_acc": trace.records[-1].test_acc, "ops": ops}

    return entry, check


def _initial_labeled(pool: data.Dataset, n_initial: int, rng: SeededRng) -> list[int]:
    """Proportional seed labels with at least one per class (as criterion 7)."""
    counts = pool.class_counts()
    quota = {c: max(1, round(n_initial * counts[c] / counts.sum())) for c in range(pool.num_classes)}
    while sum(quota.values()) > n_initial:
        quota[max(quota, key=lambda c: quota[c])] -= 1
    initial = []
    for c, q in quota.items():
        rows = np.flatnonzero(pool.labels == c)
        initial.extend(int(rows[i]) for i in rng.choice_no_replace(len(rows), q))
    return sorted(initial)


def active_rare(seed: int, size: str, work_dir):
    """`run_active` with glister, random and fass on the rare-class pool."""
    p = ACTIVE_SIZES[size]
    pool = verify.compose_four_class(p["n_majority"], p["n_rare_gen"], 100 + seed)
    pool = verify.downsample_classes(pool, {2: p["n_rare"], 3: p["n_rare"]}, SeededRng(seed).split(5))
    val = verify.compose_four_class(25, 25, 300 + seed)
    test = verify.compose_four_class(50, 50, 400 + seed)
    initial = _initial_labeled(pool, p["initial"], SeededRng(seed).split(71))
    spec = models.ModelSpec("mlp", hidden=p["hidden"])
    cfg = core.GlisterConfig(k=p["batch"], r_frac=0.03, lr=0.002, batch_size=10, seed=seed)
    # the acquisition calls run_active makes; timed to give sel_s
    acquirers = ("greedy_dss", "fass_acquire", "random_acquire")

    def entry():
        sel = [0.0]
        originals = {name: getattr(active, name) for name in acquirers}

        def timed(fn):
            def call(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    sel[0] += time.perf_counter() - t0
            return call

        runs = {}
        try:
            for name, fn in originals.items():
                setattr(active, name, timed(fn))
            for strategy in ACTIVE_STRATEGIES:
                try:
                    runs[strategy] = active.run_active(
                        strategy, pool, val, test, initial, spec, cfg,
                        p["rounds"], p["batch"], p["epochs_per_round"])
                except Exception as exc:
                    traceback.print_exc()
                    runs[strategy] = _failure(exc)
        finally:
            for name, fn in originals.items():
                setattr(active, name, fn)
        return runs, sel[0]

    def check(raw):
        runs, sel_s = raw
        ops, accs = [], []
        for strategy, result in runs.items():
            if isinstance(result, str):
                ops.append(_op(f"strategy:{strategy}", False, None, result))
                continue
            _, state, trace = result
            batch_digests = [r.batch_digest for r in trace.rounds]
            digest = hashlib.sha256(",".join(batch_digests).encode()).hexdigest()
            ok = (_finite(trace.final_test_acc, trace.final_val_loss)
                  and len(batch_digests) == p["rounds"]
                  and len(state.labeled) == len(initial) + p["rounds"] * p["batch"])
            ops.append(_op(f"strategy:{strategy}", ok, digest,
                           None if ok else "non-finite metric or wrong round count"))
            accs.append(trace.final_test_acc)
        return {"sel_s": sel_s, "test_acc": _mean(accs), "ops": ops}

    return entry, check


def _mean(values) -> float:
    return float(np.mean(values)) if values else math.nan


WORKLOADS = {
    "online-noise": online_noise,
    "select-scale": select_scale,
    "active-rare": active_rare,
}

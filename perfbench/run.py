"""Layered benchmark runner for the glister package.

    python3 perfbench/run.py --workload online-noise --seed 1 --seconds 20 --trace 0

Runs units of one workload, each in a fresh process (`unit.py`), for about
`--seconds` (it starts a unit only if it should end in time, and always runs
at least one), after a few set-up-only processes for the set-up time.  With `--trace 0` it prints the end-to-end
metrics; with `--trace 1` it alternates untraced and traced units and prints
the per-layer metrics.  Every subset digest is checked against the other
units of the run and, where `reference.json` holds the seed, against the
digests recorded for it.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
before it print every metric with its unit and sample count, and the
environment.  The full record, and the spans of traced units, go to
`.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("online-noise", "select-scale", "active-rare")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sel_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
}
# printed and recorded, not in the result object: accuracy varies by seed more
# than a spread bound allows (see README), and digests already gate outputs
REPORTED = {"test_acc": "fraction"}
SETUP_SAMPLES = 5  # set-up-only processes per run, besides one per unit
BUDGET_S = 170.0  # no run starts a unit that would end after this


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GLISTER_THREADS", None)  # the default scoring path
    threads = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    return env


def spawn_unit(workload: str, seed: int, size: str, *, trace=False, setup_only=False,
               unit_id="0", timeout: float = BUDGET_S) -> dict:
    """Run one unit in a fresh process; adds its `setup_s` (spawn to entry call)."""
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", workload, "--seed", str(seed),
           "--size", size, "--unit-id", unit_id, "--work-dir", str(WORK)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                              cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"unit {unit_id} of {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"unit {unit_id} of {workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["entry_t"] - spawned
    return result


def _source_identity() -> dict:
    """The commit when the checkout is a git repository, and always a hash
    of the package source."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": h.hexdigest()}


def check_ops(units: list[dict], expected: dict | None) -> list[dict]:
    """One verdict per operation of every unit.  An operation fails if it
    raised or reported a non-finite metric, if its digest differs from the
    same operation in the run's first unit, or from `expected`."""
    first = {op["id"]: op["digest"] for op in units[0]["ops"]}
    verdicts = []
    for i, unit in enumerate(units):
        for op in unit["ops"]:
            error = None if op["ok"] else op["error"] or "operation failed"
            if error is None and op["digest"] != first.get(op["id"]):
                error = "digest differs from the first unit of this run"
            if error is None and expected is not None and op["digest"] != expected.get(op["id"]):
                error = "digest differs from the reference"
            verdicts.append({"unit": i, "id": op["id"], "digest": op["digest"], "error": error})
    return verdicts


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 reference: dict | None = None) -> tuple[list[str], dict, dict]:
    """Measure one workload; returns (report lines, result object, full record)."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "glister" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    start = time.monotonic()
    remaining = lambda: BUDGET_S - (time.monotonic() - start)
    setups = [spawn_unit(workload, seed, size, setup_only=True, unit_id=f"setup{i}",
                         timeout=remaining())["setup_s"] for i in range(SETUP_SAMPLES)]
    units, traced = [], []
    while True:
        t0 = time.monotonic()
        units.append(spawn_unit(workload, seed, size, unit_id=str(len(units)), timeout=remaining()))
        if trace:
            traced.append(spawn_unit(workload, seed, size, trace=True,
                                     unit_id=f"traced{len(traced)}", timeout=remaining()))
        # start another unit only if one as long as the last ends in time
        now = time.monotonic()
        if (now - start) + (now - t0) > min(seconds, BUDGET_S):
            break

    expected = (reference or {}).get(workload, {}).get(str(seed))
    verdicts = check_ops(units + traced, expected)
    failed = sum(v["error"] is not None for v in verdicts)
    samples = {
        "wall_s": [u["wall_s"] for u in units],
        "setup_s": setups + [u["setup_s"] for u in units],
        "sel_s": [u["sel_s"] for u in units],
        "peak_rss_mb": [u["peak_rss_mb"] for u in units],
        "test_acc": [u["test_acc"] for u in units],
    }
    values = {name: _median(v) for name, v in samples.items()}
    values["pass_frac"] = 1.0 - failed / len(verdicts)
    env = dict(units[0]["env"], seed=seed, workload=workload, size=size, **_source_identity())

    lines = [f"# {workload} seed={seed} size={size} units={len(units)} traced_units={len(traced)}",
             "# env " + json.dumps(env, sort_keys=True)]
    for name, unit in dict(END_TO_END, **REPORTED).items():
        basis = f"median of {len(samples[name])}" if name in samples else f"{len(verdicts)} operations"
        lines.append(f"{name:<16} {values[name]:.6g} {unit}  ({basis})")
    lines.append(f"{'fail_frac':<16} {failed / len(verdicts):.6g} fraction"
                 f"  ({failed} of {len(verdicts)} operations failed)")
    for v in verdicts:
        if v["error"] is not None:
            lines.append(f"# FAILED unit {v['unit']} {v['id']}: {v['error']}")

    if trace:
        from tracing import LAYER_UNITS

        layer_units = dict(LAYER_UNITS, traced_wall_s="s", trace_overhead_s="s")
        metrics = {name: _median(t["layers"][name] for t in traced) for name in LAYER_UNITS}
        metrics["traced_wall_s"] = _median(t["wall_s"] for t in traced)
        metrics["trace_overhead_s"] = metrics["traced_wall_s"] - values["wall_s"]
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in metrics.items()}
        lines += [f"{k:<44} {m['value']:.6g} {m['unit']}  (median of {len(traced)} traced units)"
                  for k, m in metrics.items()]
        lines.append("# largest self times: " + ", ".join(
            f"{name} {s:.3f}s" for name, s in traced[0]["top_self"]))
        share = metrics["core.greedy_dss.total_s"]["value"] / metrics["traced_wall_s"]["value"]
        lines.append(f"# core.greedy_dss.total_s is {share:.1%} of traced_wall_s")
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    # a non-finite value (its operations all failed) is printed as 0 in a failed run
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    metrics = {k: {"value": m["value"] if math.isfinite(m["value"]) else 0.0, "unit": m["unit"]}
               for k, m in metrics.items()}
    result = {"correct": failed == 0 and finite, "attempted": len(verdicts), "failed": failed,
              "metrics": metrics}
    record = {"env": env, "samples": samples, "verdicts": verdicts, "result": result}
    return lines, result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Layered benchmark of the glister package.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    try:
        lines, result, record = run_workload(args.workload, args.seed, args.seconds,
                                             bool(args.trace), reference=reference)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

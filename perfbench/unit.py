"""Run one unit of a benchmark workload in this (fresh) process.

The runner (`run.py`) starts one of these per unit, so each unit's peak RSS
and set-up time are its own.  Usage:

    python3 perfbench/unit.py --workload online-noise --seed 1 [--size toy]
        [--trace] [--setup-only] [--unit-id ID] --work-dir DIR

The last line of standard output is one JSON object: the monotonic clock
reading at the first call into the workload's entry point (`entry_t`), and
unless `--setup-only` also `wall_s`, `sel_s`, `test_acc`, `peak_rss_mb`, the
per-operation records, and with `--trace` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    """Versions and thread settings this unit ran with."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "glister_threads": os.environ.get("GLISTER_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--unit-id", default="0")
    ap.add_argument("--work-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import glister

    if Path(glister.__file__).resolve().parent != (ROOT / "src" / "glister").resolve():
        print(f"glister imported from {glister.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = tracing.Tracer(args.unit_id) if args.trace else None
    if tracer:
        tracer.install()
    try:
        with tempfile.TemporaryDirectory(dir=args.work_dir) as tmp:
            entry, check = workloads.WORKLOADS[args.workload](args.seed, args.size, Path(tmp))
            result = {"entry_t": time.monotonic()}
            if not args.setup_only:
                t0 = time.perf_counter()
                raw = entry()
                result["wall_s"] = time.perf_counter() - t0
                result.update(check(raw))
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.uninstall()
    if tracer and not args.setup_only:
        result["layers"] = tracer.layer_metrics()
        result["top_self"] = tracer.top_self()[:5]
        tracer.write(args.work_dir / f"spans-{args.workload}-seed{args.seed}-{args.unit_id}.jsonl")
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

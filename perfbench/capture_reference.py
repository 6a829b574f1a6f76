"""Record the full-size subset digests of every workload as the reference.

    python3 perfbench/capture_reference.py 1 2 3

Runs one unit per workload and seed and merges the operations' digests into
`perfbench/reference.json`, which `run.py` checks every run against.  Run it
only at a commit whose selections are known good: a later change that alters
a digest then shows as failed operations.
"""

from __future__ import annotations

import json
import sys

import run


def main(seeds: list[int]) -> int:
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    run.WORK.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        for seed in seeds:
            unit = run.spawn_unit(workload, seed, "full", unit_id=f"capture{seed}")
            bad = [op["id"] for op in unit["ops"] if not op["ok"]]
            if bad:
                print(f"{workload} seed {seed}: operations {bad} failed; nothing recorded")
                return 1
            reference.setdefault(workload, {})[str(seed)] = {op["id"]: op["digest"] for op in unit["ops"]}
            print(f"{workload} seed {seed}: {len(unit['ops'])} digests")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [1]))

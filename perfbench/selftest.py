"""Fast self-test of the benchmark runner, at toy sizes (about 20 s).

    python3 perfbench/selftest.py

For every workload it checks that a traced run prints every end-to-end and
every per-layer metric by name with its unit, that the result object holds
exactly the metrics `BENCHMARK.json` names, and that a tampered reference
digest is counted as a failed operation.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import re
import sys

import run
from tracing import LAYER_UNITS


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if declared_e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    printed = dict(run.END_TO_END, **run.REPORTED, fail_frac="fraction", **declared_layers)
    for workload in run.WORKLOADS:
        lines, traced, record = run.run_workload(workload, 1, 0, trace=True, size="toy")
        text = "\n".join(lines)
        for name, unit in printed.items():
            if not re.search(rf"^{re.escape(name)} +\S+ {re.escape(unit)}\b", text, re.M):
                problems.append(f"{workload}: {name} [{unit}] not printed")
        if {k: m["unit"] for k, m in traced["metrics"].items()} != declared_layers:
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
        if not traced["correct"] or traced["failed"]:
            problems.append(f"{workload}: toy run not correct")

        digests = {v["id"]: v["digest"] for v in record["verdicts"] if v["unit"] == 0}
        victim = sorted(digests)[0]
        tampered = {workload: {"1": dict(digests, **{victim: "0" * 64})}}
        _, result, _ = run.run_workload(workload, 1, 0, trace=False, size="toy", reference=tampered)
        if set(result["metrics"]) != set(declared_e2e):
            problems.append(f"{workload}: untraced metrics differ from BENCHMARK.json end_to_end")
        expected_pass = 1.0 - 1.0 / result["attempted"]
        if (result["correct"] or result["failed"] != 1
                or result["metrics"]["pass_frac"]["value"] != expected_pass):
            problems.append(f"{workload}: tampered digest of {victim} not counted as one failure")
        print(f"{workload}: {len(printed)} metrics printed, tampered {victim} -> "
              f"failed {result['failed']} of {result['attempted']}")
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

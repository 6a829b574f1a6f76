"""Experiment runner CLI: run / active / verify subcommands.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or
arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    ConfigError,
    load_active_config,
    load_experiment_config,
    run_active_experiment,
    run_experiment,
)
from .verify import SUITES, run_suite

__all__ = ["main", "cmd_run", "cmd_active", "cmd_verify"]


def _run_config(config_path: str, load, run, noun: str) -> int:
    """Load and validate a config (exit 2 on failure), then run it (exit 1
    on failure)."""
    try:
        config = load(config_path)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run(config)
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 1
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(summary)} {noun} to {config.output_dir}")
    return 0


def cmd_run(config_path: str) -> int:
    return _run_config(config_path, load_experiment_config, run_experiment, "runs")


def cmd_active(config_path: str) -> int:
    return _run_config(config_path, load_active_config, run_active_experiment, "active runs")


def cmd_verify(suite: str, seed: int = 0, as_json: bool = False) -> int:
    """Run a suite and print each check, as text or (`as_json`) as one JSON
    object of the checks and each suite's seconds; exit 0 if all pass."""
    try:
        runs, ok = run_suite(suite, seed)
    except KeyError as exc:
        if exc.args != (suite,):  # a fault inside a suite, not its name
            raise
        print(f"unknown suite {suite!r}; choose from {['all', *SUITES]}", file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps({
            "passed": ok,
            "seconds": {name: round(s, 3) for name, _, s in runs},
            "checks": [
                {"suite": name, "name": c.name, "passed": c.passed, "detail": c.detail}
                for name, checks, _ in runs for c in checks
            ],
        }, indent=1))
    else:
        checks = [c for _, suite_checks, _ in runs for c in suite_checks]
        width = max(len(c.name) for c in checks)
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{status}] {c.name:<{width}}  {c.detail}")
        print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="glister", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run selection + training experiments")
    p_run.add_argument("--config", required=True)

    p_active = sub.add_parser("active", help="run active-learning experiments")
    p_active.add_argument("--config", required=True)

    p_verify = sub.add_parser("verify", help="run a property/oracle suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true", help="print one JSON object")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "active":
        return cmd_active(args.config)
    if args.command == "verify":
        return cmd_verify(args.suite, args.seed, args.json)
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())

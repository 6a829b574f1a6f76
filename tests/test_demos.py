"""The demos run end to end: demos 01-04 and 06 each exit 0 in a fresh
interpreter, so a change to the API they call (demo 01 calls every greedy
engine) fails here instead of for a reader.  Demo 05, active learning, takes
about 6.5 s on a 2-core machine and is left out to keep the suite short."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p for p in (ROOT / "demos").glob("0*.py") if not p.name.startswith("05_"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr

"""Demo scripts: each runs to completion without writing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = [
    "01_model_and_edges.py",
    "02_validate_and_witness.py",
    "03_zone_and_closed_forms.py",
    "04_spectra_and_gaps.py",
    "05_recolouring_walks.py",
    "06_explore_open_territory.py",
]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs_cleanly(name):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout

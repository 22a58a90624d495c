"""Smoke test: the quick narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# demos 04 and 05 take seconds each and only exercise replicate_study and
# segment, which the unit tests cover
QUICK_DEMOS = [
    "01_basic_detection.py",
    "02_information_criterion.py",
    "03_monotone_invariance.py",
]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


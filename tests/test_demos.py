"""Smoke test: the quick demos run to completion at their defaults."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankseg import DetectorConfig, ModelSpec, StopRule, detect, generate

ROOT = Path(__file__).resolve().parent.parent
# demos 04 and 05 take seconds each and only exercise replicate_study and
# segment, which the unit tests cover
QUICK_DEMOS = [
    "01_basic_detection.py",
    "02_information_criterion.py",
    "03_monotone_invariance.py",
    "06_null_calibration.py",
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


def test_null_statistic_is_the_firing_boundary():
    # the threshold scan fires on a no-change series exactly when S > C
    path = ROOT / "demos" / "06_null_calibration.py"
    spec = importlib.util.spec_from_file_location("null_calibration", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    for seed in range(5):
        series = generate(ModelSpec("NOCHANGE_GAUSS", seed, length=120))
        for norm, stat in demo.null_statistic(series).items():
            for factor, fires in ((1 - 1e-9, True), (1 + 1e-9, False)):
                config = DetectorConfig(
                    norm=norm, threshold_constant=stat * factor, stop=StopRule.THRESHOLD
                )
                assert (detect(series, config).n_changepoints > 0) is fires

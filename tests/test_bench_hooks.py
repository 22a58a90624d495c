"""The library names that the benchmark under ``bench/`` reads.

``bench/spans.py`` wraps the functions in its ``TARGETS`` and reads the
table's ``prefix`` and ``length``; ``bench/run.py`` reads the evaluation
set's ``mode`` to decide where a dense-rank run must agree exactly. A traced
run reports a lost target as absent and goes on, and a lost ``mode`` would
silently switch that agreement check off, so the names are pinned here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rankseg import CusumTable, DetectorConfig, Series, grid_points

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for module_name, path in spans.TARGETS:
        owner, attr, fn = spans._resolve(module_name, path)
        assert callable(fn), f"{module_name}.{path}"
        assert getattr(owner, attr) is fn


def test_table_exposes_prefix_and_length():
    x = np.arange(12.0)
    table = CusumTable(x, grid_points(x, 5))
    assert table.length == 12
    assert table.prefix.shape == (13, 5)


@pytest.mark.parametrize("T, mode", [(1000, "full"), (1001, "grid")])
def test_default_eval_set_mode(T, mode):
    x = np.random.default_rng(T).standard_normal(T)
    assert DetectorConfig().eval_points_for(Series(x)).mode == mode

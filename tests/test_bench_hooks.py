"""The library names that the benchmark under ``bench/`` reads.

``bench/spans.py`` wraps the functions in its ``TARGETS`` and reads the
table's ``prefix`` and ``length``; ``bench/run.py`` reads the evaluation
set's ``mode`` to decide where a dense-rank run must agree exactly. A traced
run reports a lost target as absent and goes on, and a lost ``mode`` would
silently switch that agreement check off, so the names are pinned here. A
target that resolves but is no longer called, or a scan handed another
constant than the one the tracer reads, would skew its counters silently,
so one traced ``segment`` call per stop rule is checked too.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rankseg import (
    CusumTable,
    DetectorConfig,
    ModelSpec,
    Series,
    generate,
    grid_points,
    overestimate,
    segment,
)

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


@pytest.mark.parametrize("stop", ["bic", "threshold"])
def test_traced_segment_calls_every_target(stop):
    spans = load_spans()
    series = generate(ModelSpec("MM_GAUSS", 0))
    config = DetectorConfig(stop=stop)
    with spans.Tracer() as tracer:
        seg = tracer.call(0, segment, series.values, config)
    assert tracer.absent == [] and not tracer.hook_errors
    # the scan fires once per detection, on the constant the tracer read
    if stop == "bic":
        calls = tracer.totals()
        for module_name, path in spans.TARGETS:
            assert calls[f"{module_name}.{path}"]["calls"] >= 1, f"{module_name}.{path}"
        assert tracer.counts["hits"] == len(overestimate(series, config).changepoints)
    else:
        assert tracer.counts["hits"] == seg.n_changepoints

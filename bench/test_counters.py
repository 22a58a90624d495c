"""Tests of the benchmark's own pieces, and work counters pinned per series.

The counters do not depend on the machine: they count intervals scanned,
contrast cells (candidate rows x evaluation points), candidates and S_T
segment terms. Run from the repository root::

    python3 -m pytest bench/test_counters.py -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import rankseg  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Tracer  # noqa: E402


def traced_segment(model, length, stop):
    series = rankseg.generate(rankseg.ModelSpec(model, 0, length=length))
    config = rankseg.DetectorConfig(stop=stop)
    with Tracer() as tracer:
        seg = tracer.call(0, rankseg.segment, series.values, config)
    return seg, tracer


def test_nochange_threshold_counters():
    seg, tracer = traced_segment("NOCHANGE_GAUSS", 1000, "threshold")
    assert seg.intervals_evaluated == 134
    assert tracer.counts["cells"] == 68_328_000
    assert tracer.totals()[spans.PROFILE]["calls"] == 134


@pytest.mark.parametrize(
    "length, candidates, terms, found",
    [(3000, 99, 5_050, 99), (6000, 199, 20_100, 1)],
)
def test_t1_bic_counters(length, candidates, terms, found):
    # T1(6000) returning 1 of its 199 change-points is the measured
    # behaviour of the unwindowed criterion, kept visible on purpose
    seg, tracer = traced_segment("T1", length, "bic")
    assert len(seg.path) == candidates
    assert tracer.counts["candidates"] == candidates
    assert tracer.counts["segment_terms"] == terms
    assert seg.n_changepoints == found


def test_tracer_restores_targets_and_reports_absent(monkeypatch):
    before = rankseg.contrast.CusumTable.profile_matrix
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("rankseg.selector", "gone"),))
    seg, tracer = traced_segment("M1", None, "bic")
    assert rankseg.contrast.CusumTable.profile_matrix is before
    assert tracer.absent == ["rankseg.selector.gone"]
    assert seg.changepoints == rankseg.segment(
        rankseg.generate(rankseg.ModelSpec("M1", 0)).values
    ).changepoints


def test_tail_keeps_ten_samples_beyond():
    for n in (11, 16, 24, 40, 333):
        value, pct, beyond = run.tail([float(i) for i in range(n)])
        assert beyond >= 10
        assert sum(v > value for v in range(n)) == beyond
    assert run.tail([3.0, 1.0]) == (3.0, 100, 0)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in spans.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

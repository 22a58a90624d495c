"""Benchmark of ``rankseg.segment`` on three seeded workloads.

Run from the repository root::

    python3 bench/run.py --workload null-calib --seed 0 --seconds 30 --trace 0

The program under test is imported from ``src/`` next to this directory. All
series are generated from ``--seed`` before timing starts, and the timed loop
is closed: one caller, one process, whole rounds of the workload's cells
until ``--seconds`` have passed. After timing, every output is checked, each
pool series is scored against its truth, and a subset is re-run on dense
ranks. With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` rounds alternate between
untraced and traced calls, the per-layer metrics are reported instead, and
the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # one BLAS thread, set before numpy loads: the program's BLAS calls are
    # tiny, and one thread per process keeps runs steady on a small box
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, build_pool, generate_cell, warmup_seed  # noqa: E402

# Fresh interpreter: import the package, then one warm-up call.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import rankseg
t1 = time.perf_counter()
model, length, rate, seed, stop = json.loads(sys.argv[1])
x = rankseg.generate(rankseg.ModelSpec(model, seed, length=length, rate=rate)).values
config = rankseg.DetectorConfig(stop=stop)
t2 = time.perf_counter()
rankseg.segment(x, config)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warmup_s": t3 - t2}))
"""

END_TO_END_UNITS = {
    "series_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "exact_rate": "share",
    "ok_rate": "share",
    "rank_agree": "share",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def import_program():
    """Import ``rankseg`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "rankseg" / "__init__.py").is_file():
        raise BenchError(f"no rankseg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankseg

    if Path(rankseg.__file__).resolve().parent != (SRC / "rankseg").resolve():
        raise BenchError(f"imported rankseg from {rankseg.__file__}, not {SRC}")
    return rankseg


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def warmup_args(workload, seed: int) -> str:
    cell = workload.warmup
    return json.dumps([cell.model, cell.length, cell.rate, warmup_seed(workload, seed), workload.stop])


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this checkout's ``src/`` and wait for it."""
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"child interpreter failed: {proc.stderr.strip()[-500:]}")
    return proc


def measure_setup(workload, seed: int) -> list[float]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = run_child(["-c", SETUP_CHILD, warmup_args(workload, seed)])
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append(rec["import_s"] + rec["warmup_s"])
    return out


def measure_import_tree() -> dict:
    """Cumulative import seconds per module from ``python -X importtime``."""
    proc = run_child(["-X", "importtime", "-c", "import rankseg"])
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative


def warm_up(run: "Run", seed: int) -> None:
    """One untimed call, so lazy imports and first-call costs are paid."""
    warm = generate_cell(run.rankseg, run.workload.warmup, warmup_seed(run.workload, seed))
    run.rankseg.segment(warm.values, run.config)


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns the nearest-rank value, the percentile and the samples beyond;
    with fewer than eleven samples it is the maximum, at percentile 100.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    if n < 11:
        return ordered[-1], 100, 0
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return ordered[rank - 1], pct, n - rank


def invalid_reason(rankseg, seg, length: int, stop: str) -> str | None:
    """Why ``seg`` is not a valid segmentation of a length-``length`` series."""
    if not isinstance(seg, rankseg.Segmentation):
        return f"returned {type(seg).__name__}"
    cps = tuple(seg.changepoints)
    if seg.length != length:
        return f"length {seg.length} != {length}"
    if not all(isinstance(c, (int, np.integer)) for c in cps):
        return "non-integer change-point"
    if any(b <= a for a, b in zip(cps, cps[1:])) or any(c < 1 or c > length - 1 for c in cps):
        return "change-points not strictly increasing in [1, T-1]"
    if len(seg.scores) != len(cps) or not all(math.isfinite(s) for s in seg.scores):
        return "scores missing or not finite"
    if stop == "bic":
        if seg.bic is None or seg.path is None:
            return "bic result without path or criterion"
        if tuple(seg.bic.changepoints) != cps or not set(cps) <= set(seg.path.ordered):
            return "change-points disagree with the solution path"
    return None


class Run:
    """Outcomes of every call, keyed by series id, plus failure bookkeeping."""

    def __init__(self, rankseg, workload, config):
        self.rankseg = rankseg
        self.workload = workload
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.cps: dict[int, tuple] = {}
        self.intervals: dict[int, int] = {}
        self.problems: list[str] = []

    def call(self, item, timer=None):
        """Segment one pool series; returns the seconds the call took."""
        self.attempted += 1
        seg = error = None
        t0 = time.perf_counter()
        try:
            if timer is None:
                seg = self.rankseg.segment(item.values, self.config)
            else:
                seg = timer(item.sid, self.rankseg.segment, item.values, self.config)
        except Exception as exc:  # a raising call is a failure, not the end of the run
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.record(item.sid, item.cell.label, len(item.values), seg, error)
        return elapsed

    def record(self, sid, label, length, seg, error):
        reason = error or invalid_reason(self.rankseg, seg, length, self.workload.stop)
        if reason is not None:
            self.failed += 1
            self.problems.append(f"{label} #{sid}: {reason}")
            self.cps.setdefault(sid, None)
            return
        cps = tuple(int(c) for c in seg.changepoints)
        if self.cps.setdefault(sid, cps) != cps:
            self.problems.append(f"{label} #{sid}: repeated call gave another result")
        self.intervals[sid] = seg.intervals_evaluated


def timed_rounds(run: Run, pool, seconds: float, traced=None) -> dict:
    """Whole rounds until ``seconds`` pass; with ``traced``, rounds alternate.

    Rounds walk the pool in order and wrap around only when it runs out.
    Returns, per mode (plain, traced), each round's call latencies.
    """
    rounds = {"plain": [], "traced": []}
    modes = ("plain",) if traced is None else ("plain", "traced")
    start = time.perf_counter()
    rnd = 0
    while True:
        items = pool[rnd % len(pool)]
        for mode in modes:
            if mode == "plain":
                rounds[mode].append([run.call(item) for item in items])
            else:
                with traced:
                    rounds[mode].append([run.call(item, traced.call) for item in items])
        rnd += 1
        if time.perf_counter() - start >= seconds:
            break
    return rounds


def rate(rounds: list[list[float]]) -> float:
    """Series per second: the median over rounds of calls / busy seconds.

    The median keeps one round slowed by another process on the box from
    moving the result.
    """
    return statistics.median(len(r) / sum(r) for r in rounds)


def slot_medians(rounds: list[list[float]]) -> list[float]:
    """Median latency in seconds of each slot of the round."""
    return [statistics.median(r[i] for r in rounds) for i in range(len(rounds[0]))]


def score(run: Run, pool) -> dict:
    """Accuracy over the first ``score_rounds`` pool rounds.

    Series the timed loop did not reach are run now, so the figures depend
    on the seed only, never on the speed of the machine.
    """
    exact, dists = [], []
    for items in pool[: run.workload.score_rounds]:
        for item in items:
            if item.sid not in run.cps:
                run.call(item)
            cps = run.cps[item.sid]
            if cps is None:
                exact.append(0.0)
                continue
            exact.append(float(len(cps) == len(item.truth)))
            scale = run.rankseg.largest_segment(item.truth, len(item.values))
            d = run.rankseg.hausdorff(item.truth, cps, scale)
            if d is not None:
                dists.append(d)
    return {
        "exact_rate": statistics.fmean(exact),
        "mean_dh": statistics.fmean(dists) if dists else None,
        "scored": len(exact),
        "dh_series": len(dists),
    }


def rank_check(run: Run, pool) -> dict:
    """Re-run the rank subset on dense ranks and compare change-point sets.

    ``rank_agree`` pools the sets over the checked series: change-points
    found on both inputs over those found on either (1 when neither finds
    any), so the long series with many change-points weigh in by their size.

    ``np.unique(..., return_inverse=True)`` gives strictly increasing,
    tie-preserving ranks. On the exact evaluation set (Q = T) the result must
    not change; a change there is a defect and fails the run.
    """
    rankseg = run.rankseg
    both = union = checked = mismatched = 0
    for items in pool[: run.workload.rank_rounds]:
        for idx in run.workload.rank_cells:
            item = items[idx]
            raw = run.cps[item.sid]
            ranks = np.unique(item.values, return_inverse=True)[1]
            run.attempted += 1
            try:
                seg = rankseg.segment(ranks, run.config)
                reason = invalid_reason(rankseg, seg, len(ranks), run.workload.stop)
            except Exception as exc:  # counted as a failed call
                reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                run.failed += 1
                run.problems.append(f"{item.cell.label} #{item.sid} on ranks: {reason}")
            checked += 1
            if reason is not None or raw is None:
                mismatched += 1
                union += 1
                continue
            a, b = set(raw), set(int(c) for c in seg.changepoints)
            both += len(a & b)
            union += len(a | b)
            if a != b:
                mismatched += 1
                if exact_eval_set(run.config, item.values, rankseg):
                    run.problems.append(f"{item.cell.label} #{item.sid}: rank mismatch with Q = T")
    return {
        "rank_agree": both / union if union else 1.0,
        "rank_mismatch_rate": mismatched / checked,
        "rank_checked": checked,
    }


def exact_eval_set(config, values, rankseg) -> bool:
    """Whether the program evaluates this series at all its data values."""
    try:
        return config.eval_points_for(rankseg.Series(values)).mode == "full"
    except AttributeError:
        return False


def environment() -> dict:
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_plain(rankseg, workload, pool, run: Run, args) -> tuple[dict, dict, dict]:
    """End-to-end metrics, the nine printed figures and run details."""
    setups = measure_setup(workload, args.seed)
    warm_up(run, args.seed)

    rounds = timed_rounds(run, pool, args.seconds)["plain"]
    lat = [t for r in rounds for t in r]
    per_slot = slot_medians(rounds)
    tail_s, tail_pct, beyond = tail(lat)
    acc = score(run, pool)
    ranks = rank_check(run, pool)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics = {
        "series_per_s": rate(rounds),
        # median over slots of each slot's median: the plain median of a
        # balanced mix can fall between two cells and ride on their extremes
        "call_p50_ms": 1e3 * statistics.median(per_slot),
        "call_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
        "exact_rate": acc["exact_rate"],
        "ok_rate": 1.0 - run.failed / run.attempted,
        "rank_agree": ranks["rank_agree"],
    }
    figures = {
        "series_per_s": (metrics["series_per_s"], "1/s"),
        "call_p50_ms": (metrics["call_p50_ms"], "ms"),
        "call_tail_ms": (metrics["call_tail_ms"], "ms"),
        "setup_s": (metrics["setup_s"], "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "exact_rate": (acc["exact_rate"], "share"),
        "mean_dh": (acc["mean_dh"], "d_H/largest segment"),
        "fail_rate": (run.failed / run.attempted, "share"),
        "rank_mismatch_rate": (ranks["rank_mismatch_rate"], "share"),
    }
    detail = {
        "timed_calls": len(lat),
        "rounds": len(rounds),
        "timed_s": sum(lat),
        "call_median_all_ms": 1e3 * statistics.median(lat),
        "round_rates": [round(len(r) / sum(r), 4) for r in rounds],
        "call_tail_percentile": tail_pct,
        "call_tail_beyond": beyond,
        "setup_runs_s": setups,
        "per_slot_p50_ms": {
            f"{i}:{item.cell.label}": 1e3 * t for i, (item, t) in enumerate(zip(pool[0], per_slot))
        },
        "figures": figures,
        "scored_series": acc["scored"],
        "dh_series": acc["dh_series"],
        "rank_checked": ranks["rank_checked"],
    }
    return metrics, figures, detail


def run_traced(rankseg, workload, pool, run: Run, args) -> tuple[dict, dict, dict]:
    """Per-layer metrics (also the printed table) and run details."""
    imports = measure_import_tree()
    warm_up(run, args.seed)

    tracer = Tracer()
    timed = timed_rounds(run, pool, args.seconds, traced=tracer)
    n_rounds = len(timed["traced"])
    traced_calls = sum(len(r) for r in timed["traced"])
    # the traced calls of each round are the same series as its plain calls
    intervals = sum(
        run.intervals.get(item.sid, 0)
        for rnd in range(n_rounds)
        for item in pool[rnd % len(pool)]
    )
    metrics = tracer.layer_metrics(traced_calls, intervals)
    plain_rate = rate(timed["plain"])
    traced_rate = rate(timed["traced"])
    metrics["selector.import_s"] = imports.get("rankseg.selector", 0.0)
    metrics["trace.series_per_s"] = traced_rate
    metrics["trace.untraced_series_per_s"] = plain_rate
    metrics["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
    absent = tracer.absent_metrics()
    for name in absent:
        metrics[name] = 0.0
    metrics = {name: metrics[name] for name, _, _ in PER_LAYER}
    table = {name: (metrics[name], unit) for name, unit, _ in PER_LAYER}

    labels = {item.sid: item.cell.label for items in pool for item in items}
    by_model: dict = {}
    for sid, seconds in tracer.per_series().items():
        entry = by_model.setdefault(labels.get(sid, "warm-up"), {})
        for name, sec in seconds.items():
            entry[name] = entry.get(name, 0.0) + sec
    shares = {
        label: {
            name.removeprefix("rankseg."): round(sec / entry["segment"], 4)
            for name, sec in entry.items()
            if name != "segment" and entry.get("segment")
        }
        for label, entry in by_model.items()
    }
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace_{workload.name}_seed{args.seed}.json"
    with open(trace_file, "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": args.seed,
                "span_fields": ["name", "start_ns", "end_ns", "parent", "series"],
                "series": {str(k): v for k, v in labels.items()},
                "spans": tracer.spans,
            },
            fh,
        )
    detail = {
        "traced_calls": traced_calls,
        "rounds": n_rounds,
        "absent_targets": tracer.absent,
        "absent_metrics_reported_as_0": absent,
        "counter_errors": sorted(tracer.hook_errors),
        "import_cumulative_s": {
            k: imports[k] for k in ("rankseg", "rankseg.selector", "scipy.special") if k in imports
        },
        "share_of_segment_by_model": shares,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return metrics, table, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        rankseg = import_program()
        workload = WORKLOADS[args.workload]
        pool = build_pool(rankseg, workload, args.seed)
        run = Run(rankseg, workload, rankseg.DetectorConfig(stop=workload.stop))
        if args.trace:
            metrics, table, detail = run_traced(rankseg, workload, pool, run, args)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, table, detail = run_plain(rankseg, workload, pool, run, args)
            units = END_TO_END_UNITS
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    detail = {"workload": workload.name, "seed": args.seed, "environment": environment(), **detail}
    detail["problems"] = run.problems[:20]
    for name, (value, unit) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>14s} {unit}")
    print(json.dumps(detail))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

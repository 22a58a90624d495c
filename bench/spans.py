"""Spans and work counters recorded around rankseg's module boundaries.

The wrappers are installed from the benchmark's own files by replacing the
module attributes and class methods listed in ``TARGETS``, and the originals
are put back when the ``Tracer`` context exits. Nothing under ``src/`` knows
about them. A span records its name, start, end, parent span and the id of
the series being segmented; spans stay in memory until the run writes them.
A target that no longer exists is reported as absent and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import weakref
from collections import Counter, defaultdict

ROOT = "segment"

# (module, attribute path) of every wrapped call; the span name is their join
TARGETS = (
    ("rankseg.selector", "detect"),
    ("rankseg.selector", "solution_path"),
    ("rankseg.selector", "bic_select"),
    ("rankseg.selector", "st_likelihood"),
    ("rankseg.selector", "norm_value"),
    ("rankseg.detector", "_profile_norms"),
    ("rankseg.contrast", "CusumTable.__init__"),
    ("rankseg.contrast", "CusumTable.profile_matrix"),
    ("rankseg.contrast", "CusumTable.row"),
    ("rankseg.detector", "DetectorConfig.eval_points_for"),
)

DETECT = "rankseg.selector.detect"
PATH = "rankseg.selector.solution_path"
SELECT = "rankseg.selector.bic_select"
ST = "rankseg.selector.st_likelihood"
NORM_VALUE = "rankseg.selector.norm_value"
NORMS = "rankseg.detector._profile_norms"
TABLE = "rankseg.contrast.CusumTable.__init__"
PROFILE = "rankseg.contrast.CusumTable.profile_matrix"
ROW = "rankseg.contrast.CusumTable.row"
EVAL_POINTS = "rankseg.detector.DetectorConfig.eval_points_for"

# Per-layer metrics of a traced run: name, unit and the targets they need.
# Times, calls and work counts are means per segmented series.
PER_LAYER = (
    ("contrast.profile_calls", "count", (PROFILE,)),
    ("contrast.profile_cells", "count", (PROFILE,)),
    ("contrast.profile_s", "s", (PROFILE,)),
    ("contrast.profile_ns_per_cell", "ns", (PROFILE,)),
    ("contrast.profile_share", "share", (PROFILE,)),
    ("aggregation.norm_calls", "count", (NORMS,)),
    ("aggregation.norm_s", "s", (NORMS,)),
    ("aggregation.norm_share", "share", (NORMS,)),
    ("contrast.table_builds", "count", (TABLE,)),
    ("contrast.table_build_s", "s", (TABLE,)),
    ("contrast.eval_points_s", "s", (EVAL_POINTS,)),
    ("contrast.table_mb", "MB", (TABLE,)),
    ("detector.scan_s", "s", (DETECT,)),
    ("detector.self_s", "s", (DETECT,)),
    ("detector.windows", "count", (DETECT, TABLE)),
    ("detector.intervals", "count", ()),
    ("detector.hits", "count", (DETECT, PROFILE, NORMS)),
    ("detector.fire_ratio", "share", (DETECT, PROFILE, NORMS)),
    ("detector.replay_cells", "count", (PROFILE,)),
    ("detector.replay_share", "share", (PROFILE,)),
    ("selector.select_s", "s", (SELECT,)),
    ("selector.select_share", "share", (SELECT,)),
    ("selector.st_calls", "count", (ST,)),
    ("selector.st_segment_terms", "count", (ST,)),
    ("selector.path_s", "s", (PATH,)),
    ("selector.path_rescores", "count", (PATH, NORM_VALUE)),
    ("selector.candidates", "count", (PATH,)),
    ("selector.kept_ratio", "share", (SELECT,)),
    ("contrast.row_calls", "count", (ROW,)),
    ("contrast.row_s", "s", (ROW,)),
    ("selector.import_s", "s", ()),
    ("segment.traced_ms", "ms", ()),
    ("trace.series_per_s", "1/s", ()),
    ("trace.untraced_series_per_s", "1/s", ()),
    ("trace.overhead_pct", "%", ()),
)


def _resolve(module_name: str, path: str):
    """The object owning the last attribute of ``path`` and that attribute."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Context manager that wraps ``TARGETS`` and records spans and counters."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index, sid]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self.sid = -1
        self._stack: list[int] = []
        self._saved: list = []
        self._scanned = weakref.WeakKeyDictionary()  # table -> {(s, e)}
        self._zeta_constant = 0.0
        self._table_length = 0

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.absent = []
        hooks = {
            DETECT: (self._enter_detect, None),
            PATH: (None, self._after_path),
            SELECT: (None, self._after_select),
            ST: (None, self._after_st),
            NORMS: (None, self._after_norms),
            TABLE: (None, self._after_table),
            PROFILE: (None, self._after_profile),
        }
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            try:
                owner, attr, fn = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            before, after = hooks.get(name, (None, None))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, before, after))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if before is not None:
                tracer._hook(name, before, args, kwargs)
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if after is not None:
                tracer._hook(name, after, args, kwargs, out)
            return out

        return wrapper

    def _hook(self, name, hook, *args) -> None:
        # a counter that no longer fits the program is noted, never fatal
        try:
            hook(*args)
        except Exception as exc:
            self.hook_errors.add(f"{name}: {type(exc).__name__}: {exc}")

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self.sid]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def call(self, sid: int, fn, *args):
        """Run ``fn(*args)`` as the root span of series ``sid``."""
        self.sid = sid
        span = self._open(ROOT)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    # -- counters taken at the boundaries ------------------------------------

    def _enter_detect(self, args, kwargs):
        config = args[1] if len(args) > 1 else kwargs.get("config")
        if config is None:
            import rankseg

            config = rankseg.DetectorConfig()
        self._zeta_constant = config.resolved_constant()

    def _after_path(self, args, kwargs, out):
        self.counts["candidates"] += len(out)

    def _after_select(self, args, kwargs, out):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["kept"] += out.chosen_j
        self.counts["kept_of"] += len(path)

    def _after_st(self, args, kwargs, out):
        bpts = args[1] if len(args) > 1 else kwargs.get("breakpoints", ())
        self.counts["segment_terms"] += len(bpts) + 1

    def _after_table(self, args, kwargs, out):
        prefix = getattr(args[0], "prefix", None)
        if prefix is not None:
            mb = prefix.nbytes / 2**20  # (T+1) * Q * itemsize
            self.counts["table_mb_max"] = max(self.counts["table_mb_max"], mb)

    def _after_profile(self, args, kwargs, out):
        table, s, e = args[0], args[1], args[2]
        self._table_length = table.length
        self.counts["cells"] += out.size
        seen = self._scanned.setdefault(table, set())
        if (s, e) in seen:
            self.counts["replay_cells"] += out.size
        else:
            seen.add((s, e))

    def _after_norms(self, args, kwargs, out):
        # only the scan's own profiles are tested against its threshold
        if not self._stack or self.spans[self._stack[-1]][0] != DETECT:
            return
        self.counts["norm_profiles"] += 1
        # the scan fires when the best split clears C * sqrt(log T_window)
        zeta = self._zeta_constant * math.sqrt(math.log(self._table_length))
        if float(out.max()) > zeta:
            self.counts["hits"] += 1

    # -- summaries ----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: call count, total seconds and self seconds."""
        child_ns = defaultdict(int)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, span in enumerate(self.spans):
            name, start, end = span[0], span[1], span[2]
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[idx]) / 1e9
        return out

    def count_children(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose parent is a ``parent_name`` span."""
        return sum(
            1
            for span in self.spans
            if span[0] == child_name
            and span[3] >= 0
            and self.spans[span[3]][0] == parent_name
        )

    def per_series(self) -> dict:
        """Per series id: seconds spent in each span name (root included)."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            out[span[4]][span[0]] += (span[2] - span[1]) / 1e9
        return out

    def layer_metrics(self, calls: int, intervals: int) -> dict:
        """The per-layer metrics that need no untraced reference, per series.

        ``calls`` is the number of traced ``segment`` calls and ``intervals``
        the sum of their ``Segmentation.intervals_evaluated``.
        """
        t = self.totals()
        c = self.counts
        n = max(calls, 1)
        seg_s = t[ROOT]["s"]

        def share(x: float, of: float) -> float:
            return x / of if of > 0 else 0.0

        return {
            "contrast.profile_calls": t[PROFILE]["calls"] / n,
            "contrast.profile_cells": c["cells"] / n,
            "contrast.profile_s": t[PROFILE]["s"] / n,
            "contrast.profile_ns_per_cell": share(t[PROFILE]["s"] * 1e9, c["cells"]),
            "contrast.profile_share": share(t[PROFILE]["s"], seg_s),
            "aggregation.norm_calls": t[NORMS]["calls"] / n,
            "aggregation.norm_s": t[NORMS]["s"] / n,
            "aggregation.norm_share": share(t[NORMS]["s"], seg_s),
            "contrast.table_builds": t[TABLE]["calls"] / n,
            "contrast.table_build_s": t[TABLE]["s"] / n,
            "contrast.eval_points_s": t[EVAL_POINTS]["s"] / n,
            "contrast.table_mb": c["table_mb_max"],
            "detector.scan_s": t[DETECT]["s"] / n,
            "detector.self_s": t[DETECT]["self_s"] / n,
            "detector.windows": self.count_children(DETECT, TABLE) / n,
            "detector.intervals": intervals / n,
            "detector.hits": c["hits"] / n,
            "detector.fire_ratio": share(c["hits"], c["norm_profiles"]),
            "detector.replay_cells": c["replay_cells"] / n,
            "detector.replay_share": share(c["replay_cells"], c["cells"]),
            "selector.select_s": t[SELECT]["s"] / n,
            "selector.select_share": share(t[SELECT]["s"], seg_s),
            "selector.st_calls": t[ST]["calls"] / n,
            "selector.st_segment_terms": c["segment_terms"] / n,
            "selector.path_s": t[PATH]["s"] / n,
            "selector.path_rescores": self.count_children(PATH, NORM_VALUE) / n,
            "selector.candidates": c["candidates"] / n,
            "selector.kept_ratio": share(c["kept"], c["kept_of"]),
            "contrast.row_calls": t[ROW]["calls"] / n,
            "contrast.row_s": t[ROW]["s"] / n,
            "segment.traced_ms": seg_s * 1e3 / n,
        }

    def absent_metrics(self) -> list[str]:
        """Per-layer metrics that could not be measured: a target is gone."""
        gone = set(self.absent)
        return [name for name, _, needs in PER_LAYER if gone.intersection(needs)]

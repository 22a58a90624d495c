"""The isolate-then-detect scanning engine with thresholded detection.

Change-points are searched in alternating right- and left-expanding intervals
built from a fixed grid of expansion points. Because the intervals grow by one
expansion step at a time, each true change-point is (with high probability)
alone in the interval where it first clears the detection threshold, which
reduces the multiple change-point problem to a sequence of single-split
maximisations.

After each detection the scan restarts on what is left of the window. The
table and the threshold are fixed within a window, so an interval profiled
without firing stays quiet: it joins the quiet set at once and is not
profiled again, in this pass (the trailing repeat of the full interval) or a
later one. On a large enough interval an exact upper bound on every split's
norm, from a few coarse levels counted off the ranks
(``CusumTable._coarse_bound``), comes first: an interval whose bound stays
below the threshold is quiet without a profile, and otherwise only the
splits whose bound clears it are profiled, so the table fills only the
blocks of rows those profiles read. Under ``linf`` a long window that
keeps few levels, such as count data, is bounded too: each level is then a
coarse column, and the bound is the norm itself.
``intervals_evaluated`` still counts every interval of the isolation order,
skipped or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, zip_longest
from typing import TYPE_CHECKING

import numpy as np

from .contrast import (
    CusumTable,
    EvalPoints,
    Norm,
    Series,
    _check_bytes,
    _check_int,
    _check_positions,
    _check_real,
    _distinct_levels,
    _profile_norms,
    as_series,
    grid_points,
)

if TYPE_CHECKING:  # pragma: no cover
    from .selector import BicResult, BicWindow, SolutionPath

__all__ = [
    "StopRule",
    "DetectorConfig",
    "Segmentation",
    "threshold",
    "interval_sequences",
    "detect",
]

# Version of the JSON documents the library and the command line write.
SCHEMA_VERSION = 5

# Threshold constant per norm; l1's is the smallest multiple of 0.05 at or above
# its no-change 95% quantile at T = 30..6000 (demos/06_null_calibration.py).
DEFAULT_CONSTANTS = {Norm.L1: 0.5, Norm.L2: 0.6, Norm.LINF: 0.9}

# Largest series length for which all T order statistics are the default
# evaluation set; above it DEFAULT_GRID_SIZE equally spaced ones take over.
FULL_EVAL_MAX = 1000
DEFAULT_GRID_SIZE = 300

# Coarse columns of the scan's bound (``CusumTable._coarse_bound``) per norm.
# The bound runs on a window that keeps at least _BOUND_MIN_LEVELS levels,
# and on an interval of at least _BOUND_MIN_ROWS splits. On fewer levels it
# costs about what it saves (short continuous windows, T = 60-80, read 5-16%
# slower with it); shorter intervals, such as T1's 15 and 30 splits, mostly
# fire, so bounding them adds work and skips nothing. Measured choices:
# BENCH_bound.json. Under linf it also runs on a window of at least
# _BOUND_MIN_LEVELS times that keeps at most 16 levels, as count data do:
# each level is then a coarse column and the bound is the norm itself
# (BENCH_narrow.json). l1 and l2 keep the level gate: on such windows their
# bounds cost about as much as the profiles they replace.
_BOUND_COLUMNS = {Norm.L1: 32, Norm.L2: 32, Norm.LINF: 16}
_BOUND_MIN_LEVELS = 96
_BOUND_MIN_ROWS = 32

# Default window length: longer series are cut into windows of this length,
# the last window absorbing a remainder shorter than half a window.
SPLIT_LENGTH = 2000


class StopRule(str, Enum):
    THRESHOLD = "threshold"
    BIC = "bic"


def threshold(constant: float, length: int) -> float:
    """Detection threshold ``constant * sqrt(log(length))`` (natural log).

    ``constant`` is a finite real >= 0 and ``length`` an integer >= 2.
    """
    constant = _check_real("constant", constant, 0)
    length = _check_int("length", length, 2)
    return constant * math.sqrt(math.log(length))


def interval_sequences(
    s: int, e: int, step: int, length: int
) -> list[tuple[int, int, str]]:
    """The interleaved list of expanding intervals scanned within ``[s, e]``.

    The expansion points of a series of length ``T = length`` are
    ``j * step + 1`` on the right and ``T - j * step`` on the left
    (``j >= 1``). Odd slots are right-expanding ``[s, r]`` over the right
    points strictly inside ``(s, e)`` and then ``r = e``; even slots are
    left-expanding ``[l, e]`` over the left points strictly inside, from the
    top, and then ``l = s``. When one side runs out its slots are skipped.
    Returns an empty list when ``e - s < 1``. Every argument is an integer
    (not a bool) with ``step >= 1``, ``s >= 1`` and ``e <= length``.
    """
    step = _check_int("step", step, 1)
    s = _check_int("s", s, 1)
    e = _check_int("e", e)
    length = _check_int("length", length)
    if e > length:
        raise ValueError(f"e must be <= length {length}, got {e}")
    return list(_interval_order(s, e, step, length))


def _interval_order(s: int, e: int, step: int, length: int):
    """``interval_sequences`` as a generator, for checked arguments."""
    if e - s < 1:
        return
    right = chain(range(((s - 1) // step + 1) * step + 1, e, step), (e,))
    left = chain(range(length - ((length - e) // step + 1) * step, s, -step), (s,))
    for r, l in zip_longest(right, left):
        if r is not None:
            yield s, r, "right"
        if l is not None:
            yield l, e, "left"


@dataclass(frozen=True)
class DetectorConfig:
    """Detector tuning knobs with the calibrated defaults.

    Parameters
    ----------
    expansion_step : int
        Interval growth per expansion; must stay below the minimum true
        spacing for the isolation guarantee to hold.
    norm : Norm
        Mean-dominant norm used for aggregation. Under ``linf`` the
        solution path ranks candidates on contrasts divided by the estimated
        indicator standard deviations; thresholded scans always use raw
        contrasts, which the calibrated constants assume.
    threshold_constant : float, optional
        Constant in the ``C * sqrt(log T)`` threshold. ``None`` selects the
        calibrated default for the norm: 0.5 for l1, 0.6 for l2 and 0.9 for
        linf (``DEFAULT_CONSTANTS``).
    stop : StopRule
        Read by ``segment``: ``threshold`` stops on the raw threshold rule;
        ``bic`` overestimates, builds a solution path and picks the model
        minimising the information criterion. ``detect`` always thresholds.
    grid : str or int
        Evaluation levels: ``"auto"`` (all ``T`` order statistics up to
        length 1000, 300 equally spaced ones beyond), ``"full"`` (all of
        them) or a number of equally spaced order statistics, capped at the
        window length. ``"auto"`` reads the whole series' ``T``, so every
        window of a series longer than 1000 points keeps 300 levels.
    split : int or None
        Window length (at least 2), 2000 by default; ``None`` disables
        splitting. A series of length ``T`` is cut into
        ``max(1, (T + split - split // 2) // split)`` windows of this
        length, the last ending at ``T``: a tail shorter than half a window
        joins the last one. Each window runs the whole rule at its own
        length: the scan and its threshold, and under ``bic`` the sweep,
        the solution path and the criterion.

    Validated numbers are stored as Python ``int``/``float``, so
    :meth:`to_dict` is JSON-ready.
    """

    expansion_step: int = 15
    norm: Norm = Norm.LINF
    threshold_constant: float | None = None
    stop: StopRule = StopRule.BIC
    grid: str | int = "auto"
    split: int | None = SPLIT_LENGTH

    def __post_init__(self):
        def store(name, value):
            object.__setattr__(self, name, value)

        store("norm", Norm(self.norm))
        store("stop", StopRule(self.stop))
        store("expansion_step", _check_int("expansion_step", self.expansion_step, 1))
        if self.threshold_constant is not None:
            store(
                "threshold_constant",
                _check_real("threshold_constant", self.threshold_constant, 0, strict=True),
            )
        if self.grid not in ("auto", "full"):
            if isinstance(self.grid, str):
                raise ValueError(f"grid must be 'auto', 'full' or an integer, got {self.grid!r}")
            store("grid", _check_int("grid", self.grid, 1))
        if self.split is not None:
            store("split", _check_int("split", self.split, 2))

    def resolved_constant(self) -> float:
        """The threshold constant in effect: the given one or the norm's default."""
        if self.threshold_constant is not None:
            return self.threshold_constant
        return DEFAULT_CONSTANTS[self.norm]

    def eval_points_for(self, series: Series) -> EvalPoints:
        """``grid_points`` at the configured size; reads only the length ``T``.

        Mode ``"full"`` (all ``T`` levels) for ``"full"``, ``"auto"`` up to
        T = 1000 and sizes >= T; otherwise ``"grid"``.
        """
        T = len(as_series(series))
        if self.grid == "auto":
            q = T if T <= FULL_EVAL_MAX else DEFAULT_GRID_SIZE
        else:
            q = T if self.grid == "full" else self.grid
        return grid_points(series, q)

    def to_dict(self) -> dict:
        """Raw settings plus the resolved values actually in effect."""
        return {
            "expansion_step": self.expansion_step,
            "norm": self.norm.value,
            "threshold_constant": self.threshold_constant,
            "stop": self.stop.value,
            "grid": self.grid,
            "split": self.split,
            "resolved": {"threshold_constant": self.resolved_constant()},
        }


@dataclass(frozen=True)
class Segmentation:
    """Detected change-points with their aggregated contrast scores.

    ``changepoints`` are sorted 1-based positions in ``[1, T-1]`` of a series
    of integer ``length`` T >= 2; ``scores[k]`` is the aggregated contrast at
    which ``changepoints[k]`` was detected (the solution-path removal score
    for the bic pipeline). ``path`` and ``bic`` are populated by that one only.

    A bic result over more than one window holds each window's own path and
    criterion in ``windows``, in series positions, and merges them: ``path``
    lists every window's kept prefix, window by window, then the rest of
    every window's path, and ``bic`` keeps ``chosen_j`` = all kept
    candidates, so ``bic.changepoints == path.model(bic.chosen_j)`` as for
    one window. ``bic.scores[j]`` is the sum of the windows' criteria at
    their shares of ``path.model(j)``, smallest at ``chosen_j``;
    ``bic.penalty`` is ``None``, as each window has its own.
    """

    changepoints: tuple[int, ...]
    scores: tuple[float, ...]
    config: DetectorConfig
    length: int
    intervals_evaluated: int = 0
    path: "SolutionPath | None" = None
    bic: "BicResult | None" = None
    windows: "tuple[BicWindow, ...]" = ()

    def __post_init__(self):
        if len(self.changepoints) != len(self.scores):
            raise ValueError("changepoints and scores must align")
        object.__setattr__(self, "length", _check_int("length", self.length, 2))
        cps = _check_positions(self.changepoints, self.length, "changepoints")
        object.__setattr__(self, "changepoints", cps)

    @property
    def n_changepoints(self) -> int:
        return len(self.changepoints)

    def to_dict(self) -> dict:
        """JSON-ready result: the ``detect`` document of ``SCHEMA_VERSION``.

        It has ``windows``, one record per window, only when ``self.windows``
        is not empty.
        """
        doc = {
            "schema": SCHEMA_VERSION,
            "length": self.length,
            "changepoints": list(self.changepoints),
            "scores": list(self.scores),
            **_path_fields(self.path, self.bic),
        }
        if self.windows:
            doc["windows"] = [
                {"bounds": [w.start, w.stop], **_path_fields(w.path, w.bic)} for w in self.windows
            ]
        doc["config"] = self.config.to_dict()
        return doc


def _path_fields(path: "SolutionPath | None", bic: "BicResult | None") -> dict:
    """The ``solution_path``, ``removal_scores`` and ``bic`` keys of a document."""
    return {
        "solution_path": None if path is None else list(path.ordered),
        "removal_scores": None if path is None else list(path.removal_scores),
        "bic": None if bic is None else {
            "chosen_j": bic.chosen_j,
            "scores": list(bic.scores),
            "penalty": bic.penalty,
        },
    }


def _window_bounds(length: int, win: int) -> list[tuple[int, int]]:
    """The 0-based slices of the windows ``DetectorConfig.split = win`` describes."""
    count = max(1, (length + win - win // 2) // win)
    return [(i * win, (i + 1) * win) for i in range(count - 1)] + [((count - 1) * win, length)]


def _windows(series: Series, config: DetectorConfig):
    """``(offset, window, window config)`` for each window of ``config.split``.

    A series that is one window comes back as it is, with ``config``. Longer
    ones are cut at ``_window_bounds``, each window a ``Series`` of its slice
    of the ranks (their min-ranks are the window's own ranks), and share one
    config: ``split`` off, and ``grid="auto"`` resolved once from the
    series' T, so every window of a series longer than ``FULL_EVAL_MAX``
    points keeps ``DEFAULT_GRID_SIZE`` levels. A one-point tail window,
    which a split of 2 or 3 can leave, has no split to test and is skipped.
    """
    T = len(series)
    bounds = _window_bounds(T, config.split or T)
    if len(bounds) == 1:
        yield 0, series, config
        return
    if config.grid == "auto":
        config = replace(config, grid="full" if T <= FULL_EVAL_MAX else DEFAULT_GRID_SIZE)
    config = replace(config, split=None)
    for lo, hi in bounds:
        if hi - lo > 1:
            yield lo, Series(series.ranks[lo:hi]), config


def _detect_window(series: Series, config: DetectorConfig) -> tuple[dict, int]:
    """Run the scan on one window; returns {position: score} and a scan count."""
    T = len(series)
    eval_points = config.eval_points_for(series)
    Q = len(eval_points)  # the full-interval profile is the scan's largest
    _check_bytes("a scan profile", T, Q, (T - 1) * Q * 8)
    # compress tied columns after the guard, so raising depends on T and Q only
    eval_points, counts = _distinct_levels(series, eval_points)
    table = CusumTable(series, eval_points)
    zeta = threshold(config.resolved_constant(), T)
    kind = config.norm
    columns = _BOUND_COLUMNS[kind]
    kept = len(eval_points)
    bounded = kept >= _BOUND_MIN_LEVELS or (
        kind is Norm.LINF and kept <= columns and T >= _BOUND_MIN_LEVELS
    )
    quiet_below = zeta * (1 - 1e-12)  # the slack covers the bound's rounding

    found: dict[int, float] = {}
    n_scanned = 0
    quiet: set[tuple[int, int]] = set()  # profiled or bounded without a hit
    s, e = 1, T
    while e - s >= 1:
        for ss, ee, side in _interval_order(s, e, config.expansion_step, T):
            n_scanned += 1
            if (ss, ee) in quiet:
                continue
            lo, hi = ss, ee
            if bounded and ee - ss >= _BOUND_MIN_ROWS:
                bound = table._coarse_bound(ss, ee, kind, counts, columns)
                loud = np.flatnonzero(bound > quiet_below)
                if not loud.size:
                    quiet.add((ss, ee))
                    continue
                # a split outside [lo, hi) is below zeta: never the argmax of a hit
                lo, hi = ss + int(loud[0]), ss + int(loud[-1]) + 1
            profile = _profile_norms(table.profile_matrix(ss, ee, lo, hi), kind, counts)
            k = int(np.argmax(profile))
            score = float(profile[k])
            if score > zeta:
                found.setdefault(lo + k, score)
                if side == "right":
                    s = ee
                else:
                    e = ss
                break
            quiet.add((ss, ee))
        else:  # a pass with no hit ends the scan
            break
    return found, n_scanned


def _config(config) -> DetectorConfig:
    """``config``, or ``DetectorConfig()`` for ``None``; any other type raises."""
    if config is None:
        return DetectorConfig()
    if not isinstance(config, DetectorConfig):
        raise ValueError(f"config must be a DetectorConfig, got {type(config).__name__}")
    return config


def detect(series, config: DetectorConfig | None = None) -> Segmentation:
    """Estimate change-points with the thresholded expanding-interval scan.

    The series is cut into the windows ``config.split`` describes (one
    window when ``split`` is ``None``), each detected independently at the
    series' one ``grid`` and its own threshold, with the window-local
    estimates offset back to global positions. Whatever
    ``config.stop`` says, the scan stops on the threshold, and the result's
    config records that rule.

    Parameters
    ----------
    series : Series or array_like
        Observations, length >= 2.
    config : DetectorConfig, optional
        Defaults to ``DetectorConfig()``.

    Returns
    -------
    Segmentation
        Sorted 1-based estimates with their detection scores.
    """
    series = as_series(series)
    config = replace(_config(config), stop=StopRule.THRESHOLD)
    T = len(series)
    if T < 2:
        raise ValueError("detection needs a series of length >= 2")

    found: dict[int, float] = {}
    n_scanned = 0
    for lo, window, window_config in _windows(series, config):
        sub_found, sub_scanned = _detect_window(window, window_config)
        for pos, score in sub_found.items():
            found[pos + lo] = score
        n_scanned += sub_scanned

    cps = tuple(sorted(found))
    return Segmentation(
        changepoints=cps,
        scores=tuple(found[c] for c in cps),
        config=config,
        length=T,
        intervals_evaluated=n_scanned,
    )

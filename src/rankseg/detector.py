"""The isolate-then-detect scanning engine with thresholded detection.

Change-points are searched in alternating right- and left-expanding intervals
built from a fixed grid of expansion points. Because the intervals grow by one
expansion step at a time, each true change-point is (with high probability)
alone in the interval where it first clears the detection threshold, which
reduces the multiple change-point problem to a sequence of single-split
maximisations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
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
    from .selector import BicResult, SolutionPath

__all__ = [
    "StopRule",
    "DetectorConfig",
    "Segmentation",
    "threshold",
    "interval_sequences",
    "detect",
]

# Version of the JSON documents the library and the command line write.
SCHEMA_VERSION = 4

# Threshold constant per norm; l1's is the smallest multiple of 0.05 at or above
# its no-change 95% quantile at T = 30..6000 (demos/06_null_calibration.py).
DEFAULT_CONSTANTS = {Norm.L1: 0.5, Norm.L2: 0.6, Norm.LINF: 0.9}

# Largest series length for which all T order statistics are the default
# evaluation set; above it DEFAULT_GRID_SIZE equally spaced ones take over.
FULL_EVAL_MAX = 1000
DEFAULT_GRID_SIZE = 300

# Default window length: longer series are cut into windows of this length,
# the last window absorbing a remainder shorter than half a window.
SPLIT_LENGTH = 2000


class StopRule(str, Enum):
    THRESHOLD = "threshold"
    BIC = "bic"


def threshold(constant: float, length: int) -> float:
    """Detection threshold ``constant * sqrt(log(length))`` (natural log)."""
    if length < 2:
        raise ValueError(f"threshold needs a series length >= 2, got {length}")
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
    Returns an empty list when ``e - s < 1``.
    """
    if step < 1 or s < 1 or e > length:
        raise ValueError(f"need step >= 1, s >= 1, e <= {length}; got {step}, {s}, {e}")
    if e - s < 1:
        return []
    right = [*range(((s - 1) // step + 1) * step + 1, e, step), e]
    left = [*range(length - ((length - e) // step + 1) * step, s, -step), s]
    out: list[tuple[int, int, str]] = []
    for i in range(max(len(right), len(left))):
        if i < len(right):
            out.append((s, right[i], "right"))
        if i < len(left):
            out.append((left[i], e, "left"))
    return out


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
        series length.
    split : int or None
        Window length (at least 2): longer series are cut into windows of
        this length, 2000 by default; ``None`` disables splitting.

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

    ``changepoints`` are sorted 1-based positions in ``[1, T-1]``;
    ``scores[k]`` is the aggregated contrast at which ``changepoints[k]`` was
    detected (for the information-criterion pipeline, the solution-path
    removal score). ``path`` and ``bic`` are populated by that pipeline only.
    """

    changepoints: tuple[int, ...]
    scores: tuple[float, ...]
    config: DetectorConfig
    length: int
    intervals_evaluated: int = 0
    path: "SolutionPath | None" = None
    bic: "BicResult | None" = None

    def __post_init__(self):
        if len(self.changepoints) != len(self.scores):
            raise ValueError("changepoints and scores must align")
        cps = _check_positions(self.changepoints, self.length, "changepoints")
        object.__setattr__(self, "changepoints", cps)

    @property
    def n_changepoints(self) -> int:
        return len(self.changepoints)

    def to_dict(self) -> dict:
        """JSON-ready result: the ``detect`` document of ``SCHEMA_VERSION``."""
        path, bic = self.path, self.bic
        return {
            "schema": SCHEMA_VERSION,
            "length": self.length,
            "changepoints": list(self.changepoints),
            "scores": list(self.scores),
            "solution_path": None if path is None else list(path.ordered),
            "removal_scores": None if path is None else list(path.removal_scores),
            "bic": None if bic is None else {
                "chosen_j": bic.chosen_j,
                "scores": list(bic.scores),
                "penalty": bic.penalty,
            },
            "config": self.config.to_dict(),
        }


def _window_bounds(length: int, win: int) -> list[tuple[int, int]]:
    """Consecutive 0-based window slices; a short tail folds into the last."""
    if length <= win:
        return [(0, length)]
    n = length // win
    bounds = [(i * win, (i + 1) * win) for i in range(n)]
    rem = length - n * win
    if rem:
        if rem < win // 2:
            bounds[-1] = (bounds[-1][0], length)
        else:
            bounds.append((n * win, length))
    return bounds


def _detect_window(series: Series, config: DetectorConfig) -> tuple[dict, int]:
    """Run the scan on one window; returns {position: score} and a scan count."""
    T = len(series)
    if T < 2:
        return {}, 0
    eval_points = config.eval_points_for(series)
    Q = len(eval_points)  # the full-interval profile is the scan's largest
    _check_bytes("a scan profile", T, Q, (T - 1) * Q * 8)
    # compress tied columns after the guard, so raising depends on T and Q only
    eval_points, counts = _distinct_levels(series, eval_points)
    table = CusumTable(series, eval_points)
    zeta = threshold(config.resolved_constant(), T)
    kind = config.norm

    found: dict[int, float] = {}
    n_scanned = 0
    s, e = 1, T
    while e - s >= 1:
        hit = False
        for ss, ee, side in interval_sequences(s, e, config.expansion_step, T):
            n_scanned += 1
            # keep the name: holding the previous matrix while the next is
            # built stops the allocator from returning and re-faulting its
            # pages on every interval (a T = 1000 scan ran 29% slower without)
            matrix = table.profile_matrix(ss, ee)
            profile = _profile_norms(matrix, kind, counts)
            k = int(np.argmax(profile))
            score = float(profile[k])
            if score > zeta:
                b = ss + k
                found.setdefault(b, score)
                if side == "right":
                    s = ee
                else:
                    e = ss
                hit = True
                break
        if not hit:
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

    Series longer than the configured window length are cut into consecutive
    windows, each detected independently, with the window-local estimates
    offset back to global positions. Whatever ``config.stop`` says, the scan
    stops on the threshold, and the result's config records that rule.

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
    for lo, hi in _window_bounds(T, config.split or T):
        # min-ranks of the global ranks are the window's own ranks
        window = series if hi - lo == T else Series(series.ranks[lo:hi])
        sub_found, sub_scanned = _detect_window(window, config)
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

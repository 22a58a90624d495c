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
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .contrast import (
    CusumTable,
    EvalPoints,
    Norm,
    Series,
    _profile_norms,
    as_series,
    full_points,
    grid_points,
)

if TYPE_CHECKING:  # pragma: no cover
    from .selector import BicResult, SolutionPath

__all__ = [
    "StopRule",
    "RestartRule",
    "DetectorConfig",
    "ExpansionSchedule",
    "Segmentation",
    "default_constant",
    "threshold",
    "expansion_sequences",
    "interval_sequences",
    "detect",
]

# Version of the JSON documents the library and the command line write.
SCHEMA_VERSION = 1

# Calibrated threshold constants per norm; no calibration exists for l1.
DEFAULT_CONSTANTS = {Norm.LINF: 0.9, Norm.L2: 0.6}

# Largest series length for which the exact full-data evaluation set is the
# default; above it the equally spaced value grid takes over.
FULL_EVAL_MAX = 1000
DEFAULT_GRID_SIZE = 300

# Default windowing: series longer than this are cut into windows of this
# length, the last window absorbing a remainder shorter than half a window.
SPLIT_LENGTH = 2000


class StopRule(str, Enum):
    THRESHOLD = "threshold"
    BIC = "bic"


class RestartRule(str, Enum):
    """Where scanning resumes after a detection.

    ``interval-end`` continues from the boundary of the expanding interval in
    which the detection occurred; ``estimate`` continues from the estimated
    change-point location itself, which trades a higher double-detection risk
    for a lower risk of missing nearby change-points.
    """

    INTERVAL_END = "interval-end"
    AT_ESTIMATE = "estimate"


def default_constant(kind: Norm) -> float:
    kind = Norm(kind)
    try:
        return DEFAULT_CONSTANTS[kind]
    except KeyError:
        raise ValueError(
            f"no calibrated threshold constant for norm {kind.value!r}; "
            "pass threshold_constant explicitly"
        ) from None


def threshold(constant: float, length: int) -> float:
    """Detection threshold ``constant * sqrt(log(length))`` (natural log)."""
    if length < 2:
        raise ValueError(f"threshold needs a series length >= 2, got {length}")
    return constant * math.sqrt(math.log(length))


@dataclass(frozen=True)
class ExpansionSchedule:
    """The fixed grid of right and left expansion points for one series.

    Right points are ``j * step + 1`` capped by a terminal ``T``; left points
    are ``T - j * step`` capped by a terminal 1. ``n_intervals`` is the number
    of points per side, so one scan of an interval examines at most
    ``2 * n_intervals`` expanding intervals.
    """

    step: int
    length: int
    right: np.ndarray = field(init=False)
    left: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("expansion step must be >= 1")
        if self.length < 2:
            raise ValueError("schedule needs a series length >= 2")
        T, lam = self.length, self.step
        k = math.ceil(T / lam)
        inner = np.arange(1, k)
        right = inner * lam + 1
        left = T - inner * lam
        object.__setattr__(
            self, "right", np.append(right[right < T], T).astype(np.int64)
        )
        object.__setattr__(self, "left", np.append(left[left > 1], 1).astype(np.int64))

    @property
    def n_intervals(self) -> int:
        return int(self.right.size)


def expansion_sequences(
    s: int, e: int, schedule: ExpansionSchedule
) -> tuple[list[int], list[int]]:
    """Right and left expansion end-points restricted to ``[s, e]``.

    The right sequence holds the schedule's right points strictly inside
    ``(s, e)`` followed by the terminal ``e``; the left sequence the left
    points strictly inside followed by the terminal ``s``.
    """
    right = [int(c) for c in schedule.right if s < c < e] + [e]
    left = [int(c) for c in schedule.left if s < c < e] + [s]
    return right, left


def interval_sequences(
    s: int, e: int, schedule: ExpansionSchedule
) -> list[tuple[int, int, str]]:
    """The interleaved list of expanding intervals scanned within ``[s, e]``.

    Odd slots are right-expanding ``[s, right_j]``, even slots left-expanding
    ``[left_j, e]``; when one side runs out its slots are skipped. Returns an
    empty list when ``e - s < 1``.
    """
    if e - s < 1:
        return []
    right, left = expansion_sequences(s, e, schedule)
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
        Mean-dominant norm used for aggregation.
    threshold_constant : float, optional
        Constant in the ``C * sqrt(log T)`` threshold. ``None`` selects the
        calibrated default for the norm (0.9 for linf, 0.6 for l2).
    stop : StopRule
        ``threshold`` stops on the raw threshold rule; ``bic`` overestimates,
        builds a solution path and picks the model minimising the information
        criterion.
    eval_mode : str
        ``"auto"`` (full data values up to length 1000, value grid beyond),
        ``"full"`` or ``"grid"``.
    grid_size : int
        Number of grid points when the value grid is used.
    rescale : bool, optional
        Divide contrasts by estimated indicator standard deviations when
        ranking candidates on the solution path; ``None`` enables that
        exactly for the linf norm. Thresholded scans always use raw
        contrasts (the calibrated constants assume them) unless ``True`` is
        set explicitly, which applies rescaling to the scan as well.
    restart : RestartRule
        See :class:`RestartRule`.
    split : int, str or None
        ``"auto"`` cuts series longer than 2000 into windows of 2000; an
        integer gives a custom window length; ``None`` disables splitting.
    """

    expansion_step: int = 15
    norm: Norm = Norm.LINF
    threshold_constant: float | None = None
    stop: StopRule = StopRule.BIC
    eval_mode: str = "auto"
    grid_size: int = DEFAULT_GRID_SIZE
    rescale: bool | None = None
    restart: RestartRule = RestartRule.INTERVAL_END
    split: int | str | None = "auto"

    def __post_init__(self):
        object.__setattr__(self, "norm", Norm(self.norm))
        object.__setattr__(self, "stop", StopRule(self.stop))
        object.__setattr__(self, "restart", RestartRule(self.restart))
        if self.expansion_step < 1:
            raise ValueError("expansion_step must be >= 1")
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        if self.threshold_constant is not None and self.threshold_constant <= 0:
            raise ValueError("threshold_constant must be positive")
        if self.eval_mode not in ("auto", "full", "grid"):
            raise ValueError(f"unknown eval_mode {self.eval_mode!r}")
        if isinstance(self.split, str) and self.split != "auto":
            raise ValueError("split must be 'auto', a window length or None")
        if isinstance(self.split, int) and self.split < 2:
            raise ValueError("split window length must be >= 2")
        self.resolved_constant()  # fail at construction, not mid-scan

    def resolved_constant(self) -> float:
        if self.threshold_constant is not None:
            return float(self.threshold_constant)
        return default_constant(self.norm)

    def scan_rescale(self) -> bool:
        """Whether thresholded scans rescale contrasts (explicit opt-in only).

        The threshold constants were calibrated on raw contrasts; rescaled
        values live on a different scale and overwhelm ``C * sqrt(log T)``.
        """
        return self.rescale is True

    def path_rescale(self) -> bool:
        """Whether solution-path ordering rescales contrasts (auto: linf)."""
        if self.rescale is None:
            return self.norm is Norm.LINF
        return bool(self.rescale)

    def eval_points_for(self, series: Series) -> EvalPoints:
        series = as_series(series)
        mode = self.eval_mode
        if mode == "auto":
            mode = "full" if len(series) <= FULL_EVAL_MAX else "grid"
        if mode == "full":
            return full_points(series)
        return grid_points(series, self.grid_size)

    def window_length(self, length: int) -> int | None:
        """Window size for splitting, or ``None`` when no split applies."""
        if self.split is None:
            return None
        win = SPLIT_LENGTH if self.split == "auto" else int(self.split)
        return win if length > win else None

    def to_dict(self) -> dict:
        """Raw settings plus the resolved values actually in effect."""
        return {
            "expansion_step": self.expansion_step,
            "norm": self.norm.value,
            "threshold_constant": self.threshold_constant,
            "stop": self.stop.value,
            "eval_mode": self.eval_mode,
            "grid_size": self.grid_size,
            "rescale": self.rescale,
            "restart": self.restart.value,
            "split": self.split,
            "resolved": {
                "threshold_constant": self.resolved_constant(),
                "scan_rescale": self.scan_rescale(),
                "path_rescale": self.path_rescale(),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DetectorConfig":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})


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
        if any(b <= a for a, b in zip(self.changepoints, self.changepoints[1:])):
            raise ValueError("changepoints must be strictly increasing")
        if any(c < 1 or c > self.length - 1 for c in self.changepoints):
            raise ValueError("changepoints must lie in [1, T-1]")

    @property
    def n_changepoints(self) -> int:
        return len(self.changepoints)

    def to_dict(self) -> dict:
        """JSON-ready result: the ``detect`` document of schema 1."""
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


def _detect_window(values: np.ndarray, config: DetectorConfig) -> tuple[dict, int]:
    """Run the scan on one window; returns {position: score} and a scan count."""
    series = Series(values)
    T = len(series)
    if T < 2:
        return {}, 0
    eval_points = config.eval_points_for(series)
    table = CusumTable(series, eval_points)
    sd = table.indicator_sd if config.scan_rescale() else None
    schedule = ExpansionSchedule(config.expansion_step, T)
    zeta = threshold(config.resolved_constant(), T)
    kind = config.norm
    at_estimate = config.restart is RestartRule.AT_ESTIMATE

    found: dict[int, float] = {}
    n_scanned = 0
    s, e = 1, T
    while e - s >= 1:
        hit = False
        for ss, ee, side in interval_sequences(s, e, schedule):
            n_scanned += 1
            matrix = table.profile_matrix(ss, ee)
            if sd is not None:
                matrix /= sd
            profile = _profile_norms(matrix, kind)
            k = int(np.argmax(profile))
            score = float(profile[k])
            if score > zeta:
                b = ss + k
                found.setdefault(b, score)
                # Resuming at the estimate itself keeps the detected split in
                # the candidate set and can re-fire forever; the next index
                # over (right) / the estimate as new end (left) is the
                # closest restart that still strictly shrinks the domain.
                if side == "right":
                    s = b + 1 if at_estimate else ee
                else:
                    e = b if at_estimate else ss
                hit = True
                break
        if not hit:
            break
    return found, n_scanned


def detect(series, config: DetectorConfig | None = None) -> Segmentation:
    """Estimate change-points with the thresholded expanding-interval scan.

    Series longer than the configured window length are cut into consecutive
    windows, each detected independently, with the window-local estimates
    offset back to global positions.

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
    config = config or DetectorConfig()
    T = len(series)
    if T < 2:
        raise ValueError("detection needs a series of length >= 2")

    win = config.window_length(T)
    found: dict[int, float] = {}
    n_scanned = 0
    for lo, hi in _window_bounds(T, win) if win else [(0, T)]:
        sub_found, sub_scanned = _detect_window(series.values[lo:hi], config)
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

"""Ranks, evaluation levels, the prefix-count table, its contrast kernel and the norms.

Everything here works on the ranks of the data only. ``Series.ranks`` turns
the values into integer min-ranks once, when the series enters, and nothing
downstream reads the values again: an indicator ``1{X_t <= x_(k)}`` is
exactly ``1{r_t <= k}``, ties included. All derived quantities are therefore
invariant under strictly increasing transformations of the series at every
length.

- ``EvalPoints`` holds the levels ``k`` at which the indicators are taken;
  ``grid_points`` picks ``q`` equally spaced levels, which for ``q = T`` are
  all the order statistics ``1..T``.
- ``_distinct_levels`` compresses ties: level ``k`` has the indicator column
  of the largest rank present that is ``<= k``, so on tied data many levels
  share one column. It keeps one level per distinct column with its
  multiplicity, and returns the set unchanged when all columns differ, as
  on continuous data. The scan and the solution path build their tables on
  the kept levels; their byte guards still use the configured Q, so whether
  a call raises depends on T and Q only, never on the data.
- ``CusumTable`` holds the prefix counts of the indicators at those levels.
  Its one kernel turns two prefix lookups into the weighted two-sample ECDF
  contrast, an exact integer numerator scaled by one float per split;
  ``profile_matrix`` (every split of an interval) and ``row`` (one
  split) are two row ranges of it. ``indicator_sd`` is the per-level rescale
  deviation, read off the table's column totals.
- ``Norm`` names the three mean-dominant norms; ``_profile_norms`` applies one
  along the last axis, weighting columns by their multiplicities when given,
  and ``norm_value`` is its validated public form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "Series",
    "EvalPoints",
    "as_series",
    "grid_points",
    "CusumTable",
    "Norm",
    "norm_value",
]

FULL = "full"
GRID = "grid"

# Largest table ((T + 1) * Q int32) or scan profile ((T - 1) * Q float64), in bytes.
MAX_TABLE_BYTES = 2**30


def _shown(value) -> str:
    """``str(value)``, or the size of an integer too long for Python to print."""
    try:
        return str(value)
    except ValueError:  # over sys.get_int_max_str_digits()
        return f"an integer of {value.bit_length()} bits"


def _check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a Python int, if it is an integer (not a bool) >= ``minimum``."""
    if type(value) is not int:  # plain ints, the common case, skip the checks
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {_shown(value)}")
    return value


def _check_real(name: str, value, minimum: float, *, strict: bool = False) -> float:
    """``value`` as a Python float, if it is a finite real (not a bool) >= ``minimum``.

    ``strict`` requires ``value > minimum`` instead.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not (math.isfinite(number) and (number > minimum if strict else number >= minimum)):
        bound = f"{'>' if strict else '>='} {minimum:g}"
        raise ValueError(f"{name} must be finite and {bound}, got {_shown(value)}")
    return number


def _check_bytes(what: str, T: int, Q: int, nbytes: int) -> None:
    """Raise ``ValueError`` when ``what`` for T and Q levels exceeds ``MAX_TABLE_BYTES``."""
    if nbytes > MAX_TABLE_BYTES:
        raise ValueError(
            f"{what} for T={T} and Q={Q} levels needs {nbytes / 2**20:,.0f} MiB, "
            f"over the {MAX_TABLE_BYTES / 2**20:,.0f} MiB limit; pass an integer grid "
            "(fewer levels) or a split (shorter windows)"
        )


def _check_positions(positions, length: int, what: str) -> tuple[int, ...]:
    """Change-point positions as ints, strictly increasing and in ``[1, T-1]``.

    Non-integer and bool positions are rejected, not truncated.
    """
    positions = tuple(_check_int(what, r) for r in positions)
    if any(r < 1 or r > length - 1 for r in positions):
        raise ValueError(f"{what} must lie in [1, {length - 1}]")
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    return positions


@dataclass(frozen=True)
class Series:
    """A univariate data sequence with optional ground-truth change-points.

    Positions are 1-based throughout: a change-point at ``r`` separates the
    observations ``X_1..X_r`` from ``X_{r+1}..X_T``.

    Parameters
    ----------
    values : array_like
        The observations, length ``T >= 1``.
    truth : tuple of int, optional
        Strictly increasing true change-point positions, each in ``[1, T-1]``.
    """

    values: np.ndarray
    truth: tuple[int, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("series must be a nonempty one-dimensional sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError("series values must be finite (no NaN or infinity)")
        object.__setattr__(self, "values", values)
        if self.truth is not None:
            truth = _check_positions(self.truth, values.size, "truth positions")
            object.__setattr__(self, "truth", truth)

    def __len__(self) -> int:
        return int(self.values.size)

    @cached_property
    def ranks(self) -> np.ndarray:
        """Integer min-ranks ``r_t = #{s : X_s < X_t} + 1``, computed once.

        Ties share the smallest rank of their group, so ``X_t <= x_(k)``
        exactly when ``r_t <= k``. The pipeline reads the values only here.
        """
        v = self.values
        return np.searchsorted(np.sort(v), v, "left") + 1

    @cached_property
    def _st_terms(self) -> dict[tuple[int, int], float]:
        """The S_T segment terms by ``(a, b)``, filled by ``st_likelihood``."""
        return {}


def as_series(data) -> Series:
    """Coerce an array-like (or pass through a ``Series``) to a ``Series``."""
    if isinstance(data, Series):
        return data
    return Series(np.asarray(data, dtype=float))


@dataclass(frozen=True)
class EvalPoints:
    """Levels at which the indicator transforms are evaluated.

    Level ``k`` is the indicator ``1{r_t <= k}``, i.e. ``1{X_t <= x_(k)}``;
    levels are weakly increasing integers ``>= 0``, and a float threshold
    ``u`` is exactly level ``#{t : X_t <= u}``. ``mode`` is ``"full"`` for
    all of ``1..T`` (Q = T) and ``"grid"`` for a subset, used to cut
    computation on long series.
    """

    levels: np.ndarray
    mode: str

    def __post_init__(self):
        levels = np.asarray(self.levels)
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("evaluation levels must be a nonempty 1-d sequence")
        if not np.issubdtype(levels.dtype, np.integer):
            raise ValueError(f"evaluation levels must be integers, got {levels.dtype}")
        # check before the cast: uint64 levels above 2**63 - 1 would wrap negative
        if levels.max() > np.iinfo(np.int64).max:
            raise ValueError("evaluation levels must fit in a 64-bit signed integer")
        levels = levels.astype(np.int64, copy=False)
        if levels[0] < 0 or np.any(np.diff(levels) < 0):
            raise ValueError("evaluation levels must be >= 0 and sorted ascending")
        if self.mode not in (FULL, GRID):
            raise ValueError(f"unknown evaluation mode {self.mode!r}")
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return int(self.levels.size)


def grid_points(series: Series, q: int) -> EvalPoints:
    """``min(q, T)`` equally spaced levels: order statistics of the series.

    Returns ``k_j = ceil(j * T / (q + 1))`` for ``j = 1..q``, which reads
    only the length ``T``. ``q`` is capped at ``T``, so no level is
    repeated; for ``q >= T`` this is ``k_j = j``, every order statistic, and
    the mode is ``"full"``; otherwise it is ``"grid"``.
    """
    q = _check_int("grid size", q, 1)
    T = len(as_series(series))
    q = min(q, T)
    k = -(-np.arange(1, q + 1) * T // (q + 1))
    return EvalPoints(k, FULL if q == T else GRID)


def _distinct_levels(
    series: Series, eval_points: EvalPoints
) -> tuple[EvalPoints, np.ndarray | None]:
    """The levels with distinct indicator columns and the multiplicity of each.

    Level ``k`` has the column ``1{r_t <= f(k)}`` of ``f(k)``, the largest
    rank present that is ``<= k`` (0 below them all), so levels with equal
    ``f`` share one column. Returns ``eval_points`` itself and ``None`` when
    every column is distinct, as on data without ties; otherwise the levels
    ``f(k)`` once each, in the same mode, and how many levels each stands
    for (the multiplicities sum to Q). O(T + Q) with no sort; the levels
    must be at most T.
    """
    r, k = series.ranks, eval_points.levels
    present = np.bincount(r, minlength=r.size + 1) > 0
    if not present[1:].all():  # ties: map each level to its f(k)
        k = np.maximum.accumulate(np.where(present, np.arange(r.size + 1), 0))[k]
    new = k[1:] > k[:-1]
    if new.all():
        return eval_points, None
    starts = np.flatnonzero(np.r_[True, new])
    return EvalPoints(k[starts], eval_points.mode), np.diff(np.r_[starts, k.size])


class CusumTable:
    """Prefix indicator counts for one series against a fixed evaluation set.

    ``prefix[b, j]`` holds ``#{t <= b : r_t <= k_j}`` for ``b = 0..T``
    (1-based time), with ``r`` the series' ranks and ``k_j`` its levels, so
    any interval CUSUM row is two prefix lookups and a full profile over
    ``[s, e)`` costs O((e - s) * Q) after the one-off O(T * Q) build. A level
    above ``T`` raises ``ValueError``: the set was built for another series.
    So does a table larger than ``MAX_TABLE_BYTES`` (1 GiB), before anything
    is allocated.
    """

    _BLOCK = 512  # columns per cumsum pass, bounds the boolean scratch

    def __init__(self, series, eval_points: EvalPoints):
        series = as_series(series)
        r = series.ranks
        k = eval_points.levels
        T, Q = r.size, k.size
        if k[-1] > T:
            raise ValueError(f"evaluation level {k[-1]} exceeds the series length {T}")
        _check_bytes("a prefix table", T, Q, (T + 1) * Q * 4)
        prefix = np.zeros((T + 1, Q), dtype=np.int32)
        for q0 in range(0, Q, self._BLOCK):
            cols = slice(q0, min(q0 + self._BLOCK, Q))
            ind = r[:, None] <= k[None, cols]
            np.cumsum(ind, axis=0, dtype=np.int32, out=prefix[1:, cols])
        self.length = T
        self.prefix = prefix

    def _check(self, s: int, e: int) -> None:
        if not (1 <= s < e <= self.length):
            raise ValueError(
                f"need 1 <= s < e <= T, got s={s}, e={e}, T={self.length}"
            )

    @property
    def indicator_sd(self) -> np.ndarray:
        """Estimated standard deviation of the indicator sequence per level.

        With ``p`` the fraction of ranks <= k (the column total over T),
        returns ``sqrt(p * (1 - p))`` clamped to 0.3 whenever ``p < 0.1`` or
        ``p > 0.9``; dividing contrasts by an unclamped near-zero deviation
        would inflate them spuriously.
        """
        p = self.prefix[-1] / self.length
        return np.where((p < 0.1) | (p > 0.9), 0.3, np.sqrt(p * (1.0 - p)))

    def _contrast(self, s: int, e: int, lo: int, hi: int) -> np.ndarray:
        """Contrast rows of ``[s, e]`` for the splits ``b`` in ``[lo, hi)``.

        Row ``b`` is, at every evaluation level ``k``::

            sqrt(n1 * n2 / n) * (F_pre(x_(k)) - F_post(x_(k)))
                = (c * n - n1 * t) / sqrt(n1 * n2 * n)

        with ``n1 = b - s + 1``, ``n2 = e - b``, ``n = e - s + 1``, ``F_pre``,
        ``F_post`` the ECDFs of ``X_s..X_b`` and ``X_{b+1}..X_e``, ``c`` the
        count of ``X_s..X_b`` at level ``k`` and ``t`` that of the interval.
        The numerator is computed exactly in integers: int32 while
        ``n * (n - 1)``, which bounds ``c * n`` and ``n1 * t``, fits, and int64
        for windows longer than 46,341. One float factor per row then scales
        it into the float64 result. Equal segment ECDFs give an integer 0 and
        so a hard ``0.0``.
        """
        n = e - s + 1
        dtype = np.int32 if n * (n - 1) < 2**31 else np.int64
        base = self.prefix[s - 1]
        numerator = np.subtract(self.prefix[lo:hi], base, dtype=dtype)
        numerator *= n
        n1 = np.arange(lo - s + 1, hi - s + 1, dtype=dtype)
        numerator -= n1[:, None] * np.subtract(self.prefix[e], base, dtype=dtype)
        factor = 1.0 / np.sqrt(float(n) * n1 * (n - n1))
        return numerator * factor[:, None]

    def profile_matrix(self, s: int, e: int) -> np.ndarray:
        """CUSUM values for every candidate ``b`` in ``[s, e)``.

        Returns a float array of shape ``(e - s, Q)``; row ``i`` is the
        contrast at ``b = s + i`` across all evaluation levels.
        """
        self._check(s, e)
        return self._contrast(s, e, s, e)

    def row(self, s: int, e: int, b: int) -> np.ndarray:
        """Single CUSUM vector at split ``b`` within ``[s, e]``."""
        self._check(s, e)
        if not (s <= b < e):
            raise ValueError(f"need s <= b < e, got s={s}, b={b}, e={e}")
        return self._contrast(s, e, b, b + 1)[0]


class Norm(str, Enum):
    """The three mean-dominant norms used for aggregation.

    Each satisfies ``L(x) >= mean(x)`` on nonnegative vectors; all are applied
    to absolute values, so sign conventions of the contrast do not matter.
    """

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def _profile_norms(
    matrix: np.ndarray, kind: Norm, counts: np.ndarray | None = None
) -> np.ndarray:
    """The norm of each vector along the last axis of ``matrix``.

    ``l1`` is the mean of absolute values, ``l2`` the root mean square and
    ``linf`` the maximum absolute value, each normalised by the length of
    that axis. ``counts``, when given, is the multiplicity of each column
    (from ``_distinct_levels``): ``l1`` and ``l2`` weight each column's term
    by it over the total Q, so a compressed row has the norm of the full
    one. ``linf`` ignores it, since a maximum over repeated columns is the
    same maximum.
    """
    if kind is Norm.LINF:
        return np.abs(matrix).max(axis=-1)
    terms = np.abs(matrix) if kind is Norm.L1 else np.square(matrix)
    mean = terms.mean(axis=-1) if counts is None else terms @ counts / counts.sum()
    return mean if kind is Norm.L1 else np.sqrt(mean)


def norm_value(kind: Norm, y, counts=None):
    """Validated :func:`_profile_norms`: a float for a vector, else an array.

    ``kind`` may be a ``Norm`` or its string value; an empty input raises
    ``ValueError``. For a matrix of contrast rows (such as
    :meth:`CusumTable.profile_matrix`) it returns the norm of every row.
    ``counts`` optionally gives each column's multiplicity, one positive
    integer per column: ``l1`` and ``l2`` then weight the columns by it and
    ``linf`` ignores it.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("norm of an empty vector is undefined")
    if counts is not None:
        counts = np.asarray(counts)
        if (
            counts.shape != y.shape[-1:]
            or not np.issubdtype(counts.dtype, np.integer)
            or np.any(counts < 1)
        ):
            raise ValueError("counts must hold one positive integer per column")
    out = _profile_norms(y, Norm(kind), counts)
    return float(out) if out.ndim == 0 else out

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
- ``CusumTable`` holds the prefix counts of the indicators at those levels,
  at every time ``0..T`` for the scan (the dense table) or at the solution
  path's candidates and ends (a cut table); its docstring and
  ``_cut_counts``'s say how each is counted. Its builds, its kernel and its
  bound work in blocks of at most 256 KiB of integers (``_ROW_BYTES``), so
  temporaries stay in cache. One kernel turns prefix lookups into the
  weighted two-sample ECDF contrast: ``_numerator`` (where it is written
  out) forms the exact integer numerator, scaled by one float per split.
  ``profile_matrix`` returns a range of splits of an interval of the dense
  table, all of them by default. ``row`` takes one ``(s, e, b)`` triple or
  a batch of them, so its rows, on a cut table or the dense one, equal the
  profile's bit for bit.
  ``_coarse_bound`` bounds every split's norm from a few coarse columns,
  counted from the ranks in the same integers at every time, for the scan
  to skip the intervals that cannot fire. ``indicator_sd`` is the per-level
  rescale deviation, read off the table's column totals.
- ``Norm`` names the three mean-dominant norms; ``_profile_norms`` applies one
  along the last axis, weighting columns by their multiplicities when given,
  and ``norm_value`` is its validated public form.
"""

from __future__ import annotations

import math
import numbers
import operator
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


def _check_ints(name: str, values) -> list[int]:
    """A 1-d list, tuple or integer array of integers (no bools) as Python ints."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        return values.tolist()
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be an integer or a 1-d sequence of integers, got {values!r}")
    return [_check_int(name, v) for v in values]


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


def _numerator_dtype(largest: int) -> type:
    """The kernel's integers: int32 while ``largest``, the largest ``n * e``, fits, else int64."""
    return np.int64 if largest >= 2**31 else np.int32


def _split_factor(n: int | np.ndarray, n1: np.ndarray) -> np.ndarray:
    """``1 / sqrt(n * n1 * n2)``, the float factor of each split's integer numerator.

    ``n`` is an integer or an integer array that broadcasts against ``n1``.
    """
    return 1.0 / np.sqrt(np.float64(n) * n1 * (n - n1))


def _numerator(n, n1, before, at_b, total, dtype) -> np.ndarray:
    """The contrast's exact integer numerator ``n * (P_b - P_{s-1}) - n1 * (P_e - P_{s-1})``.

    The contrast of ``[s, e]`` at split ``b`` and level ``k`` is::

        sqrt(n1 * n2 / n) * (F_pre(x_(k)) - F_post(x_(k)))
            = (n * c - n1 * t) / sqrt(n * n1 * n2)

    with ``n1 = b - s + 1``, ``n2 = e - b``, ``n = e - s + 1``, ``F_pre``,
    ``F_post`` the ECDFs of ``X_s..X_b`` and ``X_{b+1}..X_e``, and, from
    the prefix counts ``P``, ``c = P_b - P_{s-1}`` the count of ``X_s..X_b``
    at level ``k`` and ``t = P_e - P_{s-1}`` (``total``) that of the
    interval. ``before`` and ``at_b`` are the rows ``P_{s-1}`` and ``P_b``;
    ``n`` and ``n1`` broadcast against them, a column per split. The factor
    ``1 / sqrt(n * n1 * n2)`` scales it into the float contrast, so equal
    segment ECDFs give an integer 0 and a hard ``0.0``. Since ``c <= n1``
    and ``t <= n``, every intermediate lies within ``n * n <= n * e``, and
    ``dtype`` is ``_numerator_dtype(n * e)``: int32 while that fits, int64
    beyond (from 46,341 on a window starting at 1).
    """
    numerator = np.subtract(at_b, before, dtype=dtype)
    numerator *= n
    numerator -= np.multiply(n1, total, dtype=dtype)
    return numerator


def _check_positions(positions, length: int, what: str) -> tuple[int, ...]:
    """Change-point positions as ints, strictly increasing and in ``[1, T-1]``.

    Non-integer and bool positions are rejected, not truncated. Plain ints,
    the common case, are checked with no Python call per position; the
    range is checked before the order.
    """
    positions = tuple(positions)
    if not set(map(type, positions)) <= {int}:  # numpy integers, or rejected
        positions = tuple(_check_int(what, r) for r in positions)
    if positions and (min(positions) < 1 or max(positions) > length - 1):
        raise ValueError(f"{what} must lie in [1, {length - 1}]")
    if not all(map(operator.lt, positions, positions[1:])):
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
    """Prefix indicator counts for one series at a set of cut times.

    ``prefix[i, j]`` holds ``#{t <= c_i : r_t <= k_j}`` at the cut times
    ``0 = c_0 < c_1 < .. < c_m = T`` (1-based time), with ``r`` the series'
    ranks and ``k_j`` its levels, so any interval CUSUM row whose ends and
    split are cuts is three prefix lookups. By default every time ``0..T`` is
    a cut: the dense ``(T + 1) x Q`` table the scan profiles splits of,
    allocated at once and filled one block of the kernel's rows at a time,
    when a read first reaches it, onto the block's base, the row before it;
    ``prefix`` fills it all, in O(T * Q). Given ``cuts`` (they must include 0
    and T), the table holds only their rows; the solution path builds one at
    its candidates. One counter, ``_cut_counts``, counts a cut table's rows
    and the dense table's block bases, when the table is built. A cut table
    serves ``row``, ``indicator_sd`` and ``prefix``; ``profile_matrix`` on
    it, and a time that is not a cut, raise ``ValueError``. A level above
    ``T`` raises ``ValueError``: the set was built for another series. So
    does a table larger than ``MAX_TABLE_BYTES`` (1 GiB), before anything
    is allocated.
    """

    _ROW_BYTES = 2**18  # integer bytes per block of the kernel, the bound and both builds

    def __init__(self, series, eval_points: EvalPoints, cuts=None):
        series = as_series(series)
        r = series.ranks
        k = eval_points.levels
        T, Q = r.size, k.size
        if k[-1] > T:
            raise ValueError(f"evaluation level {k[-1]} exceeds the series length {T}")
        self.length = T
        # r_t at index t, so row 0 counts at no level; int32 compares run faster
        dtype = _numerator_dtype(T + 1)
        self._ranks, self._levels = np.concatenate(([T + 1], r), dtype=dtype), k.astype(dtype)
        self._cut_row = None  # time -> row of prefix; None on the dense table
        self._coarse = {}  # coarse column count -> (coarse table, gap starts, gap weights)
        self._missing = 0  # blocks of the dense table not filled yet
        col = np.cumsum(np.bincount(k, minlength=T + 1))[r - 1]  # searchsorted(k, r)
        if cuts is None:
            _check_bytes("a prefix table", T, Q, (T + 1) * Q * 4)
            self._prefix = np.empty((T + 1, Q), dtype=np.int32)
            self._block = max(1, self._ROW_BYTES // (4 * Q))
            self._filled = [False] * -(-(T + 1) // self._block)
            self._missing = len(self._filled)
            bases = np.maximum(np.arange(self._missing) * self._block - 1, 0)
            self._base = self._cut_counts(col, bases, Q)
        else:
            cuts = tuple(_check_int("cut times", t) for t in cuts)
            if cuts[:1] != (0,) or cuts[-1:] != (T,):
                raise ValueError(f"cut times must start at 0 and end at T={T}")
            cuts = (0, *_check_positions(cuts[1:-1], T, "cut times"), T)
            _check_bytes("a prefix table", T, Q, len(cuts) * Q * 4)
            self._prefix = self._cut_counts(col, np.asarray(cuts), Q)
            self._cut_row = {t: i for i, t in enumerate(cuts)}

    @property
    def prefix(self) -> np.ndarray:
        """The whole table, every block filled, as a read-only view."""
        full = self._fill(0, self._prefix.shape[0])
        full.flags.writeable = False
        return full

    def _fill(self, lo: int, hi: int) -> np.ndarray:
        """The rows ``lo..hi-1``, after filling their blocks not yet filled.

        Block ``b``'s indicators are summed in place onto its base ``_base[b]``,
        in any read order.
        """
        if self._missing:
            step, r, k = self._block, self._ranks, self._levels
            for b in range(lo // step, (hi - 1) // step + 1):
                if not self._filled[b]:
                    rows = self._prefix[b * step : (b + 1) * step]
                    np.less_equal(r[b * step : (b + 1) * step, None], k, out=rows)
                    rows[0] += self._base[b]
                    np.cumsum(rows, axis=0, out=rows)
                    self._filled[b] = True
                    self._missing -= 1
        return self._prefix[lo:hi]

    @classmethod
    def _cut_counts(cls, col: np.ndarray, cuts: np.ndarray, Q: int) -> np.ndarray:
        """The prefix rows at ``cuts``, from each time's first level column ``col``.

        These are a cut table's rows, or the dense table's block bases, in
        O(T + m * Q) for ``m`` cuts. Time ``t`` counts at the levels
        ``col[t - 1]`` and above (``searchsorted(levels, r_t)``; ``Q`` means
        none). One ``bincount`` per block of gaps counts the times of gap
        ``(c_{i-1}, c_i]`` by column, a cumsum across columns turns that into
        the gap's counts at each level, and a cumsum across gaps into the
        prefix rows. The int64 counts of a block take at most ``_ROW_BYTES``.
        """
        rows = cuts.size
        prefix = np.zeros((rows, Q), dtype=np.int32)
        step = max(1, cls._ROW_BYTES // ((Q + 1) * 8))
        for g0 in range(1, rows, step):
            g1 = min(g0 + step, rows)
            gap = np.repeat(np.arange(g1 - g0), np.diff(cuts[g0 - 1 : g1]))
            cols = col[cuts[g0 - 1] : cuts[g1 - 1]]
            counts = np.bincount(gap * (Q + 1) + cols, minlength=(g1 - g0) * (Q + 1))
            np.cumsum(counts.reshape(g1 - g0, Q + 1)[:, :Q], axis=1, out=prefix[g0:g1])
        return np.cumsum(prefix, axis=0, out=prefix)

    def _at(self, t: int) -> int:
        """The row of ``prefix`` that holds time ``t``."""
        if self._cut_row is None:
            return t
        try:
            return self._cut_row[t]
        except KeyError:
            raise ValueError(f"time {t} is not a cut of this table") from None

    def _check(self, s: int, e: int) -> None:
        if not (1 <= s < e <= self.length):
            raise ValueError(
                f"need 1 <= s < e <= T, got s={s}, e={e}, T={self.length}"
            )

    @property
    def indicator_sd(self) -> np.ndarray:
        """Estimated standard deviation of the indicator sequence per level.

        With ``p`` the fraction of ranks <= k (the column total over T, the
        last row), returns ``sqrt(p * (1 - p))`` clamped to 0.3 whenever
        ``p < 0.1`` or ``p > 0.9``; dividing contrasts by an unclamped
        near-zero deviation would inflate them spuriously.
        """
        p = self._fill(len(self._prefix) - 1, len(self._prefix))[0] / self.length
        return np.where((p < 0.1) | (p > 0.9), 0.3, np.sqrt(p * (1.0 - p)))

    def profile_matrix(
        self, s: int, e: int, lo: int | None = None, hi: int | None = None
    ) -> np.ndarray:
        """CUSUM values for the splits ``b`` in ``[lo, hi)`` of ``[s, e]``.

        ``lo`` and ``hi`` default to ``s`` and ``e``, every split of the
        interval, and must satisfy ``s <= lo < hi <= e``. Returns a float
        array of shape ``(hi - lo, Q)``; row ``i`` is the contrast at
        ``b = lo + i`` across all evaluation levels, bit for bit the row
        ``b - s`` of the whole interval's profile. It reads the dense table:
        on a cut table it raises ``ValueError``.

        Row ``b`` is ``_numerator`` at every level times ``_split_factor``.
        The result is allocated once and filled in blocks of rows whose
        integer numerator takes at most ``_ROW_BYTES`` (65 rows at Q = 1000
        in int32), so the temporaries stay in cache; each block's numerator
        is converted exactly into its rows of the result and scaled there in
        place.
        """
        if self._cut_row is not None:
            raise ValueError("a profile reads the dense table, not a cut table")
        s, e = _check_int("s", s), _check_int("e", e)
        self._check(s, e)
        lo = s if lo is None else _check_int("lo", lo)
        hi = e if hi is None else _check_int("hi", hi)
        if not s <= lo < hi <= e:
            raise ValueError(f"need s <= lo < hi <= e, got s={s}, lo={lo}, hi={hi}, e={e}")
        n = e - s + 1
        dtype = _numerator_dtype(n * e)
        before = self._fill(s - 1, s)[0]
        total = np.subtract(self._fill(e, e + 1)[0], before, dtype=dtype)
        prefix = self._fill(lo, hi)
        n1 = np.arange(lo - s + 1, hi - s + 1, dtype=dtype)
        factor = _split_factor(n, n1)
        out = np.empty((hi - lo, prefix.shape[1]))
        step = max(1, self._ROW_BYTES // (prefix.shape[1] * np.dtype(dtype).itemsize))
        for b0 in range(lo, hi, step):
            rows = slice(b0 - lo, min(b0 + step, hi) - lo)
            block = out[rows]
            # int -> float64 is exact up to 2**53
            np.copyto(block, _numerator(n, n1[rows, None], before, prefix[rows], total, dtype))
            block *= factor[rows, None]
        return out

    def row(self, s, e, b) -> np.ndarray:
        """CUSUM vector at split ``b`` within ``[s, e]``, or one per triple.

        Integers give the ``Q``-vector that is row ``b - s`` of
        ``profile_matrix(s, e)``; equal-length 1-d integer sequences give an
        ``(m, Q)`` array of the rows ``row(s[i], e[i], b[i])``, by the same
        code. Each row is ``_numerator`` on the rows ``P_{s-1}``, ``P_b`` and
        ``P_e`` (int32 while the largest ``n * e`` fits, int64 beyond) times
        ``_split_factor``, as in :meth:`profile_matrix`, so it equals the
        profile's row bit for bit. ``s - 1``, ``b`` and ``e`` must be cuts.
        """
        vector = isinstance(s, (list, tuple, np.ndarray))
        if vector:
            s, e, b = _check_ints("s", s), _check_ints("e", e), _check_ints("b", b)
            if not len(s) == len(e) == len(b):
                raise ValueError(
                    f"s, e and b must have equal lengths, got {len(s)}, {len(e)} and {len(b)}"
                )
        else:
            s, e, b = [_check_int("s", s)], [_check_int("e", e)], [_check_int("b", b)]
        for si, ei, bi in zip(s, e, b):
            self._check(si, ei)
            if not si <= bi < ei:
                raise ValueError(f"need s <= b < e, got s={si}, b={bi}, e={ei}")
        at = self._at
        rows = [at(t - 1) for t in s] + [at(t) for t in b] + [at(t) for t in e]
        n = [j - i + 1 for i, j in zip(s, e)]
        n1 = [j - i + 1 for i, j in zip(s, b)]
        dtype = _numerator_dtype(max(map(operator.mul, n, e), default=0))
        for i in rows if self._missing else ():
            self._fill(i, i + 1)
        before, at_b, at_e = self._prefix.take(rows, axis=0).reshape(3, len(n), self._levels.size)
        total = np.subtract(at_e, before, dtype=dtype)
        sizes = np.array([n, n1], dtype)[..., None]  # n and n1, a column per triple
        # int -> float64 is exact
        out = np.multiply(_numerator(*sizes, before, at_b, total, dtype), _split_factor(*sizes))
        return out if vector else out[0]

    def _coarse_bound(
        self, s: int, e: int, kind: Norm, counts: np.ndarray | None, columns: int
    ) -> np.ndarray:
        """An upper bound on the ``kind`` norm of each split ``b`` in ``[s, e)`` of ``[s, e]``.

        The coarse columns are every ``ceil(Q / columns)``-th column and the
        last, after a virtual level 0 (``c = d = 0``), in a table of their
        own at every time ``0..T``, counted from the ranks as ``_fill`` counts
        (a comparison, then a cumsum along time) on the first call with that
        count, whatever the table's cut times. Every indicator column is
        monotone in its level, so between two coarse columns ``g < h``
        the pre-split count ``c`` and the post-split count ``d`` of any level
        lie between their values at ``g`` and ``h``, and ``_numerator``,
        ``n c - n1 t = n2 c - n1 d``, lies in
        ``[n2 c_g - n1 d_h, n2 c_h - n1 d_g]``. The larger absolute end
        ``B`` bounds every level of the gap. It is exact, in the kernel's
        integers, in blocks of splits of at most ``_ROW_BYTES``. Over the
        split's factor, the largest ``B`` bounds ``linf``, and the mean of
        ``B`` (``B**2``) over the gaps, each weighted by its share of the
        levels, bounds ``l1`` (``l2``); ``counts`` are the multiplicities of
        the table's levels, as in ``_profile_norms``.
        """
        if columns not in self._coarse:
            Q = self._levels.size
            step = -(-Q // columns)
            starts = np.r_[0, np.arange(step, Q, step)]  # each gap's first level
            levels = self._levels[np.r_[starts[1:] - 1, Q - 1]]  # each gap's last level
            coarse = np.zeros((levels.size + 1, self.length + 1), np.int32)  # a row per column
            np.cumsum(np.less_equal(self._ranks, levels[:, None]), axis=1, out=coarse[1:])
            self._coarse[columns] = coarse, starts, np.diff(starts, append=Q) / Q
        coarse, starts, weights = self._coarse[columns]
        if counts is not None and kind is not Norm.LINF:  # the gaps' shares of the levels
            weights = np.add.reduceat(counts, starts) / counts.sum()
        n = e - s + 1
        dtype = _numerator_dtype(n * e)
        base = coarse[:, s - 1, None]
        total = np.subtract(coarse[:, e, None], base, dtype=dtype)
        n1 = np.arange(1, n, dtype=dtype)
        out = np.empty(n - 1)
        step = max(1, self._ROW_BYTES // (coarse.shape[0] * np.dtype(dtype).itemsize))
        for b0 in range(s, e, step):
            b1 = min(b0 + step, e)
            rows = slice(b0 - s, b1 - s)
            c = np.subtract(coarse[:, b0:b1], base, dtype=dtype)
            pre = c * (n - n1[rows])  # n2 c, under a row for level 0
            post = np.subtract(total, c, out=c)
            post *= n1[rows]  # n1 d
            bound = np.subtract(pre[1:], post[:-1])  # n2 c_h - n1 d_g
            np.maximum(bound, np.subtract(post[1:], pre[:-1]), out=bound)  # n1 d_h - n2 c_g
            if kind is Norm.LINF:
                out[rows] = bound.max(axis=0)
            elif kind is Norm.L1:
                out[rows] = weights @ bound
            else:
                out[rows] = np.sqrt(weights @ np.square(bound, dtype=float))
        out *= _split_factor(n, n1)
        return out


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
    if kind is Norm.LINF:  # max |x| with no |matrix| temporary; + 0.0 clears -0.0
        return np.maximum(matrix.max(axis=-1), -matrix.min(axis=-1)) + 0.0
    terms = np.abs(matrix) if kind is Norm.L1 else np.square(matrix)
    if counts is None:
        mean = terms.mean(axis=-1)
    else:  # a row-wise sum, so a row's norm does not depend on the rows beside it
        terms *= counts
        mean = terms.sum(axis=-1) / counts.sum()
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

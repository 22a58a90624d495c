"""Ranks, evaluation levels, the prefix-count table and its kernel, and the norms."""

import math

import numpy as np
import pytest

import rankseg.contrast
from rankseg import (
    CusumTable,
    DetectorConfig,
    EvalPoints,
    Norm,
    Series,
    grid_points,
    norm_value,
    segment,
)

from conftest import (
    ecdf,
    float_contrast,
    levels_of,
    naive_cusum,
    naive_norm,
    naive_profile,
    random_series,
    rescale_sd,
    thresholds_of,
)

ALL_NORMS = [Norm.L1, Norm.L2, Norm.LINF]


def table_at(x, points):
    """A table of ``x`` at arbitrary points ``u``, through their levels."""
    return CusumTable(x, EvalPoints(levels_of(x, points), "grid"))


def column_ecdf(x, points):
    """ECDF of ``x`` at ``points`` as held by the table: column totals over T."""
    return table_at(x, points).prefix[-1] / len(x)


def contrast_at(x, s, e, b, u):
    """One kernel entry: the contrast of ``[s, e]`` at split ``b`` and point ``u``."""
    return float(table_at(x, u).row(s, e, b)[0])


class TestSeries:
    def test_valid_truth(self):
        s = Series([1.0, 2.0, 3.0, 4.0], truth=(1, 3))
        assert s.truth == (1, 3)
        assert len(s) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series([])

    def test_truth_out_of_range(self):
        with pytest.raises(ValueError):
            Series([1.0, 2.0], truth=(2,))
        with pytest.raises(ValueError):
            Series([1.0, 2.0], truth=(0,))

    def test_truth_not_increasing(self):
        with pytest.raises(ValueError):
            Series([1.0, 2.0, 3.0, 4.0], truth=(2, 2))

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
    def test_non_integer_truth_rejected(self, bad):
        # 2.5 was once stored as 2 and True as 1
        with pytest.raises(ValueError, match="integer"):
            Series(np.arange(10.0), truth=(bad,))

    def test_numpy_integer_truth_stored_as_int(self):
        s = Series(np.arange(10.0), truth=np.array([3, 7]))
        assert s.truth == (3, 7) and all(type(t) is int for t in s.truth)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        values = np.arange(10.0)
        values[3] = bad
        with pytest.raises(ValueError, match="finite"):
            Series(values)


class TestEcdf:
    """The table's column totals over T are the ECDF at its points."""

    def test_hand_values(self):
        assert column_ecdf((1, 2, 3), [0, 2, 5]).tolist() == [0.0, 2 / 3, 1.0]
        assert ecdf((1, 2, 3), 2) == pytest.approx(2 / 3)

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            CusumTable([], grid_points([1.0], 1))
        with pytest.raises(ValueError):
            ecdf([], 0.0)

    def test_weakly_increasing_and_max_one(self, rng):
        for _ in range(20):
            sample = random_series(rng, max_len=50)
            grid = np.sort(rng.standard_normal(40))
            vals = column_ecdf(sample, grid)
            assert np.all(np.diff(vals) >= 0)
            assert vals.tolist() == [ecdf(sample, u) for u in grid]
            assert column_ecdf(sample, [sample.max()])[0] == 1.0

    def test_right_continuous_step(self):
        # at a data value the jump is already included
        assert column_ecdf((0.0, 1.0), [1.0 - 1e-12, 1.0]).tolist() == [0.5, 1.0]


class TestCusum:
    """Single contrast entries of ``CusumTable.row`` against the oracle."""

    def test_hand_value(self):
        # first term sqrt(2/8) * 2 = 1, second term 0
        assert contrast_at([0, 0, 1, 1], 1, 4, 2, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_below_min_is_zero(self, rng):
        x = rng.standard_normal(30)
        assert contrast_at(x, 3, 20, 10, x.min() - 1.0) == 0.0

    def test_constant_series_cancels(self):
        assert contrast_at([5, 5, 5, 5], 1, 4, 2, 5) == 0.0

    def test_matches_naive(self, rng):
        for _ in range(50):
            x = random_series(rng, max_len=60, ties=bool(rng.integers(2)))
            n = len(x)
            s = int(rng.integers(1, n))
            e = int(rng.integers(s + 1, n + 1))
            b = int(rng.integers(s, e))
            u = float(rng.standard_normal()) * 2
            assert contrast_at(x, s, e, b, u) == pytest.approx(
                naive_cusum(x, s, e, b, u), abs=1e-12
            )

    def test_antitone_under_indicator_complement(self, rng):
        # flipping every indicator negates the value
        for _ in range(30):
            x = random_series(rng, max_len=50)
            n = len(x)
            s, e = 1, n
            b = int(rng.integers(s, e))
            u = float(np.quantile(x, rng.uniform()))
            flipped_pre = sum(1 for t in range(s, b + 1) if not x[t - 1] <= u)
            flipped_post = sum(1 for t in range(b + 1, e + 1) if not x[t - 1] <= u)
            n1, n2 = b - s + 1, e - b
            flipped = math.sqrt(n2 / (n1 * n)) * flipped_pre - math.sqrt(
                n1 / (n2 * n)
            ) * flipped_post
            assert flipped == pytest.approx(-contrast_at(x, s, e, b, u), abs=1e-12)

    def test_rank_dependence(self):
        # two thresholds inducing the same indicator vector agree exactly
        x = [1.0, 4.0, 2.0, 8.0, 3.0]
        assert contrast_at(x, 1, 5, 2, 4.3) == contrast_at(x, 1, 5, 2, 7.9)

    def test_index_violations(self):
        table = table_at([1.0, 2.0, 3.0, 4.0], 0.5)
        with pytest.raises(ValueError):
            table.row(0, 4, 2)
        with pytest.raises(ValueError):
            table.row(1, 5, 2)
        with pytest.raises(ValueError):
            table.row(1, 4, 4)
        with pytest.raises(ValueError):
            table.row(3, 3, 3)


class TestRescale:
    """``CusumTable.indicator_sd`` against hand values and the oracle."""

    def test_mid_range(self):
        x = np.arange(1, 11, dtype=float)  # p = 0.5 at u = 5
        assert table_at(x, [5.0]).indicator_sd[0] == pytest.approx(0.5)

    def test_clamp_low(self):
        x = np.arange(1, 101, dtype=float)
        assert table_at(x, [5.0]).indicator_sd[0] == 0.3  # p = 0.05

    def test_clamp_high(self):
        x = np.arange(1, 101, dtype=float)
        assert table_at(x, [95.0]).indicator_sd[0] == 0.3  # p = 0.95

    def test_boundary_continuous(self):
        # sqrt(0.1 * 0.9) = 0.3 exactly, so the clamp is continuous
        x = np.arange(1, 11, dtype=float)
        assert table_at(x, [1.0, 9.0]).indicator_sd == pytest.approx([0.3, 0.3])

    def test_factors_match_scalar(self, rng):
        x = random_series(rng, max_len=80)
        pts = np.sort(rng.standard_normal(25))
        vec = table_at(x, pts).indicator_sd
        for u, f in zip(pts, vec):
            assert f == pytest.approx(rescale_sd(x, u), abs=1e-15)


class TestGridPoints:
    def test_order_statistic_indices(self):
        # k_j = ceil(j * T / (q + 1)) picks 1-based order statistics
        x = [0.0, 4.0, 1.5]
        assert grid_points(x, 1).levels.tolist() == [2]
        assert thresholds_of(x, grid_points(x, 1)).tolist() == [1.5]
        assert thresholds_of(x, grid_points(x, 2)).tolist() == [0.0, 1.5]
        y = np.arange(10.0, 0.0, -1.0)
        assert grid_points(y, 4).levels.tolist() == [2, 4, 6, 8]
        assert thresholds_of(y, grid_points(y, 4)).tolist() == [2.0, 4.0, 6.0, 8.0]
        assert thresholds_of(y, grid_points(y, 9)).tolist() == list(np.arange(1.0, 10.0))

    def test_constant_series_all_equal_points(self):
        x = np.full(1500, 7.0)
        ep = DetectorConfig().eval_points_for(x)
        assert ep.mode == "grid" and len(ep) == 300
        assert np.all(thresholds_of(x, ep) == 7.0)
        assert np.all(CusumTable(x, ep).profile_matrix(1, 1500) == 0.0)
        for stop in ("threshold", "bic"):
            assert segment(x, DetectorConfig(stop=stop)).changepoints == ()

    def test_mode_and_sorting(self, rng):
        x = random_series(rng, max_len=50)
        ep = grid_points(x, 17)
        assert ep.mode == ("full" if len(x) <= 17 else "grid")
        assert len(ep) == min(17, len(x))
        assert np.all(np.diff(ep.levels) >= 0)
        assert np.all(np.isin(thresholds_of(x, ep), x))

    def test_bad_size(self):
        with pytest.raises(ValueError):
            grid_points([1.0, 2.0], 0)

    @pytest.mark.parametrize("bad", [True, 2.5])
    def test_non_integer_size_rejected(self, bad):
        # True once gave one level; 2.5 failed on the levels' dtype
        with pytest.raises(ValueError, match="grid size must be an integer"):
            grid_points(np.arange(10.0), bad)

    def test_size_capped_at_length(self, rng):
        # q >= T gives every data value once, in full mode, never a repeat
        x = rng.standard_normal(200)
        ep = DetectorConfig(grid=300).eval_points_for(x)
        assert ep.mode == "full" and len(ep) == 200
        assert np.array_equal(thresholds_of(x, ep), np.sort(x))
        for q in (200, 201, 1000):
            assert np.array_equal(thresholds_of(x, grid_points(x, q)), np.sort(x))
            assert grid_points(x, q).mode == "full"

    def test_full_points_are_data(self, rng):
        for n in (1, 2, 3, 59, 1000, 1600):
            x = rng.standard_normal(n)
            ep = grid_points(x, n)
            assert ep.mode == "full"
            assert np.array_equal(ep.levels, np.arange(1, n + 1))
            assert np.array_equal(thresholds_of(x, ep), np.sort(x))

    def test_commutes_with_increasing_maps(self, rng):
        x = rng.standard_normal(3000)
        for f in (np.exp, lambda v: 2.5 * v + 7.0, np.arctan):
            for q in (1, 7, 300, 2999, 3000):
                assert np.array_equal(
                    thresholds_of(f(x), grid_points(f(x), q)),
                    f(thresholds_of(x, grid_points(x, q))),
                )


class TestEvalPoints:
    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            EvalPoints(np.array([2, 1]), "grid")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EvalPoints(np.array([]), "full")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            EvalPoints(np.array([1]), "quantiles")

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            EvalPoints(np.array([-1, 2]), "grid")

    @pytest.mark.parametrize("bad", [[0.5, 1.5], [True, True]])
    def test_non_integer_levels_rejected(self, bad):
        # a float threshold is a level only through #{x <= u}, never by casting
        with pytest.raises(ValueError, match="integers"):
            EvalPoints(np.array(bad), "grid")

    def test_weakly_increasing_levels_accepted(self):
        ep = EvalPoints([0, 2, 2, 5], "grid")
        assert ep.levels.tolist() == [0, 2, 2, 5] and len(ep) == 4

    def test_unsigned_levels_checked_as_numbers(self):
        # a uint64 level above 2**63 - 1 must not wrap to a negative int64,
        # and a uint64 difference must not wrap to a huge positive one
        with pytest.raises(ValueError, match="64-bit"):
            EvalPoints(np.array([1, 2**63], dtype=np.uint64), "grid")
        with pytest.raises(ValueError, match="sorted"):
            EvalPoints(np.array([2, 1], dtype=np.uint64), "grid")
        ep = EvalPoints(np.array([0, 3, 5], dtype=np.uint64), "grid")
        assert ep.levels.dtype == np.int64 and ep.levels.tolist() == [0, 3, 5]
        assert CusumTable(np.arange(5.0), ep).prefix[-1].tolist() == [0, 3, 5]


class TestCusumTable:
    def test_profile_matches_naive_rows(self, rng):
        for _ in range(10):
            x = random_series(rng, max_len=40, ties=bool(rng.integers(2)))
            n = len(x)
            ep = grid_points(x, len(x))
            table = CusumTable(x, ep)
            s = int(rng.integers(1, n))
            e = int(rng.integers(s + 1, n + 1))
            got = table.profile_matrix(s, e)
            for k, b in enumerate(range(s, e)):
                for q, u in enumerate(thresholds_of(x, ep)):
                    assert got[k, q] == pytest.approx(
                        naive_cusum(x, s, e, b, u), abs=1e-12
                    )

    def test_row_matches_matrix(self, rng):
        x = random_series(rng, max_len=60)
        table = CusumTable(x, grid_points(x, len(x)))
        n = len(x)
        s, e = 2, n - 1
        matrix = table.profile_matrix(s, e)
        for b in (s, (s + e) // 2, e - 1):
            # one kernel: the row is bit-identical to the matrix row
            assert np.array_equal(table.row(s, e, b), matrix[b - s])

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("q", [7, "T"])
    def test_matches_float_oracle(self, rng, ties, q):
        # the integer numerator and one factor per row reproduce the float
        # formula, and a float zero (equal segment ECDFs) stays a hard zero
        zeros = 0
        for _ in range(20):
            x = random_series(rng, ties=ties)
            n = len(x)
            table = CusumTable(x, grid_points(x, n if q == "T" else q))
            s = int(rng.integers(1, n))
            e = int(rng.integers(s + 1, n + 1))
            want = float_contrast(table.prefix, s, e, s, e)
            got = table.profile_matrix(s, e)
            assert got.dtype == np.float64 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            assert np.all(got[want == 0] == 0.0)
            zeros += int(np.count_nonzero(want == 0))
            b = int(rng.integers(s, e))
            row = table.row(s, e, b)
            np.testing.assert_allclose(
                row, float_contrast(table.prefix, s, e, b, b + 1)[0], rtol=1e-12, atol=1e-12
            )
            assert np.array_equal(row, got[b - s])
        assert zeros > 0

    def test_long_window_uses_wide_integers(self):
        # the numerator c * n - n1 * t equals n1 * n2 * (F_pre - F_post), so
        # an int32 wrap of c * n cancels unless the result itself leaves
        # int32: on this increasing series the middle row at level T / 2 is
        # n1 * n2 = 2.5e9, past 2**31 - 1
        T = 100_000
        x = np.arange(T, dtype=float)
        table = CusumTable(x, EvalPoints([1, T // 2, T - 1], "grid"))
        got = table.profile_matrix(1, T)
        assert got.shape == (T - 1, 3)
        assert got[T // 2 - 1, 1] == pytest.approx(math.sqrt(T) / 2, rel=1e-12)
        for b in (1, T // 2, T - 1):
            want = float_contrast(table.prefix, 1, T, b, b + 1)[0]
            np.testing.assert_allclose(got[b - 1], want, rtol=1e-12, atol=1e-12)

    def test_interval_validation(self):
        table = CusumTable([1.0, 2.0, 3.0], grid_points([1.0, 2.0, 3.0], 3))
        with pytest.raises(ValueError):
            table.profile_matrix(2, 2)
        with pytest.raises(ValueError):
            table.profile_matrix(0, 3)
        with pytest.raises(ValueError):
            table.row(1, 3, 3)

    def test_level_above_length_rejected(self):
        # a set built for a longer series must not be read on a shorter one
        x = np.arange(5.0)
        with pytest.raises(ValueError, match="exceeds the series length 5"):
            CusumTable(x, grid_points(np.arange(6.0), 6))
        with pytest.raises(ValueError, match="exceeds"):
            CusumTable(x, EvalPoints([1, 6], "grid"))
        assert CusumTable(x, EvalPoints([0, 5], "grid")).prefix[-1].tolist() == [0, 5]

    def test_over_budget_table_rejected(self, monkeypatch):
        # (T + 1) * Q int32 counts: 4.0 MB at T = Q = 1000, 0.8 MB at Q = 200
        assert rankseg.contrast.MAX_TABLE_BYTES == 2**30
        monkeypatch.setattr("rankseg.contrast.MAX_TABLE_BYTES", 2**20)
        x = np.arange(1000.0)
        message = "T=1000 and Q=1000 levels needs 4 MiB, over the 1 MiB limit"
        with pytest.raises(ValueError, match=message):
            CusumTable(x, grid_points(x, 1000))
        with pytest.raises(ValueError, match="integer grid"):
            CusumTable(x, grid_points(x, 300))
        assert CusumTable(x, grid_points(x, 200)).prefix.shape == (1001, 200)

    @pytest.mark.parametrize("q", [1, 7, 300, "T"])
    def test_prefix_equals_float_comparison_on_ties(self, rng, q):
        # the rank build reproduces the float build x_t <= x_(k) exactly
        for _ in range(5):
            x = rng.integers(0, 9, int(rng.integers(2, 400))).astype(float)
            T = len(x)
            ep = grid_points(x, T if q == "T" else q)
            u = thresholds_of(x, ep)
            want = np.vstack([np.zeros(len(ep), int), np.cumsum(x[:, None] <= u[None, :], axis=0)])
            assert np.array_equal(CusumTable(x, ep).prefix, want)


class TestRanks:
    def test_min_ranks_with_ties(self):
        s = Series([3.0, 1.0, 3.0, 2.0, 1.0])
        assert s.ranks.tolist() == [4, 1, 4, 3, 1]

    def test_computed_once(self):
        s = Series(np.arange(6.0)[::-1])
        assert s.ranks is s.ranks
        assert s.ranks.tolist() == [6, 5, 4, 3, 2, 1]

    def test_ranks_give_the_order_statistic_indicators(self, rng):
        # X_t <= x_(k) exactly when r_t <= k, tied or not
        for ties in (False, True):
            x = random_series(rng, max_len=80, ties=ties)
            r = Series(x).ranks
            xs = np.sort(x)
            for k in range(1, len(x) + 1):
                assert np.array_equal(x <= xs[k - 1], r <= k)


class TestNormValue:
    def test_l2_hand_value(self):
        # (1/sqrt(2)) * sqrt(9 + 16) = 5 / sqrt(2)
        assert norm_value(Norm.L2, [3.0, 4.0]) == pytest.approx(5 / np.sqrt(2))

    def test_linf_hand_value(self):
        assert norm_value(Norm.LINF, [1.0, -2.0, 3.0]) == 3.0

    def test_l1_of_constants(self):
        assert norm_value(Norm.L1, [0.7] * 9) == pytest.approx(0.7)

    def test_empty_rejected(self):
        for kind in ALL_NORMS:
            with pytest.raises(ValueError):
                norm_value(kind, [])

    def test_accepts_plain_strings(self):
        assert norm_value("linf", [2.0, -5.0]) == 5.0

    def test_matches_naive(self, rng):
        for _ in range(30):
            y = rng.standard_normal(int(rng.integers(1, 40)))
            for kind in ALL_NORMS:
                assert norm_value(kind, y) == pytest.approx(
                    naive_norm(kind.value, y), abs=1e-12
                )

    def test_mean_dominance_and_ordering(self, rng):
        # L(x) >= mean(x) on nonnegative vectors and L1 <= L2 <= Linf
        for _ in range(50):
            x = np.abs(rng.standard_normal(int(rng.integers(1, 30))))
            l1 = norm_value(Norm.L1, x)
            l2 = norm_value(Norm.L2, x)
            linf = norm_value(Norm.LINF, x)
            mean = x.mean()
            assert l1 >= mean - 1e-12
            assert l2 >= mean - 1e-12
            assert linf >= mean - 1e-12
            assert l1 <= l2 + 1e-12 <= linf + 2e-12

    def test_matrix_gives_row_norms(self, rng):
        # a matrix is normed along its last axis, row by row, bit for bit
        matrix = rng.standard_normal((7, 13))
        for kind in ALL_NORMS:
            rows = norm_value(kind, matrix)
            assert rows.shape == (7,)
            assert rows.tolist() == [norm_value(kind, row) for row in matrix]

    def test_permutation_invariance(self, rng):
        for _ in range(20):
            y = rng.standard_normal(25)
            shuffled = rng.permutation(y)
            for kind in ALL_NORMS:
                assert norm_value(kind, shuffled) == pytest.approx(
                    norm_value(kind, y), rel=1e-12
                )


class TestAggregate:
    """``norm_value`` over ``CusumTable.profile_matrix``, optionally rescaled."""

    @staticmethod
    def profile(x, s, e, kind=Norm.LINF, eval_points=None, rescale=False):
        table = CusumTable(x, eval_points or grid_points(x, len(x)))
        matrix = table.profile_matrix(s, e)
        if rescale:
            matrix /= table.indicator_sd
        return norm_value(kind, matrix)

    def test_constant_series_all_zero(self):
        assert np.all(self.profile([3.0] * 10, 1, 10) == 0.0)

    def test_step_profile_peaks_at_split(self):
        # rows are the candidates b = 1, 2, 3
        v1, v2, v3 = self.profile([0.0, 0.0, 1.0, 1.0], 1, 4)
        assert v2 == pytest.approx(1.0, abs=1e-12)
        assert v2 >= v1 and v2 >= v3

    @pytest.mark.parametrize("kind", ALL_NORMS)
    @pytest.mark.parametrize("rescale", [False, True])
    def test_matches_naive_full_mode(self, rng, kind, rescale):
        for _ in range(3):
            x = random_series(rng, max_len=30, min_len=6)
            n = len(x)
            s = int(rng.integers(1, n - 1))
            e = int(rng.integers(s + 2, n + 1))
            u = thresholds_of(x, grid_points(x, len(x)))
            sd = [rescale_sd(x, v) for v in u] if rescale else None
            expected = naive_profile(x, s, e, kind.value, u, sd)
            got = self.profile(x, s, e, kind, rescale=rescale)
            assert np.allclose(got, expected, atol=1e-12)

    def test_matches_naive_grid_mode(self, rng):
        x = random_series(rng, max_len=30, min_len=8)
        ep = grid_points(x, 7)
        expected = naive_profile(x, 2, len(x), "l2", thresholds_of(x, ep))
        got = self.profile(x, 2, len(x), Norm.L2, eval_points=ep)
        assert np.allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("rescale", [False, True])
    def test_rank_invariance_under_monotone_maps(self, rng, rescale):
        # indicators depend on ranks only, so profiles are bitwise equal
        for transform in (np.exp, lambda v: 2.5 * v + 7.0):
            x = random_series(rng, max_len=60, min_len=10)
            n = len(x)
            base = self.profile(x, 1, n, rescale=rescale)
            mapped = self.profile(transform(x), 1, n, rescale=rescale)
            assert np.array_equal(base, mapped)

    def test_shift_invariance(self, rng):
        x = random_series(rng, max_len=50, min_len=10)
        base = self.profile(x, 1, len(x), Norm.L2)
        shifted = self.profile(x + 123.456, 1, len(x), Norm.L2)
        assert np.array_equal(base, shifted)

    def test_interval_violations(self):
        x = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            self.profile(x, 2, 2, Norm.L1)
        with pytest.raises(ValueError):
            self.profile(x, 1, 4, Norm.L1)

    def test_profile_nonnegative(self, rng):
        x = random_series(rng, max_len=80, min_len=10)
        for kind in ALL_NORMS:
            assert np.all(self.profile(x, 1, len(x), kind) >= 0.0)

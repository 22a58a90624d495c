"""Norms, and the aggregated contrast profile built from the shared kernel."""

import numpy as np
import pytest

from rankseg import CusumTable, Norm, grid_points, norm_value

from conftest import naive_norm, naive_profile, random_series, rescale_sd, thresholds_of

ALL_NORMS = [Norm.L1, Norm.L2, Norm.LINF]


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

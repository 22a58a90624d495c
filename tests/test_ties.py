"""Tie compression: one table column per distinct indicator.

On tied data many evaluation levels give the same indicator column, and the
scan and the solution path keep each column once with its multiplicity. The
reference is ``conftest.uncompressed_segment``, the pipeline on the full-Q
table with plain norms: ``linf`` must match it bit for bit, ``l1`` and
``l2`` in change-points and path, with scores within 1e-12.
"""

import numpy as np
import pytest
from conftest import plain_norm, random_series, uncompressed_segment

from rankseg import (
    CusumTable,
    DetectorConfig,
    EvalPoints,
    ModelSpec,
    Norm,
    Series,
    generate,
    norm_value,
    segment,
    solution_path,
)
from rankseg.contrast import _distinct_levels, _profile_norms

NORMS = ("l1", "l2", "linf")
STOPS = ("threshold", "bic")


def assert_matches_oracle(x, config):
    got = segment(x, config)
    want = uncompressed_segment(Series(x), config)
    if config.norm is Norm.LINF:
        assert got.to_dict() == want.to_dict()
        return
    assert got.changepoints == want.changepoints
    assert got.scores == pytest.approx(want.scores, rel=1e-12, abs=1e-12)
    assert got.intervals_evaluated == want.intervals_evaluated
    if want.path is not None:
        assert got.path.ordered == want.path.ordered
        assert got.path.removal_scores == pytest.approx(
            want.path.removal_scores, rel=1e-12, abs=1e-12
        )
        assert got.bic == want.bic  # the criterion reads the ranks, not the table


class TestDistinctLevels:
    def test_continuous_series_is_returned_unchanged(self, rng):
        for T in (2, 50, 1000, 1500):
            x = Series(rng.standard_normal(T))
            points = DetectorConfig().eval_points_for(x)
            assert _distinct_levels(x, points) == (points, None)
            assert _distinct_levels(x, points)[0] is points

    def test_level_zero_and_repeated_levels(self):
        # ranks 1, 1, 3, 3, 5: level 2 has the column of rank 1 and level 0 none
        x = Series([1.0, 1.0, 2.0, 2.0, 3.0])
        assert x.ranks.tolist() == [1, 1, 3, 3, 5]
        points = EvalPoints([0, 2, 2, 5], "grid")
        kept, counts = _distinct_levels(x, points)
        assert kept.levels.tolist() == [0, 1, 5]
        assert kept.mode == "grid"
        assert counts.tolist() == [1, 2, 1]

    def test_columns_are_those_of_the_full_table(self, rng):
        for _ in range(20):
            x = Series(random_series(rng, max_len=80, min_len=2, ties=True))
            T = len(x)
            levels = np.sort(rng.integers(0, T + 1, int(rng.integers(1, 2 * T))))
            points = EvalPoints(levels, "grid")
            full = CusumTable(x, points).prefix
            kept, counts = _distinct_levels(x, points)
            if counts is None:
                assert kept is points
                assert len({tuple(col) for col in full.T}) == len(points)
                continue
            assert counts.sum() == len(points)
            # each kept column stands for a run of equal full columns
            assert np.array_equal(np.repeat(CusumTable(x, kept).prefix, counts, axis=1), full)
            assert len({tuple(col) for col in full.T}) == len(kept)

    @pytest.mark.parametrize(
        "model, length, rate, distinct",
        [("NOCHANGE_POIS", 1000, 3.0, 11), ("MM_POIS", None, None, 15), ("MD1", None, None, 505)],
    )
    def test_column_counts_at_seed_0(self, model, length, rate, distinct):
        x = generate(ModelSpec(model, 0, length=length, rate=rate))
        points = DetectorConfig().eval_points_for(x)
        assert len(points) == len(x)
        kept, counts = _distinct_levels(x, points)
        assert (len(kept), int(counts.sum())) == (distinct, len(x))


class TestWeightedNorms:
    def test_counts_reproduce_the_repeated_columns(self, rng):
        for _ in range(10):
            matrix = rng.standard_normal((7, 5))
            counts = rng.integers(1, 6, 5)
            full = np.repeat(matrix, counts, axis=1)
            for kind in NORMS:
                got = _profile_norms(matrix, Norm(kind), counts)
                want = plain_norm(kind, full)
                if kind == "linf":
                    assert np.array_equal(got, want)
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12)
                assert norm_value(kind, matrix[0], counts) == pytest.approx(want[0], rel=1e-12)

    @pytest.mark.parametrize("counts", [[1, 2], [1, 0, 1], [1.0, 2.0, 1.0], [[1, 1, 1]]])
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="one positive integer per column"):
            norm_value("l1", [1.0, 2.0, 3.0], counts)


class TestAgainstUncompressed:
    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("stop", STOPS)
    def test_random_tied_series(self, rng, norm, stop):
        config = DetectorConfig(norm=norm, stop=stop)
        for _ in range(8):
            assert_matches_oracle(random_series(rng, ties=True), config)

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("stop", STOPS)
    def test_constant_and_two_valued(self, rng, norm, stop):
        config = DetectorConfig(norm=norm, stop=stop)
        for x in (
            np.full(40, 2.5),
            np.r_[np.zeros(60), np.ones(60)],
            rng.integers(0, 2, 250).astype(float),
        ):
            assert_matches_oracle(x, config)

    @pytest.mark.parametrize("grid", ["auto", 7, "full"])
    @pytest.mark.parametrize("norm", NORMS)
    def test_long_tied_series(self, norm, grid):
        # T > 1000: "auto" takes 300 grid levels, 7 takes 7, "full" all 1200
        rng = np.random.default_rng(3)
        x = np.r_[rng.poisson(2.0, 700), rng.poisson(4.0, 500)].astype(float)
        for stop in STOPS:
            assert_matches_oracle(x, DetectorConfig(norm=norm, stop=stop, grid=grid))

    def test_paper_count_models(self):
        for model in ("MM_POIS", "MD1"):
            x = generate(ModelSpec(model, 1)).values
            for norm in NORMS:
                for stop in STOPS:
                    assert_matches_oracle(x, DetectorConfig(norm=norm, stop=stop))


class TestBudgetUsesConfiguredLevels:
    def test_path_table_guard(self, monkeypatch):
        # 11 distinct columns would fit; the guard reads the configured 1000
        monkeypatch.setattr("rankseg.contrast.MAX_TABLE_BYTES", 2 * 2**20)
        x = generate(ModelSpec("NOCHANGE_POIS", 0, length=1000))
        config = DetectorConfig(grid="full")
        with pytest.raises(ValueError, match="a prefix table for T=1000 and Q=1000"):
            solution_path(x, [500], config)
        assert len(solution_path(x, [500], DetectorConfig(grid=200))) == 1

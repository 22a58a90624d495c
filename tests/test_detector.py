import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rankseg import (
    CusumTable,
    DetectorConfig,
    Norm,
    Segmentation,
    Series,
    StopRule,
    detect,
    grid_points,
    interval_sequences,
    norm_value,
    overestimate,
    segment,
    threshold,
)
from rankseg.contrast import _distinct_levels, _profile_norms
from rankseg.detector import (
    _BOUND_COLUMNS,
    _BOUND_MIN_LEVELS,
    _BOUND_MIN_ROWS,
    DEFAULT_CONSTANTS,
    _interval_order,
    _window_bounds,
    _windows,
)
from rankseg.simulate import ModelSpec, generate

from conftest import (
    naive_interval_sequences,
    naive_window_bounds,
    thresholds_of,
    uncompressed_segment,
)

THRESHOLD = DetectorConfig(stop=StopRule.THRESHOLD)


def test_public_names():
    # the package's __all__ joins each module's own list; each name resolves
    import rankseg

    assert len(rankseg.__all__) == len(set(rankseg.__all__)) == 31
    assert all(hasattr(rankseg, name) for name in rankseg.__all__)


class TestThreshold:
    def test_hand_value(self):
        assert threshold(0.9, 100) == pytest.approx(0.9 * math.sqrt(math.log(100)))

    def test_zero_constant(self):
        assert threshold(0.0, 50) == 0.0

    def test_monotone_in_length(self):
        values = [threshold(0.9, t) for t in (2, 10, 100, 10_000)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            threshold(0.9, 1)

    @pytest.mark.parametrize(
        "args, name",
        [((True, 10), "constant"), ((0.9, 2.5), "length"), ((0.9, True), "length"),
         ((-0.1, 10), "constant"), ((math.nan, 10), "constant"), (("0.9", 10), "constant")],
    )
    def test_non_numbers_rejected(self, args, name):
        # True once counted as 1.0 and a length of 2.5 was taken as given
        with pytest.raises(ValueError, match=f"^{name} must be"):
            threshold(*args)

    def test_numpy_numbers_accepted(self):
        assert threshold(np.float64(0.9), np.int64(100)) == threshold(0.9, 100)

    def test_calibrated_constants(self):
        assert DetectorConfig(norm=Norm.LINF).resolved_constant() == 0.9
        assert DetectorConfig(norm=Norm.L2).resolved_constant() == 0.6
        assert DetectorConfig(norm=Norm.L1).resolved_constant() == 0.5
        assert set(DEFAULT_CONSTANTS) == set(Norm)


def sides(s, e, step, length):
    """The right and left end-point sequences of ``interval_sequences``."""
    seq = interval_sequences(s, e, step, length)
    right = [ee for _, ee, side in seq if side == "right"]
    left = [ss for ss, _, side in seq if side == "left"]
    return right, left


class TestExpansionSchedule:
    """The expansion points, computed directly by ``interval_sequences``."""

    def test_worked_example_t60(self):
        assert sides(1, 60, 10, 60) == ([11, 21, 31, 41, 51, 60], [50, 40, 30, 20, 10, 1])

    def test_terminals_never_duplicated(self):
        # 3 * 15 + 1 == T here, so the raw lattice would repeat the terminal
        assert sides(1, 46, 15, 46) == ([16, 31, 46], [31, 16, 1])

    def test_invariants_random(self):
        # the direct formulas agree with filtering the precomputed points
        rng = np.random.default_rng(7)
        for _ in range(2000):
            t = int(rng.integers(2, 400))
            lam = int(rng.integers(1, 40))
            s = int(rng.integers(1, t + 1))
            e = int(rng.integers(s, t + 1))
            assert interval_sequences(s, e, lam, t) == naive_interval_sequences(s, e, lam, t)
            if e > s:
                right, left = sides(s, e, lam, t)
                assert np.all(np.diff(right) > 0) and right[-1] == e
                assert np.all(np.diff(left) < 0) and left[-1] == s

    def test_lazy_order_matches_naive_random(self):
        # the scan reads the generator, interval_sequences its list
        rng = np.random.default_rng(11)
        for _ in range(20_000):
            t = int(rng.integers(2, 500))
            lam = int(rng.integers(1, 60))
            s = int(rng.integers(1, t + 1))
            e = int(rng.integers(s, t + 1))
            want = naive_interval_sequences(s, e, lam, t)
            assert list(_interval_order(s, e, lam, t)) == want
            assert interval_sequences(s, e, lam, t) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_sequences(1, 10, 0, 10)
        with pytest.raises(ValueError):
            interval_sequences(0, 10, 5, 10)
        with pytest.raises(ValueError):
            interval_sequences(1, 11, 5, 10)

    @pytest.mark.parametrize(
        "args, name",
        [((1, 10, True, 10), "step"), ((1.0, 10, 5, 10), "s"), ((1, 10.0, 5, 10), "e"),
         ((1, 10, 5, 10.0), "length"), ((1, 10, 2.5, 10), "step")],
    )
    def test_non_integers_rejected(self, args, name):
        # step=True once ran as a step of 1 and a float s raised TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            interval_sequences(*args)

    def test_numpy_integers_accepted(self):
        got = interval_sequences(*map(np.int64, (1, 60, 10, 60)))
        assert got == interval_sequences(1, 60, 10, 60)
        assert all(type(a) is int and type(b) is int for a, b, _ in got)


class TestIntervalSequences:
    def test_full_interval_t60(self):
        right, left = sides(1, 60, 10, 60)
        assert right == [11, 21, 31, 41, 51, 60]
        assert left == [50, 40, 30, 20, 10, 1]

    def test_sub_interval_30_41(self):
        # first right point past 30 is 31; first left point below 41 is 40
        assert sides(30, 41, 10, 60) == ([31, 41], [40, 30])

    def test_empty_when_degenerate(self):
        assert interval_sequences(5, 5, 10, 60) == []

    def test_interleaving_order(self):
        seq = interval_sequences(1, 60, 10, 60)
        assert seq[:4] == [
            (1, 11, "right"),
            (50, 60, "left"),
            (1, 21, "right"),
            (40, 60, "left"),
        ]
        assert len(seq) == 12

    def test_uneven_sides_skip_exhausted_slot(self):
        # [11, 41]: right side has 3 entries (21, 31, 41), left side 4
        # (40, 30, 20, 11); the exhausted right slot is skipped at the end
        right, left = sides(11, 41, 10, 60)
        assert right == [21, 31, 41]
        assert left == [40, 30, 20, 11]
        seq = interval_sequences(11, 41, 10, 60)
        assert len(seq) == 7
        assert seq[-1] == (11, 41, "left")
        # pairs alternate right/left while both sides last
        for i in range(3):
            assert seq[2 * i][2] == "right" and seq[2 * i + 1][2] == "left"


class TestWindowBounds:
    def test_no_split_needed(self):
        assert _window_bounds(1500, 2000) == [(0, 1500)]
        assert _window_bounds(2000, 2000) == [(0, 2000)]

    def test_exact_windows(self):
        assert _window_bounds(4000, 2000) == [(0, 2000), (2000, 4000)]

    def test_long_remainder_is_own_window(self):
        assert _window_bounds(3000, 2000) == [(0, 2000), (2000, 3000)]

    def test_short_remainder_absorbed(self):
        assert _window_bounds(2500, 2000) == [(0, 2500)]
        assert _window_bounds(4500, 2000) == [(0, 2000), (2000, 4500)]

    def test_matches_window_by_window_oracle(self):
        # every window length 2..79 against every length 1..699, and a few long series
        cases = [(T, win) for win in range(2, 80) for T in range(1, 700)]
        cases += [(6000, 2000), (20_000, 2000), (10**7, 2000)]
        for T, win in cases:
            assert _window_bounds(T, win) == naive_window_bounds(T, win), (T, win)

    def test_windows_share_the_series_grid(self):
        # grid="auto" is resolved once from the series' T: 300 levels in the
        # 1000-point tail of T = 3000 too, and all levels when T <= 1000
        def windows(T, **overrides):
            config = DetectorConfig(**overrides)
            return [(lo, len(w), c.grid, c.split) for lo, w, c in _windows(Series(np.arange(T)), config)]

        series = Series(np.arange(2999.0))
        assert [(w, c) for _, w, c in _windows(series, THRESHOLD)] == [(series, THRESHOLD)]
        assert windows(3000) == [(0, 2000, 300, None), (2000, 1000, 300, None)]
        assert windows(1000, split=500) == [(0, 500, "full", None), (500, 500, "full", None)]
        assert windows(3000, grid=50) == [(0, 2000, 50, None), (2000, 1000, 50, None)]
        # the one-point tail of split 2 holds no split and is not yielded
        assert windows(5, split=2) == [(0, 2, "full", None), (2, 2, "full", None)]

    def test_one_point_window_scans_nothing(self):
        # a one-point tail window has no split, so it adds no interval and no change
        values = np.array([0.0, 5.0, 1.0, 6.0, 2.0])
        config = replace(THRESHOLD, split=2)
        assert _window_bounds(5, 2) == [(0, 2), (2, 4), (4, 5)]
        windows = [detect(values[lo:hi], replace(config, split=None)) for lo, hi in ((0, 2), (2, 4))]
        result = detect(values, config)
        assert result.intervals_evaluated == sum(w.intervals_evaluated for w in windows) > 0
        assert result.changepoints == tuple(
            c + lo for w, lo in zip(windows, (0, 2)) for c in w.changepoints
        )


class TestSegmentation:
    def test_stores_checked_positions(self):
        seg = Segmentation(np.array([2, 5]), (1.0, 2.0), DetectorConfig(), 10)
        assert seg.changepoints == (2, 5)
        assert all(type(c) is int for c in seg.changepoints)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_integer_positions_rejected(self, bad):
        # (2.5,) was once kept as given
        with pytest.raises(ValueError, match="integer"):
            Segmentation((bad,), (1.0,), DetectorConfig(), 10)

    @pytest.mark.parametrize("bad", [2.5, True, 0, 1])
    def test_length_validated(self, bad):
        # 2.5, True and 0 were once kept as given; detect needs T >= 2
        with pytest.raises(ValueError, match="length must be"):
            Segmentation((), (), DetectorConfig(), bad)

    def test_numpy_integer_length_stored_as_int(self):
        # np.int64(10) was once kept as given, and json.dumps(to_dict()) raised
        seg = Segmentation((3,), (1.0,), DetectorConfig(), np.int64(10))
        assert type(seg.length) is int
        assert json.loads(json.dumps(seg.to_dict()))["length"] == 10


class TestDetectorConfig:
    def test_defaults(self):
        cfg = DetectorConfig()
        assert cfg.expansion_step == 15
        assert cfg.norm is Norm.LINF
        assert cfg.resolved_constant() == 0.9
        assert cfg.stop is StopRule.BIC
        assert cfg.grid == "auto"
        assert cfg.split == 2000
        assert len(DetectorConfig.__dataclass_fields__) == 6

    def test_l2_constant_and_rescale(self):
        # whether the path rescales follows from the norm and is not echoed
        cfg = DetectorConfig(norm=Norm.L2)
        assert cfg.resolved_constant() == 0.6
        assert cfg.to_dict()["resolved"] == {"threshold_constant": 0.6}
        assert "rescale" not in cfg.to_dict()

    def test_l1_default_constant(self):
        cfg = DetectorConfig(norm=Norm.L1)
        assert cfg.resolved_constant() == 0.5
        assert cfg.to_dict()["resolved"] == {"threshold_constant": 0.5}
        assert DetectorConfig(norm=Norm.L1, threshold_constant=0.7).resolved_constant() == 0.7

    def test_eval_mode_auto_cutoff(self):
        cfg = DetectorConfig()
        short = generate(ModelSpec("NOCHANGE_GAUSS", 0, length=1000))
        long = generate(ModelSpec("NOCHANGE_GAUSS", 0, length=1001))
        assert cfg.eval_points_for(short).mode == "full"
        assert len(cfg.eval_points_for(short)) == 1000
        assert cfg.eval_points_for(long).mode == "grid"
        assert len(cfg.eval_points_for(long)) == 300

    def test_window_length_resolution(self):
        # detect cuts a series into _window_bounds(T, split or T)
        def windows(cfg, length):
            return _window_bounds(length, cfg.split or length)

        cfg = DetectorConfig()
        assert windows(cfg, 2000) == [(0, 2000)]
        assert windows(cfg, 2001) == [(0, 2001)]
        assert windows(cfg, 4000) == [(0, 2000), (2000, 4000)]
        assert windows(DetectorConfig(split=None), 10_000) == [(0, 10_000)]
        assert windows(DetectorConfig(split=500), 600) == [(0, 600)]
        assert windows(DetectorConfig(split=500), 800) == [(0, 500), (500, 800)]
        assert windows(DetectorConfig(split=500), 400) == [(0, 400)]

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            DetectorConfig(expansion_step=0)
        with pytest.raises(ValueError):
            DetectorConfig(threshold_constant=-1.0)
        with pytest.raises(ValueError):
            DetectorConfig(grid="quantile")
        with pytest.raises(ValueError):
            DetectorConfig(split="sometimes")

    @pytest.mark.parametrize("bad", ["fulll", "AUTO", "Full", "", "300"])
    def test_unknown_grid_word_names_the_choices(self, bad):
        # these once raised "grid must be an integer"
        with pytest.raises(
            ValueError, match=f"^grid must be 'auto', 'full' or an integer, got {bad!r}$"
        ):
            DetectorConfig(grid=bad)

    def test_removed_spellings_rejected(self):
        # rescale=True, "yes" and np.bool_(True) were accepted and echoed; the
        # path rescales exactly under linf. "auto" was another name for 2000
        with pytest.raises(TypeError):
            DetectorConfig(rescale=True)
        with pytest.raises(ValueError, match="split must be an integer"):
            DetectorConfig(split="auto")
        with pytest.raises(ValueError, match="split must be >= 2"):
            DetectorConfig(split=1)

    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, pytest.param(10**400, id="10**400"),
         pytest.param(10**5000, id="10**5000")],
    )
    def test_non_finite_constant_rejected(self, bad):
        # a NaN or infinite constant once silently returned no change-points,
        # an integer beyond the float range raised OverflowError, and one
        # over Python's 4300-digit print limit raised that limit's error
        with pytest.raises(ValueError, match="finite"):
            DetectorConfig(threshold_constant=bad)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("expansion_step", 7.5),
            ("expansion_step", True),
            ("grid", 2.5),
            ("grid", True),
            ("split", 150.5),
            ("split", False),
        ],
    )
    def test_non_integer_sizes_rejected(self, field, bad):
        with pytest.raises(ValueError, match="integer"):
            DetectorConfig(**{field: bad})

    def test_numpy_integers_accepted(self):
        cfg = DetectorConfig(
            expansion_step=np.int64(10), grid=np.int32(50), split=np.int64(900)
        )
        assert cfg.split == 900 and type(cfg.split) is int
        assert _window_bounds(2000, cfg.split) == [(0, 900), (900, 2000)]

    def test_to_dict_key_order(self):
        cfg = DetectorConfig(norm="l2", threshold_constant=0.7, split=900)
        doc = cfg.to_dict()
        assert list(doc) == [*DetectorConfig.__dataclass_fields__, "resolved"]
        assert list(doc["resolved"]) == ["threshold_constant"]
        assert doc["norm"] == "l2" and doc["split"] == 900
        assert doc["resolved"]["threshold_constant"] == 0.7

    @pytest.mark.parametrize("bad", [True, False, "0.5", 1j])
    def test_non_real_constant_rejected(self, bad):
        # True was once accepted as 1.0 and echoed as true; a string raised
        # TypeError from math.isfinite
        with pytest.raises(ValueError, match="real number"):
            DetectorConfig(threshold_constant=bad)

    def test_numbers_stored_as_python_types(self):
        # numpy numbers once made to_dict() fail json.dumps
        cfg = DetectorConfig(
            expansion_step=np.int64(10),
            threshold_constant=np.float32(0.75),
            grid=np.int64(40),
            split=np.int32(900),
        )
        for name, kind in [
            ("expansion_step", int), ("threshold_constant", float), ("grid", int), ("split", int)
        ]:
            assert type(getattr(cfg, name)) is kind
        x = generate(ModelSpec("NOCHANGE_GAUSS", 0, length=200))
        for config in (cfg, DetectorConfig(expansion_step=np.int64(10))):
            doc = json.loads(json.dumps(segment(x, config).to_dict()))
            assert doc["config"]["expansion_step"] == 10
        assert doc["config"]["grid"] == "auto"

    @pytest.mark.parametrize("T", [600, 1000, 1001, 1500])
    def test_integer_grid_is_grid_points(self, T):
        # on both sides of the auto cut-off at T = 1000
        x = generate(ModelSpec("NOCHANGE_GAUSS", 0, length=T))
        for q in (1, 50, 300, 1000, T):
            got = DetectorConfig(grid=q).eval_points_for(x)
            want = grid_points(x, q)
            assert got.mode == want.mode
            assert np.array_equal(got.levels, want.levels)

    def test_full_grid_above_auto_cutoff(self):
        x = generate(ModelSpec("NOCHANGE_GAUSS", 0, length=1001))
        ep = DetectorConfig(grid="full").eval_points_for(x)
        assert ep.mode == "full" and len(ep) == 1001
        assert np.array_equal(thresholds_of(x.values, ep), np.sort(x.values))


class TestDetect:
    def test_constant_pair_empty(self):
        assert detect([1.0, 1.0], THRESHOLD).changepoints == ()

    def test_constant_series_empty(self):
        assert detect([4.2] * 200, THRESHOLD).changepoints == ()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            detect([1.0], THRESHOLD)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # a NaN in a step series once still gave (50,), and an infinity in a
        # long series turned the value-grid points into NaN
        step = np.repeat([0.0, 5.0], 50)
        step[10] = bad  # position 11
        long = generate(ModelSpec("NOCHANGE_GAUSS", 0, length=3000)).values.copy()
        long[1500] = bad
        for values in (step, long):
            for config in (THRESHOLD, DetectorConfig()):
                with pytest.raises(ValueError, match="finite"):
                    segment(values, config)

    def test_single_jump_matches_exhaustive_argmax(self):
        # one large step: detection reduces to a global maximisation
        rng = np.random.default_rng(42)
        x = np.concatenate([rng.normal(0.0, 1.0, 50), rng.normal(10.0, 1.0, 50)])
        profile = norm_value(Norm.LINF, CusumTable(x, grid_points(x, 100)).profile_matrix(1, 100))
        oracle = 1 + int(np.argmax(profile))
        assert abs(oracle - 50) <= 2
        seg = detect(x, THRESHOLD)
        assert len(seg.changepoints) == 1
        assert abs(seg.changepoints[0] - 50) <= 2

    @pytest.mark.parametrize("norm", list(Norm))
    def test_gaussian_noise_type1(self, norm):
        # threshold rule at the calibrated constant rarely fires on noise
        config = DetectorConfig(norm=norm, stop=StopRule.THRESHOLD)
        zeros = sum(
            detect(
                generate(ModelSpec("NOCHANGE_GAUSS", seed, length=500)), config
            ).n_changepoints
            == 0
            for seed in range(100)
        )
        assert zeros >= 90

    def test_determinism(self):
        x = generate(ModelSpec("MM_GAUSS", 3))
        a = detect(x, THRESHOLD)
        b = detect(x, THRESHOLD)
        assert a.changepoints == b.changepoints
        assert a.scores == b.scores

    def test_monotone_transform_invariance(self):
        cfg = DetectorConfig(stop=StopRule.THRESHOLD, grid="full")
        for seed in range(5):
            series = generate(ModelSpec("MM_GAUSS", seed))
            base = detect(series, cfg).changepoints
            assert detect(np.exp(series.values), cfg).changepoints == base
            assert detect(3.0 * series.values - 2.0, cfg).changepoints == base

    def test_monotone_transform_invariance_long_series(self):
        # above T = 1000 the points are 300 order statistics, so the maps
        # commute with them; exp once changed the output on each seed here
        for seed in range(3):
            x = generate(ModelSpec("T2", seed, length=3000)).values
            for config in (THRESHOLD, DetectorConfig()):
                base = segment(x, config).changepoints
                assert segment(np.exp(x / 3.0), config).changepoints == base
                assert segment(2.5 * x + 7.0, config).changepoints == base

    @pytest.mark.parametrize("seed", [1000, 1003, 1005])
    def test_cauchy_steps_exact_long_series(self, seed):
        # ten mean steps of size 2 under standard Cauchy noise at T = 3000;
        # the equally spaced value grid once missed most of them here
        T = 3000
        truth = [round(T * i / 11) for i in range(1, 11)]
        means = 2.0 * np.array([0, 1, 0, -1] * 3)[:11]
        level = np.repeat(means, np.diff([0, *truth, T]))
        x = level + np.random.default_rng(seed).standard_cauchy(T)
        cps = segment(x).changepoints
        assert len(cps) == 10
        assert max(abs(c - t) for c, t in zip(cps, truth)) <= 30

    def test_huge_threshold_gives_empty(self):
        series = generate(ModelSpec("MM_GAUSS", 0))
        cfg = DetectorConfig(stop=StopRule.THRESHOLD, threshold_constant=50.0)
        assert detect(series, cfg).changepoints == ()

    def test_output_invariants(self):
        for model, seed in [("MM_GAUSS", 1), ("MV_GAUSS", 2), ("MD1", 3), ("V1", 4)]:
            series = generate(ModelSpec(model, seed))
            seg = detect(series, THRESHOLD)
            cps = seg.changepoints
            assert all(1 <= c <= len(series) - 1 for c in cps)
            assert all(b > a for a, b in zip(cps, cps[1:]))
            assert len(set(cps)) == len(cps)
            assert all(s > threshold(0.9, len(series)) for s in seg.scores)

    def test_scan_budget(self):
        # each scan of [s, e] examines at most 2K intervals and every
        # detection spawns at most one further scan
        for model, seed in [("NC", 0), ("MM_GAUSS", 1), ("MM_GAUSS2", 2)]:
            series = generate(ModelSpec(model, seed))
            seg = detect(series, THRESHOLD)
            T = len(series)
            k = sum(side == "right" for *_, side in interval_sequences(1, T, 15, T))
            assert seg.intervals_evaluated <= 2 * k * (seg.n_changepoints + 1)

    def test_window_split_offsets(self):
        # jumps at 1000 and 3000 live in different windows of a split run
        rng = np.random.default_rng(9)
        x = np.concatenate(
            [
                rng.normal(0.0, 1.0, 1000),
                rng.normal(8.0, 1.0, 2000),
                rng.normal(16.0, 1.0, 1500),
            ]
        )
        seg = detect(x, THRESHOLD)
        assert len(seg.changepoints) == 2
        assert abs(seg.changepoints[0] - 1000) <= 3
        assert abs(seg.changepoints[1] - 3000) <= 3

    def test_split_off_agrees_on_well_separated_jumps(self):
        rng = np.random.default_rng(10)
        x = np.concatenate([rng.normal(0.0, 1.0, 1200), rng.normal(9.0, 1.0, 1300)])
        split = detect(x, DetectorConfig(stop=StopRule.THRESHOLD, split=1000))
        whole = detect(x, DetectorConfig(stop=StopRule.THRESHOLD, split=None))
        assert len(split.changepoints) == len(whole.changepoints) == 1
        assert abs(split.changepoints[0] - whole.changepoints[0]) <= 2

    def test_echo_names_the_threshold_rule(self):
        # detect always thresholds; its echo once said "bic" under the default
        x = generate(ModelSpec("M1", 0))
        assert detect(x).to_dict()["config"]["stop"] == "threshold"
        assert detect(x, DetectorConfig(norm="l2")).config == DetectorConfig(
            norm="l2", stop="threshold"
        )
        for stop in ("threshold", "bic"):
            assert segment(x, DetectorConfig(stop=stop)).to_dict()["config"]["stop"] == stop

    @pytest.mark.parametrize("bad", ["l2", Norm.L2, {"norm": "l2"}], ids=["str", "norm", "dict"])
    def test_non_config_rejected(self, bad):
        # detect(x, "l2") once read the string's split method as the window length
        x = generate(ModelSpec("M1", 0))
        with pytest.raises(ValueError, match=f"config must be a DetectorConfig, got {type(bad).__name__}"):
            detect(x, bad)
        with pytest.raises(ValueError, match="config must be a DetectorConfig"):
            segment(x, bad)


class TestProfileBudget:
    """The scan's (T - 1) * Q float64 profile is bounded like the int32 table.

    At T = Q = 1000 the table needs (1001 + 16) * 1000 * 4 bytes with its 16
    block bases (3.9 MiB) and the full-interval profile 999 * 1000 * 8 bytes
    (7.6 MiB): a 6 MiB budget admits the first and refuses the second
    before it is allocated.
    """

    BUDGET = 6 * 2**20

    def _assert_profile_over_budget(self, monkeypatch, model):
        monkeypatch.setattr("rankseg.contrast.MAX_TABLE_BYTES", self.BUDGET)
        x = generate(ModelSpec(model, 0, length=1000))
        assert CusumTable(x, grid_points(x, 1000)).prefix.shape == (1001, 1000)
        message = "a scan profile for T=1000 and Q=1000 levels needs 8 MiB, over the 6 MiB limit"
        for stop in ("threshold", "bic"):
            with pytest.raises(ValueError, match=message):
                detect(x, DetectorConfig(grid="full", stop=stop))
        assert detect(x, DetectorConfig(grid=500)).length == 1000

    def test_profile_over_budget_raises(self, monkeypatch):
        self._assert_profile_over_budget(monkeypatch, "NOCHANGE_GAUSS")

    def test_tied_profile_over_budget_raises(self, monkeypatch):
        # tied Poisson data keep 11 distinct columns, but the guard reads Q
        self._assert_profile_over_budget(monkeypatch, "NOCHANGE_POIS")

    def test_profile_bound_is_per_window(self, monkeypatch):
        # split windows of 1000 fit where the unsplit 2000-point scan does not
        monkeypatch.setattr("rankseg.contrast.MAX_TABLE_BYTES", self.BUDGET)
        x = generate(ModelSpec("NOCHANGE_GAUSS", 0, length=2000))
        config = DetectorConfig(grid=500, stop="threshold")
        with pytest.raises(ValueError, match="T=2000 and Q=500"):
            detect(x, replace(config, split=None))
        assert detect(x, replace(config, split=1000)).intervals_evaluated > 0


@pytest.fixture
def profiled(monkeypatch):
    """The ``(s, e, lo, hi)`` of every ``CusumTable.profile_matrix`` call, in order.

    ``[lo, hi)`` is the range of splits profiled, ``[s, e)`` when not given.
    """
    calls = []
    original = CusumTable.profile_matrix

    def counted(self, s, e, lo=None, hi=None):
        calls.append((s, e, s if lo is None else lo, e if hi is None else hi))
        return original(self, s, e, lo, hi)

    monkeypatch.setattr(CusumTable, "profile_matrix", counted)
    return calls


def steps(length, jumps, seed):
    """Unit-noise Gaussian series with a shift of 4 after each jump position."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(length) + 4.0 * np.searchsorted(jumps, np.arange(length), "right")


class TestQuietMemo:
    """Intervals profiled or bounded without firing are not profiled again.

    The reference is ``conftest.uncompressed_segment``, whose scan profiles
    every interval of the isolation order.
    """

    @pytest.mark.parametrize(
        "run, calls, intervals",
        [
            (lambda: detect(generate(ModelSpec("MM_GAUSS", 0)), THRESHOLD), 14, 51),
            # T1's intervals are too short for the bound: 2 fewer, the trailing
            # repeat of each of its two windows' last pass
            (lambda: overestimate(generate(ModelSpec("T1", 0, length=3000))), 204, 369),
            # one quiet pass: the bound clears all but 4 of its intervals
            (lambda: detect(generate(ModelSpec("NOCHANGE_GAUSS", 0, length=1000))), 4, 134),
            # 11 kept levels under linf: the exact bound clears all 129
            # intervals of 32 splits or more, 4 shorter ones are profiled
            (lambda: detect(generate(ModelSpec("NOCHANGE_POIS", 0, length=1000))), 4, 134),
            # 12 kept levels: 23 intervals bounded, 15 profiled (35 unbounded)
            (lambda: segment(generate(ModelSpec("MM_POIS", 0))), 15, 54),
        ],
        ids=["MM_GAUSS", "T1-3000-sweep", "NOCHANGE_GAUSS-1000", "NOCHANGE_POIS-1000",
             "MM_POIS-bic"],
    )
    def test_profile_calls_pinned(self, profiled, run, calls, intervals):
        seg = run()
        assert (len(profiled), seg.intervals_evaluated) == (calls, intervals)

    @pytest.mark.parametrize(
        "model, stop, filled",
        [
            # the bound skips 130 of 134 intervals, and the rest read 3 blocks
            ("NOCHANGE_GAUSS", "threshold", (3, 16)),
            # 11 kept levels: one block holds all 1001 rows
            ("NOCHANGE_POIS", "threshold", (1, 1)),
            # the bic scan reads every block of its window
            ("MM_GAUSS", "bic", (3, 3)),
        ],
    )
    def test_filled_blocks_pinned(self, monkeypatch, model, stop, filled):
        # the scan's table fills only the blocks of rows its reads reach
        tables = []
        init = CusumTable.__init__

        def kept(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tables.append(self)

        monkeypatch.setattr(CusumTable, "__init__", kept)
        length = 1000 if model.startswith("NOCHANGE") else None
        segment(generate(ModelSpec(model, 0, length=length)).values, DetectorConfig(stop=stop))
        dense = [t for t in tables if t._cut_row is None]
        assert [(sum(t._filled), len(t._filled)) for t in dense] == [filled]

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("stop", ["threshold", "bic"])
    def test_matches_memo_free_scan(self, profiled, norm, stop):
        # multi-pass scans give the memo-free result, byte for byte, while
        # profiling fewer intervals than they count
        rng = np.random.default_rng(31)
        config = DetectorConfig(norm=norm, stop=stop, expansion_step=7, split=None)
        skipped = 0
        for seed in range(8):
            T = int(rng.integers(120, 400))
            jumps = np.sort(rng.choice(np.arange(20, T - 20), int(rng.integers(1, 5)), False))
            x = steps(T, jumps, seed)
            profiled.clear()
            got = segment(x, config)
            n_profiled = len(profiled)
            want = uncompressed_segment(Series(x), config)
            assert got.to_dict() == want.to_dict()
            assert got.intervals_evaluated == want.intervals_evaluated
            skipped += got.intervals_evaluated - n_profiled
        assert skipped > 0

    def test_memo_is_per_window(self):
        # window 1 fires on a left interval after its right intervals
        # (1, 16) .. (1, 76) stayed quiet; window 2's change at 40 first
        # fires on (1, 46), which window 1 profiled as quiet
        x = steps(600, [240, 340], 3)
        config = replace(THRESHOLD, split=300)
        got = detect(x, config)
        found, n_scanned = {}, 0
        for lo in (0, 300):
            part = uncompressed_segment(Series(x[lo : lo + 300]), replace(config, split=None))
            found.update({c + lo: v for c, v in zip(part.changepoints, part.scores)})
            n_scanned += part.intervals_evaluated
        assert 340 in got.changepoints
        assert dict(zip(got.changepoints, got.scores)) == found
        assert got.intervals_evaluated == n_scanned


@pytest.fixture
def bounded(monkeypatch):
    """The ``(s, e)`` of every ``CusumTable._coarse_bound`` call, in order."""
    calls = []
    original = CusumTable._coarse_bound

    def counted(self, s, e, *args):
        calls.append((s, e))
        return original(self, s, e, *args)

    monkeypatch.setattr(CusumTable, "_coarse_bound", counted)
    return calls


def poisson_steps(length, jumps, seed):
    """Poisson counts whose mean alternates between 2 and 5 at each jump.

    The step series below keep 11-16 distinct values at T = 40-47,000, at
    most the 16 coarse columns of the ``linf`` bound.
    """
    rng = np.random.default_rng(seed)
    return rng.poisson(np.where(np.searchsorted(jumps, np.arange(length), "right") % 2, 5.0, 2.0))


def tied(x, scale=60.0):
    """``x`` rounded to multiples of ``1 / scale``, so values repeat.

    At the default scale the step series below keep 380-517 distinct
    values at T = 600-1000, over the bound's ``_BOUND_MIN_LEVELS``.
    """
    return np.round(x * scale)


class TestRowBound:
    """The coarse-column bound is an upper bound, and the scan stays exact with it."""

    def assert_bounds(self, x, q, spans, ties, columns=(4, 16, 32)):
        """Check the bound on ``spans``; returns the number of kept levels."""
        series = Series(x)
        points, counts = _distinct_levels(series, grid_points(series, q))
        assert (counts is not None) == ties
        table = CusumTable(series, points)
        for kind in Norm:
            for n_columns in columns:
                for s, e, lo, hi in spans:
                    exact = _profile_norms(table.profile_matrix(s, e, lo, hi), kind, counts)
                    over = table._coarse_bound(s, e, kind, counts, n_columns)[lo - s : hi - s]
                    assert np.all(over >= exact * (1 - 1e-12)), (kind, n_columns, s, e)
                    if len(points) > n_columns:
                        continue
                    # a column per level: linf is the norm bit for bit, l1
                    # and l2 equal it up to rounding
                    if kind is Norm.LINF:
                        assert np.array_equal(over, exact), (n_columns, s, e)
                    np.testing.assert_allclose(over, exact, rtol=1e-12, atol=0)
        return len(points)

    def assert_narrow_bounds(self, T, jumps, seed, spans):
        # Poisson counts and a 12-level grid keep at most 16 levels, so with
        # 16 and 32 columns every level is a coarse column of its own
        kept = self.assert_bounds(poisson_steps(T, jumps, seed), T, spans, True)
        assert kept <= 16
        assert self.assert_bounds(steps(T, jumps, seed), 12, spans, False) == 12

    @pytest.mark.parametrize("ties", [False, True, "narrow"])
    def test_bounds_every_row_int32(self, ties):
        rng = np.random.default_rng(5)
        for T in (40, 300, 700):
            seed = int(rng.integers(1000))
            spans = []
            for _ in range(10):
                s = int(rng.integers(1, T - 2))
                e = int(rng.integers(s + 1, T + 1))
                spans.append((s, e, s, e))
            spans.append((1, T, 1, T))
            if ties == "narrow":
                self.assert_narrow_bounds(T, [T // 3, T // 2], seed, spans)
            else:
                x = steps(T, [T // 3, T // 2], seed)
                self.assert_bounds(tied(x) if ties else x, T, spans, ties)

    @pytest.mark.parametrize("ties", [False, True, "narrow"])
    def test_bounds_every_row_int64(self, ties):
        # n * e >= 2**31 over the whole interval: the int64 branch of both
        # the bound and the kernel; a few split ranges are profiled exactly
        T = 47_000
        assert T * T >= 2**31
        spans = [(1, T, lo, lo + 40) for lo in (1, 14_990, 23_480, T - 40)]
        spans.append((20_000, T, 29_980, 30_020))
        if ties == "narrow":
            self.assert_narrow_bounds(T, [15_000, 30_000], 0, spans)
        else:
            x = steps(T, [15_000, 30_000], 0)
            self.assert_bounds(tied(x, 2.0) if ties else x, 130, spans, ties, columns=(16,))

    def test_runs_from_the_level_gate_on(self, bounded):
        # a window keeping fewer than _BOUND_MIN_LEVELS levels is never bounded
        for T in (_BOUND_MIN_LEVELS - 1, _BOUND_MIN_LEVELS):
            bounded.clear()
            detect(generate(ModelSpec("NOCHANGE_GAUSS", 0, length=T)))
            assert bool(bounded) == (T == _BOUND_MIN_LEVELS), T
            assert all(e - s >= _BOUND_MIN_ROWS for s, e in bounded)

    def test_runs_on_narrow_linf_windows_from_the_length_gate_on(self, bounded):
        # a window keeping at most 16 levels is bounded under linf from
        # _BOUND_MIN_LEVELS times on, and never under l1 or l2; Poisson(20)
        # keeps 17 to 95 levels, between the two gates, and is not bounded
        for T, rate, narrow in [
            (_BOUND_MIN_LEVELS - 1, 3.0, True),
            (_BOUND_MIN_LEVELS, 3.0, True),
            (1000, 3.0, True),
            (1000, 20.0, False),
        ]:
            x = generate(ModelSpec("NOCHANGE_POIS", 0, length=T, rate=rate))
            kept = len(_distinct_levels(x, grid_points(x, T))[0])
            assert (kept <= _BOUND_COLUMNS[Norm.LINF]) == narrow and kept < _BOUND_MIN_LEVELS
            for norm in Norm:
                bounded.clear()
                detect(x, DetectorConfig(norm=norm))
                want = narrow and norm is Norm.LINF and T >= _BOUND_MIN_LEVELS
                assert bool(bounded) == want, (T, rate, norm)
                assert all(e - s >= _BOUND_MIN_ROWS for s, e in bounded)

    def test_coarse_columns_are_table_columns(self):
        # counted from the ranks, without filling a row of the full table,
        # the coarse columns are its columns at each gap's last level, after
        # a zero column, at every time, on the full table and on a cut table
        series = Series(tied(steps(700, [200, 450], 9)))
        points, counts = _distinct_levels(series, grid_points(series, 700))
        cuts = [0, 50, *range(99, 601), 650, 700]
        dense, cut = CusumTable(series, points), CusumTable(series, points, cuts)
        for table in (dense, cut):
            table._coarse_bound(100, 600, Norm.LINF, counts, 16)
        assert not any(dense._filled)
        Q = len(points)
        step = -(-Q // 16)
        last = [*range(step - 1, Q - 1, step), Q - 1]
        want = np.vstack([np.zeros(701, int), dense.prefix[:, last].T])
        assert np.array_equal(dense._coarse[16][0], want)
        assert np.array_equal(cut._coarse[16][0], want)

    def test_reads_cut_rows_in_blocks(self, monkeypatch):
        # a cut table gives the dense table's bound, at its cuts or not, and
        # so does a block of a few splits at a time
        series = Series(tied(steps(700, [200, 450], 9)))
        points, counts = _distinct_levels(series, grid_points(series, 700))
        dense = CusumTable(series, points)
        cut = CusumTable(series, points, cuts=[0, 50, *range(99, 601), 650, 700])
        for kind in Norm:
            assert np.array_equal(
                cut._coarse_bound(40, 600, kind, counts, 16),
                dense._coarse_bound(40, 600, kind, counts, 16),
            )
            want = dense._coarse_bound(100, 600, kind, counts, 16)
            got = cut._coarse_bound(100, 600, kind, counts, 16)
            np.testing.assert_allclose(got, want, rtol=1e-15)
            with monkeypatch.context() as m:
                m.setattr(CusumTable, "_ROW_BYTES", 17 * 4 * 7)  # 7 splits per block
                blocked = CusumTable(series, points)._coarse_bound(100, 600, kind, counts, 16)
            np.testing.assert_allclose(blocked, want, rtol=1e-15)

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("stop", ["threshold", "bic"])
    @pytest.mark.parametrize("ties", [False, True, "narrow"])
    def test_scan_matches_uncompressed(self, profiled, bounded, monkeypatch, norm, stop, ties):
        # long enough for the bound (kept Q >= _BOUND_MIN_LEVELS, or at most
        # 16 kept levels under linf, and intervals of _BOUND_MIN_ROWS splits
        # and more): byte for byte the scan without the bound and the
        # uncompressed reference, with some intervals skipped on the bound
        # and some profiled in part; l1 and l2 never bound a narrow window
        config = DetectorConfig(norm=norm, stop=stop, split=None)
        unbounded = ties == "narrow" and norm != "linf"
        skipped = partial = 0
        for seed, T in enumerate((600, 800, 1000)):
            jumps = [T // 4, T // 2 + 37]
            if ties == "narrow":
                x = poisson_steps(T, jumps, seed)
            else:
                x = tied(steps(T, jumps, seed)) if ties else steps(T, jumps, seed)
            bounded.clear()
            profiled.clear()
            got = segment(x, config).to_dict()
            assert bool(bounded) != unbounded
            long = [c for c in profiled if c[1] - c[0] >= _BOUND_MIN_ROWS]
            skipped += len(bounded) - len(long)
            partial += sum((lo, hi) != (s, e) for s, e, lo, hi in long)
            with monkeypatch.context() as m:
                m.setattr("rankseg.detector._BOUND_MIN_LEVELS", 10**9)
                assert got == segment(x, config).to_dict()
            want = uncompressed_segment(Series(x), config).to_dict()
            if ties and norm != "linf":  # weighted kept columns: equal up to rounding
                for key in ("scores", "removal_scores"):
                    np.testing.assert_allclose(got.pop(key) or [], want.pop(key) or [], rtol=1e-12)
            assert got == want
        assert unbounded or (skipped > 0 and partial > 0)


def test_first_calls_import_no_numpy_submodule():
    # a module pulled in by a first call (numpy.ma, say) costs every fresh
    # process its import time inside the first segment call
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = (
        "import sys, numpy as np, rankseg\n"
        "before = set(sys.modules)\n"
        "t = np.arange(600)\n"
        "x = np.sin(0.7 * t) + (t >= 300) + (t >= 450)\n"
        "for values in (x, np.round(4 * x)):\n"
        "    for stop in ('threshold', 'bic'):\n"
        "        for norm in ('l1', 'l2', 'linf'):\n"
        "            rankseg.segment(values, rankseg.DetectorConfig(stop=stop, norm=norm))\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

import math

import numpy as np
import pytest

from rankseg import ModelSpec, generate, list_models
from rankseg.contrast import MAX_TABLE_BYTES
from rankseg.simulate import POISSON_RATE_MAX

EXPECTED_SHAPES = {
    "NC": (500, ()),
    "M1": (200, (100,)),
    "V1": (500, (250,)),
    "D1": (1000, (500,)),
    "MM_GAUSS": (400, (100, 200, 300)),
    "MM_GAUSS_TR": (400, (100, 200, 300)),
    "MM_STUDENT_T3": (400, (100, 200, 300)),
    "MM_GAUSS2": (1600, tuple(range(80, 1600, 80))),
    "MM_POIS": (400, (100, 200, 300)),
    "MM_POIS_TR": (400, (100, 200, 300)),
    "MV_GAUSS": (600, (150, 350, 500)),
    "MV_GAUSS2": (1000, (200, 350, 550, 700, 900)),
    "MD1": (750, (250, 500)),
    "MD2": (500, (100, 250, 350)),
    "MD3": (1000, (200, 500, 750)),
}


class TestCatalogue:
    def test_all_models_listed(self):
        models = list_models()
        for name in EXPECTED_SHAPES:
            assert name in models
        for name in ("T1", "T2", "NOCHANGE_GAUSS", "NOCHANGE_CAUCHY", "NOCHANGE_POIS"):
            assert name in models

    @pytest.mark.parametrize("model", sorted(EXPECTED_SHAPES))
    def test_lengths_and_truths(self, model):
        length, truth = EXPECTED_SHAPES[model]
        series = generate(ModelSpec(model, 0))
        assert len(series) == length
        assert series.truth == truth

    def test_mm_gauss2_has_19_changes(self):
        series = generate(ModelSpec("MM_GAUSS2", 0))
        assert len(series.truth) == 19
        assert series.truth[0] == 80 and series.truth[-1] == 1520

    def test_timing_models(self):
        t1 = generate(ModelSpec("T1", 0, length=3000))
        assert len(t1) == 3000
        assert t1.truth == tuple(range(30, 3000, 30))
        assert len(t1.truth) == 99
        t2 = generate(ModelSpec("T2", 0, length=6000))
        assert len(t2) == 6000
        assert t2.truth == tuple(range(250, 6000, 250))

    def test_nochange_families(self):
        for model in ("NOCHANGE_GAUSS", "NOCHANGE_CAUCHY"):
            series = generate(ModelSpec(model, 1, length=75))
            assert len(series) == 75 and series.truth == ()
        pois = generate(ModelSpec("NOCHANGE_POIS", 1, length=60, rate=0.3))
        assert len(pois) == 60
        assert np.all(pois.values == np.round(pois.values))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            generate(ModelSpec("M7", 0))

    @pytest.mark.parametrize("length", [0, -1])
    def test_non_positive_length_rejected(self, length):
        with pytest.raises(ValueError, match="length"):
            ModelSpec("NOCHANGE_GAUSS", 0, length=length)

    @pytest.mark.parametrize(
        "rate",
        [-1.0, math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400"),
         pytest.param(10**5000, id="10**5000")],
    )
    def test_bad_rate_rejected(self, rate):
        # an integer beyond the float range once raised OverflowError, and one
        # over Python's 4300-digit print limit that limit's own error
        with pytest.raises(ValueError, match="rate must be finite and >= 0"):
            ModelSpec("NOCHANGE_POIS", 0, rate=rate)

    def test_rate_above_poisson_limit_rejected(self):
        # rate=1e20 was once accepted and failed in numpy with "lam value too large"
        with pytest.raises(ValueError, match="numpy's Poisson limit"):
            ModelSpec("NOCHANGE_POIS", 0, rate=1e20)
        with pytest.raises(ValueError, match="numpy's Poisson limit"):
            ModelSpec("NOCHANGE_POIS", 0, rate=np.nextafter(POISSON_RATE_MAX, math.inf))

    def test_rate_at_poisson_limit_generates(self):
        assert POISSON_RATE_MAX == 9.223372006484771e18
        series = generate(ModelSpec("NOCHANGE_POIS", 0, length=5, rate=POISSON_RATE_MAX))
        assert len(series) == 5 and np.all(np.isfinite(series.values))

    @pytest.mark.parametrize(
        "length",
        [134_217_729, 10**12, pytest.param(10**5000, id="10**5000")],
    )
    def test_length_over_float64_budget_rejected(self, length):
        # T1 with length=10**12 was once accepted and generation built a
        # ~3e10-entry change-point tuple
        with pytest.raises(ValueError, match="length must be <= 134,217,728"):
            ModelSpec("T1", 0, length=length)

    def test_length_at_float64_budget_accepted(self):
        # 134,217,728 float64 values are exactly MAX_TABLE_BYTES; not generated
        assert MAX_TABLE_BYTES // 8 == 134_217_728
        assert ModelSpec("NOCHANGE_GAUSS", 0, length=134_217_728).length == 134_217_728

    @pytest.mark.parametrize("length", [2.5, True, "10", 10.0])
    def test_non_integer_length_rejected(self, length):
        with pytest.raises(ValueError, match="length must be an integer"):
            ModelSpec("NOCHANGE_GAUSS", 0, length=length)

    @pytest.mark.parametrize("rate", [True, "1.0", 1j])
    def test_non_real_rate_rejected(self, rate):
        # rate=True once drew Poisson(1) samples
        with pytest.raises(ValueError, match="rate must be a real number"):
            ModelSpec("NOCHANGE_POIS", 0, rate=rate)

    @pytest.mark.parametrize("seed", [2.5, True, "3", -1])
    def test_bad_seed_rejected(self, seed):
        # seed=True once drew seed 1's series and 2.5 failed inside numpy
        with pytest.raises(ValueError, match="seed must be"):
            ModelSpec("M1", seed)

    def test_numpy_numbers_stored_as_python(self):
        spec = ModelSpec("NOCHANGE_POIS", np.uint32(4), length=np.int64(30), rate=np.float64(0.5))
        assert type(spec.seed) is int and spec.seed == 4
        assert type(spec.length) is int and spec.length == 30
        assert type(spec.rate) is float and spec.rate == 0.5
        assert len(generate(spec)) == 30

    def test_zero_rate_is_kept(self):
        series = generate(ModelSpec("NOCHANGE_POIS", 0, length=20, rate=0.0))
        assert np.all(series.values == 0.0)

    def test_length_one_is_kept(self):
        for model in ("NOCHANGE_GAUSS", "NOCHANGE_CAUCHY", "NOCHANGE_POIS", "T1", "T2"):
            assert len(generate(ModelSpec(model, 0, length=1))) == 1


class TestDeterminism:
    @pytest.mark.parametrize("model", ["NC", "MM_POIS", "MD2", "T2"])
    def test_same_seed_bitwise_equal(self, model):
        a = generate(ModelSpec(model, 123))
        b = generate(ModelSpec(model, 123))
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = generate(ModelSpec("NC", 1))
        b = generate(ModelSpec("NC", 2))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("pair", [("MM_GAUSS_TR", "MM_GAUSS"), ("MM_POIS_TR", "MM_POIS")])
    def test_transformed_twins_share_draws(self, pair):
        transformed, base = pair
        for seed in (0, 9, 42):
            t = generate(ModelSpec(transformed, seed))
            b = generate(ModelSpec(base, seed))
            assert np.array_equal(t.values, np.exp(b.values))
            assert t.truth == b.truth

    def test_truth_strictly_interior(self):
        for model in EXPECTED_SHAPES:
            series = generate(ModelSpec(model, 0))
            assert all(1 <= r <= len(series) - 1 for r in series.truth)


class TestDistributionSanity:
    def test_v1_variance_doubles(self):
        series = generate(ModelSpec("V1", 3))
        assert np.std(series.values[:250]) == pytest.approx(1.0, abs=0.25)
        assert np.std(series.values[250:]) == pytest.approx(2.0, abs=0.4)

    def test_mm_gauss_segment_means(self):
        series = generate(ModelSpec("MM_GAUSS", 3))
        x = series.values
        for (a, b), mean in zip(((0, 100), (100, 200), (200, 300), (300, 400)),
                                (0.0, 1.0, -0.2, -1.3)):
            assert np.mean(x[a:b]) == pytest.approx(mean, abs=0.45)

    def test_d1_first_segment_bounded(self):
        series = generate(ModelSpec("D1", 5))
        first = series.values[:500]
        assert first.min() >= -3.0 and first.max() <= 3.0

    def test_md1_middle_segment_integer(self):
        series = generate(ModelSpec("MD1", 5))
        mid = series.values[250:500]
        assert np.all(mid == np.round(mid))
        assert np.mean(mid) == pytest.approx(1.0, abs=0.3)

    def test_t1_signal_alternates(self):
        series = generate(ModelSpec("T1", 2, length=3000))
        x = series.values
        assert np.mean(x[:30]) == pytest.approx(0.0, abs=0.5)
        assert np.mean(x[30:60]) == pytest.approx(4.0, abs=0.5)

    def test_md1_shared_moments(self):
        # all three segments target mean 1 and variance 1
        series = generate(ModelSpec("MD1", 11))
        for a, b in ((0, 250), (250, 500), (500, 750)):
            seg = series.values[a:b]
            assert np.mean(seg) == pytest.approx(1.0, abs=0.35)
            assert np.var(seg) == pytest.approx(1.0, abs=0.45)


class TestParseModel:
    """``ModelSpec`` is the one reader of model ids; sizes are separate fields."""

    def test_bare_id(self):
        assert ModelSpec("M1", 0).model == "M1"
        assert ModelSpec("m1", 0).model == "M1"
        assert ModelSpec("mm_gauss", 0).model == "MM_GAUSS"

    def test_length_argument(self):
        assert len(generate(ModelSpec("T1", 0, length=6000))) == 6000
        assert len(generate(ModelSpec("nochange_gauss", 0, length=200))) == 200

    def test_rate_and_length(self):
        spec = ModelSpec("NOCHANGE_POIS", 0, length=75, rate=0.3)
        assert (spec.length, spec.rate) == (75, 0.3)
        assert len(generate(spec)) == 75

    def test_rejects_garbage(self):
        for bad in ["NOPE", "T1(6000)", "NOCHANGE_POIS(3, 500)", "", 5, None]:
            with pytest.raises(ValueError, match="unknown model id"):
                ModelSpec(bad, 0)

    @pytest.mark.parametrize(
        "model, size",
        [
            ("M1", {"length": 600}),
            ("MM_GAUSS_TR", {"length": 400}),
            ("NC", {"length": 500}),
            ("T1", {"rate": 5.0}),
            ("NOCHANGE_GAUSS", {"rate": 1.0}),
            ("MM_POIS", {"rate": 2.0}),
        ],
    )
    def test_size_the_model_ignores_rejected(self, model, size):
        # M1 with length=600 once generated its fixed 200 points
        with pytest.raises(ValueError, match=model):
            ModelSpec(model, 0, **size)

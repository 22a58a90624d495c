import hashlib
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

    @pytest.mark.parametrize("bad", ["M1", ("M1", 0), None])
    def test_spec_must_be_a_model_spec(self, bad):
        # a model id once raised AttributeError on spec.model
        with pytest.raises(ValueError, match="spec must be a ModelSpec"):
            generate(bad)

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


# SHA-256 of ``values.tobytes()`` and the truth of each model at seed 0, computed
# with numpy 2.4; the (model, size) key is the ``ModelSpec`` less its seed.
CATALOGUE = {
    ("D1", ()): ("cddeaa13c8d4682c1c3c62cb725a5b2b919e63bfa664d92fd9a67f11043e7baf", (500,)),
    ("M1", ()): ("1b5b60b873c597931c495805a649b4c8aae32fe92698bd06430ff18694d52540", (100,)),
    ("MD1", ()): ("24662b124065811710f38b7f4ae4865d95d6c021527584be8f43511215e01f46", (250, 500)),
    ("MD2", ()): ("6cbc2c1a44e12ea76c3a214ee0139dc04fd75fc9a66310e12bd8391e0911966f",
                  (100, 250, 350)),
    ("MD3", ()): ("a1269a33a1311c27076cc547cc8ece28c526af076a403696c3df2e738cc05b8c",
                  (200, 500, 750)),
    ("MM_GAUSS", ()): ("9d3b722896f41eed2c411918dc2675221a0acf63ab1fe0ea873646c28aaa43a8",
                       (100, 200, 300)),
    ("MM_GAUSS2", ()): ("2d00ebb574b5123f5fb5c8f127ebf0c026cab4ee397a8187eabad0f29d561c96",
                        tuple(range(80, 1600, 80))),
    ("MM_GAUSS_TR", ()): ("24cd687da44a83fe36580b6b1b0c8929df2481f4e10071a9d14f43e1ef27e75b",
                          (100, 200, 300)),
    ("MM_POIS", ()): ("04a454a10c0a259be0be699909386a5edd7054ec956da70c40408659ce0be611",
                      (100, 200, 300)),
    ("MM_POIS_TR", ()): ("f6cd88e286a75e1fa33d364ed5eaecc03ff0d6a003d64bb361ac4835ff0d005c",
                         (100, 200, 300)),
    ("MM_STUDENT_T3", ()): ("4fd2fcef3112348756b7e9f96ac2707eae3fd80fa9df511688dc441b22a97557",
                            (100, 200, 300)),
    ("MV_GAUSS", ()): ("cf9ee9d8b3b58d58f188472b92e2b919b015e6d55611626c610f777ece10ca48",
                       (150, 350, 500)),
    ("MV_GAUSS2", ()): ("e822efce4237a37f30885731ad2ece2e2066966f75ae7da8f420d4a978930cec",
                        (200, 350, 550, 700, 900)),
    ("NC", ()): ("7bb34faaa0d6f1d506b9b453a6c57f217feeec606c8d1487f097e5bed1d3d634", ()),
    ("NOCHANGE_CAUCHY", ()): ("e646a314ca8c1eec81237cf8717f74f471d810468841e35735719e8d8b73f302",
                              ()),
    ("NOCHANGE_GAUSS", ()): ("7bb34faaa0d6f1d506b9b453a6c57f217feeec606c8d1487f097e5bed1d3d634",
                             ()),
    ("NOCHANGE_POIS", ()): ("492fb308902ab5972184323542df8b7fe0f4f9b98be0e0d6aedf1070aea8e367",
                            ()),
    ("T1", ()): ("e47b6289ebe889b0017a10b0c66e5bba6e3cec9cf35525cca2c0b64ad1ab011e",
                 tuple(range(30, 3000, 30))),
    ("T2", ()): ("7f9f73eccb2fe8611c31c563ea34c0a2d1001f3b27172edae6223e01184496c3",
                 tuple(range(250, 3000, 250))),
    ("V1", ()): ("99fe52d46bf0e95b08f6c1dfbb3265388a168c1161ad7a5da526c3e31e249e56", (250,)),
    ("T1", (("length", 61),)): (
        "839ae5e2c90a35275c6eed301d7c118b09cf5a4855adc8388780533b8fc32401", (30, 60)),
    ("T2", (("length", 501),)): (
        "043dd18d73ee7e109b8b0895f9a41785f48cb4cf5d3f4b52ec9b5ff041ab60e0", (250, 500)),
    ("NOCHANGE_GAUSS", (("length", 50),)): (
        "341f74e66a873c61ecda3752d36c332c66bb4a521d010f37e0f7bdcd37f1f527", ()),
    ("NOCHANGE_CAUCHY", (("length", 50),)): (
        "395e0ced4a272a0f6463145d0f6e5e13efcd945ff3c325d5bf2925e7980340fd", ()),
    ("NOCHANGE_POIS", (("length", 50), ("rate", 0.3))): (
        "d1e69f81868ba5c573af40d76770239b1e57503ae54fd79a165ee29a6ea34d7e", ()),
}


def test_catalogue_is_stable():
    assert {model for model, size in CATALOGUE if not size} == set(list_models())
    moved = []
    for (model, size), (digest, truth) in CATALOGUE.items():
        series = generate(ModelSpec(model, 0, **dict(size)))
        got = (hashlib.sha256(series.values.tobytes()).hexdigest(), series.truth)
        if got != (digest, truth):
            moved.append(f"{model}{dict(size) or ''}")
    assert not moved, (
        f"seed-0 data or truth moved for {', '.join(moved)} (numpy {np.__version__}). "
        "If a numpy release changed a Generator stream, every seeded series moves, "
        "and the work counters pinned in bench/test_counters.py move with it."
    )

import json
from collections import Counter

import numpy as np
import pytest

from rankseg import (
    DetectorConfig,
    ModelSpec,
    Replication,
    StopRule,
    StudyReport,
    hausdorff,
    largest_segment,
    replicate_study,
)


class TestLargestSegment:
    def test_with_sentinels(self):
        assert largest_segment((100,), 200) == 100
        assert largest_segment((50,), 100) == 50
        assert largest_segment((30, 60), 100) == 40
        assert largest_segment((), 500) == 500

    def test_truth_is_sorted_first(self):
        assert largest_segment((60, 30), 100) == 40

    @pytest.mark.parametrize("truth, length", [((5,), 3), ((3,), 3), ((0,), 100),
                                               ((30, 30), 100), ((-2, 50), 100)])
    def test_invalid_truth_rejected(self, truth, length):
        # a position at or beyond T once counted as a segment end
        with pytest.raises(ValueError, match="truth positions"):
            largest_segment(truth, length)

    def test_non_integer_truth_rejected(self):
        # 2.9 was once truncated to 2
        with pytest.raises(ValueError, match="truth positions must be an integer"):
            largest_segment([2.9], 5)

    @pytest.mark.parametrize(
        "truth, length, message",
        [([3], 10.7, "integer"), ([3], True, "integer"), ([], 0, ">= 1"), ([], -4, ">= 1")],
    )
    def test_length_must_be_a_positive_integer(self, truth, length, message):
        # largest_segment([3], 10.7) once read the length as 10 and returned
        # 7, and largest_segment([], 0) returned 0
        with pytest.raises(ValueError, match=f"length must be .*{message}"):
            largest_segment(truth, length)

    def test_numpy_integer_length_accepted(self):
        assert largest_segment([3], np.int64(10)) == 7


class TestHausdorff:
    def test_identical_sets(self):
        assert hausdorff({50}, {50}, 100) == 0.0

    def test_single_pair(self):
        assert hausdorff({50}, {55}, 100) == pytest.approx(0.05)

    def test_asymmetric_counts(self):
        # directed distances: truth->est max is 28, est->truth max is 2
        assert hausdorff({30, 60}, {32}, 40) == pytest.approx(0.7)

    def test_none_when_either_empty(self):
        assert hausdorff((), (5,), 10) is None
        assert hausdorff((5,), (), 10) is None
        assert hausdorff((), (), 10) is None

    def test_symmetry(self, rng):
        for _ in range(30):
            # positions start at 1: the draws of 0..199 shifted by one
            a = sorted(rng.choice(200, size=int(rng.integers(1, 6)), replace=False) + 1)
            b = sorted(rng.choice(200, size=int(rng.integers(1, 6)), replace=False) + 1)
            assert hausdorff(a, b, 50) == hausdorff(b, a, 50)

    def test_zero_iff_equal(self, rng):
        for _ in range(30):
            a = sorted((rng.choice(100, size=3, replace=False) + 1).tolist())
            b = sorted((rng.choice(100, size=3, replace=False) + 1).tolist())
            d = hausdorff(a, b, 10)
            assert (d == 0.0) == (a == b)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            hausdorff({1}, {2}, 0)

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, True])
    def test_non_integer_scale_rejected(self, bad):
        # a NaN scale once returned nan, and 1.5 and True were accepted
        with pytest.raises(ValueError, match="scale must be an integer"):
            hausdorff({1}, {2}, bad)

    def test_numpy_integer_scale_accepted(self):
        assert hausdorff({1}, {3}, np.int64(4)) == 0.5

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, 2.0, True, 0, -3])
    @pytest.mark.parametrize("side", ["truth", "estimated"])
    def test_bad_positions_rejected(self, bad, side):
        # [nan] once gave nan, [1.5] a distance of 0.5, and [-3] was accepted
        args = ([bad], [1]) if side == "truth" else ([1], [bad])
        with pytest.raises(ValueError, match=f"^{side} positions must be"):
            hausdorff(*args, 1)

    def test_numpy_integer_positions_accepted(self):
        assert hausdorff(np.array([2, 9]), [np.int32(3)], 4) == 1.5


class TestReplicateStudy:
    def test_single_rep(self):
        report = replicate_study(ModelSpec("M1", 7), DetectorConfig(), reps=1)
        assert report.reps == 1
        assert len(report.replications) == 1
        assert sum(report.frequencies.values()) == 1
        assert report.replications[0].seed == 7

    def test_frequencies_sum_to_reps(self):
        report = replicate_study(ModelSpec("M1", 0), DetectorConfig(), reps=12)
        assert sum(report.frequencies.values()) == 12

    def test_reproducible_modulo_runtime(self):
        cfg = DetectorConfig(stop=StopRule.THRESHOLD)
        a = replicate_study(ModelSpec("MM_GAUSS", 3), cfg, reps=6)
        b = replicate_study(ModelSpec("MM_GAUSS", 3), cfg, reps=6)
        assert a.frequencies == b.frequencies
        assert a.mean_distance == b.mean_distance
        for ra, rb in zip(a.replications, b.replications):
            assert ra.estimates == rb.estimates
            assert ra.distance == rb.distance

    def test_nochange_distance_is_none(self):
        report = replicate_study(ModelSpec("NC", 0), DetectorConfig(), reps=5)
        assert report.mean_distance is None
        assert all(r.distance is None for r in report.replications)

    def test_misses_excluded_from_distance(self):
        # a huge constant forces empty estimates; distances must all be None
        cfg = DetectorConfig(stop=StopRule.THRESHOLD, threshold_constant=99.0)
        report = replicate_study(ModelSpec("M1", 0), cfg, reps=3)
        assert report.frequencies == {-1: 3}
        assert report.mean_distance is None

    def test_parameterised_model(self):
        spec = ModelSpec("NOCHANGE_POIS", 1, length=60, rate=0.3)
        report = replicate_study(spec, DetectorConfig(), reps=2)
        assert report.spec == spec
        assert [r.seed for r in report.replications] == [1, 2]
        doc = report.to_dict()
        assert (doc["model"], doc["length"], doc["rate"], doc["base_seed"]) == (
            "NOCHANGE_POIS", 60, 0.3, 1
        )

    def test_model_id_checked_before_any_run(self):
        # a bare id once stood for the model; the spec is checked up front
        with pytest.raises(ValueError, match="spec must be a ModelSpec, got 'M1'"):
            replicate_study("M1", reps=2)
        assert replicate_study(ModelSpec("m1", 0), reps=1).spec.model == "M1"

    def test_config_checked_before_any_run(self):
        # "l2" once gave a report whose three replications each recorded
        # "'str' object has no attribute 'stop'" instead of raising
        with pytest.raises(ValueError, match="config must be a DetectorConfig, got str"):
            replicate_study(ModelSpec("M1", 0), "l2", reps=3)

    def test_segment_error_propagates(self, monkeypatch):
        # an over-budget profile once gave a report of failed replications
        monkeypatch.setattr("rankseg.contrast.MAX_TABLE_BYTES", 6 * 2**20)
        spec = ModelSpec("NOCHANGE_GAUSS", 0, length=1000)
        config = DetectorConfig(grid="full", stop=StopRule.THRESHOLD)
        with pytest.raises(ValueError, match="a scan profile for T=1000 and Q=1000"):
            replicate_study(spec, config, reps=2)

    def test_any_error_propagates(self, monkeypatch):
        # the study once recorded every Exception and returned
        def broken(series, config):
            raise TypeError("broken segment")

        monkeypatch.setattr("rankseg.evaluation.segment", broken)
        with pytest.raises(TypeError, match="broken segment"):
            replicate_study(ModelSpec("M1", 0), DetectorConfig(), reps=2)

    def test_report_is_its_replications(self):
        report = replicate_study(ModelSpec("MM_GAUSS", 0), DetectorConfig(), reps=5)
        assert list(StudyReport.__dataclass_fields__) == ["spec", "config", "replications"]
        assert "error" not in Replication.__dataclass_fields__
        reps = report.replications
        assert report.reps == 5
        assert report.frequencies == dict(Counter(r.n_error for r in reps))
        assert report.mean_runtime == pytest.approx(sum(r.runtime for r in reps) / 5)
        distances = [r.distance for r in reps if r.distance is not None]
        assert report.mean_distance == pytest.approx(sum(distances) / len(distances))
        doc = report.to_dict()
        assert "n_errors" not in doc
        assert all("error" not in r for r in doc["replications"])

    def test_bad_reps(self):
        with pytest.raises(ValueError):
            replicate_study(ModelSpec("M1", 0), DetectorConfig(), reps=0)

    @pytest.mark.parametrize("reps", [True, 2.0, "2"])
    def test_non_integer_reps_rejected(self, reps):
        # reps=True once ran one replication and reported "reps": true
        with pytest.raises(ValueError, match="reps must be an integer"):
            replicate_study(ModelSpec("M1", 0), DetectorConfig(), reps=reps)

    @pytest.mark.parametrize("base_seed", [True, -1, 1.0])
    def test_bad_base_seed_rejected(self, base_seed):
        # the study's base seed is the spec's seed, checked by ModelSpec;
        # base_seed=-1 once returned a report of failed replications
        with pytest.raises(ValueError, match="seed must be"):
            replicate_study(ModelSpec("M1", base_seed), DetectorConfig(), reps=2)

    def test_numpy_reps_reported_as_int(self):
        report = replicate_study(ModelSpec("M1", 0), DetectorConfig(), reps=np.int64(2))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["reps"] == 2 and len(doc["replications"]) == 2

    def test_report_serialises(self):
        report = replicate_study(ModelSpec("M1", 0), DetectorConfig(), reps=2)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["schema"] == 5
        assert list(payload)[:6] == ["schema", "model", "length", "rate", "reps", "base_seed"]
        assert payload["model"] == "M1"
        assert payload["length"] is None and payload["rate"] is None
        assert sum(payload["buckets"].values()) == 2
        row = report.csv_row()
        assert set(row) == {
            "model", "reps", "freq_le_-2", "freq_-1", "freq_0", "freq_1",
            "freq_ge_2", "mean_d_h", "mean_time_s",
        }

    def test_bucket_clamping(self):
        report = replicate_study(ModelSpec("M1", 0), DetectorConfig(), reps=4)
        buckets = report.frequency_buckets()
        assert sum(buckets.values()) == 4

    def test_bucket_clamping_of_large_errors(self):
        errors = (-5, -2, -2, -1, 0, 0, 0, 1, 2, 3, 7)
        replications = tuple(
            Replication(seed, (), n_error, None, 0.0) for seed, n_error in enumerate(errors)
        )
        report = StudyReport(ModelSpec("M1", 0), DetectorConfig(), replications)
        assert report.frequency_buckets() == {"<=-2": 3, "-1": 1, "0": 3, "1": 1, ">=2": 3}

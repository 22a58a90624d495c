import json

import numpy as np
import pytest

from rankseg import (
    DetectorConfig,
    StopRule,
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
            a = sorted(rng.choice(200, size=int(rng.integers(1, 6)), replace=False))
            b = sorted(rng.choice(200, size=int(rng.integers(1, 6)), replace=False))
            assert hausdorff(a, b, 50) == hausdorff(b, a, 50)

    def test_zero_iff_equal(self, rng):
        for _ in range(30):
            a = sorted(rng.choice(100, size=3, replace=False).tolist())
            b = sorted(rng.choice(100, size=3, replace=False).tolist())
            d = hausdorff(a, b, 10)
            assert (d == 0.0) == (a == b)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            hausdorff({1}, {2}, 0)


class TestReplicateStudy:
    def test_single_rep(self):
        report = replicate_study("M1", DetectorConfig(), reps=1, base_seed=7)
        assert report.reps == 1
        assert len(report.replications) == 1
        assert sum(report.frequencies.values()) == 1
        assert report.replications[0].seed == 7

    def test_frequencies_sum_to_reps(self):
        report = replicate_study("M1", DetectorConfig(), reps=12, base_seed=0)
        assert sum(report.frequencies.values()) == 12
        assert report.n_errors == 0

    def test_reproducible_modulo_runtime(self):
        cfg = DetectorConfig(stop=StopRule.THRESHOLD)
        a = replicate_study("MM_GAUSS", cfg, reps=6, base_seed=3)
        b = replicate_study("MM_GAUSS", cfg, reps=6, base_seed=3)
        assert a.frequencies == b.frequencies
        assert a.mean_distance == b.mean_distance
        for ra, rb in zip(a.replications, b.replications):
            assert ra.estimates == rb.estimates
            assert ra.distance == rb.distance

    def test_nochange_distance_is_none(self):
        report = replicate_study("NC", DetectorConfig(), reps=5, base_seed=0)
        assert report.mean_distance is None
        assert all(r.distance is None for r in report.replications)

    def test_misses_excluded_from_distance(self):
        # a huge constant forces empty estimates; distances must all be None
        cfg = DetectorConfig(stop=StopRule.THRESHOLD, threshold_constant=99.0)
        report = replicate_study("M1", cfg, reps=3, base_seed=0)
        assert report.frequencies == {-1: 3}
        assert report.mean_distance is None

    def test_parameterised_model(self):
        report = replicate_study(
            "NOCHANGE_POIS", DetectorConfig(), reps=2, base_seed=1, length=60, rate=0.3
        )
        assert all(len(r.estimates) >= 0 for r in report.replications)

    def test_model_id_checked_before_any_run(self):
        # an unknown id once returned a report of failed replications
        with pytest.raises(ValueError, match="unknown model id 'NOPE'"):
            replicate_study("NOPE", reps=2)
        assert replicate_study("m1", reps=1).model == "M1"

    def test_bad_reps(self):
        with pytest.raises(ValueError):
            replicate_study("M1", DetectorConfig(), reps=0)

    @pytest.mark.parametrize("reps", [True, 2.0, "2"])
    def test_non_integer_reps_rejected(self, reps):
        # reps=True once ran one replication and reported "reps": true
        with pytest.raises(ValueError, match="reps must be an integer"):
            replicate_study("M1", DetectorConfig(), reps=reps)

    @pytest.mark.parametrize("base_seed", [True, -1, 1.0])
    def test_bad_base_seed_rejected(self, base_seed):
        # base_seed=-1 once returned a report of failed replications
        with pytest.raises(ValueError, match="base_seed must be"):
            replicate_study("M1", DetectorConfig(), reps=2, base_seed=base_seed)

    def test_numpy_reps_reported_as_int(self):
        report = replicate_study("M1", DetectorConfig(), reps=np.int64(2), base_seed=0)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["reps"] == 2 and len(doc["replications"]) == 2

    def test_report_serialises(self):
        report = replicate_study("M1", DetectorConfig(), reps=2, base_seed=0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["schema"] == 3
        assert payload["model"] == "M1"
        assert sum(payload["buckets"].values()) == 2
        row = report.csv_row()
        assert set(row) == {
            "model", "reps", "freq_le_-2", "freq_-1", "freq_0", "freq_1",
            "freq_ge_2", "mean_d_h", "mean_time_s",
        }

    def test_bucket_clamping(self):
        report = replicate_study("M1", DetectorConfig(), reps=4, base_seed=0)
        buckets = report.frequency_buckets()
        assert sum(buckets.values()) == 4

"""Segmentation accuracy metrics and the seeded replication harness."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .contrast import _check_int, _check_positions
from .detector import SCHEMA_VERSION, DetectorConfig, _config
from .selector import segment
from .simulate import ModelSpec, generate

__all__ = [
    "hausdorff",
    "largest_segment",
    "Replication",
    "StudyReport",
    "replicate_study",
]


def largest_segment(truth, length: int) -> int:
    """Length of the longest true segment, with sentinels 0 and T.

    ``length`` is an integer ``T >= 1``; ``truth`` is sorted, then must be
    distinct positions in ``[1, T-1]``.
    """
    length = _check_int("length", length, 1)
    truth = _check_positions(sorted(truth), length, "truth positions")
    edges = [0, *truth, length]
    return max(b - a for a, b in zip(edges, edges[1:]))


def hausdorff(truth, est, scale: int) -> float | None:
    """Scaled Hausdorff distance between two change-point sets.

    The worst distance from any point of one set to the other set, in both
    directions, divided by ``scale`` (conventionally the longest true segment
    length), an integer >= 1. Positions are integers >= 1; a NaN, bool,
    non-integer or smaller position raises ``ValueError``. Returns ``None``
    when either set is empty, where the distance carries no information.
    """
    scale = _check_int("scale", scale, 1)
    a = np.asarray(sorted(_check_int("truth positions", t, 1) for t in truth), dtype=float)
    b = np.asarray(sorted(_check_int("estimated positions", t, 1) for t in est), dtype=float)
    if a.size == 0 or b.size == 0:
        return None
    gaps = np.abs(a[:, None] - b[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max())) / scale


@dataclass(frozen=True)
class Replication:
    """One seeded run of a study: what was estimated and how fast."""

    seed: int
    estimates: tuple[int, ...]
    n_error: int
    distance: float | None
    runtime: float


@dataclass(frozen=True)
class StudyReport:
    """Seeded replications of one model under one config, and their summaries.

    ``spec`` is the study's ``ModelSpec``: its model id and size, and in
    ``spec.seed`` the first of the ``reps`` consecutive seeds. Every summary
    is read off ``replications``: ``frequencies`` maps the estimation error
    ``n_estimated - n_true`` to its count, ``mean_distance`` averages the
    scaled Hausdorff distance over replications where both the truth and the
    estimate are nonempty, and ``mean_runtime`` averages the ``segment`` time.
    """

    spec: ModelSpec
    config: DetectorConfig
    replications: tuple[Replication, ...] = field(repr=False)

    @property
    def reps(self) -> int:
        return len(self.replications)

    @property
    def frequencies(self) -> dict[int, int]:
        return dict(Counter(r.n_error for r in self.replications))

    @property
    def mean_distance(self) -> float | None:
        distances = [r.distance for r in self.replications if r.distance is not None]
        return float(np.mean(distances)) if distances else None

    @property
    def mean_runtime(self) -> float:
        return float(np.mean([r.runtime for r in self.replications]))

    def frequency_buckets(self) -> dict[str, int]:
        """Counts clamped to the <=-2 / -1 / 0 / 1 / >=2 reporting buckets."""
        buckets = {"<=-2": 0, "-1": 0, "0": 0, "1": 0, ">=2": 0}
        for diff, count in self.frequencies.items():
            if diff <= -2:
                buckets["<=-2"] += count
            elif diff >= 2:
                buckets[">=2"] += count
            else:
                buckets[str(diff)] += count
        return buckets

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "model": self.spec.model,
            "length": self.spec.length,
            "rate": self.spec.rate,
            "reps": self.reps,
            "base_seed": self.spec.seed,
            "config": self.config.to_dict(),
            "frequencies": {str(k): v for k, v in sorted(self.frequencies.items())},
            "buckets": self.frequency_buckets(),
            "mean_distance": self.mean_distance,
            "mean_runtime_s": self.mean_runtime,
            "replications": [
                {
                    "seed": r.seed,
                    "estimates": list(r.estimates),
                    "n_error": r.n_error,
                    "distance": r.distance,
                    "runtime_s": r.runtime,
                }
                for r in self.replications
            ],
        }

    def csv_row(self) -> dict:
        """Flat row mirroring the benchmark tables' layout."""
        buckets = self.frequency_buckets()
        return {
            "model": self.spec.model,
            "reps": self.reps,
            "freq_le_-2": buckets["<=-2"],
            "freq_-1": buckets["-1"],
            "freq_0": buckets["0"],
            "freq_1": buckets["1"],
            "freq_ge_2": buckets[">=2"],
            "mean_d_h": "" if self.mean_distance is None else f"{self.mean_distance:.4f}",
            "mean_time_s": f"{self.mean_runtime:.4f}",
        }


def replicate_study(
    spec: ModelSpec, config: DetectorConfig | None = None, reps: int = 100
) -> StudyReport:
    """Run seeded replications of one model and report them.

    Every replication generates ``spec`` with its own seed; seeds run from
    ``spec.seed`` to ``spec.seed + reps - 1``. A ``spec`` or ``config`` of the
    wrong type or a bad ``reps`` raises ``ValueError`` before any run; an
    error in a replication propagates and ends the study.
    """
    if not isinstance(spec, ModelSpec):
        raise ValueError(f"spec must be a ModelSpec, got {spec!r}")
    reps = _check_int("reps", reps, 1)
    config = _config(config)
    records: list[Replication] = []
    for seed in range(spec.seed, spec.seed + reps):
        series = generate(replace(spec, seed=seed))
        start = time.perf_counter()
        result = segment(series, config)
        elapsed = time.perf_counter() - start
        truth = series.truth or ()
        dist = hausdorff(truth, result.changepoints, largest_segment(truth, len(series)))
        n_error = len(result.changepoints) - len(truth)
        records.append(Replication(seed, result.changepoints, n_error, dist, elapsed))
    return StudyReport(spec, config, tuple(records))

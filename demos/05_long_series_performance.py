"""Long-series practicalities: sparse evaluation levels, windowing, scaling in T.

On long inputs the detector defaults to (a) 300 equally spaced order
statistics as evaluation levels instead of all T of them and (b) cutting
the series into windows of 2000. This script measures what those two
switches buy.
"""

import time

import numpy as np

from rankseg import DetectorConfig, ModelSpec, StopRule, detect, generate, segment


def timed(series, **overrides):
    config = DetectorConfig(stop=StopRule.THRESHOLD, **overrides)
    start = time.perf_counter()
    result = detect(series, config)
    return time.perf_counter() - start, result


# Dense mean changes every 30 points, three lengths.
for length in (3000, 6000, 9000):
    series = generate(ModelSpec("T1", 0, length=length))
    elapsed, result = timed(series)
    print(
        f"T1({length}): defaults found {result.n_changepoints:3d} of "
        f"{len(series.truth)} in {elapsed:.2f}s"
    )

# Variance changes are harder: 300 order statistics resolve the distribution
# more coarsely than all T values, so compare against the full set.
series = generate(ModelSpec("T2", 0, length=3000))
for label, overrides in [
    ("defaults (300 order statistics + windows)", {}),
    ("full evaluation set + windows", {"grid": "full"}),
]:
    elapsed, result = timed(series, **overrides)
    print(
        f"T2(3000) {label}: {result.n_changepoints:2d} of {len(series.truth)} "
        f"in {elapsed:.2f}s"
    )

# Windowing keeps growth roughly linear; disabling it shows the raw scan.
series = generate(ModelSpec("T1", 0, length=6000))
for label, overrides in [("windows of 2000", {}), ("no windowing", {"split": None})]:
    elapsed, result = timed(series, **overrides)
    print(f"T1(6000) {label}: {elapsed:.2f}s, {result.n_changepoints} found")

# The bic pipeline runs per window: each window of 2000 gets its own sweep,
# solution path and criterion, whose penalty 0.5 log(T)^2.1 grows with the
# window's length, not the series', so it stays below the gain of one
# change. One criterion over all 6000 points kept 1 of the 199 changes;
# over 20,000 points it kept none of 666.
for length in (6000, 20_000):
    long_series = generate(ModelSpec("T1", 0, length=length))
    start = time.perf_counter()
    result = segment(long_series.values, DetectorConfig(stop=StopRule.BIC))
    print(
        f"T1({length}) bic: {result.n_changepoints} of {len(long_series.truth)} found "
        f"in {len(result.windows)} windows in {time.perf_counter() - start:.2f}s"
    )

# No change is not the slow case: every interval is still visited, but the
# scan's coarse bound clears most of them without a profile, so pure noise
# runs faster than the T2(3000) series above.
noise = np.random.default_rng(0).standard_normal(3000)
elapsed, result = timed(noise)
print(f"pure noise T=3000: {result.n_changepoints} found in {elapsed:.2f}s")

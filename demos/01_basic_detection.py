"""Detect distributional change-points in a simple two-regime series.

Walks through the core threshold detector: what the contrast profile looks
like, where the detection threshold sits, and what the detector reports.
"""

import numpy as np

from rankseg import (
    CusumTable,
    DetectorConfig,
    Norm,
    StopRule,
    detect,
    grid_points,
    norm_value,
    threshold,
)

rng = np.random.default_rng(7)

# A mean shift of two noise standard deviations halfway through.
x = np.concatenate([rng.normal(0.0, 1.0, 120), rng.normal(2.0, 1.0, 120)])
T = len(x)

# Row b of the contrast matrix compares the ECDFs of X_1..X_b and
# X_{b+1}..X_T at every order statistic; its sup norm peaks near the true change.
matrix = CusumTable(x, grid_points(x, T)).profile_matrix(1, T)
profile = norm_value(Norm.LINF, matrix)
peak = 1 + int(np.argmax(profile))
zeta = threshold(0.9, T)
print(f"series length {T}, true change at 120")
print(f"contrast matrix {matrix.shape[0]} splits x {matrix.shape[1]} levels")
print(f"profile peak at b={peak} with value {profile.max():.3f}")
print(f"detection threshold 0.9 * sqrt(log T) = {zeta:.3f}")

# The expanding-interval scan reports the same location, plus its score.
config = DetectorConfig(stop=StopRule.THRESHOLD)
result = detect(x, config)
print(f"detected change-points: {result.changepoints}")
print(f"detection scores:       {tuple(round(s, 3) for s in result.scores)}")
print(f"intervals examined:     {result.intervals_evaluated}")

# Pure noise of the same length: nothing clears the threshold.
noise = rng.standard_normal(T)
print(f"on pure noise: {detect(noise, config).changepoints}")

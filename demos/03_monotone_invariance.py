"""Rank-only statistics: transformed data gives identical segmentations.

Every quantity in the detector depends on the data through indicators
``1{X_t <= u}`` evaluated at order statistics of the data, so any strictly
increasing transformation leaves the estimates exactly unchanged, at every
series length. Moment-based detectors do not have this property.
"""

import numpy as np

from rankseg import DetectorConfig, ModelSpec, StopRule, generate, segment

series = generate(ModelSpec("MM_GAUSS", seed=12))
print(f"true change-points: {series.truth}")

config = DetectorConfig(stop=StopRule.THRESHOLD)
base = segment(series, config).changepoints
print(f"detected on raw data:        {base}")

for name, transform in [
    ("exp(x)", np.exp),
    ("3x - 10", lambda v: 3.0 * v - 10.0),
    ("x^3", lambda v: v**3),
    ("arctan(x)", np.arctan),
]:
    mapped = segment(transform(series.values), config).changepoints
    same = "identical" if mapped == base else f"DIFFERENT: {mapped}"
    print(f"detected on {name:10s} {same}")

# The same holds end to end for the information-criterion pipeline.
bic_config = DetectorConfig()
base_bic = segment(series, bic_config).changepoints
exp_bic = segment(np.exp(series.values), bic_config).changepoints
print(f"\nBIC pipeline raw vs exp: {base_bic} vs {exp_bic}")

# Heavy tails are no obstacle either: Cauchy noise has no moments at all.
rng = np.random.default_rng(3)
cauchy = np.concatenate(
    [rng.standard_cauchy(150), 5.0 + rng.standard_cauchy(150)]
)
print(f"median shift under Cauchy noise: {segment(cauchy, config).changepoints}")

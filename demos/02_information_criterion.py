"""The threshold-free pipeline: overestimate, rank candidates, pick by BIC.

Shows each stage on a four-regime Gaussian benchmark series so the roles of
the solution path and the criterion curve are visible.
"""

from rankseg import (
    DetectorConfig,
    ModelSpec,
    bic_select,
    generate,
    overestimate,
    segment,
    solution_path,
)

series = generate(ModelSpec("MM_GAUSS", seed=4))
print(f"model MM_GAUSS: length {len(series)}, true change-points {series.truth}")

config = DetectorConfig()

# Stage 1: a sweep at 80% of the calibrated constant deliberately over-detects.
candidates = overestimate(series, config).changepoints
print(f"\noverestimated candidates ({len(candidates)}): {candidates}")

# Stage 2: iterative weakest-triplet removal orders them by importance.
# It reads the same config: its norm, its evaluation levels and, under linf,
# the per-level rescaling.
path = solution_path(series, candidates, config)
print("solution path (most important first):")
for position, score in zip(path.ordered, path.removal_scores):
    print(f"  b={position:4d}  removal score {score:.3f}")

# Stage 3: the criterion trades fit against a log-power penalty.
choice = bic_select(series, path)
print(f"\npenalty per change-point: {choice.penalty:.2f}")
for j, score in enumerate(choice.scores):
    marker = "  <- chosen" if j == choice.chosen_j else ""
    print(f"  model with {j} change-points: criterion {score:.2f}{marker}")
print(f"selected change-points: {choice.changepoints}")

# segment runs all three stages in one call under the default stop="bic".
result = segment(series, config)
assert result.path == path and result.changepoints == choice.changepoints

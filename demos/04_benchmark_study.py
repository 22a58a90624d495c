"""Seeded replication studies over the built-in benchmark models.

Reproduces a desk-scale slice of the benchmark: the distribution of the
estimation error N_hat - N, the scaled Hausdorff distance of the estimated
locations, and the mean runtime. Uses 25 replications per model to stay
quick; raise ``REPS`` for tighter frequencies.
"""

from rankseg import DetectorConfig, ModelSpec, Norm, StopRule, replicate_study

REPS = 25

config = DetectorConfig(stop=StopRule.BIC, norm=Norm.LINF)

header = f"{'model':12s} {'<=-2':>5} {'-1':>4} {'0':>4} {'1':>4} {'>=2':>4}   {'d_H':>6}  {'time':>7}"
print(header)
print("-" * len(header))
for model in ["NC", "M1", "V1", "MM_GAUSS", "MV_GAUSS", "MD1"]:
    report = replicate_study(ModelSpec(model, 0), config, reps=REPS)
    buckets = report.frequency_buckets()
    distance = "-" if report.mean_distance is None else f"{report.mean_distance:.3f}"
    print(
        f"{model:12s} {buckets['<=-2']:5d} {buckets['-1']:4d} {buckets['0']:4d} "
        f"{buckets['1']:4d} {buckets['>=2']:4d}   {distance:>6}  "
        f"{report.mean_runtime * 1000:6.1f}ms"
    )

# Transformed twins give identical frequency rows: the method sees only ranks.
base = replicate_study(ModelSpec("MM_GAUSS", 0), config, reps=REPS)
twin = replicate_study(ModelSpec("MM_GAUSS_TR", 0), config, reps=REPS)
print(f"\nMM_GAUSS     frequencies: {dict(sorted(base.frequencies.items()))}")
print(f"MM_GAUSS_TR  frequencies: {dict(sorted(twin.frequencies.items()))}")

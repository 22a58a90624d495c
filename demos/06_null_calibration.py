"""No-change calibration of the threshold constant C, per norm.

The threshold rule fires on a series with no change exactly when some
interval of its first pass has a split whose row norm beats C * sqrt(log T).
For each default window (length T_w) this script takes M_w, the largest row
norm over every first-pass interval of ``interval_sequences(1, T_w, 15,
T_w)`` at the default evaluation levels, and records the no-change statistic

    S = max over windows of M_w / sqrt(log T_w),

for all three norms, read off one profile per interval. The scan at constant
C fires on the series exactly when S > C, so the share of reps with S > C is
the false-alarm rate at C, and any C at or above the 95% quantile of S
false-alarms on at most 5% of the reps.

Every statistic reads ranks only, so on continuous data S has one law for
every noise distribution: that of a uniform random permutation. The rows use
N(0, 1) data (``NOCHANGE_GAUSS``). Tied data (``NOCHANGE_POIS``, rate 3) fall
outside that law and are reported on their own rows. Like the scan, each
window's table keeps one column per distinct indicator, weighted by its
multiplicity under ``l1`` and ``l2``, so a Poisson rep costs what the scan
costs. Rep i uses seed i.

The default run takes seconds (50 reps at T = 30 and 200). The study behind
the library's defaults, about 55 minutes on one core, is

    python demos/06_null_calibration.py --reps 400 \\
        --lengths 30 50 100 200 500 1000 2000 6000 --pois-lengths 200 1000

Each row depends only on its data, length and reps, so the rows may also be
run in separate processes. The 2000-rep Poisson rows in the README are

    python demos/06_null_calibration.py --reps 2000 --lengths \
        --pois-lengths 200 1000 2000
"""

import argparse
import math

import numpy as np

from rankseg import (
    CusumTable,
    DetectorConfig,
    ModelSpec,
    Norm,
    Series,
    generate,
    interval_sequences,
    norm_value,
    threshold,
)
from rankseg.contrast import _distinct_levels
from rankseg.detector import DEFAULT_CONSTANTS, _window_bounds

CONFIG = DetectorConfig()
NORMS = (Norm.L1, Norm.L2, Norm.LINF)


def windows(series: Series) -> list[Series]:
    """The default windows of ``series``, each ranked on its own as ``detect`` does."""
    return [Series(series.ranks[lo:hi]) for lo, hi in _window_bounds(len(series), CONFIG.split)]


def null_statistic(series: Series) -> dict[Norm, float]:
    """S per norm: the largest first-pass row norm over sqrt(log T_w), over windows."""
    stat = dict.fromkeys(NORMS, 0.0)
    for window in windows(series):
        T = len(window)
        points, counts = _distinct_levels(window, CONFIG.eval_points_for(window))
        table = CusumTable(window, points)
        scale = threshold(1.0, T)
        first_pass = interval_sequences(1, T, CONFIG.expansion_step, T)
        for s, e in {(s, e) for s, e, _ in first_pass}:
            matrix = table.profile_matrix(s, e)
            for kind in NORMS:
                stat[kind] = max(stat[kind], float(norm_value(kind, matrix, counts).max()) / scale)
    return stat


def study(model: str, length: int, reps: int) -> dict[Norm, np.ndarray]:
    """S per norm for seeds ``0 .. reps - 1`` of ``model`` at ``length``."""
    stats = [null_statistic(generate(ModelSpec(model, seed, length=length))) for seed in range(reps)]
    return {kind: np.array([s[kind] for s in stats]) for kind in NORMS}


def rule_constant(quantiles) -> float:
    """The smallest multiple of 0.05 at or above every quantile."""
    return math.ceil(round(max(quantiles) * 20, 9)) / 20


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=50, help="seeds 0 .. reps - 1 per row")
    parser.add_argument("--lengths", type=int, nargs="*", default=[30, 200],
                        help="series lengths of the N(0, 1) rows")
    parser.add_argument("--pois-lengths", type=int, nargs="*", default=[200],
                        help="series lengths of the Poisson(3) rows")
    args = parser.parse_args(argv)

    cells = [("N(0,1)", "NOCHANGE_GAUSS", T) for T in args.lengths]
    cells += [("Pois(3)", "NOCHANGE_POIS", T) for T in args.pois_lengths]
    print(f"No-change statistic S at the default config, {args.reps} reps per row "
          f"(seeds 0-{args.reps - 1}); FA = share of reps with S > C at the default C.\n")
    head = "| data | T | windows x Q |"
    rule = "|---|---:|---|"
    for kind in NORMS:
        head += f" {kind.value} q95 | {kind.value} FA@{DEFAULT_CONSTANTS[kind]:g} |"
        rule += "---:|---:|"
    print(head)
    print(rule)
    continuous = {kind: [] for kind in NORMS}
    for label, model, T in cells:
        stats = study(model, T, args.reps)
        parts = windows(generate(ModelSpec(model, 0, length=T)))
        row = f"| {label} | {T} | {len(parts)} x {len(CONFIG.eval_points_for(parts[0]))} |"
        for kind in NORMS:
            q95 = float(np.quantile(stats[kind], 0.95))
            share = float(np.mean(stats[kind] > DEFAULT_CONSTANTS[kind]))
            row += f" {q95:.3f} | {100 * share:.2f}% |"
            if model == "NOCHANGE_GAUSS":
                continuous[kind].append((q95, share))
        print(row, flush=True)

    if args.lengths:
        print("\nOver the N(0,1) rows:")
        for kind in NORMS:
            q95s, shares = zip(*continuous[kind])
            print(f"  {kind.value:4s}: 95% quantile {min(q95s):.3f}-{max(q95s):.3f}, "
                  f"smallest multiple of 0.05 at or above all: {rule_constant(q95s):.2f}; "
                  f"default {DEFAULT_CONSTANTS[kind]:g}, worst FA {100 * max(shares):.2f}%")


if __name__ == "__main__":
    main()

"""Shared naive oracles and helpers kept independent of the library paths."""

import math

import numpy as np
import pytest


def naive_cusum(values, s, e, b, u):
    """Direct per-term evaluation of the weighted indicator-sum difference."""
    pre = sum(1 for t in range(s, b + 1) if values[t - 1] <= u)
    post = sum(1 for t in range(b + 1, e + 1) if values[t - 1] <= u)
    n1 = b - s + 1
    n2 = e - b
    n = e - s + 1
    return math.sqrt(n2 / (n1 * n)) * pre - math.sqrt(n1 / (n2 * n)) * post


def float_contrast(prefix, s, e, lo, hi):
    """Contrast rows of ``[s, e]`` for the splits in ``[lo, hi)``, in floats.

    The weight ``sqrt(n1 * n2 / n)`` times the difference of the segment
    ECDFs, each a float division of the prefix counts ``prefix``.
    """
    base = prefix[s - 1]
    counts = prefix[lo:hi] - base
    total = prefix[e] - base
    n = float(e - s + 1)
    n1 = np.arange(lo - s + 1.0, hi - s + 1.0)
    n2 = n - n1
    weight = np.sqrt(n1 * n2 / n)
    return weight[:, None] * (counts / n1[:, None] - (total - counts) / n2[:, None])


def ecdf(sample, u):
    """Empirical CDF of ``sample`` at ``u``: the fraction of values <= u."""
    if len(sample) == 0:
        raise ValueError("ecdf of an empty sample is undefined")
    return sum(1 for v in sample if v <= u) / len(sample)


def rescale_sd(values, u):
    """Indicator standard deviation ``sqrt(p(1-p))`` at ``u``, clamped to 0.3.

    The clamp applies whenever ``p = ecdf(values, u)`` lies outside
    ``[0.1, 0.9]``.
    """
    p = ecdf(values, u)
    if p < 0.1 or p > 0.9:
        return 0.3
    return math.sqrt(p * (1.0 - p))


def levels_of(values, u):
    """The evaluation levels of thresholds ``u``: ``#{t : X_t <= u}`` each.

    A table at these levels holds exactly the indicators ``1{X_t <= u}``.
    """
    values = np.asarray(values, dtype=float)
    return np.array([np.count_nonzero(values <= v) for v in np.atleast_1d(u)])


def thresholds_of(values, eval_points):
    """The order statistics ``x_(k)`` at the levels ``k >= 1`` of ``eval_points``."""
    return np.sort(np.asarray(values, dtype=float))[eval_points.levels - 1]


def naive_prefix(ranks, levels):
    """The whole ``(T + 1) x Q`` prefix table: a zero row, then ``cumsum(r[:, None] <= k)``."""
    r, k = np.asarray(ranks), np.asarray(levels)
    return np.vstack([np.zeros((1, k.size), int), np.cumsum(r[:, None] <= k[None, :], axis=0)])


def sorted_st_likelihood(values, breakpoints=()):
    """S_T by sorting every segment and binary-searching the order statistics."""
    x = np.asarray(values, dtype=float)
    T = x.size
    bpts = tuple(int(b) for b in breakpoints)
    if T <= 2:
        return 0.0

    def xlogx(p):
        return p * np.log(p, out=np.zeros_like(p), where=p > 0)

    xs = np.sort(x)
    order_stats = xs[1 : T - 1]  # x_(l) for l = 2..T-1
    l = np.arange(2.0, T)
    weights = 1.0 / (l * (T - l))

    total = 0.0
    edges = [0, *bpts, T]
    for a, b in zip(edges, edges[1:]):
        seg = np.sort(x[a:b])
        f = np.searchsorted(seg, order_stats, side="right") / (b - a)
        entropy = xlogx(f) + xlogx(1.0 - f)
        total += (b - a) * float(weights @ entropy)
    return T * total


def naive_norm(kind, y):
    """Mean-dominant norms computed with plain Python arithmetic."""
    d = len(y)
    if kind == "l1":
        return sum(abs(v) for v in y) / d
    if kind == "l2":
        return math.sqrt(sum(v * v for v in y)) / math.sqrt(d)
    return max(abs(v) for v in y)


def naive_profile(values, s, e, kind, points, sd=None):
    """Per-(b, u) loop over the contrast, then the norm; no shared state."""
    out = []
    for b in range(s, e):
        row = [naive_cusum(values, s, e, b, u) for u in points]
        if sd is not None:
            row = [v / w for v, w in zip(row, sd)]
        out.append(naive_norm(kind, row))
    return np.asarray(out)


def expansion_points(step, length):
    """The precomputed right and left expansion points of a series.

    Right points are ``j * step + 1`` below ``T`` followed by the terminal
    ``T``; left points are ``T - j * step`` above 1 followed by the terminal 1.
    """
    T = length
    inner = np.arange(1, math.ceil(T / step))
    right = inner * step + 1
    left = T - inner * step
    return np.append(right[right < T], T), np.append(left[left > 1], 1)


def naive_interval_sequences(s, e, step, length):
    """Interleaved expanding intervals of ``[s, e]`` by filtering the points."""
    if e - s < 1:
        return []
    right_pts, left_pts = expansion_points(step, length)
    right = [int(c) for c in right_pts if s < c < e] + [e]
    left = [int(c) for c in left_pts if s < c < e] + [s]
    out = []
    for i in range(max(len(right), len(left))):
        if i < len(right):
            out.append((s, right[i], "right"))
        if i < len(left):
            out.append((left[i], e, "left"))
    return out


def naive_window_bounds(length, win):
    """Window slices built window by window: whole windows of ``win``, then
    the remainder appended as its own window, or folded into the last one
    when it is shorter than half a window."""
    if length <= win:
        return [(0, length)]
    n = length // win
    bounds = [(i * win, (i + 1) * win) for i in range(n)]
    rem = length - n * win
    if rem:
        if rem < win // 2:
            bounds[-1] = (bounds[-1][0], length)
        else:
            bounds.append((n * win, length))
    return bounds


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_series(rng, max_len=300, min_len=5, ties=False):
    """A random float series; with ``ties`` the values are small integers."""
    n = int(rng.integers(min_len, max_len + 1))
    if ties:
        return rng.integers(0, 6, n).astype(float)
    return rng.standard_normal(n)


def plain_norm(kind, matrix):
    """Plain mean, root mean square or maximum of ``|matrix|`` along the last axis."""
    a = np.abs(np.asarray(matrix, dtype=float))
    if kind == "l1":
        return a.mean(axis=-1)
    if kind == "l2":
        return np.sqrt(np.square(a).mean(axis=-1))
    return a.max(axis=-1)


def uncompressed_path(table, candidates, kind):
    """Weakest-triplet removal on ``table`` with plain norms; a ``SolutionPath``."""
    from rankseg import SolutionPath

    sd = table.indicator_sd if kind == "linf" else None
    work = list(candidates)

    def score(i):
        prev = work[i - 1] if i > 0 else 0
        nxt = work[i + 1] if i + 1 < len(work) else table.length
        row = table.row(prev + 1, nxt, work[i])
        return float(plain_norm(kind, row if sd is None else row / sd))

    scores = [score(i) for i in range(len(work))]
    removed, removed_scores = [], []
    while work:
        m = int(np.argmin(scores))
        removed.append(work.pop(m))
        removed_scores.append(scores.pop(m))
        for i in (m - 1, m):
            if 0 <= i < len(work):
                scores[i] = score(i)
    return SolutionPath(tuple(reversed(removed)), tuple(reversed(removed_scores)))


def uncompressed_segment(series, config):
    """``segment`` on one window, rebuilt on the full-Q table with plain norms.

    Every configured level keeps its own column, repeated or not, so this is
    the reference for tie compression. The criterion is the library's
    ``bic_select``, which reads the ranks directly and no table.
    """
    from rankseg import (
        CusumTable,
        Segmentation,
        StopRule,
        as_series,
        bic_select,
        interval_sequences,
        threshold,
    )
    from rankseg.selector import OVERESTIMATE_FACTOR

    series = as_series(series)
    T = len(series)
    assert config.split is None or T <= config.split, "one window only"
    table = CusumTable(series, config.eval_points_for(series))
    kind = config.norm.value

    def scan(constant):
        found, n_scanned = {}, 0
        s, e = 1, T
        while e - s >= 1:
            for ss, ee, side in interval_sequences(s, e, config.expansion_step, T):
                n_scanned += 1
                profile = plain_norm(kind, table.profile_matrix(ss, ee))
                k = int(np.argmax(profile))
                if profile[k] > threshold(constant, T):
                    found.setdefault(ss + k, float(profile[k]))
                    s, e = (ee, e) if side == "right" else (s, ss)
                    break
            else:
                break
        return found, n_scanned

    if config.stop is StopRule.THRESHOLD:
        found, n_scanned = scan(config.resolved_constant())
        cps = tuple(sorted(found))
        return Segmentation(cps, tuple(found[c] for c in cps), config, T, n_scanned)
    found, n_scanned = scan(OVERESTIMATE_FACTOR * config.resolved_constant())
    path = uncompressed_path(table, sorted(found), kind)
    choice = bic_select(series, path)
    score_of = dict(zip(path.ordered, path.removal_scores))
    return Segmentation(
        choice.changepoints,
        tuple(score_of[c] for c in choice.changepoints),
        config,
        T,
        n_scanned,
        path=path,
        bic=choice,
    )

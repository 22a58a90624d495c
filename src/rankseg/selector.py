"""Solution-path ordering of candidates and information-criterion selection.

The threshold rule alone is sensitive to the choice of constant. The pipeline
here first over-detects with a deliberately lowered threshold, then orders the
candidates by importance (iteratively discarding the weakest triplet
contrast), and finally picks the prefix of that ordering that minimises a
Schwarz-type criterion built on an integrated profile log-likelihood of the
segment ECDFs.

Both stages work at the resolution of the candidates, not of the series. The
path's prefix table holds the rows at 0, at the J candidates and at T only;
one ``CusumTable.row`` call scores a block of first-round triplets, and one
per removal its two neighbours. A segment of n observations evaluates its
likelihood term's entropy at the n + 1 values its ECDF can take, then
repeats each over the order statistics between two of its sorted ranks.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .contrast import (
    CusumTable,
    Norm,
    _check_bytes,
    _check_int,
    _check_positions,
    _distinct_levels,
    as_series,
    norm_value,
)
from .detector import DetectorConfig, Segmentation, StopRule, _config, detect

__all__ = [
    "SolutionPath",
    "BicResult",
    "overestimate",
    "solution_path",
    "st_likelihood",
    "bic_penalty",
    "bic_select",
    "segment",
]

OVERESTIMATE_FACTOR = 0.8  # threshold constant used for the candidate sweep


@dataclass(frozen=True)
class SolutionPath:
    """Candidate change-points ordered most-important-first.

    ``ordered[0]`` survived longest in the iterative removal;
    ``removal_scores[k]`` is the triplet norm value at which ``ordered[k]``
    was pruned. The entries are stored as Python ints; a bool or non-integer
    entry raises ``ValueError``, as do repeated entries.
    """

    ordered: tuple[int, ...]
    removal_scores: tuple[float, ...]

    def __post_init__(self):
        ordered = tuple(_check_int("solution path entries", c) for c in self.ordered)
        object.__setattr__(self, "ordered", ordered)
        if len(self.ordered) != len(self.removal_scores):
            raise ValueError("ordered and removal_scores must align")
        if len(set(self.ordered)) != len(self.ordered):
            raise ValueError("solution path entries must be distinct")

    def __len__(self) -> int:
        return len(self.ordered)

    def model(self, j: int) -> tuple[int, ...]:
        """The ``j`` most important candidates, sorted ascending."""
        return tuple(sorted(self.ordered[:j]))


@dataclass(frozen=True)
class BicResult:
    """Outcome of minimising the information criterion along a path."""

    chosen_j: int
    scores: tuple[float, ...]
    penalty: float
    changepoints: tuple[int, ...]


def overestimate(series, config: DetectorConfig | None = None) -> Segmentation:
    """The candidate sweep: the :func:`detect` result at 80% of the constant."""
    config = _config(config)
    relaxed = OVERESTIMATE_FACTOR * config.resolved_constant()
    return detect(series, replace(config, threshold_constant=relaxed))


def solution_path(series, candidates, config: DetectorConfig | None = None) -> SolutionPath:
    """Order candidates by importance via iterative weakest-triplet removal.

    Each remaining candidate is scored by the ``config.norm`` of its CUSUM
    vector over the interval spanned by its two current neighbours (with
    sentinels 0 and T), at the levels ``config.eval_points_for(series)``;
    under ``linf`` each level is divided by its indicator standard deviation.
    The table holds the prefix counts at 0, at the candidates and at T only,
    the ``J + 2`` times the triplets read, and keeps one column per distinct
    indicator (``_distinct_levels``); ``l1``/``l2`` weight each column by its
    multiplicity. Its byte guard is that of a ``(T + 1) x Q`` table at the
    configured number of levels, so whether a call raises depends on T and
    Q only.
    One ``CusumTable.row`` and one ``norm_value`` call score each block of
    at most ``_ROW_BYTES // (8 Q)`` first-round triplets, so memory does not
    grow with J. The lowest-scoring candidate (the leftmost on ties) is
    removed and only its former neighbours are re-scored, in one call. The
    returned ordering lists the last-removed candidate first. On the
    candidates ``overestimate(series, config).changepoints`` it is
    ``segment(...).path``.
    """
    series = as_series(series)
    config = _config(config)
    T = len(series)
    cuts = [0, *_check_positions(candidates, T, "candidates"), T]
    if len(cuts) == 2:
        return SolutionPath((), ())

    kind = config.norm
    eval_points = config.eval_points_for(series)
    Q = len(eval_points)
    _check_bytes("a prefix table", T, Q, (T + 1) * Q * 4)
    eval_points, counts = _distinct_levels(series, eval_points)
    table = CusumTable(series, eval_points, cuts)
    sd = table.indicator_sd if kind is Norm.LINF else None

    def triplet_scores(first: int, last: int) -> list[float]:
        """The scores of the candidates ``cuts[first:last]``, from one ``row`` call."""
        rows = table.row(
            [t + 1 for t in cuts[first - 1 : last - 1]], cuts[first + 1 : last + 1], cuts[first:last]
        )
        if sd is not None:
            rows /= sd
        return norm_value(kind, rows, counts).tolist()

    step = max(1, CusumTable._ROW_BYTES // (8 * len(eval_points)))
    scores = []
    for first in range(1, len(cuts) - 1, step):
        scores += triplet_scores(first, min(first + step, len(cuts) - 1))
    removed: list[int] = []
    removed_scores: list[float] = []
    while scores:
        m = scores.index(min(scores))  # leftmost on ties
        removed.append(cuts.pop(m + 1))
        removed_scores.append(scores.pop(m))
        # the former neighbours m - 1 and m, those that exist, in one call
        first, last = max(m, 1), min(m + 2, len(cuts) - 1)
        if first < last:
            scores[first - 1 : last - 1] = triplet_scores(first, last)

    return SolutionPath(tuple(reversed(removed)), tuple(reversed(removed_scores)))


def _xlogx(p: np.ndarray) -> np.ndarray:
    """Elementwise ``p * log(p)`` with ``0 * log(0) = 0``, for ``p >= 0``.

    A zero is logged as 1, so every entry takes the same unmasked ``log``.
    """
    return p * np.log(p + (p == 0))


def _st_term(r: np.ndarray, weights: np.ndarray, a: int, b: int) -> float:
    """The S_T term of the segment ``(a, b]`` of the ranks ``r``, at the ``_st_weights``."""
    T, n = r.size, b - a
    f = np.arange(n + 1) / n
    entropy = _xlogx(f) + _xlogx(1.0 - f)
    # 0, the segment's sorted ranks, T + 1: the count is j on [r_(j), r_(j+1))
    steps = np.empty(n + 2, np.int32 if T < 2**31 - 1 else np.int64)  # holds 0..T + 1
    steps[0], steps[-1] = 0, T + 1
    steps[1:-1] = r[a:b]
    steps[1:-1].sort()
    return n * float(weights @ np.repeat(entropy, np.diff(steps))[2:T])


def _st_weights(T: int) -> np.ndarray:
    """The S_T weights ``1 / (l (T - l))`` for ``l = 2..T-1``."""
    l = np.arange(2.0, T)
    return 1.0 / (l * (T - l))


def st_likelihood(series, breakpoints=()) -> float:
    """Integrated profile log-likelihood of a candidate segmentation.

    For breakpoints ``b_1 < .. < b_j`` (sentinels ``b_0 = 0``, ``b_{j+1} = T``)
    and ``F_i`` the ECDF of segment ``(b_i, b_{i+1}]``::

        T * sum_i sum_{l=2..T-1} (b_{i+1} - b_i) / (l (T - l))
              * [F_i(x_(l)) log F_i(x_(l)) + (1 - F_i(x_(l))) log(1 - F_i(x_(l)))]

    evaluated at the order statistics ``x_(l)`` of the full series, with the
    convention ``0 log 0 = 0``. ``F_i(x_(l))`` is the share ``c / n`` of the
    segment's ``n`` ranks that are ``<= l``. It takes only the values
    ``0, 1/n, .., 1``, so the entropy is evaluated at those ``n + 1`` values,
    ``n + 1`` logs per term instead of ``T - 2``. The count is ``j`` from
    the segment's ``j``-th smallest rank up to the next, so repeating the
    entropy by the gaps of ``0``, the sorted ranks and ``T + 1`` lays it out
    at every level ``0..T``: the same floats as a gather at the counts,
    with no length-``T`` count table. Always finite and <= 0; refining a
    segmentation never decreases it. Each call computes the weights once
    and every segment's term, and adds the terms left to right; nothing is
    kept on the ``Series``.
    """
    series = as_series(series)
    r = series.ranks
    T = r.size
    edges = (0, *_check_positions(breakpoints, T, "breakpoints"), T)
    weights = _st_weights(T)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        total += _st_term(r, weights, a, b)
    return T * total


def bic_penalty(length: int) -> float:
    """Per-change-point penalty ``0.5 * log(T) ** 2.1`` (natural log), integer ``T >= 1``."""
    return 0.5 * math.log(_check_int("length", length, 1)) ** 2.1


def bic_select(series, path: SolutionPath) -> BicResult:
    """Pick the prefix of the solution path minimising the criterion.

    Evaluates ``-st_likelihood(series, path.model(j)) + j * penalty`` for
    every ``j = 0..J`` and returns the smallest minimiser. ``j = 0`` is one
    ``st_likelihood`` call; model ``j`` inserts the ``j``-th candidate and
    replaces its parent segment's term by its two halves' terms, so each of
    the 2J + 1 terms is computed once, O(J * T) in all. Each prefix adds its
    terms left to right, as ``st_likelihood`` does, so every score is that
    call's float. A ``path`` that is not a ``SolutionPath``, or holds an
    entry that is not an integer in ``[1, T - 1]``, raises ``ValueError``.
    """
    if not isinstance(path, SolutionPath):
        raise ValueError(f"path must be a SolutionPath, got {type(path).__name__}")
    series = as_series(series)
    r = series.ranks
    T = r.size
    _check_positions(path.model(len(path)), T, "path entries")
    weights = _st_weights(T)
    likelihoods = [st_likelihood(series)]
    edges, terms = [0, T], [0.0]  # the one term is replaced at the first split
    for c in path.ordered:
        i = bisect.bisect(edges, c)
        edges.insert(i, c)
        a, b = edges[i - 1], edges[i + 1]
        terms[i - 1 : i] = [_st_term(r, weights, a, c), _st_term(r, weights, c, b)]
        total = 0.0
        for term in terms:
            total += term
        likelihoods.append(T * total)
    penalty = bic_penalty(T)
    scores = [-likelihood + j * penalty for j, likelihood in enumerate(likelihoods)]
    chosen = int(np.argmin(scores))
    return BicResult(chosen, tuple(scores), penalty, path.model(chosen))


def segment(series, config: DetectorConfig | None = None) -> Segmentation:
    """The pipeline: change-points of ``series`` under the rule ``config.stop``.

    ``threshold`` runs :func:`detect`; ``bic`` runs :func:`overestimate`,
    :func:`solution_path` and :func:`bic_select`, and scores each change-point
    by its removal score on the path. The result's config names the rule.
    """
    config = _config(config)
    if config.stop is StopRule.THRESHOLD:
        return detect(series, config)
    series = as_series(series)
    over = overestimate(series, config)
    path = solution_path(series, over.changepoints, config)
    choice = bic_select(series, path)
    score_of = dict(zip(path.ordered, path.removal_scores))
    return Segmentation(
        changepoints=choice.changepoints,
        scores=tuple(score_of[c] for c in choice.changepoints),
        config=config,
        length=len(series),
        intervals_evaluated=over.intervals_evaluated,
        path=path,
        bic=choice,
    )

"""Seeded workload definitions for the rankseg benchmark.

A workload is a fixed list of model cells (model id, length, rate) run under
one stop rule. Its input pool holds ``pool_rounds`` rounds; each round draws
one series per cell from a seed derived from the workload seed, the round
number and the cell's slot, so the same seed always gives the same arrays.
The timed loop runs whole rounds, so every timed sample has the same mix of
cells. Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Cell:
    """One model instance of a workload."""

    model: str
    length: int | None = None
    rate: float | None = None

    @property
    def label(self) -> str:
        if self.rate is not None:
            return f"{self.model}({self.rate:g},{self.length})"
        if self.length is not None:
            return f"{self.model}({self.length})"
        return self.model


@dataclass(frozen=True)
class Workload:
    """A named set of cells and the stop rule they run under."""

    name: str
    stop: str
    cells: tuple[Cell, ...]
    # distinct rounds generated; sized so the timed loop rarely wraps around
    pool_rounds: int
    # the first rounds scored against truth, timed or not
    score_rounds: int
    # cells, and how many of the first rounds, re-run on dense ranks
    rank_cells: tuple[int, ...]
    rank_rounds: int
    # small series used for the warm-up call and the set-up measurement
    warmup: Cell


@dataclass(frozen=True)
class Item:
    """One generated series of the pool."""

    sid: int
    cell: Cell
    values: np.ndarray
    truth: tuple[int, ...]


PAPER_MODELS = (
    "M1", "V1", "D1", "MM_GAUSS", "MM_STUDENT_T3", "MM_POIS", "MM_GAUSS_TR",
    "MV_GAUSS", "MV_GAUSS2", "MD1", "MD2", "MD3", "MM_GAUSS2", "NC",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="null-calib",
            stop="threshold",
            cells=(
                Cell("NOCHANGE_GAUSS", 1000),
                Cell("NOCHANGE_CAUCHY", 1000),
                Cell("NOCHANGE_POIS", 1000, 3.0),
            ),
            pool_rounds=24,
            score_rounds=12,
            rank_cells=(0, 1, 2),
            rank_rounds=1,
            warmup=Cell("NOCHANGE_GAUSS", 200),
        ),
        Workload(
            name="paper-study",
            stop="bic",
            cells=tuple(Cell(m) for m in PAPER_MODELS),
            pool_rounds=48,
            score_rounds=24,
            rank_cells=tuple(range(len(PAPER_MODELS))),
            rank_rounds=2,
            warmup=Cell("M1"),
        ),
        Workload(
            name="dense-long",
            stop="bic",
            # T1(6000) takes about 3 s, the others 0.3-0.6 s; with T1(3000)
            # twice per round, the median and the tail percentile (ten samples
            # beyond it) both fall on T1(3000) at any round count from 4 to 10
            cells=(
                Cell("T1", 3000),
                Cell("T2", 3000),
                Cell("T2", 6000),
                Cell("T1", 6000),
                Cell("T1", 3000),
            ),
            pool_rounds=12,
            score_rounds=6,
            # T1(6000) is left out of the rank re-run: one call costs about
            # 3 s, and its result is fixed by the selector, not the grid
            rank_cells=(0, 1, 2),
            rank_rounds=2,
            warmup=Cell("T2", 1200),
        ),
    )
}


def series_seed(seed: int, rnd: int, slot: int) -> int:
    """Generator seed of slot ``slot`` in pool round ``rnd``."""
    return int(np.random.SeedSequence([seed, rnd, slot]).generate_state(1)[0])


def warmup_seed(workload: Workload, seed: int) -> int:
    """Seed of the warm-up series: the round after the pool's last."""
    return series_seed(seed, workload.pool_rounds, 0)


def generate_cell(rankseg, cell: Cell, seed: int):
    spec = rankseg.ModelSpec(cell.model, seed, length=cell.length, rate=cell.rate)
    return rankseg.generate(spec)


def build_pool(rankseg, workload: Workload, seed: int) -> list[list[Item]]:
    """All series of the workload, generated before any timing starts."""
    pool = []
    sid = 0
    for rnd in range(workload.pool_rounds):
        items = []
        for slot, cell in enumerate(workload.cells):
            series = generate_cell(rankseg, cell, series_seed(seed, rnd, slot))
            items.append(Item(sid, cell, series.values, series.truth or ()))
            sid += 1
        pool.append(items)
    return pool

"""Seeded generators for the benchmark data sequences.

A model is its list of segments, each drawn from one distribution, and its
true change-points are where each segment but the last ends: ``generate``
concatenates the segments and reads the truth off their cumulative lengths,
so no model writes a change-point down. The segments are drawn left to right
from a single ``numpy.random.default_rng`` (PCG64) stream keyed by the seed,
so the same (model, seed) pair reproduces bit-identical data on any platform
running the same numpy generation code. The ``*_TR`` models apply ``exp``
elementwise to their base model drawn with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, cycle

import numpy as np

from .contrast import MAX_TABLE_BYTES, Series, _check_int, _check_real, _shown

__all__ = ["ModelSpec", "generate", "list_models"]

_SQRT3 = math.sqrt(3.0)

# Largest mean numpy's Poisson sampler accepts; above it draws fail with
# "lam value too large".
POISSON_RATE_MAX = float(np.iinfo(np.int64).max) - 10 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ModelSpec:
    """A benchmark model instance: id, seed and optional size parameters.

    ``model`` is one of :func:`list_models`, in any case, and is stored
    upper-case; sizes are never part of the id (``T1`` with ``length=6000``,
    not ``"T1(6000)"``). ``seed`` is an integer ``>= 0``. ``length``
    sizes the timing and no-change families (``T1``, ``T2``,
    ``NOCHANGE_GAUSS/CAUCHY/POIS``) and must be an integer from 1 to
    134,217,728 (1 GiB of float64 values) when given; ``rate`` is the Poisson
    mean of ``NOCHANGE_POIS`` and must be a finite real ``>= 0`` and at most
    ``POISSON_RATE_MAX`` (numpy's Poisson limit, about 9.2e18) when given.
    Either one given for a model it does not size raises ``ValueError``.
    Numbers are stored as Python ``int``/``float``.
    """

    model: str
    seed: int
    length: int | None = None
    rate: float | None = None

    def __post_init__(self):
        model = self.model.upper() if isinstance(self.model, str) else None
        if model not in _GENERATORS and model not in _TRANSFORMED:
            raise ValueError(
                f"unknown model id {self.model!r}; known: {', '.join(list_models())}"
            )
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))
        for name, sized in (("length", _SIZED), ("rate", ("NOCHANGE_POIS",))):
            if getattr(self, name) is not None and model not in sized:
                raise ValueError(
                    f"model {model} takes no {name}; a {name} sizes {', '.join(sized)}"
                )
        if self.length is not None:
            length = _check_int("length", self.length, 1)
            if length > MAX_TABLE_BYTES // 8:
                raise ValueError(
                    f"length must be <= {MAX_TABLE_BYTES // 8:,}, 1 GiB of float64 values "
                    f"(MAX_TABLE_BYTES), got {_shown(length)}"
                )
            object.__setattr__(self, "length", length)
        if self.rate is not None:
            rate = _check_real("rate", self.rate, 0)
            if rate > POISSON_RATE_MAX:
                raise ValueError(
                    f"rate must be <= {POISSON_RATE_MAX!r}, numpy's Poisson limit, got {rate!r}"
                )
            object.__setattr__(self, "rate", rate)


def _blocks(levels, step: int, length: int):
    """``(level, size)`` of each ``step``-point block over ``length`` points, levels cycling."""
    return zip(cycle(levels), (min(step, length - a) for a in range(0, length, step)))


def _gen_nc(rng, spec):
    return [rng.standard_normal(500)]


def _gen_m1(rng, spec):
    return [mean + rng.standard_normal(100) for mean in (0.0, 1.0)]


def _gen_v1(rng, spec):
    return [sd * rng.standard_normal(250) for sd in (1.0, 2.0)]


def _gen_d1(rng, spec):
    # Uniform(-3, 3) then Student-t3: same mean and variance, different shape.
    return [rng.uniform(-3.0, 3.0, 500), rng.standard_t(3, 500)]


_MM_MEANS = (0.0, 1.0, -0.2, -1.3)


def _gen_mm_gauss(rng, spec):
    return [mean + rng.standard_normal(100) for mean in _MM_MEANS]


def _gen_mm_student(rng, spec):
    return [mean + rng.standard_t(3, 100) for mean in _MM_MEANS]


def _gen_mm_gauss2(rng, spec):
    return [mean + rng.standard_normal(size) for mean, size in _blocks((0.0, 2.0), 80, 1600)]


def _gen_mm_pois(rng, spec):
    # Poisson(1) noise added as drawn (not mean-centred); rank-based
    # detection is unaffected by the shared offset.
    return [mean + rng.poisson(1.0, 100) for mean in _MM_MEANS]


def _gen_mv_gauss(rng, spec):
    sds = (1.0, 3.0, 1.2, math.sqrt(0.1))
    return [sd * rng.standard_normal(size) for sd, size in zip(sds, (150, 200, 150, 100))]


def _gen_mv_gauss2(rng, spec):
    sds = [math.sqrt(v) for v in (10.0, 2.0, 0.3, 4.0, 20.0, 2.0)]
    sizes = (200, 150, 200, 150, 200, 100)
    return [sd * rng.standard_normal(size) for sd, size in zip(sds, sizes)]


def _gen_md1(rng, spec):
    # Three distributions sharing mean 1 and variance 1.
    return [
        rng.gamma(1.0, 1.0, 250),
        rng.poisson(1.0, 250).astype(float),
        rng.uniform(1.0 - _SQRT3, 1.0 + _SQRT3, 250),
    ]


def _gen_md2(rng, spec):
    return [
        rng.standard_normal(100),
        rng.chisquare(1, 150),
        rng.standard_t(3, 100),
        rng.standard_normal(150) + 1.0,
    ]


def _gen_md3(rng, spec):
    return [
        rng.gamma(1.0, 1.0, 200),
        rng.chisquare(3, 300),
        rng.standard_normal(250) + 0.5,
        rng.standard_t(5, 250),
    ]


def _gen_t1(rng, spec):
    blocks = _blocks((0.0, 4.0), 30, spec.length or 3000)
    return [level + 0.5 * rng.standard_normal(size) for level, size in blocks]


def _gen_t2(rng, spec):
    blocks = _blocks((1.0, 2.0), 250, spec.length or 3000)
    return [sd * rng.standard_normal(size) for sd, size in blocks]


def _gen_nochange_gauss(rng, spec):
    return [rng.standard_normal(spec.length or 500)]


def _gen_nochange_cauchy(rng, spec):
    return [rng.standard_cauchy(spec.length or 500)]


def _gen_nochange_pois(rng, spec):
    rate = 3.0 if spec.rate is None else spec.rate
    return [rng.poisson(rate, spec.length or 500).astype(float)]


_GENERATORS = {
    "NC": _gen_nc,
    "M1": _gen_m1,
    "V1": _gen_v1,
    "D1": _gen_d1,
    "MM_GAUSS": _gen_mm_gauss,
    "MM_STUDENT_T3": _gen_mm_student,
    "MM_GAUSS2": _gen_mm_gauss2,
    "MM_POIS": _gen_mm_pois,
    "MV_GAUSS": _gen_mv_gauss,
    "MV_GAUSS2": _gen_mv_gauss2,
    "MD1": _gen_md1,
    "MD2": _gen_md2,
    "MD3": _gen_md3,
    "T1": _gen_t1,
    "T2": _gen_t2,
    "NOCHANGE_GAUSS": _gen_nochange_gauss,
    "NOCHANGE_CAUCHY": _gen_nochange_cauchy,
    "NOCHANGE_POIS": _gen_nochange_pois,
}

# the models a length sizes (a rate sizes NOCHANGE_POIS); the rest are fixed
_SIZED = ("NOCHANGE_CAUCHY", "NOCHANGE_GAUSS", "NOCHANGE_POIS", "T1", "T2")

# exp-transformed twins share the base model's seed, draw and truth
_TRANSFORMED = {"MM_GAUSS_TR": "MM_GAUSS", "MM_POIS_TR": "MM_POIS"}


def list_models() -> tuple[str, ...]:
    """All known model ids, transformed variants included."""
    return tuple(sorted([*_GENERATORS, *_TRANSFORMED]))


def generate(spec: ModelSpec) -> Series:
    """Generate the series and ground truth for a benchmark model.

    Parameters
    ----------
    spec : ModelSpec
        Model id, seed and optional length/rate parameters.

    Returns
    -------
    Series
        The model's segments end to end, with the end of every segment but
        the last as the true change-point positions.

    A ``spec`` that is not a ``ModelSpec`` raises ``ValueError``.
    """
    if not isinstance(spec, ModelSpec):
        raise ValueError(f"spec must be a ModelSpec, got {type(spec).__name__}")
    if spec.model in _TRANSFORMED:
        base = generate(ModelSpec(_TRANSFORMED[spec.model], spec.seed))
        return Series(np.exp(base.values), base.truth)
    segments = _GENERATORS[spec.model](np.random.default_rng(spec.seed), spec)
    ends = tuple(accumulate(map(len, segments)))
    return Series(np.concatenate(segments), ends[:-1])


"""Seeded generators for the benchmark data sequences.

Every model is generated from a single ``numpy.random.default_rng`` (PCG64)
stream keyed by the seed, drawing segments left to right, so the same
(model, seed) pair reproduces bit-identical data on any platform running the
same numpy generation code. The ``*_TR`` models apply ``exp`` elementwise to
their base model drawn with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _alternating(levels, cps, length) -> np.ndarray:
    """Piecewise-constant signal over the segments defined by ``cps``."""
    edges = [0, *cps, length]
    out = np.empty(length)
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        out[a:b] = levels[i % len(levels)]
    return out


def _mean_plus_gauss(rng, means, cps, length):
    return _alternating(means, cps, length) + rng.standard_normal(length)


def _scaled_gauss(rng, sds, cps, length):
    return _alternating(sds, cps, length) * rng.standard_normal(length)


def _every(step: int, length: int) -> tuple[int, ...]:
    return tuple(int(c) for c in range(step, length, step))


def _gen_nc(rng, spec):
    return rng.standard_normal(500), ()


def _gen_m1(rng, spec):
    return _mean_plus_gauss(rng, [0.0, 1.0], [100], 200), (100,)


def _gen_v1(rng, spec):
    return _scaled_gauss(rng, [1.0, 2.0], [250], 500), (250,)


def _gen_d1(rng, spec):
    # Uniform(-3, 3) then Student-t3: same mean and variance, different shape.
    parts = [rng.uniform(-3.0, 3.0, 500), rng.standard_t(3, 500)]
    return np.concatenate(parts), (500,)


_MM_CPS = (100, 200, 300)
_MM_MEANS = (0.0, 1.0, -0.2, -1.3)


def _gen_mm_gauss(rng, spec):
    return _mean_plus_gauss(rng, _MM_MEANS, _MM_CPS, 400), _MM_CPS


def _gen_mm_student(rng, spec):
    signal = _alternating(_MM_MEANS, _MM_CPS, 400)
    return signal + rng.standard_t(3, 400), _MM_CPS


def _gen_mm_gauss2(rng, spec):
    cps = _every(80, 1600)
    return _mean_plus_gauss(rng, [0.0, 2.0], cps, 1600), cps


def _gen_mm_pois(rng, spec):
    # Poisson(1) noise added as drawn (not mean-centred); rank-based
    # detection is unaffected by the shared offset.
    signal = _alternating(_MM_MEANS, _MM_CPS, 400)
    return signal + rng.poisson(1.0, 400), _MM_CPS


def _gen_mv_gauss(rng, spec):
    sds = [1.0, 3.0, 1.2, math.sqrt(0.1)]
    return _scaled_gauss(rng, sds, [150, 350, 500], 600), (150, 350, 500)


def _gen_mv_gauss2(rng, spec):
    sds = [math.sqrt(v) for v in (10.0, 2.0, 0.3, 4.0, 20.0, 2.0)]
    cps = (200, 350, 550, 700, 900)
    return _scaled_gauss(rng, sds, cps, 1000), cps


def _gen_md1(rng, spec):
    # Three distributions sharing mean 1 and variance 1.
    parts = [
        rng.gamma(1.0, 1.0, 250),
        rng.poisson(1.0, 250).astype(float),
        rng.uniform(1.0 - _SQRT3, 1.0 + _SQRT3, 250),
    ]
    return np.concatenate(parts), (250, 500)


def _gen_md2(rng, spec):
    parts = [
        rng.standard_normal(100),
        rng.chisquare(1, 150),
        rng.standard_t(3, 100),
        rng.standard_normal(150) + 1.0,
    ]
    return np.concatenate(parts), (100, 250, 350)


def _gen_md3(rng, spec):
    parts = [
        rng.gamma(1.0, 1.0, 200),
        rng.chisquare(3, 300),
        rng.standard_normal(250) + 0.5,
        rng.standard_t(5, 250),
    ]
    return np.concatenate(parts), (200, 500, 750)


def _gen_t1(rng, spec):
    length = spec.length or 3000
    cps = _every(30, length)
    signal = _alternating([0.0, 4.0], cps, length)
    return signal + 0.5 * rng.standard_normal(length), cps


def _gen_t2(rng, spec):
    length = spec.length or 3000
    cps = _every(250, length)
    return _scaled_gauss(rng, [1.0, 2.0], cps, length), cps


def _gen_nochange_gauss(rng, spec):
    return rng.standard_normal(spec.length or 500), ()


def _gen_nochange_cauchy(rng, spec):
    return rng.standard_cauchy(spec.length or 500), ()


def _gen_nochange_pois(rng, spec):
    rate = 3.0 if spec.rate is None else spec.rate
    return rng.poisson(rate, spec.length or 500).astype(float), ()


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
        Values plus the model's true change-point positions.
    """
    if spec.model in _TRANSFORMED:
        base = generate(ModelSpec(_TRANSFORMED[spec.model], spec.seed))
        return Series(np.exp(base.values), base.truth)
    rng = np.random.default_rng(spec.seed)
    values, truth = _GENERATORS[spec.model](rng, spec)
    return Series(values, tuple(truth))


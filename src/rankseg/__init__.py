"""Rank-based multiple change-point detection via expanding-interval isolation.

The detector scans alternating right- and left-expanding intervals so that
each true change-point is examined, with high probability, in an interval
containing no other change-point, then tests the best split against a
``C * sqrt(log T)`` threshold on a mean-dominant norm of weighted ECDF
differences. An information-criterion pipeline (overestimate, order by
importance, select by a Schwarz-type criterion) removes the dependence on the
threshold constant. All statistics depend on the data only through ranks, so
results are invariant under strictly increasing transformations.
"""

from .contrast import (
    CusumTable,
    EvalPoints,
    Norm,
    Series,
    as_series,
    grid_points,
    norm_value,
)
from .detector import (
    DetectorConfig,
    Segmentation,
    StopRule,
    default_constant,
    detect,
    interval_sequences,
    threshold,
)
from .evaluation import Replication, StudyReport, hausdorff, largest_segment, replicate_study
from .selector import (
    BicResult,
    SolutionPath,
    bic_penalty,
    bic_select,
    detect_bic,
    overestimate,
    segment,
    solution_path,
    st_likelihood,
)
from .simulate import ModelSpec, generate, list_models

__version__ = "0.1.0"

__all__ = [
    "CusumTable",
    "EvalPoints",
    "Norm",
    "Series",
    "as_series",
    "grid_points",
    "norm_value",
    "DetectorConfig",
    "Segmentation",
    "StopRule",
    "default_constant",
    "detect",
    "interval_sequences",
    "threshold",
    "Replication",
    "StudyReport",
    "hausdorff",
    "largest_segment",
    "replicate_study",
    "BicResult",
    "SolutionPath",
    "bic_penalty",
    "bic_select",
    "detect_bic",
    "overestimate",
    "segment",
    "solution_path",
    "st_likelihood",
    "ModelSpec",
    "generate",
    "list_models",
    "__version__",
]

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

from . import contrast, detector, evaluation, selector, simulate
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
    overestimate,
    segment,
    solution_path,
    st_likelihood,
)
from .simulate import ModelSpec, generate, list_models

__version__ = "0.1.0"

# every module lists its public names once, and all of them are imported above
__all__ = [
    *contrast.__all__,
    *detector.__all__,
    *evaluation.__all__,
    *selector.__all__,
    *simulate.__all__,
    "__version__",
]

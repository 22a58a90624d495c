"""``segment`` outputs against a fixture recorded at an earlier commit.

``tests/data/golden_segment.json`` holds, for every case of ``CASES``, the
output of ``segment`` at seed 0. It was recorded at commit 77e6278 with::

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_segment.json

Its ``T1(3000)`` and ``T2(3000)`` lines were re-recorded with the same
command when the bic pipeline began to run per window (schema 5); the other
lines were kept as recorded.

The change-points, the solution path, ``chosen_j`` and
``intervals_evaluated`` must match exactly and every score within 1e-12
relative, so a change meant to keep the outputs (a speed-up, a refactor)
is checked here. A change meant to move them records the fixture again and
says why.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rankseg import DetectorConfig, ModelSpec, generate, segment

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_segment.json"

# the fixed-size models of the paper's study, as in the benchmark's paper-study
PAPER_MODELS = (
    "M1", "V1", "D1", "MM_GAUSS", "MM_STUDENT_T3", "MM_POIS", "MM_GAUSS_TR",
    "MV_GAUSS", "MV_GAUSS2", "MD1", "MD2", "MD3", "MM_GAUSS2", "NC",
)

# (model, length, norm, stop); T1(3000) and T2(3000) run in two windows
CASES = [
    *(
        (model, None, norm, stop)
        for model in PAPER_MODELS
        for norm in ("l1", "l2", "linf")
        for stop in ("threshold", "bic")
    ),
    ("T1", 3000, "linf", "bic"),
    ("T2", 3000, "linf", "bic"),
]

EXACT = ("changepoints", "intervals_evaluated", "solution_path", "chosen_j")
CLOSE = ("scores", "removal_scores", "bic_scores")


def case_id(model, length, norm, stop) -> str:
    name = model if length is None else f"{model}({length})"
    return f"{name}/{norm}/{stop}"


def output(model, length, norm, stop) -> dict:
    """The recorded fields of ``segment`` on ``model`` at seed 0."""
    series = generate(ModelSpec(model, 0, length=length))
    seg = segment(series, DetectorConfig(norm=norm, stop=stop))
    path, bic = seg.path, seg.bic
    return {
        "changepoints": list(seg.changepoints),
        "intervals_evaluated": seg.intervals_evaluated,
        "solution_path": None if path is None else list(path.ordered),
        "chosen_j": None if bic is None else bic.chosen_j,
        "scores": list(seg.scores),
        "removal_scores": None if path is None else list(path.removal_scores),
        "bic_scores": None if bic is None else list(bic.scores),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_holds_every_case(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_segment_matches_fixture(golden, case):
    want = golden[case_id(*case)]
    got = output(*case)
    for field in EXACT:
        assert got[field] == want[field], field
    for field in CLOSE:
        if want[field] is None:
            assert got[field] is None, field
        else:
            np.testing.assert_allclose(got[field], want[field], rtol=1e-12, atol=0, err_msg=field)


if __name__ == "__main__":
    rows = [f"{json.dumps(case_id(*case))}: {json.dumps(output(*case))}" for case in CASES]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")

"""Every Python file parses under the grammar of Python 3.10, the requires-python floor.

``ast.parse(..., feature_version=(3, 10))`` rejects syntax added after 3.10,
such as ``except*``; it does not check library calls added since. The CI
job that installs the oldest supported Python and numpy must pin the floors
``pyproject.toml`` declares.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos", "bench") for p in (ROOT / d).rglob("*.py"))


def test_files_found():
    assert {p.relative_to(ROOT).parts[0] for p in FILES} == {"src", "tests", "demos", "bench"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_on_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_newer_syntax_rejected():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_ci_floor_job_matches_declared_floors():
    # the CI job that runs the oldest supported Python and numpy must pin
    # what pyproject.toml declares; read with regexes, since tomllib is 3.11+
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    python = re.search(r'^requires-python = ">=(\d+\.\d+)"$', project, re.M).group(1)
    numpy = re.search(r'"numpy>=(\d+\.\d+)"', project).group(1)
    job = re.search(r'- python-version: "([\d.]+)"\n\s+numpy: "([\d.]+)\.\*"', workflow)
    assert job is not None, "no CI job pins a numpy floor"
    assert job.groups() == (python, numpy)
    matrix = re.search(r"^\s+python-version: \[(.*)\]$", workflow, re.M).group(1)
    assert f'"{python}"' in matrix.split(", ")

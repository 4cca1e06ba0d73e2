"""Every source file parses at the oldest Python that pyproject.toml accepts."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for folder in ("src", "tests", "demos", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
)


def python_floor() -> tuple:
    # tomllib is 3.11+, so the floor is read with a regex
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


def test_floor_is_declared():
    assert python_floor() >= (3, 10)
    assert len(SOURCES) > 20


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=python_floor())

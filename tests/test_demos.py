"""The scripts under demos/ run to completion, each in a real subprocess."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name,last_line", [
    ("canonical_images.py", "Image set equals the admissible set: True"),
    ("fusion_to_diagrams.py", "tau(1) = 1 + 3v^-2 + 3v^-4 + v^-6    tr(1) = v^3 + 3v + 3v^-1 + v^-3"),
])
def test_demo_runs(name, last_line):
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == last_line

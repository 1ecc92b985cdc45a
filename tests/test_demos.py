"""The demos run from a checkout and print the numbers they narrate."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvecount

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name, printed",
    [
        ("classical_counts.py", ["unmarked 80160", "26312976"]),
        ("elliptic_counts.py", ["52832040"]),
        ("divisor_classes.py", ["engine agrees: 62"]),
    ],
)
def test_demo_runs(name, printed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(curvecount.__file__).resolve().parent.parent)
    res = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env, timeout=120
    )
    assert res.returncode == 0, res.stderr
    for text in printed:
        assert text in res.stdout, (name, text)

"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion (the CLI ``qmanin verify`` prints the same lines).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmanin
from qmanin.acceptance import CRITERIA, run_criterion


@pytest.mark.parametrize("number,name",
                         [(num, name) for num, name, _ in CRITERIA],
                         ids=[f"{num:02d}-{name}" for num, name, _ in CRITERIA])
def test_criterion(number, name):
    result = run_criterion(number)
    print(result.line())
    assert result.passed, result.detail


def test_acceptance_pass_leaves_numpy_ma_unloaded():
    # numpy.ma costs about 15 ms on first import; nothing on this path needs it
    script = ("import sys, qmanin.cli\n"
              "from qmanin.acceptance import CRITERIA, run_criterion\n"
              "results = [run_criterion(num) for num, _, _ in CRITERIA]\n"
              "assert all(r.passed for r in results), [r.line() for r in results]\n"
              "assert 'numpy.ma' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qmanin.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr

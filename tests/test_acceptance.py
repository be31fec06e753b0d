"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion (the CLI ``qmanin verify`` prints the same lines).
"""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qmanin
from qmanin import acceptance, measure
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
    # a RuntimeWarning is an error in the child, as the suite makes it in process
    env = dict(os.environ, PYTHONPATH=str(Path(qmanin.__file__).parents[1]),
               PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _nan_entry(values, k):
    """``values`` as an array with entry k NaN."""
    out = np.array(values)
    out[k] = math.nan
    return out


def _nan_matrix(op):
    return SimpleNamespace(matrix=np.full(op.matrix.shape, math.nan))


# (criterion, module, production call, which call, its output made NaN): the
# NaN comes after finite deviations, where Python's max would drop it
_NAN_CASES = [
    (1, acceptance, "eigen_residual", 2, lambda r: r._replace(residual=math.nan)),
    (3, measure, "log_power_sums", 1, lambda out: _nan_entry(out, 3)),
    (5, acceptance, "norm_divergence_witness", 1,
     lambda wit: replace(wit, partial_sums=tuple(_nan_entry(wit.partial_sums, 4)))),
    (6, acceptance, "lower_symbol_grid", 2,
     lambda grid: replace(grid, values=_nan_entry(grid.values, 7))),
    (8, acceptance, "cs_transform", 2, lambda z: complex(math.nan, 0.0)),
    (9, acceptance, "secondary_toeplitz", 3, _nan_matrix),
    (10, acceptance, "evolve_state", 2, lambda st: replace(st, norm_sq=math.nan)),
    (12, acceptance, "toeplitz_matrix", 2, _nan_matrix),
]


@pytest.mark.parametrize("number, module, name, call, poison", _NAN_CASES,
                         ids=[f"{case[0]:02d}-{case[2]}" for case in _NAN_CASES])
def test_nan_deviation_fails_its_criterion(monkeypatch, number, module, name, call,
                                           poison):
    real, count = getattr(module, name), itertools.count(1)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return poison(out) if next(count) == call else out

    monkeypatch.setattr(module, name, patched)
    result = run_criterion(number)
    assert next(count) > call        # the poisoned call was made
    assert not result.passed, result.line()
    assert "nan" in result.detail

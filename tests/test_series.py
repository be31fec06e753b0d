import math

import numpy as np
import pytest

from qmanin.errors import ToleranceUnreachableError
from qmanin.series import SeriesDivergence, geometric_indexes, sum_series


def geometric_logmag(ratio):
    def fn(n0, n1):
        return np.arange(n0, n1) * math.log(ratio)
    return fn


def test_geometric_sum_and_certificate():
    res = sum_series(geometric_logmag(0.5), tol=1e-12)
    true = 2.0
    assert abs(res.float_value - true) <= 1e-12 * true
    # certificate covers the true remainder
    true_tail = 0.5 ** res.nterms / 0.5
    assert res.tail_bound >= 0.5 ** res.nterms
    assert res.tail_bound <= 1e-10 * true + true_tail * 10


def test_alternating_phases():
    def phase(n0, n1):
        return np.pi * np.arange(n0, n1)
    res = sum_series(geometric_logmag(0.25), phase_fn=phase, tol=1e-13)
    assert abs(res.float_value - 1 / (1 + 0.25)) < 1e-12


def test_divergence_growing_terms():
    with pytest.raises(SeriesDivergence):
        sum_series(geometric_logmag(1.5), tol=1e-10)


def test_divergence_constant_terms():
    # the boundary case: terms neither grow nor decay
    with pytest.raises(SeriesDivergence):
        sum_series(geometric_logmag(1.0), tol=1e-10)


def test_rise_then_fall_converges():
    # log-concave profile peaking near n = 230: must not be misread as
    # divergence while the terms are still climbing
    def fn(n0, n1):
        n = np.arange(n0, n1, dtype=float)
        return 2.3 * n - 0.005 * n * (n + 1)
    res = sum_series(fn, tol=1e-10)
    n = np.arange(res.nterms)
    direct = np.sum(np.exp(2.3 * n - 0.005 * n * (n + 1)))
    assert abs(res.float_value - direct) <= 1e-9 * direct


def test_finite_series_terminates_exactly():
    def fn(n0, n1):
        n = np.arange(n0, n1)
        out = np.where(n < 3, -float(n0 + 1), -np.inf)
        return out.astype(float)
    res = sum_series(fn, tol=1e-10)
    assert res.tail_bound == 0.0


def test_unreachable_tolerance():
    with pytest.raises(ToleranceUnreachableError):
        sum_series(geometric_logmag(0.999999), tol=1e-14, n_max=64)


def test_scale_handling_huge_terms():
    def fn(n0, n1):
        n = np.arange(n0, n1, dtype=float)
        return 900.0 - 5.0 * n          # peak term e^900 overflows a double
    res = sum_series(fn, tol=1e-12)
    assert res.log_scale > 600
    assert math.isclose(res.log_abs, 900.0 + math.log(1 / (1 - math.exp(-5.0))),
                        rel_tol=1e-12)


def test_geometric_indexes():
    idx = geometric_indexes(1, 10**6, 50)
    assert idx[0] == 1 and idx[-1] == 10**6
    assert np.all(np.diff(idx) > 0)
    assert geometric_indexes(5, 5, 10).tolist() == [5]
    # past int64 the points stay exact ints in [lo, hi]
    big = geometric_indexes(1, 10**21, 400)
    assert big[0] == 1 and big[-1] == 10**21
    assert all(type(n) is int for n in big) and np.all(np.diff(big) > 0)

import cmath
import math

import numpy as np
import pytest

from conftest import qgauss_table
from qmanin import series
from qmanin.coherent import _kernel_series, coeff_log_arrays, coherent_norm_sq, kernel
from qmanin.errors import OutsidePhaseSpaceError, ToleranceUnreachableError
from qmanin.kernels import csum_logpolar
from qmanin.series import (ROW_BLOCK, SeriesDivergence, SeriesResult, geometric_indexes,
                           sum_series, sum_series_rows)
from qmanin.weights import QParam, WeightSequence


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


# ---------------------------------------------------------------------------
# the one-series loop against its numpy bookkeeping
# ---------------------------------------------------------------------------

def _numpy_sum_series(logmag_fn, phase_fn=None, tol=1e-12, n_max=200_000):
    """``series.sum_series`` with its certificate kept in numpy arrays."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    acc = 0j
    scale = -math.inf
    max_logmag = -math.inf
    prev_tail = np.empty(0)
    n = 0
    while n < n_max:
        hi = min(n + series._CHUNK, n_max)
        lm = np.asarray(logmag_fn(n, hi), dtype=float)
        ph = (np.zeros(hi - n) if phase_fn is None
              else np.asarray(phase_fn(n, hi), dtype=float))
        if (lm == -np.inf).all() and n > 0:
            return SeriesResult(acc, scale, n, -math.inf)
        part, m = csum_logpolar(lm, ph)
        if m > -math.inf:
            new_scale = max(scale, m)
            acc = acc * math.exp(scale - new_scale) + part * math.exp(m - new_scale)
            scale = new_scale
            max_logmag = max(max_logmag, m)
        prev_tail = np.concatenate([prev_tail, lm])[-(series._KEEP + 1):]
        n = hi
        with np.errstate(invalid="ignore"):
            diffs = np.diff(prev_tail)
        diffs = diffs[~np.isnan(diffs)]
        if diffs.size < series._WINDOW:
            continue
        win = diffs[-series._WINDOW:]
        rho_log = float(np.max(win))
        trend_ok = bool(np.all(np.diff(win) <= 1e-12))
        last_lm = float(prev_tail[-1])
        if rho_log < series._RHO_CAP and trend_ok:
            rho = math.exp(rho_log)
            tail_log = last_lm + rho_log - math.log1p(-rho)
            log_sum = (math.log(abs(acc)) + scale) if acc != 0 else -math.inf
            if (tail_log <= math.log(tol) + log_sum
                    or tail_log <= max_logmag + series._NOISE):
                return SeriesResult(acc, scale, n, tail_log)
        if diffs.size >= series._DIV_WINDOW and last_lm > -math.inf:
            dwin = diffs[-series._DIV_WINDOW:]
            slack = 1e-12 * max(1.0, abs(last_lm))
            if np.all(dwin >= -slack) and np.all(np.diff(dwin) >= -slack):
                raise SeriesDivergence(
                    f"series terms stopped decaying after {n} terms", n)
    raise ToleranceUnreachableError(
        f"could not certify tail <= {tol:g} within {n_max} terms")


def _outcome(engine, *args, **kw):
    """Every bit of a result, or the error's type and message."""
    try:
        r = engine(*args, **kw)
    except (SeriesDivergence, ToleranceUnreachableError) as exc:
        return type(exc).__name__, str(exc)
    return ("SeriesResult", r.value.real.hex(), r.value.imag.hex(), r.log_scale.hex(),
            r.nterms, r.tail_log.hex())


def _same_as_numpy(logmag_fn, phase_fn, **kw):
    got = _outcome(sum_series, logmag_fn, phase_fn, **kw)
    assert got == _outcome(_numpy_sum_series, logmag_fn, phase_fn, **kw)
    return got[0]


_ORACLE_WEIGHTS = [
    WeightSequence.factorial(),
    WeightSequence.constant(),
    WeightSequence.power_factorial(2.0),
    WeightSequence.power_factorial(0.5),
    qgauss_table(1.5, 41),                  # horizon 40
]


def test_one_series_loop_is_bit_identical_to_numpy_bookkeeping():
    rng = np.random.default_rng(5)
    seen = set()
    for w in _ORACLE_WEIGHTS:
        n_max = 1000 if w.horizon is None else w.horizon + 1
        for q in (1.0, 0.8, cmath.exp(0.6j), 1.3, 0.5):
            qp = QParam.of(q)
            for tol in (1e-6, 1e-12, 1e-14):
                for radius in (0.3, 0.9, 1.1, 2.5, 6.0):
                    mu, lam = radius * np.exp(2j * math.pi * rng.uniform(0, 1, 2))
                    # K(mu, lam): the terms conj(a_n(mu)) a_n(lam)

                    def logmag(n0, n1, mu=mu, lam=lam):
                        return (coeff_log_arrays(mu, w, qp, n0, n1)[0]
                                + coeff_log_arrays(lam, w, qp, n0, n1)[0])

                    def phase(n0, n1, mu=mu, lam=lam):
                        return (coeff_log_arrays(lam, w, qp, n0, n1)[1]
                                - coeff_log_arrays(mu, w, qp, n0, n1)[1])

                    seen.add(_same_as_numpy(logmag, phase, tol=tol, n_max=n_max))
    assert seen == {"SeriesResult", "SeriesDivergence", "ToleranceUnreachableError"}


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-14])
def test_one_series_loop_matches_numpy_on_zero_terms_and_turns(tol):
    # zero terms (NaN ratios between them), finite series, alternating
    # signs and ratios that rise before they fall, cut at n_max = 1000;
    # the series that turns zero at n = 995 certifies on its last chunk
    # only when the NaN ratios after its last -inf ratio are dropped
    lgamma = np.vectorize(math.lgamma)
    kinds = [
        lambda n: np.where(n > 5, -np.inf, -0.5 * n),
        lambda n: np.where(n < 995, -0.001 * n, -np.inf),
        lambda n: np.where(n % 2 == 1, -np.inf, -0.5 * n),
        lambda n: np.where((n >= 7) & (n < 10), -np.inf, -0.3 * n),
        lambda n: np.where(n % 17 < 3, -np.inf, 0.0 * n),
        lambda n: n * math.log(30.0) - lgamma(n + 1),
        lambda n: 2.3 * n - 0.005 * n * (n + 1),
        lambda n: -3.0 * np.sqrt(n),
        lambda n: 900.0 - 5.0 * n,
    ]
    for kind in kinds:
        def logmag(n0, n1, kind=kind):
            return kind(np.arange(n0, n1, dtype=float))

        def phase(n0, n1):
            return math.pi * np.arange(n0, n1, dtype=float)

        for ph in (None, phase):
            _same_as_numpy(logmag, ph, tol=tol, n_max=1000)


# ---------------------------------------------------------------------------
# the row engine against the one-row path
# ---------------------------------------------------------------------------

def _agree(rows, one):
    """Same outcome per point: the same error, or the same term count and
    certificate with values within 1e-14 of the largest term."""
    assert len(rows) == len(one)
    for a, b in zip(rows, one):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
            continue
        assert (a.nterms, a.tail_log, a.log_scale) == (b.nterms, b.tail_log, b.log_scale)
        assert abs(a.value - b.value) <= 1e-14 * math.exp(b.log_scale - a.log_scale)


def _rows_and_single(logmag_rows, phase_rows, nrows, **kw):
    rows = sum_series_rows(logmag_rows, phase_rows, nrows, **kw)
    one = []
    for i in range(nrows):
        idx = np.array([i])
        try:
            one.append(sum_series(
                lambda n0, n1: logmag_rows(idx, n0, n1)[0],
                None if phase_rows is None else lambda n0, n1: phase_rows(idx, n0, n1)[0],
                **kw))
        except (SeriesDivergence, ToleranceUnreachableError) as exc:
            one.append(exc)
    return rows, one


def test_rows_finite_cut_divergent_and_unreachable_rows():
    # one row per kind, each kind repeated with a shifted constant term
    lgamma = np.vectorize(math.lgamma)
    kinds = [
        lambda n, k: n * math.log(0.5) - k,                       # geometric
        lambda n, k: np.where(n > 3 + k, -np.inf, -0.5 * n),      # finite
        lambda n, k: 0.0 * n - k,                                 # divergent
        lambda n, k: n * math.log(0.999999) - k,                  # too slow
        lambda n, k: -3.0 * np.sqrt(n) - k,                       # ratios rise
        lambda n, k: np.where(n % 2 == 1, -np.inf, -0.5 * n - k),  # every other
        lambda n, k: n * math.log(30.0) - lgamma(n + 1) - k,      # e^-30, alternating
        lambda n, k: 2.3 * n - 0.005 * n * (n + 1) - k,           # rise, then fall
        lambda n, k: np.where(n == 0, -k, n * math.log(0.99999) - 50 - k),
    ]
    kinds_n = len(kinds)

    def lm(rows, n0, n1):
        n = np.arange(n0, n1, dtype=float)
        return np.array([kinds[r % kinds_n](n, r // kinds_n) for r in rows])

    def ph(rows, n0, n1):
        return np.where(rows[:, None] % kinds_n == 6, math.pi, 0.0) * np.arange(n0, n1)

    rows, one = _rows_and_single(lm, ph, 5 * kinds_n, tol=1e-14, n_max=800)
    _agree(rows, one)
    assert [type(r).__name__ for r in rows[:kinds_n]] == [
        "SeriesResult", "SeriesResult", "SeriesDivergence",
        "ToleranceUnreachableError", "ToleranceUnreachableError",
        "ToleranceUnreachableError", "SeriesResult", "SeriesResult",
        "ToleranceUnreachableError"]
    assert rows[1].tail_bound == 0.0 and rows[1].nterms == 16
    # the sum cancels to e^-30, below the rounding of its largest term
    largest = math.exp(rows[6].log_scale)
    assert abs(rows[6].float_value - math.exp(-30.0)) <= 1e-13 * largest


def test_rows_drop_nan_ratios_like_one_row():
    # a run of 2 to 4 zero terms, starting at a different index per row,
    # puts -inf pairs and so NaN ratios into the window; they are dropped
    # per row, and the terms after the run certify the tail
    def lm(rows, n0, n1):
        n = np.arange(n0, n1, dtype=float)
        start = 3 + rows[:, None] % 20
        gap = (n >= start) & (n < start + 2 + rows[:, None] % 3)
        return np.where(gap, -np.inf, -0.3 * n - 0.01 * rows[:, None])

    rows, one = _rows_and_single(lm, None, 60, tol=1e-12, n_max=2000)
    _agree(rows, one)
    assert all(isinstance(r, SeriesResult) for r in rows)


def test_rows_span_blocks():
    base = np.linspace(-6.0, 1.6, ROW_BLOCK + 37)

    def lm(rows, n0, n1):
        n = np.arange(n0, n1, dtype=float)
        return n * base[rows, None] - np.array([math.lgamma(k + 1) for k in range(n0, n1)])

    def ph(rows, n0, n1):
        return np.arange(n0, n1, dtype=float) * base[rows, None]

    rows = sum_series_rows(lm, ph, base.size, tol=1e-13)
    for i in (0, ROW_BLOCK - 1, ROW_BLOCK, base.size - 1):
        res = rows[i]
        want = np.exp(np.exp(base[i]) * np.exp(1j * base[i]))
        assert abs(res.float_value - want) <= 1e-12 * abs(want)


_FAMILIES = [
    (WeightSequence.factorial(), 1.0, 3.0),
    (WeightSequence.factorial(), 0.8, 3.0),
    (WeightSequence.factorial(), cmath.exp(1j * math.pi / 5), 3.0),
    (WeightSequence.constant(), 1.0, 1.3),            # |lambda| > 1 diverges
    (WeightSequence.constant(2.0), 0.9 * cmath.exp(0.4j), 1.3),
    (WeightSequence.power_factorial(2.0), 1.0, 6.0),
    (WeightSequence.power_factorial(0.5), 0.95, 1.5),
    (WeightSequence.explicit([math.factorial(n) for n in range(12)]), 1.0, 2.0),
]


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
@pytest.mark.parametrize("w, q, radius", _FAMILIES)
def test_kernel_rows_match_single_points(w, q, radius, tol):
    rng = np.random.default_rng(17)
    lam = radius * rng.uniform(0, 1, 60) * np.exp(2j * math.pi * rng.uniform(0, 1, 60))
    mu = radius * rng.uniform(0, 1, 60) * np.exp(2j * math.pi * rng.uniform(0, 1, 60))
    lam[:3] = 0.0
    mu[5] = 0.0
    qp = QParam.of(q)
    for series, a, b in (("norm", lam, lam), ("kernel", mu, lam)):
        a, b = a.tolist(), b.tolist()
        rows = _kernel_series(a, b, w, qp, tol, series=series)
        one = [_kernel_series([x], [y], w, qp, tol, series=series)[0]
               for x, y in zip(a, b)]
        _agree(rows, one)
    if w.kind == "explicit":
        # the short table caps every series at its horizon
        assert any(isinstance(r, ToleranceUnreachableError) for r in rows)


def test_mixed_grid_raises_the_first_failing_points_error():
    w = WeightSequence.constant()
    lam = np.array([0.5, 0.0, 0.9j, 1.2, 0.3, 1.5 + 1j])
    with pytest.raises(OutsidePhaseSpaceError) as grid:
        coherent_norm_sq(lam, w, 1.0)
    with pytest.raises(OutsidePhaseSpaceError) as alone:
        coherent_norm_sq(1.2, w, 1.0)
    assert str(grid.value) == str(alone.value) and grid.value.series == "norm"
    # a short table: the tolerance error of the first point past its reach
    table = WeightSequence.explicit([math.factorial(n) for n in range(9)])
    with pytest.raises(ToleranceUnreachableError, match="within 9 terms"):
        kernel(1.0, np.array([0.1, 1.5, 2.0]), table, 1.0)
    # a point that is not finite fails in its turn
    with pytest.raises(OutsidePhaseSpaceError):
        kernel(1.0, np.array([0.5, 2.0, np.inf]), w, 1.0)

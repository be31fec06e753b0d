import cmath
import math

import numpy as np
import pytest

from conftest import qgauss_table
from qmanin import coherent, series
from qmanin.coherent import _kernel_series, coeff_log_arrays, coherent_norm_sq, kernel
from qmanin.errors import OutsidePhaseSpaceError, ToleranceUnreachableError
from qmanin.kernels import csum_logpolar
from qmanin.series import ROW_BLOCK, SeriesResult, sum_series, sum_series_rows
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
    assert math.exp(res.tail_log) >= 0.5 ** res.nterms
    assert math.exp(res.tail_log) <= 1e-10 * true + true_tail * 10


def test_alternating_phases():
    def phase(n0, n1):
        return np.pi * np.arange(n0, n1)
    res = sum_series(geometric_logmag(0.25), phase_fn=phase, tol=1e-13)
    assert abs(res.float_value - 1 / (1 + 0.25)) < 1e-12


# the engine decides no divergence: a diverging series is one that n_max
# terms cannot certify, and the phase space is the caller's to decide

def test_divergence_growing_terms():
    with pytest.raises(ToleranceUnreachableError, match="within 256 terms"):
        sum_series(geometric_logmag(1.5), tol=1e-10, n_max=256)


def test_divergence_constant_terms():
    # the boundary case: terms neither grow nor decay
    with pytest.raises(ToleranceUnreachableError, match="within 256 terms"):
        sum_series(geometric_logmag(1.0), tol=1e-10, n_max=256)


def test_rise_then_fall_converges():
    # log-concave profile peaking near n = 230: summed past the climb
    def fn(n0, n1):
        n = np.arange(n0, n1, dtype=float)
        return 2.3 * n - 0.005 * n * (n + 1)
    res = sum_series(fn, tol=1e-10)
    n = np.arange(res.nterms)
    direct = np.sum(np.exp(2.3 * n - 0.005 * n * (n + 1)))
    assert abs(res.float_value - direct) <= 1e-9 * direct


def test_unreachable_tolerance():
    with pytest.raises(ToleranceUnreachableError):
        sum_series(geometric_logmag(0.999999), tol=1e-14, n_max=64)


def test_scale_handling_huge_terms():
    def fn(n0, n1):
        n = np.arange(n0, n1, dtype=float)
        return 900.0 - 5.0 * n          # peak term e^900 overflows a double
    res = sum_series(fn, tol=1e-12)
    assert res.log_scale > 600
    assert math.isclose(math.log(abs(res.value)) + res.log_scale, 900.0 + math.log(1 / (1 - math.exp(-5.0))),
                        rel_tol=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
def test_tolerance_must_be_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        sum_series(geometric_logmag(0.5), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        sum_series_rows(lambda rows, n0, n1: np.zeros((len(rows), n1 - n0)),
                        lambda rows, n0, n1: np.zeros((len(rows), n1 - n0)), 2, tol=tol)


# ---------------------------------------------------------------------------
# the one-series loop against its numpy bookkeeping
# ---------------------------------------------------------------------------

def _numpy_sum_series(logmag_fn, phase_fn=None, tol=1e-12, n_max=200_000):
    """``series.sum_series`` with its certificate kept in numpy arrays, and
    exp, log1p, log and |.| (as hypot) taken from numpy, as both engines
    take them."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    acc = 0j
    scale = -math.inf
    prev_tail = np.empty(0)
    n = 0
    while n < n_max:
        hi = min(n + series._CHUNK, n_max)
        lm = np.asarray(logmag_fn(n, hi), dtype=float)
        ph = (np.zeros(hi - n) if phase_fn is None
              else np.asarray(phase_fn(n, hi), dtype=float))
        part, m = csum_logpolar(lm, ph)
        new_scale = max(scale, m)
        acc = (acc * float(np.exp(scale - new_scale))
               + part * float(np.exp(m - new_scale)))
        scale = new_scale
        prev_tail = np.concatenate([prev_tail, lm])[-(series._WINDOW + 1):]
        n = hi
        win = np.diff(prev_tail)
        if win.size < series._WINDOW:
            continue
        rho_log = float(np.max(win))
        trend_ok = bool(np.all(np.diff(win) <= 1e-12))
        last_lm = float(prev_tail[-1])
        if rho_log < series._RHO_CAP and trend_ok:
            rho = float(np.exp(rho_log))
            tail_log = last_lm + rho_log - float(np.log1p(-rho))
            log_sum = (float(np.log(np.hypot(acc.real, acc.imag))) + scale
                       if acc != 0 else -math.inf)
            if (tail_log <= math.log(tol) + log_sum
                    or tail_log <= scale + series._NOISE):
                return SeriesResult(acc, scale, n, tail_log)
    raise ToleranceUnreachableError(
        f"could not certify tail <= {tol:g} within {n_max} terms")


def _outcome(engine, *args, **kw):
    """Every bit of a result, or the error's type and message."""
    try:
        r = engine(*args, **kw)
    except ToleranceUnreachableError as exc:
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
    assert seen == {"SeriesResult", "ToleranceUnreachableError"}


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-14])
def test_one_series_loop_matches_numpy_on_turns(tol):
    # alternating signs, ratios that rise before they fall and terms past a
    # double, cut at n_max = 1000
    lgamma = np.vectorize(math.lgamma)
    kinds = [
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

def _bits(res):
    """Every bit of a result, or the error's type and message."""
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return (res.value.real.hex(), res.value.imag.hex(), res.log_scale.hex(),
            res.nterms, res.tail_log.hex())


def _agree(rows, one):
    """Same outcome per point, bit for bit: the same error, or the same
    value, scale, term count and certificate."""
    assert list(map(_bits, rows)) == list(map(_bits, one))


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
        except ToleranceUnreachableError as exc:
            one.append(exc)
    return rows, one


def test_rows_finite_cut_divergent_and_unreachable_rows():
    # one row per kind, each kind repeated with a shifted constant term
    lgamma = np.vectorize(math.lgamma)
    kinds = [
        lambda n, k: n * math.log(0.5) - k,                       # geometric
        lambda n, k: 0.0 * n - k,                                 # divergent
        lambda n, k: n * math.log(0.999999) - k,                  # too slow
        lambda n, k: -3.0 * np.sqrt(n) - k,                       # ratios rise
        lambda n, k: n * math.log(30.0) - lgamma(n + 1) - k,      # e^-30, alternating
        lambda n, k: 2.3 * n - 0.005 * n * (n + 1) - k,           # rise, then fall
        lambda n, k: np.where(n == 0, -k, n * math.log(0.99999) - 50 - k),
        # a slow rise and fall, whose rescale factors include exponents where
        # numpy's exp and libm's differ in the last bit
        lambda n, k: 0.2 * n - 0.001 * n * (n + 1) - k,
    ]
    kinds_n = len(kinds)

    def lm(rows, n0, n1):
        n = np.arange(n0, n1, dtype=float)
        return np.array([kinds[r % kinds_n](n, r // kinds_n) for r in rows])

    def ph(rows, n0, n1):
        return np.where(rows[:, None] % kinds_n == 4, math.pi, 0.0) * np.arange(n0, n1)

    rows, one = _rows_and_single(lm, ph, 5 * kinds_n, tol=1e-14, n_max=800)
    _agree(rows, one)
    assert [type(r).__name__ for r in rows[:kinds_n]] == [
        "SeriesResult", "ToleranceUnreachableError", "ToleranceUnreachableError",
        "ToleranceUnreachableError", "SeriesResult", "SeriesResult",
        "ToleranceUnreachableError", "SeriesResult"]
    # the sum cancels to e^-30, below the rounding of its largest term
    largest = math.exp(rows[4].log_scale)
    assert abs(rows[4].float_value - math.exp(-30.0)) <= 1e-13 * largest


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
    # the Hardy space, which production takes in closed form; summed here,
    # |mu| |lambda| >= 1 gets the cap's refusal before any term is summed
    (WeightSequence.constant(), 1.0, 1.3),
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


# ---------------------------------------------------------------------------
# a series whose phases all vanish is summed as a real series, bit for bit
# ---------------------------------------------------------------------------

def _with_zero_phases(engine, rows, took_real):
    """``engine`` handed the all-zero phases of a complex sum where its
    caller passes none; ``took_real`` records whether it passed none."""
    def run(logmag_fn, phase_fn, *args, **kw):
        took_real.append(phase_fn is None)
        if phase_fn is None:
            phase_fn = ((lambda r, n0, n1: np.zeros((len(r), n1 - n0))) if rows
                        else (lambda n0, n1: np.zeros(n1 - n0)))
        return engine(logmag_fn, phase_fn, *args, **kw)
    return run


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-14])
@pytest.mark.parametrize("q", [1.0, 0.8, cmath.exp(0.6j), 1.3, 0.5])
@pytest.mark.parametrize("w", _ORACLE_WEIGHTS,
                         ids=["factorial", "constant", "pf2", "pf0.5", "qgauss"])
def test_real_series_are_the_complex_series_bit_for_bit(monkeypatch, w, q, tol):
    rng = np.random.default_rng(11)
    lam = [r * cmath.exp(2j * math.pi * rng.uniform()) for r in (0.3, 0.9, 1.1, 2.5, 6.0)]
    # the diagonal, kernels at equal arguments (halving keeps the argument
    # exact) and a Δarg of -0.0
    pairs = [(x, x) for x in lam] + [(0.5 * x, x) for x in lam]
    pairs.append((complex(1.0, 0.0), complex(1.0, -0.0)))
    qp = QParam.of(q)

    def single():
        return [_kernel_series([m], [x], w, qp, tol, n_max=1000)[0] for m, x in pairs]

    def outcomes():
        return single() + _kernel_series(*zip(*pairs), w, qp, tol, n_max=1000)

    # a pair outside a rule's phase space, or one whose terms still grow at
    # the term cap, is refused before any term is summed; every other pair
    # is summed once alone, and once among the rows
    alone = []

    def counted(*args, **kwargs):
        alone.append(1)
        return series.sum_series(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(coherent, "sum_series", counted)
        single()
    summed = len(alone)
    real = outcomes()
    took_real = []
    monkeypatch.setattr(coherent, "sum_series",
                        _with_zero_phases(series.sum_series, False, took_real))
    monkeypatch.setattr(coherent, "sum_series_rows",
                        _with_zero_phases(series.sum_series_rows, True, took_real))
    assert list(map(_bits, outcomes())) == list(map(_bits, real))
    assert took_real == [True] * (summed + (summed > 0))


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0, -5.0])
@pytest.mark.parametrize("q", [1.0, 0.9999, cmath.exp(0.31950650216738913j),
                               0.99 * cmath.exp(2.0j), 0.9])
def test_the_cap_refusal_takes_no_point_the_engine_certifies(monkeypatch, s, q):
    # points on both sides of where the last log-ratio the engine reaches,
    # at n_max = 1000, meets the certificate's cap: a point refused before
    # summing gets no value from the engine either, and every other point
    # keeps the engine's bits.  For s < 0 the log-ratios rise, then fall;
    # at q = 1 such a rule has R = 0 and every point is outside.  At tol
    # 1e6 the engine certifies a point as soon as a window of ratios below
    # the cap is not increasing, which is what the refusal rules out
    w, qp, last = WeightSequence("power-factorial", s=s), QParam(q), 999
    edge = series._RHO_CAP - 2 * last * qp.log_abs + s * math.log(last)
    steps = (-0.5, -1e-2, -1e-4, -1e-9, 0.0, 1e-9, 1e-4, 1e-2, 0.5)
    pts = [cmath.rect(math.exp(0.5 * (edge + d)), 0.3 * i) for i, d in enumerate(steps)]

    def outcomes(tol):
        return [_kernel_series([p], [p], w, qp, tol, n_max=1000)[0] for p in pts]

    for tol in (1e-12, 1e6):
        early = outcomes(tol)
        with monkeypatch.context() as m:
            m.setattr(coherent, "never_certified", lambda *args: False)
            summed = outcomes(tol)
        for e, t in zip(early, summed):
            if isinstance(e, ToleranceUnreachableError):
                assert not isinstance(t, SeriesResult)
            else:
                assert _bits(e) == _bits(t)

    def engine(*args, **kwargs):
        raise AssertionError("a series was summed")

    # well past the slack, every point is refused before a term is summed
    monkeypatch.setattr(coherent, "sum_series", engine)
    for p, d in zip(pts, steps):
        if d >= 1e-4:
            refusal, = _kernel_series([p], [p], w, qp, 1e-12, n_max=1000)
            assert isinstance(refusal, (ToleranceUnreachableError, OutsidePhaseSpaceError))

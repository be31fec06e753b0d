"""Adaptive summation of log-polar power series with certified tails.

Every infinite sum in the library (coherent norms, reproducing kernels,
domain tests) is a series whose term magnitudes are cheap to produce in
log form.  The engine sums chunks, watches the ratio trend of the term
magnitudes, and stops once the geometric tail bound

    sum_{n >= N} |t_n|  <=  |t_{N-1}| * rho / (1 - rho),   rho = max tail ratio,

drops below the requested relative tolerance.  The bound is certified
under the observed trend: the last window of magnitude ratios must be
below one and non-increasing, which holds for every weight family shipped
here (log-convex weights with |q| <= 1) and is checked, not assumed.

Divergence is reported when term magnitudes stop decaying and their
growth rate is not shrinking; that is the numerical signature of a point
outside the phase space.

``sum_series`` sums one series.  Its terms and chunk sums are numpy; the
certificate's bookkeeping (the window of log-ratios, the trend and
divergence tests, the tail bound) runs on Python floats, a few dozen per
chunk, with the same IEEE double subtractions and comparisons numpy would
take.  ``sum_series_rows`` sums many series as the rows of one array, in
blocks of ``ROW_BLOCK`` rows: every row follows the same rule with its own
certificate and retires as soon as it is decided.  A row's chunk sums come
from the same numpy kernel as in ``sum_series``, its rescaling is taken
with the same libm arithmetic and its stop test is the same
``_certified_tail``, so a grid point gets the term count and certificate
it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from .errors import ToleranceUnreachableError
from .kernels import csum_logpolar

_CHUNK = 16
_WINDOW = 12
_DIV_WINDOW = 64
_KEEP = max(_WINDOW, _DIV_WINDOW)   # log-ratios a chunk's tests look back on
_RHO_CAP = math.log(0.9999)   # ratios must sit below this to certify a tail
_NOISE = math.log(1e-17)      # tail below the summation's own rounding floor
ROW_BLOCK = 1024              # rows summed together; bounds the memory of a grid


class SeriesDivergence(ArithmeticError):
    """Raised internally; callers translate to OutsidePhaseSpaceError."""

    def __init__(self, message, nterms):
        super().__init__(message)
        self.nterms = nterms


def bound_from_log(log_bound: float) -> float:
    """exp(log_bound), or ``math.inf`` where a bound overflows a double
    (its log-domain form remains meaningful)."""
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


@dataclass
class SeriesResult:
    """Scaled sum: the true value is ``value * exp(log_scale)``."""

    value: complex
    log_scale: float
    nterms: int
    tail_log: float

    @property
    def float_value(self) -> complex:
        if self.value == 0:
            return 0j
        try:
            scale = math.exp(self.log_scale)
        except OverflowError:
            # directed infinity, avoiding 0 * inf = nan components
            return complex(
                math.copysign(math.inf, self.value.real) if self.value.real else 0.0,
                math.copysign(math.inf, self.value.imag) if self.value.imag else 0.0)
        return self.value * scale

    @property
    def tail_bound(self) -> float:
        return bound_from_log(self.tail_log)

    @property
    def log_abs(self) -> float:
        return math.log(abs(self.value)) + self.log_scale if self.value != 0 else -math.inf


def sum_series(logmag_fn, phase_fn=None, tol: float = 1e-12,
               n_max: int = 200_000) -> SeriesResult:
    """Sum ``exp(logmag(n)) * e^{i phase(n)}`` over n >= 0 adaptively.

    ``logmag_fn(n0, n1)`` and ``phase_fn(n0, n1)`` produce per-index arrays
    for ``n0 <= n < n1``.  Raises :class:`SeriesDivergence` when the terms
    visibly diverge and :class:`ToleranceUnreachableError` when ``n_max``
    terms cannot certify the tail.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    log_tol = math.log(tol)
    acc = 0j
    scale = -math.inf
    max_logmag = -math.inf
    # the certificate's bookkeeping runs on Python floats: each subtraction
    # and comparison is the IEEE double operation numpy would take
    ratios = []         # log-ratios of the last _KEEP + 1 terms, NaN kept
    last_lm = None      # log magnitude of the last term summed
    n = 0
    while n < n_max:
        hi = min(n + _CHUNK, n_max)
        lm = np.asarray(logmag_fn(n, hi), dtype=float)
        ph = (np.zeros(hi - n) if phase_fn is None
              else np.asarray(phase_fn(n, hi), dtype=float))
        new = lm.tolist()

        # exact termination: an all-zero chunk means the series is finite
        if n > 0 and new.count(-math.inf) == len(new):
            return SeriesResult(acc, scale, n, -math.inf)

        part, m = csum_logpolar(lm, ph)
        if m > -math.inf:
            new_scale = max(scale, m)
            acc = acc * math.exp(scale - new_scale) + part * math.exp(m - new_scale)
            scale = new_scale
            max_logmag = max(max_logmag, m)

        if last_lm is not None:
            ratios.append(new[0] - last_lm)
        ratios.extend(map(sub, new[1:], new))
        del ratios[:-_KEEP]
        last_lm = new[-1]
        n = hi

        # NaN ratios (pairs of zero terms) are dropped
        diffs = [d for d in ratios if d == d]
        if len(diffs) < _WINDOW:
            continue
        win = diffs[-_WINDOW:]

        # tail certificate: ratios below one and not increasing
        rho_log = max(win)
        if rho_log < _RHO_CAP and all(b - a <= 1e-12 for a, b in zip(win, win[1:])):
            tail_log = _certified_tail(last_lm, rho_log, log_tol, acc, scale, max_logmag)
            if tail_log is not None:
                return SeriesResult(acc, scale, n, tail_log)

        # divergence: magnitudes not decaying and growth rate not shrinking;
        # the slack scales with the log magnitude (rounding of n*c grows with n)
        if len(diffs) >= _DIV_WINDOW and last_lm > -math.inf:
            dwin = diffs[-_DIV_WINDOW:]
            slack = 1e-12 * max(1.0, abs(last_lm))
            if (all(d >= -slack for d in dwin)
                    and all(b - a >= -slack for a, b in zip(dwin, dwin[1:]))):
                raise SeriesDivergence(
                    f"series terms stopped decaying after {n} terms", n)

    raise ToleranceUnreachableError(
        f"could not certify tail <= {tol:g} within {n_max} terms")


def _certified_tail(last_lm, rho_log, log_tol, acc, scale, max_logmag):
    """log of the tail bound |t_last| * rho/(1 - rho), taken with libm, when
    it certifies the sum acc * exp(scale) to relative ``exp(log_tol)`` or
    sits below the summation's rounding floor; otherwise None."""
    tail_log = last_lm + rho_log - math.log1p(-math.exp(rho_log))
    log_sum = (math.log(abs(acc)) + scale) if acc != 0 else -math.inf
    if tail_log <= log_tol + log_sum or tail_log <= max_logmag + _NOISE:
        return tail_log
    return None


def sum_series_rows(logmag_fn, phase_fn, nrows: int, tol: float = 1e-12,
                    n_max: int = 200_000) -> list:
    """Sum ``nrows`` series as the rows of one array, each by the rule of
    :func:`sum_series`.

    ``logmag_fn(rows, n0, n1)`` and ``phase_fn(rows, n0, n1)`` produce
    ``(len(rows), n1 - n0)`` arrays for the rows indexed by ``rows``.
    Returns, per row, its :class:`SeriesResult` or the exception
    (:class:`SeriesDivergence`, :class:`ToleranceUnreachableError`) that
    :func:`sum_series` raises on that row alone.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    out = [None] * nrows
    for start in range(0, nrows, ROW_BLOCK):
        rows = np.arange(start, min(start + ROW_BLOCK, nrows))
        _sum_block(rows, logmag_fn, phase_fn, math.log(tol), n_max, out)
    return [ToleranceUnreachableError(
                f"could not certify tail <= {tol:g} within {n_max} terms")
            if r is None else r for r in out]


def _sum_block(rows, logmag_fn, phase_fn, log_tol, n_max, out) -> None:
    """Rows of one block in lockstep; a decided row leaves every array."""
    acc = np.zeros(rows.size, dtype=complex)
    scale = np.full(rows.size, -np.inf)
    max_logmag = np.full(rows.size, -np.inf)
    tail = np.empty((rows.size, 0))       # the last 65 log magnitudes
    n = 0
    while n < n_max and rows.size:
        hi = min(n + _CHUNK, n_max)
        lm = np.asarray(logmag_fn(rows, n, hi), dtype=float)
        ph = (np.zeros(lm.shape) if phase_fn is None
              else np.asarray(phase_fn(rows, n, hi), dtype=float))

        # exact termination: an all-zero chunk means the series is finite
        if n > 0:
            cut = (lm == -np.inf).all(axis=1)
            if cut.any():
                for i in np.flatnonzero(cut):
                    out[rows[i]] = SeriesResult(complex(acc[i]), float(scale[i]),
                                                n, -math.inf)
                keep = ~cut
                rows, acc, scale, max_logmag, tail, lm, ph = (
                    a[keep] for a in (rows, acc, scale, max_logmag, tail, lm, ph))

        part, m = csum_logpolar(lm, ph)
        new_scale = np.maximum(scale, m)
        live = m > -np.inf
        with np.errstate(invalid="ignore"):
            acc = np.where(live, acc * _libm_exp(scale - new_scale)
                           + part * _libm_exp(m - new_scale), acc)
        scale = np.where(live, new_scale, scale)
        max_logmag = np.maximum(max_logmag, m)

        tail = np.concatenate([tail, lm], axis=1)[:, -(_KEEP + 1):]
        n = hi
        with np.errstate(invalid="ignore"):
            diffs = np.diff(tail, axis=1)
        nan = np.isnan(diffs)
        if nan.any():
            # drop NaN ratios (pairs of -inf): the valid ones move to the
            # end of each row, in order.  A row left with fewer valid ratios
            # than a window keeps a NaN in it, and every test below is
            # false on NaN: such a row neither certifies nor diverges.
            diffs = np.take_along_axis(
                diffs, np.argsort(~nan, axis=1, kind="stable"), axis=1)
        if diffs.shape[1] < _WINDOW:
            continue
        win = diffs[:, -_WINDOW:]
        last_lm = tail[:, -1]

        # tail certificate: ratios below one and not increasing.  numpy's
        # exp and log pick the rows whose tail may be small enough; each of
        # them is decided with the libm arithmetic of sum_series, so a row
        # stops where it stops alone and records the same certificate
        rho_log = win.max(axis=1)
        trend_ok = (np.diff(win, axis=1) <= 1e-12).all(axis=1)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            approx = last_lm + rho_log - np.log1p(-np.exp(rho_log))
            bound = np.maximum(log_tol + np.log(np.abs(acc)) + scale, max_logmag + _NOISE)
            far = approx > bound + 1e-9 * (1.0 + np.abs(bound))
        done = np.zeros(rows.size, dtype=bool)
        for i in np.flatnonzero((rho_log < _RHO_CAP) & trend_ok & ~far):
            a, s = complex(acc[i]), float(scale[i])
            tail_log = _certified_tail(float(last_lm[i]), float(rho_log[i]), log_tol,
                                       a, s, float(max_logmag[i]))
            if tail_log is not None:
                out[rows[i]] = SeriesResult(a, s, n, tail_log)
                done[i] = True

        # divergence: magnitudes not decaying and growth rate not shrinking
        diverged = np.zeros(rows.size, dtype=bool)
        if diffs.shape[1] >= _DIV_WINDOW:
            dwin = diffs[:, -_DIV_WINDOW:]
            slack = (1e-12 * np.maximum(1.0, np.abs(last_lm)))[:, None]
            diverged = (~done & (last_lm > -np.inf)
                        & (dwin >= -slack).all(axis=1)
                        & (np.diff(dwin, axis=1) >= -slack).all(axis=1))

        decided = done | diverged
        if not decided.any():
            continue
        for i in np.flatnonzero(diverged):
            out[rows[i]] = SeriesDivergence(
                f"series terms stopped decaying after {n} terms", n)
        keep = ~decided
        rows, acc, scale, max_logmag, tail = (
            a[keep] for a in (rows, acc, scale, max_logmag, tail))


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """exp of every entry with libm's rounding, as ``sum_series`` takes it
    (numpy's vectorized exp may differ in the last bit)."""
    out = np.ones(x.shape)
    idx = np.flatnonzero(x != 0)
    out[idx] = [math.exp(v) for v in x[idx].tolist()]
    return out


def geometric_indexes(lo: int, hi: int, count: int) -> np.ndarray:
    """Unique integer sample points, geometrically spaced on [lo, hi], as an
    object array of Python ints: a horizon may lie beyond int64."""
    if hi <= lo:
        return np.array([lo], dtype=object)
    pts = np.geomspace(float(lo), float(hi), num=count)
    return np.array(sorted({min(hi, max(lo, round(float(x)))) for x in pts}),
                    dtype=object)

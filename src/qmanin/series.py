"""Adaptive summation of log-polar power series with certified tails.

Every infinite sum in the library (coherent norms, reproducing kernels)
is a series whose term magnitudes are cheap to produce in log form, but
two: at |q| = 1 the kernel and the norm are e^{conj(mu) lam} / (c scale)
in Bargmann's space (w_n = c n!) and 1 / (c scale (1 - conj(mu) lam)) in
the Hardy space (w_n = c), which ``coherent`` takes in closed form, with
no truncation for ``tol`` to bound; the coherent states and lower symbols
there take their truncation from the closed form too, at a multiple of
the engine's chunk.
The engine sums chunks, watches the ratio trend of the term magnitudes,
and stops once the geometric tail bound

    sum_{n >= N} |t_n|  <=  |t_{N-1}| * rho / (1 - rho),   rho = max tail ratio,

drops below the requested relative tolerance.  The bound is certified
under the observed trend: the last window of magnitude ratios must be
below one and non-increasing.  For the rule family w_n = c * (n!)**s with
s >= 0 and |q| <= 1 that premise holds for the whole series, since log w_n
is convex.  For an explicit table it is only checked on the window, so a
table whose ratios rise again past the window (one small w_n) can be
certified short of its sum.

The engines decide no divergence: whether a point lies in the phase space
is a property of (w, q), which ``coherent`` decides before it sums.  A
series that ``n_max`` terms cannot certify, diverging or not, is a
``ToleranceUnreachableError``.

``sum_series`` sums one series.  Its terms and chunk sums are numpy; the
certificate's bookkeeping (the window of log-ratios and the trend test)
runs on Python floats, a dozen per chunk, with the same IEEE double
subtractions and comparisons numpy would take.
``sum_series_rows`` sums many series as the rows of one array, in blocks
of ``ROW_BLOCK`` rows: every row follows the same rule with its own
certificate, all rows are decided in one vectorized step per chunk, and a
row retires as soon as it is decided.  Both engines take their chunk sums
from the same numpy kernel, and their rescale factors, tail bounds
(``_tail_log``) and log|S| from the same numpy ufuncs, whose results on a
float and on an array are the same double; so a grid point gets the bits,
term count and certificate it would get alone.  libm's exp and log1p
round differently from numpy's, which is why neither engine takes them.

A series whose phases all vanish (every squared norm, and a kernel at
points of equal argument) comes with ``phase_fn`` None and is summed as
a real series: ``csum_logpolar`` sums its magnitudes, with imaginary part
+0.0.  That is bit for bit the complex sum, since cos 0 = 1 multiplies a
magnitude exactly and 0 * magnitude sums to +0.0, without the cosines and
sines of zero.

Every log magnitude the engines receive is finite: their only caller,
``coherent._kernel_series``, sums no zero term, and ``WeightSequence``
refuses a log weight past the double range.  No chunk is checked for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from .errors import ToleranceUnreachableError
from .kernels import csum_logpolar
from .weights import SERIES_CAP

_CHUNK = 16
_WINDOW = 12                  # log-ratios a chunk's certificate looks back on
_RHO_CAP = math.log(0.9999)   # ratios must sit below this to certify a tail
_NOISE = math.log(1e-17)      # tail below the summation's own rounding floor
ROW_BLOCK = 1024              # rows summed together; bounds the memory of a grid


def checked_log_tol(tol: float) -> float:
    """log tol, for a relative tolerance ``tol`` that must be positive."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    return math.log(tol)


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


def sum_series(logmag_fn, phase_fn=None, tol: float = 1e-12,
               n_max: int = SERIES_CAP) -> SeriesResult:
    """Sum ``exp(logmag(n)) * e^{i phase(n)}`` over n >= 0 adaptively.

    ``logmag_fn(n0, n1)`` and ``phase_fn(n0, n1)`` produce per-index arrays
    for ``n0 <= n < n1``; ``phase_fn`` None sums a real series.  Raises
    :class:`ToleranceUnreachableError` when ``n_max`` terms cannot certify
    the tail.
    """
    log_tol = checked_log_tol(tol)
    acc = 0j
    scale = -math.inf
    # the certificate's bookkeeping runs on Python floats: each subtraction
    # and comparison is the IEEE double operation numpy would take
    ratios = []         # log-ratios of the last _WINDOW + 1 terms
    last_lm = None      # log magnitude of the last term summed
    n = 0
    while n < n_max:
        hi = min(n + _CHUNK, n_max)
        lm = np.asarray(logmag_fn(n, hi), dtype=float)
        ph = None if phase_fn is None else phase_fn(n, hi)
        new = lm.tolist()

        part, m = csum_logpolar(lm, ph)
        new_scale = max(scale, m)
        acc = acc * _factor(scale - new_scale) + part * _factor(m - new_scale)
        scale = new_scale

        if last_lm is not None:
            ratios.append(new[0] - last_lm)
        ratios.extend(map(sub, new[1:], new))
        del ratios[:-_WINDOW]
        last_lm = new[-1]
        n = hi

        if len(ratios) < _WINDOW:
            continue

        # tail certificate: ratios below one and not increasing
        rho_log = max(ratios)
        if rho_log < _RHO_CAP and max(map(sub, ratios[1:], ratios)) <= 1e-12:
            tail_log = float(_tail_log(last_lm, rho_log))
            # |S| = hypot(re, im), as _sum_block takes it; hypot(x, 0) is |x|
            # exactly (C99 Annex F), which spares a real series the call
            mag = np.hypot(acc.real, acc.imag) if acc.imag else abs(acc.real)
            log_sum = float(np.log(mag)) + scale if mag else -math.inf
            if tail_log <= log_tol + log_sum or tail_log <= scale + _NOISE:
                return SeriesResult(acc, scale, n, tail_log)

    raise unreachable(tol, n_max)


def unreachable(tol: float, n_max: int) -> ToleranceUnreachableError:
    """The refusal of a series that ``n_max`` terms cannot certify to ``tol``."""
    return ToleranceUnreachableError(
        f"could not certify tail <= {tol:g} within {n_max} terms")


def never_certified(last_log_ratio: float, size: float) -> bool:
    """Whether no window can certify a series whose log-ratios, in exact
    arithmetic, are non-increasing, or rise and then fall, down to
    ``last_log_ratio`` at the last index summed, each the difference of two
    log magnitudes whose parts sum to at most ``size`` in modulus.  A
    log-ratio as the engines take it is off by a few u times ``size``; the
    slack 1e-12 max(1, size) covers that, so every ratio past the rise
    stays at or above the cap ``_RHO_CAP`` that a certified window must
    stay below, and a window on the rise has increasing ratios, which the
    trend test refuses."""
    return last_log_ratio - 1e-12 * max(1.0, size) >= _RHO_CAP


def _factor(x: float) -> float:
    """numpy's exp of the rescale exponent ``x`` of ``sum_series``, as
    ``_sum_block`` takes it on an array; exp(0) = 1 and exp(-inf) = 0 need
    no call."""
    if x == 0.0:
        return 1.0
    if x == -math.inf:
        return 0.0
    return float(np.exp(x))


def _tail_log(last_lm, rho_log):
    """log of the geometric tail bound |t_last| * rho / (1 - rho), with
    rho = exp(rho_log), of one series (floats) or of rows (arrays)."""
    return last_lm + rho_log - np.log1p(-np.exp(rho_log))


def sum_series_rows(logmag_fn, phase_fn, nrows: int, tol: float = 1e-12,
                    n_max: int = SERIES_CAP) -> list:
    """Sum ``nrows`` series as the rows of one array, each by the rule of
    :func:`sum_series`.

    ``logmag_fn(rows, n0, n1)`` and ``phase_fn(rows, n0, n1)`` produce
    ``(len(rows), n1 - n0)`` arrays for the rows indexed by ``rows``;
    ``phase_fn`` None sums real series.
    Returns, per row, its :class:`SeriesResult` or the
    :class:`ToleranceUnreachableError` that :func:`sum_series` raises on
    that row alone.
    """
    log_tol = checked_log_tol(tol)
    out = [None] * nrows
    for start in range(0, nrows, ROW_BLOCK):
        rows = np.arange(start, min(start + ROW_BLOCK, nrows))
        _sum_block(rows, logmag_fn, phase_fn, log_tol, n_max, out)
    return [unreachable(tol, n_max) if r is None else r for r in out]


def _sum_block(rows, logmag_fn, phase_fn, log_tol, n_max, out) -> None:
    """Rows of one block in lockstep; a decided row leaves every array."""
    acc = np.zeros(rows.size, dtype=complex)
    scale = np.full(rows.size, -np.inf)
    tail = np.empty((rows.size, 0))       # the last 13 log magnitudes
    n = 0
    while n < n_max and rows.size:
        hi = min(n + _CHUNK, n_max)
        lm = np.asarray(logmag_fn(rows, n, hi), dtype=float)
        ph = None if phase_fn is None else phase_fn(rows, n, hi)

        part, m = csum_logpolar(lm, ph)
        new_scale = np.maximum(scale, m)
        acc = acc * np.exp(scale - new_scale) + part * np.exp(m - new_scale)
        scale = new_scale

        tail = np.concatenate([tail, lm], axis=1)[:, -(_WINDOW + 1):]
        n = hi
        win = np.diff(tail, axis=1)
        if win.shape[1] < _WINDOW:
            continue
        last_lm = tail[:, -1]

        # tail certificate: ratios below one and not increasing, decided for
        # every row at once; the bound of a row with rho_log >= 0 is nan or
        # inf, and no row past the cap reads its bound
        rho_log = win.max(axis=1)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            tail_log = _tail_log(last_lm, rho_log)
            log_sum = np.log(np.hypot(acc.real, acc.imag)) + scale
        done = ((rho_log < _RHO_CAP) & (np.diff(win, axis=1) <= 1e-12).all(axis=1)
                & ((tail_log <= log_tol + log_sum) | (tail_log <= scale + _NOISE)))
        if not done.any():
            continue
        for i in np.flatnonzero(done):
            out[rows[i]] = SeriesResult(complex(acc[i]), float(scale[i]), n,
                                        float(tail_log[i]))
        keep = ~done
        rows, acc, scale, tail = (a[keep] for a in (rows, acc, scale, tail))

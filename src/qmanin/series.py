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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceUnreachableError
from .kernels import csum_logpolar

_CHUNK = 16
_WINDOW = 12
_DIV_WINDOW = 64
_RHO_CAP = math.log(0.9999)   # ratios must sit below this to certify a tail
_NOISE = math.log(1e-17)      # tail below the summation's own rounding floor


class SeriesDivergence(ArithmeticError):
    """Raised internally; callers translate to OutsidePhaseSpaceError."""

    def __init__(self, message, nterms):
        super().__init__(message)
        self.nterms = nterms


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
        if self.tail_log == -math.inf:
            return 0.0
        try:
            return math.exp(self.tail_log)
        except OverflowError:
            # absolute tail overflows a double (the sum itself is larger
            # still); the log-domain certificate remains meaningful
            return math.inf

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
    acc = 0j
    scale = -math.inf
    max_logmag = -math.inf
    prev_tail = np.empty(0)
    n = 0
    while n < n_max:
        hi = min(n + _CHUNK, n_max)
        lm = np.asarray(logmag_fn(n, hi), dtype=float)
        ph = (np.zeros(hi - n) if phase_fn is None
              else np.asarray(phase_fn(n, hi), dtype=float))

        # exact termination: an all-zero chunk means the series is finite
        finite_cut = lm == -np.inf
        if finite_cut.all() and n > 0:
            return SeriesResult(acc, scale, n, -math.inf)

        part, m = csum_logpolar(lm, ph)
        if m > -math.inf:
            new_scale = max(scale, m)
            acc = acc * math.exp(scale - new_scale) + part * math.exp(m - new_scale)
            scale = new_scale
            max_logmag = max(max_logmag, m)

        joined = np.concatenate([prev_tail, lm])
        keep = max(_WINDOW, _DIV_WINDOW) + 1
        prev_tail = joined[-keep:]
        n = hi

        with np.errstate(invalid="ignore"):
            diffs = np.diff(prev_tail)
        diffs = diffs[~np.isnan(diffs)]
        if diffs.size < _WINDOW:
            continue
        win = diffs[-_WINDOW:]

        # tail certificate: ratios below one and not increasing
        rho_log = float(np.max(win))
        trend_ok = bool(np.all(np.diff(win) <= 1e-12))
        last_lm = float(prev_tail[-1])
        if rho_log < _RHO_CAP and trend_ok:
            # log of |t_last| * rho/(1-rho)
            rho = math.exp(rho_log)
            tail_log = last_lm + rho_log - math.log1p(-rho)
            log_sum = (math.log(abs(acc)) + scale) if acc != 0 else -math.inf
            if (tail_log <= math.log(tol) + log_sum
                    or tail_log <= max_logmag + _NOISE):
                return SeriesResult(acc, scale, n, tail_log)

        # divergence: magnitudes not decaying and growth rate not shrinking;
        # the slack scales with the log magnitude (rounding of n*c grows with n)
        if diffs.size >= _DIV_WINDOW and last_lm > -math.inf:
            dwin = diffs[-_DIV_WINDOW:]
            slack = 1e-12 * max(1.0, abs(last_lm))
            if np.all(dwin >= -slack) and np.all(np.diff(dwin) >= -slack):
                raise SeriesDivergence(
                    f"series terms stopped decaying after {n} terms", n)

    raise ToleranceUnreachableError(
        f"could not certify tail <= {tol:g} within {n_max} terms")


def geometric_indexes(lo: int, hi: int, count: int) -> np.ndarray:
    """Unique integer sample points, geometrically spaced on [lo, hi], as an
    object array of Python ints: a horizon may lie beyond int64."""
    if hi <= lo:
        return np.array([lo], dtype=object)
    pts = np.geomspace(float(lo), float(hi), num=count)
    return np.array(sorted({min(hi, max(lo, round(float(x)))) for x in pts}),
                    dtype=object)

"""Coherent states, phase-space radius, kernels and the transform.

A coherent state phi_lambda is the eigenvector of the annihilation
operator with eigenvalue lambda; its basis coefficients are

    a_n = lambda^n * q^{n(n+1)/2} * w_n^{-1/2},

and ``coeff_log_arrays`` is their one home.  The reproducing kernel
K(mu, lambda) = sum_n conj(a_n(mu)) a_n(lambda) is one certified series,
and the squared norm ||phi_lambda||^2 is its diagonal K(lambda, lambda),
which the norm, the truncation of phi_lambda and the transform's domain
check sum.  At |q| exactly 1 two rules give closed forms
(``_closed_kernel``): w_n = c n! gives Bargmann's space, whose kernel is
e^{conj(mu) lam} / (c scale), and constant weights w_n = c give the Hardy
space of the unit disk, whose kernel is the Szego kernel
1 / (c scale (1 - conj(mu) lam)).  ``kernel`` and ``coherent_norm_sq``
take those closed forms per point, and so does the transform's domain
check; a truncation there takes its cutoff, tail bound and retained norm
from the closed form too (``_closed_truncations``).  One private core,
``_coefficient_rows``, builds truncated coherent states for a block of
points from the closed form or the sum: one state, a lower symbol and a
grid of lower symbols all go through it.

The q power grows quadratically in the exponent, so coefficients are kept
in log-polar form (log-magnitude plus phase) and every norm or inner
product is evaluated through max-log rescaling.  Truncation indices carry
a certified tail bound, from the series engine or the closed form.  The
kernel's terms have phase n * (arg lambda - arg mu), which vanishes on the
diagonal and wherever the two arguments are equal; there the series is
summed as a real series, bit for bit the complex one.  The phase-space
radius of a rule is its closed form, by which a point outside it is
refused before any term is summed; a table's is estimated from its
entries.
``eigen_residual`` reads its annihilation band q^{-k} (w_k / w_{k-1})^{1/2}
from ``WeightSequence.annihilation_band``, which keeps the band of the last
q on the weights object, so states of one (w, q) share one band.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import partial
from numbers import Number
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (ConfigError, InputTooLargeError, OutsidePhaseSpaceError,
                     ToleranceUnreachableError)
from .kernels import csum_logpolar
from .series import (_CHUNK, _NOISE, SeriesDivergence, SeriesResult, bound_from_log,
                     checked_log_tol, never_certified, sum_series, sum_series_rows,
                     unreachable)
from .weights import SERIES_CAP, QParam, WeightSequence


def _tri(n: np.ndarray) -> np.ndarray:
    return 0.5 * n * (n + 1.0)


def _checked(lam) -> complex:
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ConfigError(f"lambda must be finite, got {lam!r}")
    if math.hypot(lam.real, lam.imag) == math.inf:
        raise InputTooLargeError(f"the point {lam!r} has a modulus past the double range")
    return lam


def coeff_log_arrays(lam, w: WeightSequence, q: QParam,
                     n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """(log|a_n|, arg a_n) for n0 <= n < n1 at eigenvalue ``lam``; for a
    sequence of eigenvalues, one row per point."""
    pts = [lam] if isinstance(lam, Number) else [complex(z) for z in lam]
    n = np.arange(n0, n1, dtype=float)
    tri = _tri(n)
    lw = w.log_weights(n0, n1)
    logr = np.array([math.log(abs(z)) if z else 0.0 for z in pts])[:, None]
    # atan2, as QParam.arg: cmath.phase raises where atan2 underflows
    arg = np.array([math.atan2(z.imag, z.real) for z in pts])[:, None]
    logmag = n * logr + tri * q.log_abs - 0.5 * lw
    phase = n * arg + tri * q.arg
    zero = [z == 0 for z in pts]
    if any(zero):
        # at lambda = 0 only a_0 = w_0^{-1/2} survives
        logmag[zero] = np.where(n == 0, -0.5 * lw, -np.inf)
        phase[zero] = 0.0
    if isinstance(lam, Number):
        return logmag[0], phase[0]
    return logmag, phase


def _kernel_series(mu, lam, w: WeightSequence, q: QParam, tol: float,
                   n_max: int = SERIES_CAP, series: str = "norm") -> list:
    """Certified sums of K(mu, lam) = sum_n conj(a_n(mu)) a_n(lam) at the
    points of the equal-length sequences mu and lam, capped at the weight
    horizon.

    Returns, per point, its SeriesResult or the error it raises: a
    ConfigError for a point that is not finite, an OutsidePhaseSpaceError
    carrying ``series`` ("norm" on the diagonal) where the series diverges
    (the point lies outside the phase space), a ToleranceUnreachableError.
    A point with mu = 0 or lam = 0 is the single term 1/w_0.  Under a rule
    of radius R < inf (``_rule_radius``), a point with |mu| |lam| >= R^2 is
    refused before any term is summed, by the InputTooLargeError of a log
    weight past a double within ``n_max`` terms if there is one.  Under a
    rule with s >= 0 and |q| <= 1 the log-ratio of terms n and n - 1,
    b + 2n log|q| - s log n with b = log|mu| + log|lam|, does not increase
    with n, so a point whose last one, at n = n_max - 1, leaves no window
    certifiable (``never_certified``) is refused before any term is summed
    with the ToleranceUnreachableError the engine would raise at ``n_max``.
    One remaining point is summed by ``sum_series``, more as the rows of one
    array.
    """
    if w.horizon is not None:
        n_max = min(n_max, w.horizon + 1)
    radius = math.inf if w.table is not None else _rule_radius(w, q)
    last = n_max - 1
    if w.table is None and w.s >= 0 and q.log_abs <= 0 and last > 0:
        # the last log-ratio less b, and the moduli of the parts of
        # log|t_last| summed, less last |b|
        rest = 2 * last * q.log_abs - w.s * math.log(last)
        size = (-last * (last + 1.0) * q.log_abs + w.s * math.lgamma(last + 1)
                + abs(math.log(w.c)) + abs(math.log(w.scale)))
    else:
        rest = None
    out, live, base, dphase = [], [], [], []
    for m, l in zip(mu, lam):
        try:
            m, l = _checked(m), _checked(l)
        except ConfigError as exc:
            out.append(exc)
            continue
        if m == 0 or l == 0:
            out.append(SeriesResult(1.0 / w.weight(0) + 0j, 0.0, 1, -math.inf))
            continue
        b = math.log(abs(m)) + math.log(abs(l))
        if radius == 0.0 or (radius == 1.0 and b >= 0.0):
            try:        # a rule's |log w_n| grows with n: the last decides
                w.log_weight(n_max - 1)
                out.append(_outside(m, l, series))
            except InputTooLargeError as exc:
                out.append(exc)
            continue
        if rest is not None and never_certified(b + rest, last * abs(b) + size):
            checked_log_tol(tol)    # a bad tol is refused as the engines refuse it
            out.append(unreachable(tol, n_max))
            continue
        live.append(len(out))
        out.append((m, l))
        base.append(b)
        dphase.append(math.atan2(l.imag, l.real) - math.atan2(m.imag, m.real))
    if not live:
        return out

    base, dphase = np.array(base), np.array(dphase)

    def logmag_fn(rows, n0, n1):
        n = np.arange(n0, n1, dtype=float)
        # n (n + 1) = 2 tri(n) exactly: both are n (n + 1) rounded once
        return n * base[rows, None] + n * (n + 1.0) * q.log_abs - w.log_weights(n0, n1)

    def phase_fn(rows, n0, n1):
        return np.arange(n0, n1, dtype=float) * dphase[rows, None]

    # every phase n * 0 vanishes, on the diagonal and wherever arg mu = arg
    # lam: such series are summed as real series, bit for bit the complex sum
    phases = phase_fn if dphase.any() else None
    if len(live) == 1:
        # row 0 alone: an integer row index gives the 1-D terms of one series
        try:
            sums = [sum_series(partial(logmag_fn, 0),
                               None if phases is None else partial(phases, 0),
                               tol=tol, n_max=n_max)]
        except (SeriesDivergence, ToleranceUnreachableError) as exc:
            sums = [exc]
    else:
        sums = sum_series_rows(logmag_fn, phases, len(live), tol=tol, n_max=n_max)

    for i, res in zip(live, sums):
        if isinstance(res, SeriesDivergence):
            err = _outside(*out[i], series)
            err.__cause__ = res
            res = err
        out[i] = res
    return out


def is_segal_bargmann(w: WeightSequence, q: QParam) -> bool:
    """Whether (w, q) gives Bargmann's space: a rule w_n = c n! (s = 1) at
    |q| exactly 1.0, the exact test ``_rule_radius`` takes.  Its kernel is
    e^{conj(mu) lam} / (c scale) and its measure the radial Gaussian; at
    any other |q|, however close, the q powers |q|^{n(n+1)} remain."""
    return w.table is None and w.s == 1.0 and q.abs == 1.0


def _closed_form_space(w: WeightSequence, q: QParam) -> bool:
    """Whether K(mu, lam) has a closed form for (w, q): a rule at |q|
    exactly 1.0 with s = 1, Bargmann's space (``is_segal_bargmann``), or
    with s = 0, constant weights, the Hardy space of the unit disk."""
    return w.table is None and w.s in (0.0, 1.0) and q.abs == 1.0


def _closed_kernel(mu, lam, w: WeightSequence, tol: float, series: str) -> list:
    """K(mu, lam) in a closed-form space (``_closed_form_space``), as the
    outcomes ``_kernel_series`` gives: per point a SeriesResult or its
    error, a ConfigError for a point that is not finite (an
    InputTooLargeError for a modulus past a double); a point with mu = 0 or
    lam = 0 is 1/w_0.  With z = conj(mu) lam, the value is e^z / w_0 in
    Bargmann's space (s = 1) and the Szego kernel 1 / ((1 - z) w_0) in the
    Hardy space (s = 0), where a point with |z| >= 1 is refused with the
    OutsidePhaseSpaceError of ``series``.  No term is summed, so there is
    no truncation error and ``tol`` need only be positive.

    Bargmann's space.  z is formed as the series takes its phases, from
    r = |mu| |lam| and the difference d = atan2(lam) - atan2(mu):
    Re z = r cos d and Im z = r sin d, +0.0 where d = 0, so such a value is
    real.  A product r past a double is taken as the largest double; e^z is
    then past a double or below its least either way.  The value is
    SeriesResult(e^{i Im z}, Re z - log w_0).float_value: an e^z past a
    double is a directed infinity.

    Rounding, with u = 2^-53 and hypot, atan2, cos, sin, exp and log each
    within one ulp: r is off by at most 5u r, and d by at most 12u (two
    arguments of at most pi and their difference, below 8), so z is off
    by at most (5 + 12 + 2 sqrt 2 + 1) u r < 21u |z|.  Re z - log w_0 adds
    u (|z| + |log w_0|), log w_0 = log(c scale) (c = 1 at s = 1) another
    2u |log w_0|, and exp, cos, sin and the final product at most 6u.  To
    first order the relative error is at most

        24 u (|z| + |log(c scale)| + 1).

    The Hardy space.  ``_szego`` gives 1 / (1 - z) with each part
    correctly rounded, from exact integer arithmetic on the doubles mu and
    lam, and decides |z| >= 1 exactly: a plain 1 - z would carry the
    rounding of z, some u |z|, into a value of size 1 / |1 - z|, and a log
    test log|mu| + log|lam| >= 0 misplaces points within its rounding of
    the circle.  The value is SeriesResult(1 / (1 - z), -log w_0)
    .float_value.  Rounding: 1 / (1 - z) is off by at most u in norm, as
    each part is; log w_0 = log c + log scale by at most
    3u (|log c| + |log scale|) (two logs within one ulp and their sum);
    exp adds 2u and the final product u.  To first order the relative
    error is at most

        4 u (1 + |log c| + |log scale|),

    with no term in 1 / |1 - z|: near the circle the value keeps the
    accuracy it has at the origin.
    """
    out, live, log_w0 = [], False, w.log_weight(0)
    for m, l in zip(mu, lam):
        try:
            m, l = _checked(m), _checked(l)
        except ConfigError as exc:
            out.append(exc)
            continue
        if m == 0 or l == 0:
            out.append(SeriesResult(1.0 / w.weight(0) + 0j, 0.0, 1, -math.inf))
            continue
        if w.s:
            r = min(abs(m) * abs(l), sys.float_info.max)
            d = math.atan2(l.imag, l.real) - math.atan2(m.imag, m.real)
            im = r * math.sin(d) if d else 0.0
            value, log_mag = complex(math.cos(im), math.sin(im)), r * math.cos(d)
        else:
            value, log_mag = _szego(m, l), 0.0
            if value is None:
                out.append(_outside(m, l, series))
                continue
        live = True
        out.append(SeriesResult(value, log_mag - log_w0, 0, -math.inf))
    if live:        # a bad tol is refused where the engines would sum a point
        checked_log_tol(tol)
    return out


def _szego(m: complex, l: complex) -> Optional[complex]:
    """1 / (1 - conj(m) l), each part correctly rounded, or None where
    |conj(m) l| >= 1, decided exactly.

    Each part of a point is an integer over a power of two, so m is
    (a + ib) / dm and l is (c + id) / dl in integers, dm and dl the larger
    denominators of their parts.  Then conj(m) l = (P + iQ) / D with
    D = dm dl, |conj(m) l| >= 1 exactly when P^2 + Q^2 >= D^2, and
    1 / (1 - conj(m) l) = D (R + iQ) / (R^2 + Q^2) with R = D - P.
    Python's integer division rounds each part once.  On the diagonal
    Q = 0, so the test is P >= D, the value D / R and its imaginary part
    +0.0."""
    (a, dm), (b, db) = m.real.as_integer_ratio(), m.imag.as_integer_ratio()
    if dm < db:
        a, dm = a * (db // dm), db
    else:
        b *= dm // db
    if l == m:
        D, P = dm * dm, a * a + b * b
        return None if P >= D else complex(D / (D - P), 0.0)
    (c, dl), (d, dd) = l.real.as_integer_ratio(), l.imag.as_integer_ratio()
    if dl < dd:
        c, dl = c * (dd // dl), dd
    else:
        d *= dl // dd
    D = dm * dl
    P = a * c + b * d
    Q = a * d - b * c
    if P * P + Q * Q >= D * D:
        return None
    R = D - P
    N = R * R + Q * Q
    return complex(R * D / N, Q * D / N)


def _closed_truncations(pts: list, w: WeightSequence, tol: float) -> list:
    """The truncations of the coherent states at ``pts`` in a closed-form
    space (``_closed_form_space``), as the outcomes ``_kernel_series``
    gives on the diagonal, with no term summed: per point a SeriesResult
    whose ``nterms`` is the cutoff N, ``tail_log`` the log of a bound on
    the tail sum_{n >= N} |a_n|^2 and value the retained norm K - tail, or
    the point's error.  K and every refusal but the cap's come from
    ``_closed_kernel`` on the diagonal, whose point lam = 0 is the single
    term 1/w_0; the cap's ToleranceUnreachableError is raised where N
    would pass SERIES_CAP.

    With l = |lam|^2 and K = K(lam, lam), the tail is exactly l^N K in the
    Hardy space, and in Bargmann's space, for N + 1 > l, at most
    t_N / (1 - l/(N+1)), with t_N / K = e^{-l} l^N / N!.  N is the first
    multiple of the engine's chunk, at least one chunk, where the tail is
    at most ``tol`` times the retained norm, or at most 1e-17 times the
    largest term (the summed certificate's rounding floor).  Bargmann's
    space steps chunk by chunk from ceil(l/16) 16; the Hardy space starts
    at the chunk below log(tol/(1+tol)) / log l, one or two steps from N.

    Against the summed cutoff.  In the Hardy space the engine's geometric
    bound is the exact tail l^N K too, and it stops at the same multiple.
    In Bargmann's space the engine bounds the tail more loosely but
    against the retained sum itself, where the closed form bounds it by
    K less its own bound.  On 400 points with l log-uniform up to 2e5 and
    each tol from 1e-14 to 0.01 the engine stopped at the same multiple
    or one chunk later.  From tol 0.1 and large l the closed form can
    stop later instead: at tol 0.3 one chunk, on 17 of those 400 points,
    all past l = 4e4, and at tol 0.5 up to two.  So a point whose summed
    cutoff is SERIES_CAP itself can be refused with the cap's
    ToleranceUnreachableError: at tol 0.3, l from 199,544 to 199,554.

    Rounding, with u = 2^-53.  In Bargmann's space l = r r, r = |lam|, is
    within 3u l and log l = 2 log r within 2u (1 + |log l|); lgamma(N+1)
    is within 5u of it relative on the integers up to SERIES_CAP (sampled
    against mpmath), and log1p(-x), x = l/(N+1), within 2u x / (1 - x)
    <= 2u (l + 1) plus u of its own size, as N >= l.  With ``size`` the
    sum of the moduli l, N |log l|, lgamma(N+1) and |log1p(-x)|, which is
    at least N, the log of the bound is within some 20u size.  In the Hardy
    space 1 / (1 - l) is ``_szego``'s, correctly rounded; log l is within
    5u |log l|, from log1p(-(1 - l)) for l >= 1/2 and from 2 log r below,
    so N log l is within 6u size, size = N |log l|.  The log tail fraction
    reported is the computed one plus 1e-12 max(1, size), 400 times either
    error, and it is compared with max(-log1p(1/tol), log of the largest
    term's fraction + log 1e-17), each within some 4u of its own size,
    which the slack also exceeds, since a certified fraction's size is at
    least the threshold's modulus.  So the reported tail bounds the true
    one and is at most ``tol`` times the retained norm reported, both to
    first order in u.
    """
    out = []
    # log(tol / (1 + tol)); a bad tol is refused by _closed_kernel at any
    # point that gets here
    thr_tol = -math.log1p(1.0 / tol) if tol > 0 else None
    for lam, res in zip(pts, _closed_kernel(pts, pts, w, tol, "norm")):
        if isinstance(res, Exception) or res.nterms:    # a refusal, or lam = 0
            out.append(res)
            continue
        # K = k e^{log_scale}: k = 1 in Bargmann's space, 1 / (1 - l) in the
        # Hardy space
        k, r = res.value.real, abs(complex(lam))
        l = r * r
        if w.s:
            if not l < SERIES_CAP:
                out.append(unreachable(tol, SERIES_CAP))
                continue
            log_l, peak = 2.0 * math.log(r), math.floor(l)
            thr = max(thr_tol, peak * log_l - l - math.lgamma(peak + 1.0) + _NOISE)
            n = max(_CHUNK, math.ceil(l / _CHUNK) * _CHUNK)
        else:
            log_l = math.log1p(-1.0 / k) if k >= 2.0 else 2.0 * math.log(r)
            thr = max(thr_tol, -math.log(k) + _NOISE)
            n = max(_CHUNK, math.floor(thr / log_l / _CHUNK) * _CHUNK)
        while n <= SERIES_CAP:
            frac = _log_tail_fraction(n, l, log_l, w.s)
            if frac <= thr:
                break
            n += _CHUNK
        else:
            out.append(unreachable(tol, SERIES_CAP))
            continue
        out.append(SeriesResult(complex(-math.expm1(frac) * k), res.log_scale, n,
                                frac + math.log(k) + res.log_scale))
    return out


def _log_tail_fraction(n: int, l: float, log_l: float, s: float) -> float:
    """log of the bound on the tail after n terms over K that
    ``_closed_truncations`` reports, with its rounding slack: n log l in
    the Hardy space (s = 0), and in Bargmann's space (s = 1, n + 1 > l)
    n log l - l - lgamma(n+1) - log1p(-l/(n+1))."""
    if s:
        g, x = math.lgamma(n + 1.0), -math.log1p(-l / (n + 1))
        size = l + n * abs(log_l) + g + x
        return n * log_l - l - g + x + 1e-12 * max(1.0, size)
    frac = n * log_l
    return frac + 1e-12 * max(1.0, -frac)


def _kernel_values(mu, lam, w: WeightSequence, q: QParam, tol: float,
                   series: str, n_max: int = SERIES_CAP) -> list:
    """The SeriesResults of K at the points of mu and lam: in closed form in
    Bargmann's and the Hardy space, else summed by ``_kernel_series`` with
    at most ``n_max`` terms."""
    if _closed_form_space(w, q):
        return _settled(_closed_kernel(mu, lam, w, tol, series))
    return _settled(_kernel_series(mu, lam, w, q, tol, n_max, series))


def _outside(m: complex, l: complex, series: str) -> OutsidePhaseSpaceError:
    where = (f"lambda = {l}: |lambda| is outside the phase space for "
             f"these weights and q" if series == "norm"
             else f"(mu, lambda) = ({m}, {l})")
    return OutsidePhaseSpaceError(f"{series} series diverges at {where}", series=series)


def _settled(outcomes: list) -> list:
    """The SeriesResults of ``_kernel_series``; the first point's error is
    raised, as a point-by-point loop would raise it."""
    for res in outcomes:
        if isinstance(res, Exception):
            raise res
    return outcomes


@dataclass(frozen=True)
class CoherentStateVector:
    """Truncated phi_lambda in log-polar coefficient storage.

    ``logmag[n]`` and ``phase[n]`` describe a_n for n = 0..N; ``tail_log``
    is the log of the certified bound on the discarded mass
    sum_{n>N} |a_n|^2 and ``norm_sq`` is the retained sum_{n<=N} |a_n|^2
    (in Bargmann's and the Hardy space the closed-form norm less the tail
    bound, so within the tail bound of the retained sum).
    """

    lam: complex
    logmag: np.ndarray
    phase: np.ndarray
    tail_log: float
    norm_sq: float

    @property
    def n_cutoff(self) -> int:
        return len(self.logmag) - 1

    @property
    def tail_bound(self) -> float:
        return bound_from_log(self.tail_log)

    def coefficients(self) -> np.ndarray:
        """Plain complex a_n; may overflow for extreme parameters."""
        return np.exp(self.logmag) * np.exp(1j * self.phase)

    def scaled_coefficients(self) -> tuple[np.ndarray, float]:
        """(b, m) with a_n = b_n * exp(m) and max |b_n| = 1."""
        m = float(np.max(self.logmag))
        return np.exp(self.logmag - m) * np.exp(1j * self.phase), m

    def to_json(self) -> dict:
        return {"lambda": self.lam, "n_cutoff": self.n_cutoff,
                "coeffs": self.coefficients(), "log_magnitudes": self.logmag,
                "phases": self.phase, "tail_bound": self.tail_bound,
                "norm_sq": self.norm_sq}


def _coefficient_rows(pts: list, w: WeightSequence, q: QParam, tol: float,
                      cut_max: float = math.inf, finite_norm: bool = False):
    """(outcomes, logmag, phase) of the truncated coherent states at
    ``pts``, a block of at most ROW_BLOCK points: each point's truncated
    norm series, from the closed form in Bargmann's and the Hardy space
    (``_closed_truncations``), else summed by ``_kernel_series``, and a row
    (log|a_n|, arg a_n) up to its cutoff nterms - 1, -inf past it, for each
    point before the first one that fails or whose cutoff passes
    ``cut_max``.  With ``finite_norm``, a point whose retained norm passes
    a double is refused there with InputTooLargeError, before any row is
    formed."""
    if _closed_form_space(w, q):
        outcomes = _closed_truncations(pts, w, tol)
    else:
        outcomes = _kernel_series(pts, pts, w, q, tol)
    sizes = []
    for lam, res in zip(pts, outcomes):
        if isinstance(res, Exception) or res.nterms > cut_max + 1:
            break
        if finite_norm and not math.isfinite(res.float_value.real):
            raise InputTooLargeError(f"the coherent state at lambda = {lam} has "
                                     f"coefficients too large for a double")
        sizes.append(res.nterms)
    K = max(sizes, default=0)
    logmag, phase = coeff_log_arrays(pts[:len(sizes)], w, q, 0, K)
    for i, k in enumerate(sizes):
        if k < K:
            logmag[i, k:] = -np.inf
    return outcomes, logmag, phase


def coherent_coefficients(lam: complex, w: WeightSequence, q, tol: float = 1e-12,
                          finite_norm: bool = False) -> CoherentStateVector:
    """Construct phi_lambda truncated so the tail is below ``tol * norm^2``.

    Raises OutsidePhaseSpaceError when the defining series diverges at
    ``lam`` (no coherent state there) and ToleranceUnreachableError when
    the tolerance cannot be certified within 200,000 terms.  With
    ``finite_norm`` a state whose norm passes a double is refused with
    InputTooLargeError from its truncation, before a coefficient is formed.
    """
    q = QParam.of(q)
    lam = _checked(lam)
    outcomes, logmag, phase = _coefficient_rows([lam], w, q, tol, finite_norm=finite_norm)
    res, = _settled(outcomes)
    return CoherentStateVector(
        lam=lam,
        logmag=logmag[0],
        phase=phase[0],
        tail_log=res.tail_log,
        norm_sq=float(res.float_value.real),
    )


def coherent_norm_sq(lam, w: WeightSequence, q, tol: float = 1e-12):
    """The squared norm K(lam, lam) = sum |lam|^{2n} |q|^{n(n+1)} / w_n.

    For an array of points, an array of their norms; every point's series
    is summed together and the first failing point's error is raised.
    At |q| = 1 it is in closed form, summing nothing, in Bargmann's space
    (w_n = c n!: e^{|lam|^2} / (c scale)) and in the Hardy space (w_n = c:
    1 / (c scale (1 - |lam|^2)), refused for |lam| >= 1): ``tol``, a
    truncation tolerance, need only be positive there (see
    ``_closed_kernel``)."""
    pts = np.asarray(lam, dtype=complex)
    flat = pts.ravel().tolist()
    res = _kernel_values(flat, flat, w, QParam.of(q), tol, "norm")
    vals = [r.float_value.real for r in res]
    return vals[0] if isinstance(lam, Number) else np.array(vals).reshape(pts.shape)


class EigenResidual(NamedTuple):
    """Relative eigen-equation residual plus the window-edge leakage."""

    residual: float
    leakage: float


def eigen_residual(state: CoherentStateVector, w: WeightSequence, q) -> EigenResidual:
    """|| T phi - lambda phi || / ||phi|| on the truncation window.

    The single window-edge row (which only sees the discarded a_{N+1}) is
    excluded from the residual and reported as ``leakage`` instead.  The
    band is ``w.annihilation_band(q, N)``, kept on ``w`` for the last q: a
    band entry past a double is refused with InputTooLargeError.
    """
    q = QParam.of(q)
    b, _ = state.scaled_coefficients()
    ncut = state.n_cutoff
    nrm = float(np.linalg.norm(b))
    if ncut == 0:
        return EigenResidual(0.0, abs(state.lam))
    resid_vec = w.annihilation_band(q, ncut) * b[1:] - state.lam * b[:-1]
    return EigenResidual(
        residual=float(np.linalg.norm(resid_vec)) / nrm,
        leakage=abs(state.lam) * abs(b[-1]) / nrm,
    )


def evolve(lam: complex, t: float) -> complex:
    """Phase-space flow of the number-operator Hamiltonian."""
    return lam * cmath.exp(-1j * t)


def evolve_state(state: CoherentStateVector, t: float) -> CoherentStateVector:
    """Unitary time evolution: coefficient n picks up e^{-itn}."""
    n = np.arange(len(state.phase), dtype=float)
    return CoherentStateVector(
        lam=evolve(state.lam, t),
        logmag=state.logmag.copy(),
        phase=state.phase - t * n,
        tail_log=state.tail_log,
        norm_sq=state.norm_sq,
    )


def cs_transform(psi_coeffs: Sequence[complex], lam: complex,
                 w: WeightSequence, q) -> complex:
    """Coherent state transform <phi_lambda, psi> of a finite vector.

    psi is given by its basis coefficients c_k; the value is
    sum_k conj(a_k(lambda)) c_k.  A lambda outside the phase space is
    refused with OutsidePhaseSpaceError by the norm K(lambda, lambda), in
    closed form where ``_closed_kernel`` has one, else summed to tol 1e-6
    within 50,000 terms.
    """
    q = QParam.of(q)
    lam = _checked(lam)
    c = np.asarray(psi_coeffs, dtype=complex)
    _kernel_values([lam], [lam], w, q, 1e-6, "norm", n_max=50_000)
    if c.size == 0:
        return 0j
    logmag, phase = coeff_log_arrays(lam, w, q, 0, c.size)
    with np.errstate(divide="ignore"):
        lm = logmag + np.log(np.abs(c), out=np.full(c.shape, -np.inf),
                             where=np.abs(c) > 0)
    ph = -phase + np.angle(c)
    acc, scale = csum_logpolar(lm, ph)
    if acc == 0:
        return 0j
    return acc * math.exp(scale)


def kernel(mu, lam, w: WeightSequence, q, tol: float = 1e-12):
    """Reproducing kernel K(mu, lambda) = <phi_mu, phi_lambda>.

    mu and lam broadcast; for arrays the values come back as an array of
    the broadcast shape, every point's series is summed together and the
    first failing point's error is raised.  At |q| = 1 it is in closed form,
    summing nothing, in Bargmann's space (w_n = c n!: e^{conj(mu) lam} /
    (c scale)) and in the Hardy space (w_n = c: 1 / (c scale (1 -
    conj(mu) lam)), refused for |mu| |lam| >= 1), which also spares the
    sum's cancellation off the diagonal: ``tol``, a truncation tolerance,
    need only be positive there (see ``_closed_kernel``)."""
    q = QParam.of(q)
    if isinstance(mu, Number) and isinstance(lam, Number):
        res, = _kernel_values([mu], [lam], w, q, tol, "kernel")
        return res.float_value
    mu, lam = np.broadcast_arrays(np.asarray(mu, dtype=complex),
                                  np.asarray(lam, dtype=complex))
    res = _kernel_values(mu.ravel().tolist(), lam.ravel().tolist(), w, q, tol, "kernel")
    return np.array([r.float_value for r in res]).reshape(mu.shape)


@dataclass(frozen=True)
class RadiusEstimate:
    """The phase-space radius R_w: a rule's closed form, with uncertainty
    0, or a table's estimate.  ``extreme`` mirrors value == 0 (the one-point
    phase space).  A table's ``samples`` hold log r_n at ``indexes``, so
    fast-growing weights cannot overflow them, and ``monotone`` their
    trend; its ``uncertainty`` combines the tail-window spread with the
    drift between the mid and final samples.
    """

    value: float
    boundary_verdict: str
    extreme: bool
    uncertainty: float
    monotone: Optional[str] = None
    samples: tuple = ()
    indexes: tuple = ()

    def to_json(self) -> dict:
        doc = {"value": self.value, "boundary_verdict": self.boundary_verdict,
               "extreme": self.extreme, "uncertainty": self.uncertainty}
        if self.monotone is not None:
            doc.update(monotone=self.monotone, samples=[
                {"n": n, "log_r": lr} for n, lr in zip(self.indexes, self.samples)])
        return doc


def _median(x: np.ndarray) -> float:
    """The float np.median gives for a 1-d array (NaN if any entry is NaN),
    without the numpy.ma import that np.median pays on its first call."""
    if np.isnan(x).any():
        return math.nan
    s = np.sort(x)
    mid = s.size // 2
    return float(s[mid]) if s.size % 2 else float((s[mid - 1] + s[mid]) / 2.0)


def boundary_series_verdict(radius: float, w: WeightSequence, q) -> str:
    """Raabe test on the norm series at |lambda| = radius, on the last half
    of the indexes up to 10,000 or a table's last.

    Returns 'converges', 'diverges' or 'inconclusive' (Raabe limit within
    the indeterminate band around 1)."""
    q = QParam.of(q)
    if radius == 0.0:
        return "converges"          # the single point lambda = 0
    hb = w.max_index(10_000)
    if hb < 40:
        return "inconclusive"
    ns = np.arange(hb // 2, hb, dtype=np.int64)
    logu = 2.0 * coeff_log_arrays(radius, w, q, hb // 2, hb)[0]   # log|a_n|^2
    # u_n / u_{n+1}; a ratio past a double is an infinite Raabe value,
    # which reads as "converges"
    with np.errstate(over="ignore"):
        ratios = np.exp(logu[:-1] - logu[1:])
    raabe = ns[:-1] * (ratios - 1.0)
    est = _median(raabe[-max(8, raabe.size // 4):])
    if est > 1.1:
        return "converges"
    if est < 0.9:
        return "diverges"
    return "inconclusive"


def _bracketed_boundary_verdict(value: float, uncertainty: float,
                                w: WeightSequence, q: QParam) -> str:
    """Boundary verdict robust to the estimator's finite-sample drift.

    The Raabe classification is run at the point estimate and at the lower
    end of its uncertainty interval; a disagreement means the verdict is an
    artifact of the drift, not a property of the boundary."""
    at_point = boundary_series_verdict(value, w, q)
    low = max(value - uncertainty, 0.5 * value)
    if low == value:
        return at_point
    at_low = boundary_series_verdict(low, w, q)
    return at_point if at_point == at_low else "inconclusive"


def _rule_radius(w: WeightSequence, q: QParam) -> float:
    """R of the rule w_n = c (n!)^s, from R^2 = liminf |q|^{-(n+1)} w_n^{1/n}:
    w_n^{1/n} grows like (n/e)^s, so |q|^{-(n+1)} decides it unless |q| is
    exactly 1, where the sign of s does."""
    if q.abs != 1.0:
        return math.inf if q.abs < 1.0 else 0.0
    return math.inf if w.s > 0 else 1.0 if w.s == 0 else 0.0


# each closed-form radius -> its boundary verdict: on |lambda| = 1 every
# term is 1/(scale c), the one-point space {0} converges, and R = inf has
# no boundary circle
_RULE_VERDICTS = {math.inf: "inconclusive", 1.0: "diverges", 0.0: "converges"}

# a table's samples past RADIUS_CAP (below 1/RADIUS_CAP) read as R = inf (0)
RADIUS_CAP = 1e6


def radius_of_convergence(w: WeightSequence, q) -> RadiusEstimate:
    """The phase-space radius R_w.

    A rule's is its closed form.  A table's is extrapolated from its
    entries: the samples r_n = (|q|^{-(n+1)} w_n^{1/n})^{1/2} at 400
    geometrically spaced indexes up to its last, whose liminf is
    approximated by the running minimum over the final quarter; infinity
    and zero are flagged when the last 50 samples pass RADIUS_CAP (resp.
    1/RADIUS_CAP) monotonically.
    """
    q = QParam.of(q)
    if w.table is None:
        value = _rule_radius(w, q)
        return RadiusEstimate(value, _RULE_VERDICTS[value], value == 0.0, 0.0)
    if w.horizon < 20:
        raise ConfigError("radius estimation needs a horizon of at least 20")
    idx = _geometric_indexes(1, w.horizon, 400)
    logr = np.array([0.5 * (w.log_weight(n) / n - (n + 1) * q.log_abs) for n in idx])

    d = np.diff(logr)
    if np.all(d >= -1e-15):
        monotone = "non-decreasing"
    elif np.all(d <= 1e-15):
        monotone = "non-increasing"
    else:
        monotone = "none"

    last = logr[-min(50, len(logr)):]
    log_cap = math.log(RADIUS_CAP)
    if np.all(last > log_cap) and np.all(np.diff(last) >= 0):
        value, verdict, extreme, uncertainty = math.inf, "inconclusive", False, math.inf
    elif np.all(last < -log_cap) and np.all(np.diff(last) <= 0):
        value, verdict, extreme, uncertainty = 0.0, "converges", True, 0.0
    else:
        window = logr[-max(8, len(logr) // 4):]
        value = float(math.exp(np.min(window)))
        spread = float(math.exp(np.max(window)) - math.exp(np.min(window)))
        drift = abs(float(math.exp(logr[-1]) - math.exp(logr[len(logr) // 2])))
        uncertainty = spread + drift + 1e-12
        verdict = _bracketed_boundary_verdict(value, uncertainty, w, q)
        extreme = False
    return RadiusEstimate(value, verdict, extreme, uncertainty, monotone,
                          tuple(logr), tuple(idx))


def _geometric_indexes(lo: int, hi: int, count: int) -> list:
    """Unique integer sample points, geometrically spaced on [lo, hi].  The
    first point is exactly ``lo`` and the last exactly ``hi``; only the
    points between are rounded."""
    inner = np.geomspace(float(lo), float(hi), num=count)[1:-1].tolist()
    return sorted({lo, hi} | {min(hi, max(lo, round(x))) for x in inner})

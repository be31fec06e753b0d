"""Coherent states, phase-space radius, kernels and the transform.

A coherent state phi_lambda is the eigenvector of the annihilation
operator with eigenvalue lambda; its basis coefficients are

    a_n = lambda^n * q^{n(n+1)/2} * w_n^{-1/2},

and ``coeff_log_arrays`` is their one home.  The reproducing kernel
K(mu, lambda) = sum_n conj(a_n(mu)) a_n(lambda) is one certified series,
and the squared norm ||phi_lambda||^2 is its diagonal K(lambda, lambda):
the norm, the truncation of phi_lambda and the transform's domain check
all sum that diagonal.

The q power grows quadratically in the exponent, so coefficients are kept
in log-polar form (log-magnitude plus phase) and every norm or inner
product is evaluated through max-log rescaling.  Truncation indices carry
a certified tail bound produced by the series engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from numbers import Number
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, OutsidePhaseSpaceError, ToleranceUnreachableError
from .kernels import csum_logpolar
from .series import (SeriesDivergence, SeriesResult, bound_from_log, geometric_indexes,
                     sum_series, sum_series_rows)
from .weights import QParam, WeightSequence


def _tri(n: np.ndarray) -> np.ndarray:
    return 0.5 * n * (n + 1.0)


def _checked(lam) -> complex:
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ConfigError(f"lambda must be finite, got {lam!r}")
    return lam


def coeff_log_arrays(lam, w: WeightSequence, q: QParam,
                     n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """(log|a_n|, arg a_n) for n0 <= n < n1 at eigenvalue ``lam``; for a
    1-D array of eigenvalues, one row per point."""
    pts = [lam] if isinstance(lam, Number) else np.asarray(lam, dtype=complex).tolist()
    n = np.arange(n0, n1, dtype=float)
    lw = w.log_weights(n0, n1)
    logr = np.array([math.log(abs(z)) if z else 0.0 for z in pts])[:, None]
    arg = np.array([cmath.phase(z) for z in pts])[:, None]
    logmag = n * logr + _tri(n) * q.log_abs - 0.5 * lw
    phase = n * arg + _tri(n) * q.arg
    zero = [z == 0 for z in pts]
    if any(zero):
        # at lambda = 0 only a_0 = w_0^{-1/2} survives
        logmag[zero] = np.where(n == 0, -0.5 * lw, -np.inf)
        phase[zero] = 0.0
    if isinstance(lam, Number):
        return logmag[0], phase[0]
    return logmag, phase


def _kernel_series(mu, lam, w: WeightSequence, q: QParam, tol: float,
                   n_max: int = 200_000, series: str = "norm") -> list:
    """Certified sums of K(mu, lam) = sum_n conj(a_n(mu)) a_n(lam) at the
    points of the equal-length sequences mu and lam, capped at the weight
    horizon.

    Returns, per point, its SeriesResult or the error it raises: a
    ConfigError for a point that is not finite, an OutsidePhaseSpaceError
    carrying ``series`` ("norm" on the diagonal) where the series diverges
    (the point lies outside the phase space), a ToleranceUnreachableError.
    A point with mu = 0 or lam = 0 is the single term 1/w_0.  One
    remaining point is summed by ``sum_series``, more as the rows of one
    array.
    """
    if w.horizon is not None:
        n_max = min(n_max, w.horizon + 1)
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
        live.append(len(out))
        out.append((m, l))
        base.append(math.log(abs(m)) + math.log(abs(l)))
        dphase.append(cmath.phase(l) - cmath.phase(m))
    if not live:
        return out

    base, dphase = np.array(base), np.array(dphase)

    def logmag_fn(rows, n0, n1):
        n = np.arange(n0, n1, dtype=float)
        return (n * base[rows, None] + 2.0 * _tri(n) * q.log_abs
                - w.log_weights(n0, n1))

    def phase_fn(rows, n0, n1):
        return np.arange(n0, n1, dtype=float) * dphase[rows, None]

    if len(live) == 1:
        # row 0 alone: an integer row index gives the 1-D terms of one series
        try:
            sums = [sum_series(partial(logmag_fn, 0), partial(phase_fn, 0),
                               tol=tol, n_max=n_max)]
        except (SeriesDivergence, ToleranceUnreachableError) as exc:
            sums = [exc]
    else:
        sums = sum_series_rows(logmag_fn, phase_fn, len(live), tol=tol, n_max=n_max)

    for i, res in zip(live, sums):
        if isinstance(res, SeriesDivergence):
            m, l = out[i]
            where = (f"lambda = {l}: |lambda| is outside the phase space for "
                     f"these weights and q" if series == "norm"
                     else f"(mu, lambda) = ({m}, {l})")
            err = OutsidePhaseSpaceError(f"{series} series diverges at {where}",
                                         series=series)
            err.__cause__ = res
            res = err
        out[i] = res
    return out


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
    sum_{n>N} |a_n|^2 and ``norm_sq`` is the retained sum_{n<=N} |a_n|^2.
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

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def coefficients(self) -> np.ndarray:
        """Plain complex a_n; may overflow for extreme parameters."""
        return np.exp(self.logmag) * np.exp(1j * self.phase)

    def scaled_coefficients(self) -> tuple[np.ndarray, float]:
        """(b, m) with a_n = b_n * exp(m) and max |b_n| = 1."""
        m = float(np.max(self.logmag))
        if m == -np.inf:
            m = 0.0
        return np.exp(self.logmag - m) * np.exp(1j * self.phase), m

    def to_json(self) -> dict:
        c = self.coefficients()
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "n_cutoff": self.n_cutoff,
            "coeffs": [[v.real, v.imag] for v in c],
            "log_magnitudes": [float(x) for x in self.logmag],
            "phases": [float(x) for x in self.phase],
            "tail_bound": self.tail_bound,
            "norm_sq": self.norm_sq,
        }


def coherent_coefficients(lam: complex, w: WeightSequence, q,
                          tol: float = 1e-12,
                          n_max: int = 200_000) -> CoherentStateVector:
    """Construct phi_lambda truncated so the tail is below ``tol * norm^2``.

    Raises OutsidePhaseSpaceError when the defining series diverges at
    ``lam`` (no coherent state there) and ToleranceUnreachableError when
    the tolerance cannot be certified within ``n_max`` terms.
    """
    q = QParam.of(q)
    lam = _checked(lam)
    if lam == 0:
        # only a_0 = w_0^{-1/2} survives; no tail, no weights beyond w_0
        lw0 = w.log_weight(0)
        return CoherentStateVector(lam=0j,
                                   logmag=np.array([-0.5 * lw0]),
                                   phase=np.array([0.0]),
                                   tail_log=-math.inf,
                                   norm_sq=math.exp(-lw0))
    res, = _settled(_kernel_series([lam], [lam], w, q, tol, n_max))
    ncut = res.nterms - 1
    logmag, phase = coeff_log_arrays(lam, w, q, 0, ncut + 1)
    return CoherentStateVector(
        lam=lam,
        logmag=logmag,
        phase=phase,
        tail_log=res.tail_log,
        norm_sq=float(res.float_value.real),
    )


def coherent_cutoffs(lam, w: WeightSequence, q, tol: float = 1e-12) -> list:
    """Per point of the 1-D array ``lam``, the cutoff N at which
    ``coherent_coefficients`` truncates phi_lambda, or the error it raises
    there; every point's series is summed together."""
    pts = np.asarray(lam, dtype=complex).tolist()
    return [r if isinstance(r, Exception) else r.nterms - 1
            for r in _kernel_series(pts, pts, w, QParam.of(q), tol)]


def coherent_norm_sq(lam, w: WeightSequence, q, tol: float = 1e-12):
    """The squared norm K(lam, lam) = sum |lam|^{2n} |q|^{n(n+1)} / w_n.

    For an array of points, an array of their norms; every point's series
    is summed together and the first failing point's error is raised."""
    q = QParam.of(q)
    if isinstance(lam, Number):
        res, = _settled(_kernel_series([lam], [lam], w, q, tol))
        return float(res.float_value.real)
    pts = np.asarray(lam, dtype=complex)
    flat = pts.ravel().tolist()
    res = _settled(_kernel_series(flat, flat, w, q, tol))
    return np.array([r.float_value.real for r in res]).reshape(pts.shape)


class EigenResidual(NamedTuple):
    """Relative eigen-equation residual plus the window-edge leakage."""

    residual: float
    leakage: float


def eigen_residual(state: CoherentStateVector, w: WeightSequence, q) -> EigenResidual:
    """|| T phi - lambda phi || / ||phi|| on the truncation window.

    The single window-edge row (which only sees the discarded a_{N+1}) is
    excluded from the residual and reported as ``leakage`` instead.
    """
    q = QParam.of(q)
    b, _ = state.scaled_coefficients()
    ncut = state.n_cutoff
    nrm = float(np.linalg.norm(b))
    if ncut == 0:
        return EigenResidual(0.0, abs(state.lam))
    band = np.array([q.power(-k) * w.sqrt_ratio(k) for k in range(1, ncut + 1)])
    resid_vec = band * b[1:] - state.lam * b[:-1]
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
    refused with OutsidePhaseSpaceError.
    """
    q = QParam.of(q)
    lam = _checked(lam)
    c = np.asarray(psi_coeffs, dtype=complex)
    _settled(_kernel_series([lam], [lam], w, q, tol=1e-6, n_max=50_000))
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
    first failing point's error is raised."""
    q = QParam.of(q)
    if isinstance(mu, Number) and isinstance(lam, Number):
        res, = _settled(_kernel_series([mu], [lam], w, q, tol, series="kernel"))
        return res.float_value
    mu, lam = np.broadcast_arrays(np.asarray(mu, dtype=complex),
                                  np.asarray(lam, dtype=complex))
    res = _settled(_kernel_series(mu.ravel().tolist(), lam.ravel().tolist(),
                                  w, q, tol, series="kernel"))
    return np.array([r.float_value for r in res]).reshape(mu.shape)


@dataclass(frozen=True)
class RadiusEstimate:
    """Finite-sample estimate of the phase-space radius R_w.

    ``samples`` holds log r_n at ``indexes``, so fast-growing weights
    cannot overflow them.  ``value`` is the running-min liminf estimate
    over the sample tail, ``math.inf`` when the samples blow past ``cap``
    monotonically and 0.0 when they decay below 1/cap; ``extreme`` mirrors
    value == 0 (the one-point phase space).  ``uncertainty`` combines the
    tail-window spread with the drift between the mid and final samples.
    """

    value: float
    samples: tuple
    indexes: tuple
    boundary_verdict: str
    extreme: bool
    uncertainty: float
    monotone: str
    horizon: int
    cap: float

    def to_json(self) -> dict:
        return {
            "value": "inf" if math.isinf(self.value) else self.value,
            "boundary_verdict": self.boundary_verdict,
            "extreme": self.extreme,
            "uncertainty": self.uncertainty,
            "monotone": self.monotone,
            "horizon": self.horizon,
            "cap": self.cap,
            "samples": [{"n": int(n), "log_r": float(lr)}
                        for n, lr in zip(self.indexes, self.samples)],
        }


def _median(x: np.ndarray) -> float:
    """The float np.median gives for a 1-d array (NaN if any entry is NaN),
    without the numpy.ma import that np.median pays on its first call."""
    if np.isnan(x).any():
        return math.nan
    s = np.sort(x)
    mid = s.size // 2
    return float(s[mid]) if s.size % 2 else float((s[mid - 1] + s[mid]) / 2.0)


def boundary_series_verdict(radius: float, w: WeightSequence, q,
                            horizon: int = 10_000) -> str:
    """Raabe test on the norm series at |lambda| = radius.

    Returns 'converges', 'diverges' or 'inconclusive' (Raabe limit within
    the indeterminate band around 1)."""
    q = QParam.of(q)
    if radius == 0.0:
        return "converges"          # the single point lambda = 0
    hb = w.max_index(min(horizon, 10_000))
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
                                w: WeightSequence, q: QParam,
                                horizon: int) -> str:
    """Boundary verdict robust to the estimator's finite-sample drift.

    The Raabe classification is run at the point estimate and at the lower
    end of its uncertainty interval; a disagreement means the verdict is an
    artifact of the drift, not a property of the boundary."""
    at_point = boundary_series_verdict(value, w, q, horizon)
    low = max(value - uncertainty, 0.5 * value)
    if low == value:
        return at_point
    at_low = boundary_series_verdict(low, w, q, horizon)
    return at_point if at_point == at_low else "inconclusive"


def radius_of_convergence(w: WeightSequence, q, horizon: int = 10**15,
                          cap: float = 1e6, samples: int = 400) -> RadiusEstimate:
    """Estimate R_w from the samples r_n = (|q|^{-(n+1)} w_n^{1/n})^{1/2}.

    The liminf is approximated by the running minimum over the final
    quarter of a geometric index sample; infinity and zero are flagged
    when the last 50 samples pass ``cap`` (resp. 1/cap) monotonically.
    """
    q = QParam.of(q)
    if not 1.0 < cap < math.inf:
        raise ConfigError(f"radius cap must be finite and > 1, got {cap!r}")
    horizon = w.max_index(int(horizon))
    if horizon < 20:
        raise ConfigError("radius estimation needs a horizon of at least 20")
    idx = geometric_indexes(1, horizon, samples)
    logr = np.array([0.5 * (w.log_weight(n) / n - (n + 1) * q.log_abs)
                     for n in idx])

    d = np.diff(logr)
    if np.all(d >= -1e-15):
        monotone = "non-decreasing"
    elif np.all(d <= 1e-15):
        monotone = "non-increasing"
    else:
        monotone = "none"

    last = logr[-min(50, len(logr)):]
    log_cap = math.log(cap)
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
        verdict = _bracketed_boundary_verdict(value, uncertainty, w, q, horizon)
        extreme = False
    return RadiusEstimate(value, tuple(logr), tuple(idx), verdict, extreme,
                          uncertainty, monotone, horizon, cap)

"""Radial measures realizing the resolution of the identity.

Everything happens in the variable t = r^2 on [0, R_w^2], where the
measure must reproduce the moment targets

    m_j = |q|^{-j(j+1)} w_j / pi,         j = 0, 1, 2, ...

A closed form is known for factorial weights with |q| = 1 (the radial
Gaussian, t-density e^{-t}/pi): its Gauss surrogate is numpy's
Gauss-Laguerre rule, and its moments are certified by mpmath's adaptive
tanh-sinh quadrature in double precision.  Every other case goes through a
Golub-Welsch Gauss rule built from the moments.  The three-term recurrence
coefficients are computed in arbitrary precision because raw moment
sequences at factorial scale annihilate double precision long before the
orders used here.  The float64 eigenvalues of the Jacobi matrix only seed
the nodes: Newton on the recurrence polishes each one at the recurrence's
precision, and the masses are the Christoffel numbers at the polished
nodes.  The recurrence and the polish run on mpmath's raw mpf tuples
(``mpmath.libmp``) at the working precision, each operation rounded to
nearest as an mpf object would round it, so the rule is the one mpf
arithmetic gives, without an object per operation.  Only the final
nodes and masses are cast to float64, which perturbs the matched moments
by a few ulps at most.  A polished node below zero means no positive
measure on t >= 0 fits the moments, even with a definite Hankel matrix,
and the rule is refused as indefinite.

Atomic rules are accepted on purpose: only moment identities enter the
downstream computations, so absolute continuity of the underlying measure
is not required of the quadrature surrogate.  Only the certificate
``verify_resolution_identity`` samples a rule over a polar grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np
from mpmath.libmp import (fone, from_float, fzero, mpf_abs, mpf_add, mpf_div, mpf_e,
                          mpf_exp, mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_neg, mpf_pow,
                          mpf_rdiv_int, mpf_sub, mpf_sum, round_nearest as _RND)
from numpy.polynomial.laguerre import laggauss

from .coherent import coeff_log_arrays
from .errors import ConfigError, IndefiniteMomentsError, OrderTooHighError
from .kernels import log_power_sums, power_matrix, weighted_gram
from .weights import QParam, WeightSequence

MAX_ORDER = 20
# Working precision of the Gauss solver, in decimal digits.  Every rule that
# solves in float64 needs at most a few hundred digits; moments spanning
# more decades than this cap allows break down anyway, so they are refused
# before any extended-precision arithmetic runs.
MAX_DPS = 2000


@dataclass(frozen=True)
class MomentSequence:
    """Targets m_j with parallel log storage for huge entries.

    ``mp_logs`` carries the same logs at extended precision when the
    sequence was produced from a weight rule; the solver prefers them so
    its nodes are accurate to float64 and not merely moment-consistent.
    """

    values: tuple
    log_values: tuple
    mp_logs: tuple = ()

    @classmethod
    def from_weights(cls, w: WeightSequence, q, jmax: int) -> "MomentSequence":
        q = QParam.of(q)
        with mpmath.workdps(120):
            log_q = mpmath.log(abs(mpmath.mpc(q.value)))
            log_pi = mpmath.log(mpmath.pi)
            mp_logs = tuple(-j * (j + 1) * log_q + w.mp_log_weight(j) - log_pi
                            for j in range(jmax + 1))
        logs = tuple(float(x) for x in mp_logs)
        vals = tuple(math.exp(x) if x < 709 else math.inf for x in logs)
        return cls(vals, logs, mp_logs)

    @property
    def jmax(self) -> int:
        return len(self.log_values) - 1

    def is_positive_definite(self, order: int) -> bool:
        """Hankel positive definiteness up to ``order`` via the recurrence."""
        try:
            _chebyshev_recurrence(self, order)
            return True
        except IndefiniteMomentsError:
            return False
        except _Breakdown as exc:
            raise OrderTooHighError(
                f"{exc}; positive definiteness at order {order} is "
                f"undecided") from exc


@dataclass(frozen=True)
class RadialQuadrature:
    """Nodes/masses in t = r^2 realizing the moment targets.

    ``order`` records the requested Gauss order M (moments 0..2M-1
    matched); an atomic solution may carry fewer nodes than M.
    """

    nodes: np.ndarray
    masses: np.ndarray
    order: int
    provenance: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if nodes.shape != masses.shape or nodes.ndim != 1:
            raise ConfigError("nodes and masses must be parallel 1-d arrays")
        if np.any(masses <= 0):
            raise ConfigError("quadrature masses must be positive")
        if np.any(nodes < 0):
            raise ConfigError("quadrature nodes t = r^2 must be non-negative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "masses", masses)

    def log_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore"):
            return np.log(self.nodes), np.log(self.masses)

    def to_json(self) -> dict:
        return {"nodes": [float(x) for x in self.nodes],
                "masses": [float(x) for x in self.masses],
                "order": self.order, "provenance": self.provenance}

    @classmethod
    def from_json(cls, doc: dict) -> "RadialQuadrature":
        return cls(np.array(doc["nodes"], dtype=float),
                   np.array(doc["masses"], dtype=float),
                   int(doc["order"]), str(doc["provenance"]))


@dataclass(frozen=True)
class ClosedFormDensity:
    """The radial Gaussian: t-density amplitude * e^{-t}/pi on [0, inf),
    which solves the moment conditions of factorial weights at |q| = 1."""

    amplitude: float
    name = "radial-gaussian"
    description = "t-density amplitude * exp(-t)/pi on [0, inf)"
    support = (0.0, math.inf)

    def density(self, t: float) -> float:
        return self.amplitude * math.exp(-t) / math.pi

    def quadrature(self, order: int) -> RadialQuadrature:
        """Gauss-Laguerre nodes with masses scaled by amplitude/pi."""
        nodes, weights = laggauss(order)
        return RadialQuadrature(nodes, weights * (self.amplitude / math.pi),
                                order, provenance="closed-form")


def closed_form_density(w: WeightSequence, q) -> Optional[ClosedFormDensity]:
    """The known closed form: w_n = c * n! (the rule at s = 1) at |q| = 1,
    else None."""
    q = QParam.of(q)
    if w.table is None and w.s == 1.0 and abs(q.abs - 1.0) <= 1e-12:
        return ClosedFormDensity(w.c * w.scale)
    return None


# ---------------------------------------------------------------------------
# moments -> Gauss rule
# ---------------------------------------------------------------------------

class _Breakdown(Exception):
    """The working precision, Newton polish or the float64 surface failed
    at this order."""


# the solver's own failures at an order; anything else is a fault and propagates
_SOLVER_FAILURES = (_Breakdown, mpmath.libmp.NoConvergence, ZeroDivisionError,
                    OverflowError)


def _chebyshev_recurrence(m: MomentSequence, order: int):
    """Three-term recurrence coefficients from the (scaled) moments.

    Runs in mpmath arbitrary precision; returns (alpha, beta, atoms, log_s,
    log_m0, dps) with alpha and beta as lists of mpf, where ``atoms`` is set
    when a vanishing beta reveals an exactly atomic measure of fewer than
    ``order`` points.  A precision above MAX_DPS is refused with _Breakdown.
    """
    if 2 * order - 1 > m.jmax:
        raise ConfigError(f"order {order} needs moments up to {2 * order - 1}, "
                          f"have {m.jmax}")
    span = max(abs(x) for x in m.log_values[: 2 * order]) / math.log(10.0)
    dps = int(50 + 6 * order + span)
    if dps > MAX_DPS:
        raise _Breakdown(f"the moments need {dps} working digits, above the "
                         f"cap of {MAX_DPS}")
    raw = m.mp_logs if len(m.mp_logs) > m.jmax else [mpmath.mpf(x) for x in m.log_values]
    with mpmath.workdps(dps):
        prec = mpmath.mp.prec
        log_m0 = mpmath.mpf(raw[0])
        log_s = mpmath.mpf(raw[1]) - log_m0 if m.jmax >= 1 else mpmath.mpf(0)
        # scaled moments nu_j = m_j / (m_0 * s^j); nu_0 = nu_1 = 1
        nu = _e_powers([(mpmath.mpf(raw[j]) - log_m0 - j * log_s)._mpf_
                        for j in range(2 * order)], prec)
        eps = (mpmath.mpf(10) ** (-(dps // 2)))._mpf_
    # raw mpf tuples from here on, each operation rounded to nearest at prec
    alpha = [mpf_div(nu[1], nu[0], prec, _RND)]
    beta = [nu[0]]
    sig_prev = [fzero] * (2 * order)
    sig_cur = nu
    atoms = None
    for k in range(1, order):
        a, b = alpha[k - 1], beta[k - 1]
        sig_next = [fzero] * (2 * order)
        for l in range(k, 2 * order - k):
            sig_next[l] = mpf_sub(
                mpf_sub(sig_cur[l + 1], mpf_mul(a, sig_cur[l], prec, _RND), prec, _RND),
                mpf_mul(b, sig_prev[l], prec, _RND), prec, _RND)
        # every beta so far is positive, so max(1, |beta_{k-1}|) needs no abs
        thresh = mpf_mul(eps, b, prec, _RND) if mpf_lt(fone, b) else eps
        beta_k = mpf_div(sig_next[k], sig_cur[k - 1], prec, _RND)
        if mpf_le(beta_k, thresh):
            if mpf_lt(beta_k, mpf_neg(thresh)):
                raise IndefiniteMomentsError(
                    f"Hankel matrix indefinite at order {k + 1}: no positive "
                    f"measure matches these moments", order=k + 1)
            atoms = k          # exactly k atoms carry all the mass
            break
        alpha.append(mpf_sub(mpf_div(sig_next[k + 1], sig_next[k], prec, _RND),
                             mpf_div(sig_cur[k], sig_cur[k - 1], prec, _RND),
                             prec, _RND))
        beta.append(beta_k)
        sig_prev, sig_cur = sig_cur, sig_next
    make = mpmath.mp.make_mpf
    return ([make(a) for a in alpha], [make(b) for b in beta], atoms,
            log_s, log_m0, dps)


def _e_powers(xs, prec: int) -> list:
    """e ** x for each raw mpf x, rounded to nearest at ``prec`` bits as
    ``mpmath.e ** x`` rounds it, with log e taken once for all of them.

    A fractional exponent goes mpf_pow's own way, exp(x log e) with log e at
    prec + 10 bits; integer and half-integer exponents keep mpf_pow."""
    e = mpf_e(prec, _RND)
    loge = mpf_log(e, prec + 10, _RND)
    return [mpf_exp(mpf_mul(x, loge), prec, _RND) if x[2] < -1
            else mpf_pow(e, x, prec, _RND) for x in xs]


def gauss_quadrature_from_moments(m: MomentSequence, order: int) -> RadialQuadrature:
    """Gauss rule with ``order`` points matching moments 0..2*order-1.

    Raises IndefiniteMomentsError when no positive measure exists at this
    order and OrderTooHighError when the working precision would exceed
    MAX_DPS or the recurrence, the node polish or the float64 surface
    breaks down (the error carries the achievable order).
    """
    if order < 1:
        raise ConfigError("quadrature order must be >= 1")
    if order > MAX_ORDER:
        warnings.warn(f"order {order} exceeds the supported cap {MAX_ORDER}; "
                      f"falling back to {MAX_ORDER}", stacklevel=2)
        order = MAX_ORDER
    try:
        nodes, masses = _golub_welsch(m, order)
    except IndefiniteMomentsError:
        raise
    except _SOLVER_FAILURES as exc:
        achievable = _probe_achievable(m, order)
        reason = exc if isinstance(exc, _Breakdown) else "moment conditioning failed"
        raise OrderTooHighError(
            f"{reason} at order {order}; largest achievable order is "
            f"{achievable}", achievable=achievable) from exc
    return RadialQuadrature(nodes, masses, order, provenance="moment-solved")


_NEWTON_STEPS = 30


def _golub_welsch(m: MomentSequence, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and masses of the Gauss rule, ascending, as float64.

    float64 eigenvalues of the Jacobi matrix seed Newton on the monic
    recurrence p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1} at the
    recurrence's own precision; each mass is the Christoffel number
    1 / sum_k p_k(x)^2 / (beta_1 ... beta_k) in units where m_0 = 1.
    """
    alpha, beta, atoms, log_s, log_m0, dps = _chebyshev_recurrence(m, order)
    npts = atoms if atoms is not None else order
    off = np.sqrt(np.array([float(b) for b in beta[1:npts]]))
    jacobi = (np.diag([float(a) for a in alpha[:npts]])
              + np.diag(off, 1) + np.diag(off, -1))
    if not np.all(np.isfinite(jacobi)):
        raise _Breakdown("the Jacobi matrix overflows float64")
    seeds = np.linalg.eigvalsh(jacobi)
    roots, weights = _polish(alpha[:npts], beta[:npts], seeds, dps)
    if any(mpf_le(b, a) for a, b in zip(roots, roots[1:])):
        raise _Breakdown("two float64 seeds polished into one node")
    if mpf_lt(roots[0], fzero):
        raise IndefiniteMomentsError(
            f"the order-{npts} Gauss rule has a node t = r^2 < 0: no "
            f"positive measure on t >= 0 matches these moments", order=npts)
    with mpmath.workdps(dps):
        make = mpmath.mp.make_mpf
        scale, total = map(make, _e_powers([log_s._mpf_, log_m0._mpf_], mpmath.mp.prec))
        nodes = np.array([float(make(x) * scale) for x in roots])
        masses = np.array([float(make(w) * total) for w in weights])
    if np.any(masses == 0.0):
        raise _Breakdown("a Christoffel mass underflows float64")
    return nodes, masses


def _polish(alpha, beta, seeds, dps: int) -> tuple[list, list]:
    """Newton-polished zeros of p_npts, npts = len(alpha), from the float64
    seeds, and the Christoffel number at each, as raw mpf tuples at ``dps``
    digits, every operation rounded to nearest as mpf objects round it."""
    with mpmath.workdps(dps):
        prec = mpmath.mp.prec
        # Newton converges quadratically, so once a step is below 2^-70 |x|
        # the node is exact far beyond float64; a node at t = 0 only meets
        # the recurrence's own noise floor, and inside it the node is 0
        tol = (mpmath.mpf(2) ** -70)._mpf_
        floor = (mpmath.mpf(10) ** (-(dps // 2)))._mpf_
    coeffs = [(a._mpf_, b._mpf_) for a, b in zip(alpha, beta)]
    norms = [fone]                          # beta_1 ... beta_k
    for _, b in coeffs[1:]:
        norms.append(mpf_mul(norms[-1], b, prec, _RND))
    roots, weights = [], []
    for seed in seeds:
        x = from_float(seed)
        for _ in range(_NEWTON_STEPS):
            # p_npts(x) and p_npts'(x) by the recurrence and its derivative
            p_prev, p, dp_prev, dp = fzero, fone, fzero, fzero
            for a, b in coeffs:
                t = mpf_sub(x, a, prec, _RND)
                p_next = mpf_sub(mpf_mul(t, p, prec, _RND),
                                 mpf_mul(b, p_prev, prec, _RND), prec, _RND)
                dp_next = mpf_sub(mpf_add(p, mpf_mul(t, dp, prec, _RND), prec, _RND),
                                  mpf_mul(b, dp_prev, prec, _RND), prec, _RND)
                p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
            dx = mpf_div(p, dp, prec, _RND)
            x = mpf_sub(x, dx, prec, _RND)
            bound = mpf_mul(tol, mpf_abs(x), prec, _RND)
            if mpf_le(mpf_abs(dx), floor if mpf_lt(bound, floor) else bound):
                break
        else:
            raise _Breakdown(f"Newton polish did not converge from seed {seed!r}")
        if not mpf_lt(floor, mpf_abs(x)):
            x = fzero
        # the Christoffel number needs p_0(x) .. p_{npts-1}(x) only; the
        # k = 0 term is p_0^2 / 1 = 1
        terms, p_prev, p = [fone], fzero, fone
        for (a, b), h in zip(coeffs, norms[1:]):
            p_prev, p = p, mpf_sub(mpf_mul(mpf_sub(x, a, prec, _RND), p, prec, _RND),
                                   mpf_mul(b, p_prev, prec, _RND), prec, _RND)
            terms.append(mpf_div(mpf_mul(p, p, prec, _RND), h, prec, _RND))
        roots.append(x)
        weights.append(mpf_rdiv_int(1, mpf_sum(terms, prec, _RND), prec, _RND))
    return roots, weights


def _probe_achievable(m: MomentSequence, order: int) -> int:
    for k in range(order - 1, 0, -1):
        try:
            _golub_welsch(m, k)
            return k
        except (IndefiniteMomentsError, *_SOLVER_FAILURES):
            continue
    return 0


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentCheckReport:
    """Deviations of pi * S_n * |q|^{n(n+1)} / w_n from 1 (the resolution
    normalization transported to t coordinates)."""

    deviations: tuple
    max_deviation: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tol

    def to_json(self) -> dict:
        return {"deviations": list(self.deviations),
                "max_deviation": self.max_deviation,
                "tol": self.tol, "ok": self.ok}


def _normalization_terms(quad: RadialQuadrature, w: WeightSequence, q: QParam,
                         nmax: int) -> list:
    """pi * S_n * |q|^{n(n+1)} / w_n = pi * S_n * |a_n(1)|^2 for n = 0..nmax,
    with S_n the n-th moment of the rule; the resolution of the identity
    makes every term 1."""
    log_t, log_mu = quad.log_arrays()
    log_s = log_power_sums(log_t, log_mu, nmax)
    return [math.exp(math.log(math.pi) + log_s[n]
                     + n * (n + 1) * q.log_abs - w.log_weight(n))
            for n in range(nmax + 1)]


def verify_moments(quad: RadialQuadrature, w: WeightSequence, q,
                   nmax: int, tol: float = 1e-8) -> MomentCheckReport:
    """Check the normalization integrals for n = 0..nmax on the rule."""
    devs = [abs(t - 1.0) for t in _normalization_terms(quad, w, QParam.of(q), nmax)]
    return MomentCheckReport(tuple(devs), max(devs), tol)


def _moment_integrand(density: ClosedFormDensity, t: float, j: int) -> float:
    # tanh-sinh samples t beyond 1e15 on [0, inf), where t**j overflows a
    # float; the density has underflowed to 0 long before
    d = density.density(t)
    return d * t**j if d else 0.0


def verify_density_moments(density: ClosedFormDensity, w: WeightSequence, q,
                           jmax: int, tol: float = 1e-9) -> MomentCheckReport:
    """Adaptive-integration check of the t-moment targets for a density."""
    q = QParam.of(q)
    lo, hi = density.support
    devs = []
    for j in range(jmax + 1):
        target_log = -j * (j + 1) * q.log_abs + w.log_weight(j) - math.log(math.pi)
        target = math.exp(target_log)
        val = mpmath.fp.quad(lambda t: _moment_integrand(density, t, j), [lo, hi])
        devs.append(abs(val - target) / abs(target))
    return MomentCheckReport(tuple(devs), max(devs), tol)


@dataclass(frozen=True)
class GramReport:
    """Reconstruction of <phi_j, phi_k> from the quadrature resolution."""

    matrix: np.ndarray
    max_deviation: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tol

    def to_json(self) -> dict:
        dev = np.abs(self.matrix - np.eye(self.matrix.shape[0]))
        return {"max_deviation": self.max_deviation, "tol": self.tol,
                "ok": self.ok, "dim": self.matrix.shape[0],
                "row_deviations": [float(x) for x in dev.max(axis=1)]}


def verify_resolution_identity(quad: RadialQuadrature, w: WeightSequence, q,
                               basis_size: int, angular_points: int,
                               tol: float = 1e-8,
                               angle_offset: float = 0.0) -> GramReport:
    """Rebuild the basis Gram matrix through the coherent-state frame.

    G[j][k] = sum over the polar grid of weight * a_j(lambda) conj(a_k(lambda))
    must reproduce the identity for j, k <= basis_size; the grid weights
    of lambda = sqrt(t) e^{i alpha} are pi * mass / angular_points.
    """
    q = QParam.of(q)
    if angular_points < 2 * basis_size + 1:
        raise ConfigError(f"angular exactness needs >= {2 * basis_size + 1} "
                          f"points, got {angular_points}")
    alpha = angle_offset + 2.0 * math.pi * np.arange(angular_points) / angular_points
    z = (np.sqrt(quad.nodes)[:, None] * np.exp(1j * alpha)[None, :]).ravel()
    wts = np.repeat(quad.masses * (math.pi / angular_points), angular_points)
    V = power_matrix(z, basis_size)
    logmag, phase = coeff_log_arrays(1.0, w, q, 0, basis_size + 1)
    pref = np.exp(logmag) * np.exp(1j * phase)       # a_j(1)
    G = weighted_gram(V * pref[None, :], wts.astype(complex))
    dev = float(np.max(np.abs(G - np.eye(basis_size + 1))))
    return GramReport(G, dev, tol)


@dataclass(frozen=True)
class DivergenceWitness:
    """Partial sums of the coherent-norm integral: they grow like N + 1."""

    terms: tuple
    partial_sums: tuple
    slope: float

    def to_json(self) -> dict:
        return {"terms": list(self.terms),
                "partial_sums": list(self.partial_sums),
                "slope": self.slope}


def norm_divergence_witness(quad: RadialQuadrature, w: WeightSequence, q,
                            n_terms: int) -> DivergenceWitness:
    """Evaluate the term-by-term divergence of the squared-norm integral."""
    terms = _normalization_terms(quad, w, QParam.of(q), n_terms)
    sums = np.cumsum(terms)
    slope = float(np.polyfit(np.arange(n_terms + 1), sums, 1)[0])
    return DivergenceWitness(tuple(terms), tuple(float(x) for x in sums), slope)

"""Radial measures realizing the resolution of the identity.

Everything happens in the variable t = r^2 on [0, R_w^2], where the
measure must reproduce the moment targets

    m_j = |q|^{-j(j+1)} w_j / pi,         j = 0, 1, 2, ...

A closed form is known in Bargmann's space (``WeightSequence.closed_form``;
the radial Gaussian, t-density e^{-t}/pi): its Gauss surrogate is numpy's
Gauss-Laguerre rule, and its moments are certified by mpmath's adaptive
tanh-sinh quadrature in double precision.  Every other case goes through a
Golub-Welsch Gauss rule built from the moments.  The three-term recurrence
coefficients are computed in arbitrary precision because raw moment
sequences at factorial scale annihilate double precision long before the
orders used here: going from moments to the recurrence is exponentially
ill-conditioned, so its working precision is 50 + 6 * order + span digits.
The float64 eigenvalues of the Jacobi matrix only seed the nodes.  The
polish is Newton's method on the recurrence, exact in fixed point: the
recurrence coefficients and the seeds are truncated to multiples of 2^-F,
192 guard bits below the ulp of the smallest nonzero seed (more where that
would put F below 0), and nothing else is rounded but each Newton step,
truncated to 2^-F.  The first step lifts a 53-bit seed to about 106 bits
and the second meets the stop rule, a step of at most 2^-70 |x| or the
recurrence's noise floor 10^-(dps // 2); a node inside the floor is 0.
The mass is the Christoffel number by the confluent Christoffel-Darboux
identity, exact at the iterate before the node and rounded once.  A
nonzero node that keeps fewer than 192 + 53 bits of 2^-F lies far below
its seed, as a node near t = 0 far below the rest does when its float64
seed is noise, and the polish reruns with F widened by the shortfall.  The
masses of nearly atomic rules read the truncation, since their nodes
cluster and lower-order zeros lie close to them: with 128 guard bits a
float64 mass of a rule at q = e^{i theta} moved by 1.5e-8 relative, and
with 192 none did.

The recurrence runs on signed (mantissa, exponent) integer pairs, through
a small kernel of its own.  Each operation rounds its exact result
half-even to the working precision.  Under round_nearest, mpmath's
mpf_add, mpf_sub, mpf_mul and mpf_div are correctly rounded in the same
sense, and a correctly rounded result is unique.  So the recurrence is bit
for bit mpf arithmetic at the working precision, without mpmath's cost per
operation.  The polish holds each node to the stop rule and each mass to
the truncation by construction; that the float64 rules are those of a
polish rounded at the working precision was checked by sweep over
weights, q and orders, save where a value lies nearer a midpoint of
doubles than that polish holds it.  Only the final nodes and
masses are cast to float64, which perturbs the matched moments by a few
ulps at most.  A polished node below zero means no positive measure on
t >= 0 fits the moments, even with a definite Hankel matrix, and the rule
is refused as indefinite.

Atomic rules are accepted on purpose: only moment identities enter the
downstream computations, so absolute continuity of the underlying measure
is not required of the quadrature surrogate.  Nor need the measure be
unique.  For constant weights at |q| < 1 the moment problem is
indeterminate: the moments (c/pi) |q|^{-n(n+1)} are those of a log-normal
law in t (the Stieltjes-Wigert case, the classical example) and of
infinitely many other measures.  The rule is one of them, and its
certificate is the moment match, which is all that ``quantize_cs`` uses.
Only the certificate ``verify_resolution_identity`` samples a rule over a
polar grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np
from mpmath.libmp import (dps_to_prec, from_float, from_man_exp, from_rational, mpf_e,
                          mpf_exp, mpf_log, mpf_mul, mpf_pow, mpf_shift,
                          round_nearest as _RND)
from numpy.polynomial.laguerre import laggauss

from .coherent import coeff_log_arrays
from .errors import (ConfigError, IndefiniteMomentsError, InputTooLargeError,
                     OrderTooHighError)
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
    """Targets m_j, kept as their logs log m_j, since the moments of
    factorial-scale weights leave the double range.

    ``mp_logs`` carries the same logs at extended precision when the
    sequence was produced from weights; the solver prefers them so its
    nodes are accurate to float64 and not merely moment-consistent.
    """

    log_values: tuple
    mp_logs: tuple = ()

    def __post_init__(self):
        if not all(map(math.isfinite, self.log_values)):
            raise ConfigError(f"log moments must be finite, got {self.log_values}")

    @classmethod
    def from_weights(cls, w: WeightSequence, q, jmax: int) -> "MomentSequence":
        q = QParam.of(q)
        with mpmath.workdps(120):
            log_q = mpmath.log(abs(mpmath.mpc(q.value)))
            log_pi = mpmath.log(mpmath.pi)
            mp_logs = tuple(-j * (j + 1) * log_q + log_w - log_pi
                            for j, log_w in enumerate(w.mp_log_weights(jmax + 1)))
        return cls(tuple(float(x) for x in mp_logs), mp_logs)

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
        if not (np.isfinite(nodes).all() and np.isfinite(masses).all()):
            raise ConfigError("quadrature nodes and masses must be finite")
        if np.any(masses <= 0):
            raise ConfigError("quadrature masses must be positive")
        if np.any(nodes < 0):
            raise ConfigError("quadrature nodes t = r^2 must be non-negative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "masses", masses)

    def log_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore"):
            return np.log(self.nodes), np.log(self.masses)


@dataclass(frozen=True)
class ClosedFormDensity:
    """The radial Gaussian: t-density amplitude * e^{-t}/pi on [0, inf),
    which solves the moment conditions of factorial weights at |q| = 1."""

    amplitude: float
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
    """The radial Gaussian, where ``w.closed_form(q)`` is "bargmann"
    (w_n = c * n! at |q| exactly 1), else None."""
    if w.closed_form(QParam.of(q)) == "bargmann":
        return ClosedFormDensity(w.c * w.scale)
    return None


# ---------------------------------------------------------------------------
# moments -> Gauss rule
# ---------------------------------------------------------------------------

class _Breakdown(Exception):
    """The working precision, Newton polish or the float64 surface failed
    at this order: the solver's only failure on finite moments, where
    anything else raised is a fault and propagates."""


# Correctly rounded arithmetic on integer pairs.  A pair (m, e) is the value
# m * 2**e with m a signed int of at most ``prec`` bits.  Each operation
# rounds its exact result half-even to ``prec`` bits.  Under round_nearest,
# mpmath's mpf_add, mpf_sub, mpf_mul and mpf_div round the same way, so the
# two agree to the last bit; mpmath also strips trailing zeros, which
# from_man_exp does at the boundary.

def _round(m: int, e: int, prec: int) -> tuple:
    n = abs(m)
    sh = n.bit_length() - prec
    if sh <= 0:
        return m, e
    t = n >> (sh - 1)                   # the kept bits and one more
    if t & 1 and (t & 2 or n & ((1 << (sh - 1)) - 1)):
        n = (t >> 1) + 1
        if n.bit_length() > prec:       # carried to 2**prec
            n >>= 1
            sh += 1
    else:
        n = t >> 1
    return (-n if m < 0 else n), e + sh


def _add(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple:
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    off = e1 - e2
    # mpmath's shortcut condition: exponents more than 100 apart and m2 more
    # than prec + 4 bits below the top of m1.  Then m2 is under a quarter
    # ulp of m1, and the sum rounds to m1.
    if off > 100 and m1 and m1.bit_length() + off - m2.bit_length() > prec + 4:
        return m1, e1
    return _round((m1 << off) + m2, e2, prec)


def _div(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple:
    # a quotient of at least prec + 2 bits, with a sticky bit for the rest;
    # divmod raises ZeroDivisionError on a zero divisor, as mpf_div does
    extra = max(prec + 2 - m1.bit_length() + m2.bit_length(), 0)
    n, r = divmod(abs(m1) << extra, abs(m2))
    if r:
        n = n << 1 | 1
        extra += 1
    return _round(-n if (m1 < 0) != (m2 < 0) else n, e1 - e2 - extra, prec)


def _lt(m1: int, e1: int, m2: int, e2: int) -> bool:
    """m1 2**e1 < m2 2**e2, by the sign of the exact difference."""
    if e1 < e2:
        return m1 < m2 << (e2 - e1)
    return m1 << (e1 - e2) < m2


def _pair(x: tuple) -> tuple:
    """A raw mpf tuple as an integer pair."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _chebyshev_recurrence(m: MomentSequence, order: int):
    """Three-term recurrence coefficients from the (scaled) moments.

    The scaled moments come from mpmath at the working precision; the
    recurrence itself runs on integer pairs, each operation correctly
    rounded as mpf arithmetic rounds it.  Returns (alpha, beta, atoms,
    log_s, log_m0, dps) with alpha and beta as lists of mpf, where ``atoms``
    is set when a vanishing beta reveals an exactly atomic measure of fewer
    than ``order`` points.  A precision above MAX_DPS is refused with
    _Breakdown.
    """
    if order < 1:
        raise ConfigError("quadrature order must be >= 1")
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
        log_s = mpmath.mpf(raw[1]) - log_m0
        # scaled moments nu_j = m_j / (m_0 * s^j); nu_0 = nu_1 = 1
        logs = [(mpmath.mpf(raw[j]) - log_m0 - j * log_s)._mpf_ for j in range(2 * order)]
        nu = [_pair(x) for x in _e_powers(logs, prec)]
        eps_m, eps_e = _pair((mpmath.mpf(10) ** (-(dps // 2)))._mpf_)
    # integer pairs from here on, each operation rounded to nearest at prec
    alpha = [_div(*nu[1], *nu[0], prec)]
    beta = [nu[0]]
    zero = (0, 0)
    sig_prev = [zero] * (2 * order)
    sig_cur = nu
    atoms = None
    for k in range(1, order):
        (am, ae), (bm, be) = alpha[k - 1], beta[k - 1]
        sig_next = [zero] * (2 * order)
        for l in range(k, 2 * order - k):
            cm, ce = sig_cur[l]
            um, ue = _round(am * cm, ae + ce, prec)
            vm, ve = _add(*sig_cur[l + 1], -um, ue, prec)
            cm, ce = sig_prev[l]
            um, ue = _round(bm * cm, be + ce, prec)
            sig_next[l] = _add(vm, ve, -um, ue, prec)
        # every beta so far is positive, so max(1, |beta_{k-1}|) needs no abs
        tm, te = (_round(eps_m * bm, eps_e + be, prec) if _lt(1, 0, bm, be)
                  else (eps_m, eps_e))
        km, ke = _div(*sig_next[k], *sig_cur[k - 1], prec)
        if not _lt(tm, te, km, ke):
            if _lt(km, ke, -tm, te):
                raise IndefiniteMomentsError(
                    f"Hankel matrix indefinite at order {k + 1}: no positive "
                    f"measure matches these moments", order=k + 1)
            atoms = k          # exactly k atoms carry all the mass
            break
        um, ue = _div(*sig_next[k + 1], *sig_next[k], prec)
        vm, ve = _div(*sig_cur[k], *sig_cur[k - 1], prec)
        alpha.append(_add(um, ue, -vm, ve, prec))
        beta.append((km, ke))
        sig_prev, sig_cur = sig_cur, sig_next
    make = mpmath.mp.make_mpf
    return ([make(from_man_exp(*a)) for a in alpha],
            [make(from_man_exp(*b)) for b in beta], atoms, log_s, log_m0, dps)


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
    if order > MAX_ORDER:
        warnings.warn(f"order {order} exceeds the supported cap {MAX_ORDER}; "
                      f"falling back to {MAX_ORDER}", stacklevel=2)
        order = MAX_ORDER
    try:
        nodes, masses = _golub_welsch(m, order)
    except _Breakdown as exc:
        achievable = _probe_achievable(m, order)
        raise OrderTooHighError(
            f"{exc} at order {order}; largest achievable order is "
            f"{achievable}", achievable=achievable) from exc
    return RadialQuadrature(nodes, masses, order, provenance="moment-solved")


_NEWTON_STEPS = 30
# Guard bits of the polish's fixed point below the ulp of the smallest
# nonzero seed; at 64 or 128 the masses of some nearly atomic rules move
# (see the module docstring)
_SEED_GUARD_BITS = 192


def _golub_welsch(m: MomentSequence, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and masses of the Gauss rule, ascending, as float64.

    float64 eigenvalues of the Jacobi matrix seed Newton on the monic
    recurrence p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1}, which
    _nodes_and_masses runs exactly in fixed point, in units of 2^-F with F
    _SEED_GUARD_BITS below the ulp of the smallest nonzero seed, widened
    where a node lies far below its seed.  Each node meets the 2^-70 stop
    rule, or is 0 inside the recurrence's noise floor, as an integer in
    units of 2^-F, so the nodes compare exactly; each mass is the
    Christoffel number 1 / sum_k p_k(x)^2 / (beta_1 ... beta_k) in units
    where m_0 = 1.  Both hold by construction for the recurrence truncated
    to 2^-F; that the float64 rule is the one of the recurrence itself
    holds by sweep.  A mass, or a node the polish left nonzero, below the
    smallest normal double is refused as an underflow, and a node past a
    double as an overflow.
    """
    alpha, beta, atoms, log_s, log_m0, dps = _chebyshev_recurrence(m, order)
    npts = atoms if atoms is not None else order
    off = np.sqrt(np.array([float(b) for b in beta[1:npts]]))
    jacobi = (np.diag([float(a) for a in alpha[:npts]])
              + np.diag(off, 1) + np.diag(off, -1))
    if not np.all(np.isfinite(jacobi)):
        raise _Breakdown("the Jacobi matrix overflows float64")
    roots, weights, f = _nodes_and_masses(alpha[:npts], beta[:npts],
                                          np.linalg.eigvalsh(jacobi), dps)
    if any(b <= a for a, b in zip(roots, roots[1:])):
        raise _Breakdown("two float64 seeds polished into one node")
    if roots[0] < 0:
        raise IndefiniteMomentsError(
            f"the order-{npts} Gauss rule has a node t = r^2 < 0: no "
            f"positive measure on t >= 0 matches these moments", order=npts)
    with mpmath.workdps(dps):
        make = mpmath.mp.make_mpf
        scale, total = map(make, _e_powers([log_s._mpf_, log_m0._mpf_], mpmath.mp.prec))
        nodes = np.array([float(make(from_man_exp(x, -f)) * scale) for x in roots])
        masses = np.array([float(make(w) * total) for w in weights])
    # a subnormal mass keeps only a few bits, too few for the moments it
    # matches, and so does a nonzero node rounded to 0 or a subnormal; a node
    # past a double matches none
    tiny = np.finfo(float).tiny
    if np.any(masses < tiny):
        raise _Breakdown("a Christoffel mass underflows float64")
    if not np.isfinite(nodes).all():
        raise _Breakdown("a Gauss node overflows float64")
    if any(x and t < tiny for x, t in zip(roots, nodes)):
        raise _Breakdown("a nonzero Gauss node underflows float64")
    return nodes, masses


def _nodes_and_masses(alpha, beta, seeds, dps: int) -> tuple[list, list, int]:
    """The Newton-polished zero of p_n, n = len(alpha), from each float64
    seed, as an integer in units of 2^-F; the Christoffel number at each,
    as a raw mpf tuple rounded once to the recurrence's precision; and F.

    alpha_k and beta_k are truncated to multiples of 2^-F, F being
    _SEED_GUARD_BITS below the ulp of the smallest nonzero seed, so every
    seed is exact.  The coefficients of p_{n-1} and p_n, that of x^j in
    p_k in units of 2^-(k-j)F, and h = beta_1 ... beta_{n-1} are then exact
    integers, and Horner's rule gives p_n(x) and p_n'(x) exactly; only each
    Newton step p_n / p_n' is truncated to 2^-F.  Once a step is at most
    2^-70 |x| the node is exact far beyond float64; a node at t = 0 only
    meets the noise floor 10^-(dps // 2), inside which it is 0.

    The confluent Christoffel-Darboux identity, exact at every x,

        sum_{k<n} p_k(x)^2 / h_k = (p_n' p_{n-1} - p_n p_{n-1}') / h_{n-1}

    with h_k = beta_1 ... beta_k, gives the Christoffel number 1 / sum
    exactly at the iterate before the node, some 2^-106 |x| off it from a
    float64 seed.  A numerator that is not positive is a breakdown.

    A nonzero node that keeps fewer than _SEED_GUARD_BITS + 53 bits lies
    far below its seed, and the polish reruns with F widened by the
    shortfall.  That ends, as a node inside the floor is 0 and any other
    keeps more than F - (dps // 2) log2(10) bits.

    F is at least 0, so no shift below is negative; only a smallest nonzero
    seed at 2^244 or more, from a graded Jacobi matrix, gets more guard bits."""
    n, prec = len(alpha), dps_to_prec(dps)
    smallest = min((abs(s) for s in seeds if s), default=1.0)
    f = max(0, _SEED_GUARD_BITS - (math.frexp(math.ulp(smallest))[1] - 1))
    floor = 10 ** (dps // 2)        # y 2^-F is inside the floor iff |y| floor <= 2^F
    while True:
        coeffs = [(_fixed(a, f), _fixed(b, f)) for a, b in zip(alpha, beta)]
        # p_{n-1} and p_n, highest coefficient first
        prev, cur = [], [1]
        for am, bm in coeffs:
            nxt = cur + [0]
            for j in range(len(cur)):
                nxt[j + 1] -= am * cur[j]
            for j in range(len(prev)):
                nxt[j + 2] -= bm * prev[j] << f
            prev, cur = cur, nxt
        h = math.prod(bm for _, bm in coeffs[1:])
        one = 1 << f
        roots, weights = [], []
        for seed in seeds:
            xm, xe = _pair(from_float(seed))
            x, sh = xm, xe + f              # the iterate in units of 2^-F is x << sh
            for _ in range(_NEWTON_STEPS):
                p, dp = _horner(cur, x, sh)
                if not dp:
                    raise _Breakdown(f"Newton polish met p_n' = 0 from seed {seed!r}")
                step = p // dp
                last, x, sh = (x, sh), (x << sh) - step, 0
                converged = abs(step) << 70 <= abs(x) or abs(step) * floor <= one
                if converged:
                    break
            nonzero = abs(x) * floor > one
            short = _SEED_GUARD_BITS + 53 - abs(x).bit_length()
            if nonzero and short > 0:
                f += short
                break
            if not converged:
                raise _Breakdown(f"Newton polish did not converge from seed {seed!r}")
            q, dq = _horner(prev, *last)
            cd = dp * q - p * dq            # in units of 2^-2(n-1)F
            if cd <= 0:
                raise _Breakdown(f"the Christoffel-Darboux numerator is not positive "
                                 f"at the node polished from seed {seed!r}")
            roots.append(x if nonzero else 0)
            weights.append(mpf_shift(from_rational(h, cd, prec, _RND), (n - 1) * f))
        else:
            return roots, weights, f


def _fixed(x, f: int) -> int:
    """The mpf x truncated to a multiple of 2^-f, in units of 2^-f."""
    m, e = _pair(x._mpf_)
    return m << (e + f) if e + f >= 0 else m >> -(e + f)


def _horner(coeffs: list, xm: int, sh: int) -> tuple:
    """p(x) and p'(x), exactly, for the monic p whose integer ``coeffs``
    run highest first, at x = xm 2^sh in units of 2^-F."""
    p, dp = 1, 0
    for c in coeffs[1:]:
        dp = (dp * xm << sh) + p
        p = (p * xm << sh) + c
    return p, dp


def _probe_achievable(m: MomentSequence, order: int) -> int:
    for k in range(order - 1, 0, -1):
        try:
            _golub_welsch(m, k)
            return k
        except (IndefiniteMomentsError, _Breakdown):
            continue
    return 0


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def worst(*devs: float) -> float:
    """The largest of ``devs``, NaN if any is NaN: Python's max keeps a NaN
    only where it comes first, and a NaN deviation must never pass a check."""
    return math.nan if any(map(math.isnan, devs)) else max(devs)


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
        return {"deviations": self.deviations, "max_deviation": self.max_deviation,
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
    return MomentCheckReport(tuple(devs), worst(*devs), tol)


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
    return MomentCheckReport(tuple(devs), worst(*devs), tol)


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
                "row_deviations": dev.max(axis=1)}


def verify_resolution_identity(quad: RadialQuadrature, w: WeightSequence, q,
                               basis_size: int, angular_points: int,
                               tol: float = 1e-8) -> GramReport:
    """Rebuild the basis Gram matrix through the coherent-state frame.

    G[j][k] = sum over the polar grid of weight * a_j(lambda) conj(a_k(lambda))
    must reproduce the identity for j, k <= basis_size; the grid weights
    of lambda = sqrt(t) e^{i alpha} are pi * mass / angular_points.  The
    matrix is formed in the linear domain, so one whose deviation passes
    a double is refused with InputTooLargeError naming the basis size.
    """
    q = QParam.of(q)
    if angular_points < 2 * basis_size + 1:
        raise ConfigError(f"angular exactness needs >= {2 * basis_size + 1} "
                          f"points, got {angular_points}")
    alpha = 2.0 * math.pi * np.arange(angular_points) / angular_points
    z = (np.sqrt(quad.nodes)[:, None] * np.exp(1j * alpha)[None, :]).ravel()
    wts = np.repeat(quad.masses * (math.pi / angular_points), angular_points)
    logmag, phase = coeff_log_arrays(1.0, w, q, 0, basis_size + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        V = power_matrix(z, basis_size)
        pref = np.exp(logmag) * np.exp(1j * phase)       # a_j(1)
        G = weighted_gram(V * pref[None, :], wts.astype(complex))
        dev = float(np.max(np.abs(G - np.eye(basis_size + 1))))
    if not math.isfinite(dev):
        raise InputTooLargeError(f"the Gram matrix at basis = {basis_size} is past "
                                 f"the double range")
    return GramReport(G, dev, tol)


@dataclass(frozen=True)
class DivergenceWitness:
    """Partial sums of the coherent-norm integral: they grow like N + 1."""

    terms: tuple
    partial_sums: tuple
    slope: float


def norm_divergence_witness(quad: RadialQuadrature, w: WeightSequence, q,
                            n_terms: int) -> DivergenceWitness:
    """Evaluate the term-by-term divergence of the squared-norm integral."""
    terms = _normalization_terms(quad, w, QParam.of(q), n_terms)
    sums = np.cumsum(terms)
    slope = float(np.polyfit(np.arange(n_terms + 1), sums, 1)[0])
    return DivergenceWitness(tuple(terms), tuple(float(x) for x in sums), slope)

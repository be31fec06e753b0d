"""Radial measures realizing the resolution of the identity.

Everything happens in the variable t = r^2 on [0, R_w^2], where the
measure must reproduce the moment targets

    m_j = |q|^{-j(j+1)} w_j / pi,         j = 0, 1, 2, ...

A closed form is known in Bargmann's space (``WeightSequence.closed_form``;
the radial Gaussian, t-density e^{-t}/pi): its Gauss surrogate is numpy's
Gauss-Laguerre rule, and its moments are certified by mpmath's adaptive
tanh-sinh quadrature in double precision.  Every other case goes through a
Golub-Welsch Gauss rule built from the moments.  Going from moments to the
three-term recurrence is exponentially ill-conditioned (Gautschi 2004,
section 2.1), so the recurrence runs in extended precision from scaled
moments nu_j = m_j / (m_0 s^j), s = m_1 / m_0, that the solver forms
itself at its working precision.  For weights, nu_j is a running product
of exact ratios: w_{j+1} / w_j, an integer for a rule with integer s >= 0,
one exp(s log(j+1)) for any other s and a quotient of doubles for a table,
and 1/|q|^2, where |q|^2 = re^2 + im^2 is exact.  The products carry 32
guard bits, so each nu_j lies within one ulp of its exact value; s and m_0
come from the same ratios.

The working precision starts at 50 + 6 * order digits.  Beside the
recurrence runs an enclosure, a running bound on the error of every
intermediate and so of every alpha_k and beta_k.  The recurrence reruns at
more digits wherever some value inside the enclosure would change the
epsilon test on a beta_k (positive, an atom or indefinite; epsilon =
10^-(dps // 2)), or where the enclosure of a coefficient the polish reads
is wider than the polish's unit 2^-F.  MAX_DPS caps that loop; an order it
cannot certify is refused, and the refusal keeps its achievable order.  So
every verdict is the one exact moments give at the final precision, and
the polish reads coefficients whose truncation to 2^-F is that of the exact
ones, up to one unit, which its guard bits absorb.

The float64 eigenvalues of the Jacobi matrix only seed the nodes.  The
polish is Newton's method on the recurrence, exact in fixed point: the
recurrence coefficients and the seeds are truncated to multiples of 2^-F,
192 guard bits below the ulp of the smallest nonzero seed (more where that
would put F below 0), and nothing else is rounded but each Newton step,
truncated to 2^-F.  The first step lifts a 53-bit seed to about 106 bits
and the second meets the stop rule, a step of at most 2^-70 |x| or the
recurrence's noise floor 10^-(dps // 2) at the final precision; a node
inside the floor is 0.  The mass is the Christoffel number by the
confluent Christoffel-Darboux identity, exact at the iterate before the
node and rounded once.  A nonzero node that keeps fewer than 192 + 53 bits
of 2^-F lies far below its seed, as a node near t = 0 far below the rest
does when its float64 seed is noise, and the polish reruns with F widened
by the shortfall, which the enclosure must then meet too.  A node is 0
only where 2^-F also lies 16 bits below the floor.  The masses of nearly
atomic rules read the truncation, since their nodes cluster and
lower-order zeros lie close to them; 128 guard bits already give every
float64 rule of tests/test_measure.py, and 192 keep a margin of 64.

The solver holds one number type from the scaled moments to the float64
rule: signed (mantissa, exponent) integer pairs, through a small kernel of
its own.  Each operation rounds its exact result half-even to the working
precision.  Under round_nearest, mpmath's mpf_add, mpf_sub, mpf_mul and
mpf_div are correctly rounded in the same sense, and a correctly rounded
result is unique.  So the solver is bit for bit mpf arithmetic at the
working precision, without mpmath's cost per operation; mpf objects
appear only in the oracles it is tested against.  The polish holds each
node to the stop rule and each mass to the truncation by construction;
that the float64 rules are those of exact moments was checked by sweep
(tests/gauss_sweep.py) over weights, q and orders, save where a value
lies nearer a midpoint of doubles than the polish holds it.  Only the
final nodes and masses are rounded to float64, which perturbs the matched
moments by a few ulps at most.  A polished node below zero means no
positive measure on t >= 0 fits the moments, even with a definite Hankel
matrix, and the rule is refused as indefinite.

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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import mpmath
import numpy as np
from mpmath.libmp import (dps_to_prec, from_float, from_int, mpf_exp, mpf_log, mpf_mul,
                          mpf_pi, mpf_pow_int, round_nearest as _RND)
from numpy.polynomial.laguerre import laggauss

from .coherent import coeff_log_arrays
from .errors import (ConfigError, IndefiniteMomentsError, InputTooLargeError,
                     OrderTooHighError)
from .kernels import log_power_sums, power_matrix, weighted_gram
from .weights import QParam, WeightSequence

MAX_ORDER = 20
# Cap on the Gauss solver's working precision, in decimal digits.  The
# recurrence starts at 50 + 6 * order digits and reruns at more wherever its
# enclosure cannot certify a verdict or a coefficient; past this cap the
# order is refused.
MAX_DPS = 2000


@dataclass(frozen=True)
class MomentSequence:
    """Targets m_j = |q|^{-j(j+1)} w_j / pi, j = 0..jmax, of the weights w
    at q.

    The solver forms its scaled moments from the exact ratios of the
    weights at its working precision, as integer pairs.  The logs log m_j,
    taken in double precision at construction, only name the sequence (the
    moments of factorial-scale weights leave the double range); taking them
    refuses a jmax past a table's horizon with WeightHorizonError.
    """

    weights: WeightSequence
    q: QParam
    jmax: int
    log_values: tuple = field(init=False)

    def __post_init__(self):
        q = QParam.of(self.q)
        j = np.arange(self.jmax + 1)
        logs = (self.weights.log_weights(0, self.jmax + 1) - j * (j + 1) * q.log_abs
                - math.log(math.pi))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "log_values", tuple(logs.tolist()))

    @classmethod
    def from_weights(cls, w: WeightSequence, q, jmax: int) -> "MomentSequence":
        """m_j = |q|^{-j(j+1)} w_j / pi for j = 0..jmax."""
        return cls(w, q, jmax)

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
# changes no value.

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


def _float(x: tuple) -> float:
    """The pair x as float(mpf) rounds it: half-even to 53 bits, then by
    ldexp, which rounds a subnormal again; +-inf past the double range."""
    m, e = _round(*x, 53)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


# Guard bits of the running products that form the scaled moments; each
# scaled moment is rounded to the working precision once, at the end
_NU_GUARD_BITS = 32


def _scaled_moments(m: MomentSequence, count: int, prec: int) -> tuple:
    """The scaled moments nu_j = m_j / (m_0 s^j), j < count, with s =
    m_1 / m_0, and s and m_0, as integer pairs rounded to ``prec`` bits.

    Each lies within one ulp at ``prec``, 2^(e + b - prec) for the pair
    (m, e) with b = bitlen(m), of its exact value.  From weights, nu_j is a
    running product of exact ratios,

        nu_{j+1} = nu_j (w_{j+1} / w_j) (w_0 / w_1) / |q|^{2j},

    where w_{j+1} / w_j is the integer (j+1)^s for a rule with integer
    s >= 0 (up to prec + 32 bits), one exp(s log(j+1)) otherwise, and a
    quotient of doubles for a table, and 1/|q|^2 is one quotient, |q|^2 =
    re^2 + im^2 being exact.  The products run at prec + 32 bits, so nu_j
    carries at most j^2 + 2j relative errors of 2^-(prec+32) before its one
    rounding to ``prec``: under a quarter ulp for every j < 2^14, and half
    an ulp from the rounding.  s and m_0 are rounded once from values within
    2^-(prec+32) of themselves.
    """
    wp = prec + _NU_GUARD_BITS
    w, (re, im) = m.weights, (_pair(from_float(x)) for x in (m.q.value.real, m.q.value.imag))
    q2 = _exact_sum(re[0] * re[0], 2 * re[1], im[0] * im[0], 2 * im[1])
    inv = _div(1, 0, *q2, wp)                        # 1 / |q|^2
    if w.table is not None:
        t = [_pair(from_float(x)) for x in w.table[:count]]
        # (w_{j+1} / w_j) (w_0 / w_1), each one quotient of exact products
        ratios = [_div(t[j + 1][0] * t[0][0], t[j + 1][1] + t[0][1],
                       t[j][0] * t[1][0], t[j][1] + t[1][1], wp) for j in range(count - 1)]
        first, w0 = t[:2], t[0]
    else:
        # w_{j+1} / w_j = (j+1)^s and w_1 / w_0 = 1
        ratios = [_rule_ratio(j + 1, w.s, wp) for j in range(count - 1)]
        first, w0 = [(1, 0), (1, 0)], _pair(from_float(w.c))
    nu, power = [(1, 0)], (1, 0)                     # power = 1 / |q|^{2j}
    for cm, ce in ratios:
        xm, xe = nu[-1]
        xm, xe = _round(xm * cm, xe + ce, wp)
        nu.append(_round(xm * power[0], xe + power[1], wp))
        power = _round(power[0] * inv[0], power[1] + inv[1], wp)
    sm, se = _pair(from_float(w.scale))
    scale = _div(first[1][0] * inv[0], first[1][1] + inv[1], *first[0], prec)
    mass = _div(w0[0] * sm, w0[1] + se, *_pair(mpf_pi(wp)), prec)
    return [_round(*x, prec) for x in nu], scale, mass


def _rule_ratio(k: int, s: float, wp: int) -> tuple:
    """k^s as an integer pair: exact for integer s >= 0 where it has at most
    ``wp`` bits, else exp(s log k) at ``wp`` bits, log k taken with guard
    bits for the size of s log k."""
    if s.is_integer() and s >= 0 and s * math.log2(k) <= wp:
        return k ** int(s), 0
    guard = int(abs(s) * math.log(k)).bit_length() + 10
    return _pair(mpf_exp(mpf_mul(from_float(s), mpf_log(from_int(k), wp + guard)), wp, _RND))


def _exact_sum(m1: int, e1: int, m2: int, e2: int) -> tuple:
    """m1 2^e1 + m2 2^e2, exactly."""
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    return (m1 << (e1 - e2)) + m2, e2


# The enclosure.  Every bound is a log2, a float, where -inf stands for 0;
# each upper bound is raised by _SLACK, which dwarfs the float64 rounding
# of the logs themselves.
_SLACK = 2.0 ** -20


def _log2(x: tuple) -> float:
    """log2 |m 2^e| for the pair x = (m, e)."""
    m, e = x
    return e + math.log2(abs(m)) if m else -math.inf


def _mag(x: tuple) -> int:
    """A log2 bound on |m 2^e|, e + bitlen(m), for the pair x = (m, e)."""
    m, e = x
    return e + abs(m).bit_length() if m else -math.inf


def _lsum(*logs: float) -> float:
    """An upper bound on the log2 of the sum of 2^x over ``logs``."""
    top = max(logs)
    if top == -math.inf:
        return top
    total = 0.0
    for x in logs:
        total += 2.0 ** (x - top)
    return top + math.log2(total) + _SLACK


def _quotient_radius(q: tuple, x: tuple, y: tuple, lex: float, ley: float,
                     prec: int) -> float:
    """log2 of a bound on |x / y - q| for the rounded quotient q of the pairs
    x and y, where x and y lie within 2^lex and 2^ley of the exact values:
    (Ex + |q| Ey) / (|y| - Ey) and the rounding, 2^-prec |q|.  An enclosure
    of y that reaches past |y| / 2 leaves the quotient uncertain."""
    ly = _log2(y) - _SLACK
    if ley - ly > -1:
        raise _Uncertain(ley - ly + 1)
    lq = _log2(q) + _SLACK
    return _lsum(_lsum(lex, lq + ley) - ly - math.log2(1 - 2.0 ** (ley - ly)),
                 lq - prec)


class _Uncertain(Exception):
    """The enclosure at this working precision leaves an epsilon-test
    verdict, or a coefficient the polish reads, undecided; ``bits`` more
    should decide it."""

    def __init__(self, bits: float):
        super().__init__(bits)
        self.bits = bits


def _more_digits(dps: int, bits: float) -> int:
    """The working precision after ``dps`` fell ``bits`` short: that many
    and 10 digits more, and at least a quarter more, up to MAX_DPS.  A
    shortfall at the cap is a breakdown."""
    if dps >= MAX_DPS:
        raise _Breakdown(f"the recurrence is not certified within the cap of "
                         f"{MAX_DPS} working digits")
    need = bits * math.log10(2) + 10 if math.isfinite(bits) else MAX_DPS
    return min(MAX_DPS, dps + max(math.ceil(need), dps // 4))


class _Recurrence(NamedTuple):
    """The recurrence coefficients as integer pairs, alpha_k and beta_k
    within 2^alpha_radius[k] and 2^beta_radius[k] of their exact values; a
    vanishing beta_k ends them, and the rule, at k points.  The scale s and
    the mass m_0, pairs too, turn the scaled rule into the rule in t."""

    alpha: list
    beta: list
    scale: tuple
    mass: tuple
    dps: int
    alpha_radius: list
    beta_radius: list


def _chebyshev_recurrence(m: MomentSequence, order: int, dps: int = 0) -> _Recurrence:
    """Three-term recurrence coefficients from the scaled moments.

    The working precision starts at ``dps``, by default 50 + 6 * order
    digits, and rises wherever the enclosure leaves an epsilon-test
    verdict undecided; past MAX_DPS the order is refused with _Breakdown.
    """
    if order < 1:
        raise ConfigError("quadrature order must be >= 1")
    if 2 * order - 1 > m.jmax:
        raise ConfigError(f"order {order} needs moments up to {2 * order - 1}, "
                          f"have {m.jmax}")
    dps = dps or 50 + 6 * order
    while True:
        nu, scale, mass = _scaled_moments(m, 2 * order, dps_to_prec(dps))
        try:
            alpha, beta, ra, rb = _recurrence(nu, order, dps)
        except _Uncertain as exc:
            dps = _more_digits(dps, exc.bits)
            continue
        return _Recurrence(alpha, beta, scale, mass, dps, ra, rb)


def _recurrence(nu: list, order: int, dps: int) -> tuple:
    """alpha, beta (integer pairs) and the log2 radii of alpha_k and beta_k,
    from the scaled moments ``nu``, each within one ulp at the working
    precision.

    The modified Chebyshev algorithm on ordinary moments,

        sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l}
                      - beta_{k-1} sigma_{k-2,l},

    runs on integer pairs, each operation correctly rounded as mpf
    arithmetic rounds it.  Beside it runs an enclosure: a bound E_{k,l} on
    the error of each sigma_{k,l}, carried as its log2 a row at a time,

        E_{k,l} = E_{k-1,l+1} + (|a| + R_a) E_{k-1,l} + R_a |sigma_{k-1,l}|
                  + (|b| + R_b) E_{k-2,l} + R_b |sigma_{k-2,l}| + 3.01 u S_{k,l}

    for a = alpha_{k-1} and b = beta_{k-1} within R_a and R_b, where S_{k,l}
    = |sigma_{k-1,l+1}| + |a sigma_{k-1,l}| + |b sigma_{k-2,l}| bounds what
    the three roundings of sigma_{k,l} act on and u = 2^-prec (Higham 2002,
    ch. 3).  A quotient's radius follows from those of its numerator and
    denominator.  beta_k is tested against epsilon max(1, beta_{k-1}),
    epsilon = 10^-(dps // 2): above it beta_k is positive, below minus it
    indefinite, and between it ends the coefficients at k, as k atoms carry
    all the mass; a verdict that some value inside the enclosures would
    change raises _Uncertain.
    """
    prec = dps_to_prec(dps)
    n2 = 2 * order
    eps = _pair(mpf_pow_int(from_int(10), -(dps // 2), prec, _RND))
    leps = _log2(eps)
    local = math.log2(3.01) - prec       # the three roundings of sigma_{k,l}, over S
    # log2 bounds on |sigma| (mag) and on its error (err), rows k-2 and k-1
    mag_prev, err_prev = np.full(n2, -math.inf), np.full(n2, -math.inf)
    mag_cur = np.array([_mag(x) for x in nu])
    err_cur = mag_cur - prec             # nu_j within one ulp
    # q is sigma_{k,k+1} / sigma_{k,k}; alpha_k is its step from row k-1
    q = _div(*nu[1], *nu[0], prec)
    rq = _quotient_radius(q, nu[1], nu[0], err_cur[1], err_cur[0], prec)
    alpha, beta, ra, rb = [q], [nu[0]], [rq], [err_cur[0]]
    zero = (0, 0)
    sig_prev = [zero] * n2
    sig_cur = nu
    for k in range(1, order):
        (am, ae), (bm, be) = alpha[k - 1], beta[k - 1]
        sig_next = [zero] * n2
        for l in range(k, n2 - k):
            cm, ce = sig_cur[l]
            um, ue = _round(am * cm, ae + ce, prec)
            vm, ve = _add(*sig_cur[l + 1], -um, ue, prec)
            cm, ce = sig_prev[l]
            um, ue = _round(bm * cm, be + ce, prec)
            sig_next[l] = _add(vm, ve, -um, ue, prec)
        hi = n2 - k
        la, lb = _log2(alpha[-1]) + _SLACK, _log2(beta[-1]) + _SLACK
        mag_next, err_next = np.full(n2, -math.inf), np.full(n2, -math.inf)
        mag_next[k:hi] = [e + m.bit_length() for m, e in sig_next[k:hi]]
        rounding = np.logaddexp2.reduce((mag_cur[k + 1:hi + 1], la + mag_cur[k:hi],
                                         lb + mag_prev[k:hi]))
        err_next[k:hi] = np.logaddexp2.reduce((
            err_cur[k + 1:hi + 1], _lsum(la, ra[-1]) + err_cur[k:hi], ra[-1] + mag_cur[k:hi],
            _lsum(lb, rb[-1]) + err_prev[k:hi], rb[-1] + mag_prev[k:hi],
            local + rounding)) + _SLACK
        # every beta so far is positive, so max(1, |beta_{k-1}|) needs no abs
        tm, te = (_round(eps[0] * bm, eps[1] + be, prec) if _lt(1, 0, bm, be)
                  else eps)
        km, ke = _div(*sig_next[k], *sig_cur[k - 1], prec)
        r = _quotient_radius((km, ke), sig_next[k], sig_cur[k - 1], err_next[k],
                             err_cur[k - 1], prec)
        positive = _lt(tm, te, km, ke)
        indefinite = not positive and _lt(km, ke, -tm, te)
        # the distance from beta_k to the nearer bound of its verdict, which
        # moves by epsilon R_{beta_{k-1}} and by the rounding of the bound
        gap = (_exact_sum(km, ke, -tm, te) if positive else
               _exact_sum(-tm, te, -km, ke) if indefinite else
               _exact_sum(tm, te, -abs(km), ke))
        need = _lsum(r, leps + rb[-1], _log2((tm, te)) + 2 - prec)
        if _log2(gap) - _SLACK <= need:
            raise _Uncertain(need - _log2(gap) + 1)
        if indefinite:
            raise IndefiniteMomentsError(
                f"Hankel matrix indefinite at order {k + 1}: no positive "
                f"measure matches these moments", order=k + 1)
        if not positive:
            break
        q_next = _div(*sig_next[k + 1], *sig_next[k], prec)
        rq_next = _quotient_radius(q_next, sig_next[k + 1], sig_next[k], err_next[k + 1],
                                   err_next[k], prec)
        alpha.append(_add(*q_next, -q[0], q[1], prec))
        beta.append((km, ke))
        ra.append(_lsum(rq_next, rq, _log2(alpha[-1]) - prec))
        rb.append(r)
        q, rq = q_next, rq_next
        sig_prev, sig_cur = sig_cur, sig_next
        mag_prev, mag_cur, err_prev, err_cur = mag_cur, mag_next, err_cur, err_next
    return alpha, beta, ra, rb


def gauss_quadrature_from_moments(m: MomentSequence, order: int) -> RadialQuadrature:
    """Gauss rule with ``order`` points matching moments 0..2*order-1.

    Raises IndefiniteMomentsError when no positive measure exists at this
    order and OrderTooHighError when MAX_DPS digits cannot certify the
    recurrence, or the recurrence, the node polish or the float64 surface
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
# nonzero seed; at 64 a node of a nearly atomic rule moves, at 128 none of
# the tested rules does (see the module docstring)
_SEED_GUARD_BITS = 192
# Bits of 2^-F below the noise floor wherever a node is 0
_FLOOR_GUARD_BITS = 16


def _golub_welsch(m: MomentSequence, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and masses of the Gauss rule, ascending, as float64.

    float64 eigenvalues of the Jacobi matrix seed Newton on the monic
    recurrence p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1}, which
    _nodes_and_masses runs exactly in fixed point, in units of 2^-F with F
    _SEED_GUARD_BITS below the ulp of the smallest nonzero seed, widened
    where a node lies far below its seed.  Where the enclosure of a
    coefficient is wider than 2^-F, the recurrence reruns at more digits.
    Each node meets the 2^-70 stop rule, or is 0 inside the recurrence's
    noise floor, as an integer in units of 2^-F, so the nodes compare
    exactly; each mass is the Christoffel number 1 / sum_k p_k(x)^2 /
    (beta_1 ... beta_k) in units where m_0 = 1.  Both hold by construction
    for the recurrence truncated to 2^-F; that the float64 rule is the one
    of the recurrence itself holds by sweep.  A mass, or a node the polish
    left nonzero, below the smallest normal double is refused as an
    underflow, and a node past a double as an overflow.
    """
    rec = _chebyshev_recurrence(m, order)
    while True:
        off = np.sqrt(np.array([_float(b) for b in rec.beta[1:]]))
        jacobi = np.diag([_float(a) for a in rec.alpha]) + np.diag(off, 1) + np.diag(off, -1)
        if not np.all(np.isfinite(jacobi)):
            raise _Breakdown("the Jacobi matrix overflows float64")
        radius = max(rec.alpha_radius + rec.beta_radius)
        try:
            roots, weights, f = _nodes_and_masses(rec.alpha, rec.beta,
                                                  np.linalg.eigvalsh(jacobi), rec.dps, radius)
            break
        except _Uncertain as exc:
            rec = _chebyshev_recurrence(m, order, _more_digits(rec.dps, exc.bits))
    if any(b <= a for a, b in zip(roots, roots[1:])):
        raise _Breakdown("two float64 seeds polished into one node")
    if roots[0] < 0:
        raise IndefiniteMomentsError(
            f"the order-{len(roots)} Gauss rule has a node t = r^2 < 0: no "
            f"positive measure on t >= 0 matches these moments", order=len(roots))
    # each product with s or m_0 rounded to the working precision, then to a double
    prec, (sm, se), (mm, me) = dps_to_prec(rec.dps), rec.scale, rec.mass
    nodes = np.array([_float(_round(x * sm, se - f, prec)) for x in roots])
    masses = np.array([_float(_round(wm * mm, we + me, prec)) for wm, we in weights])
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


def _nodes_and_masses(alpha, beta, seeds, dps: int,
                      radius: float = -math.inf) -> tuple[list, list, int]:
    """The Newton-polished zero of p_n, n = len(alpha), from each float64
    seed, as an integer in units of 2^-F; the Christoffel number at each,
    as an integer pair rounded once to the recurrence's precision; and F.

    The pairs alpha_k and beta_k are truncated to multiples of 2^-F, F being
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
    keeps more than F - (dps // 2) log2(10) bits.  A node is 0 only where
    2^-F lies _FLOOR_GUARD_BITS below the floor, else F widens to that: a
    node between the floor and 2^-F is not 0.

    F is at least 0, so no shift below is negative; only a smallest nonzero
    seed at 2^244 or more, from a graded Jacobi matrix, gets more guard bits.

    Every alpha_k and beta_k lies within 2^radius of its exact value; an
    enclosure wider than 2^-F, at the first F or a widened one, leaves the
    truncated coefficients uncertain and raises _Uncertain."""
    n, prec = len(alpha), dps_to_prec(dps)
    smallest = min((abs(s) for s in seeds if s), default=1.0)
    f = max(0, _SEED_GUARD_BITS - (math.frexp(math.ulp(smallest))[1] - 1))
    floor = 10 ** (dps // 2)        # y 2^-F is inside the floor iff |y| floor <= 2^F
    while True:
        if radius + 1 > -f:
            raise _Uncertain(radius + 1 + f)
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
            # a nonzero node keeps _SEED_GUARD_BITS + 53 bits, and a zero one
            # is 0 on a grid 2^16 finer than the floor
            short = (_SEED_GUARD_BITS + 53 - abs(x).bit_length() if nonzero
                     else (floor << _FLOOR_GUARD_BITS).bit_length() - f)
            if short > 0:
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
            wm, we = _div(h, 0, cd, 0, prec)
            weights.append((wm, we + (n - 1) * f))
        else:
            return roots, weights, f


def _fixed(x: tuple, f: int) -> int:
    """The pair x truncated to a multiple of 2^-f, in units of 2^-f."""
    m, e = x
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

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
The float64 eigenvalues of the Jacobi matrix only seed the nodes.  One
Newton step on the recurrence, exact in fixed point, lifts each 53-bit seed
to about 106 bits; from there one correctly rounded Newton sweep meets the
2^-70 stop rule and polishes the node, and the mass is the Christoffel
number read off that sweep by the confluent Christoffel-Darboux identity.
The fixed point keeps 192 guard bits below the ulp of the smallest nonzero
seed.  The masses of nearly atomic rules read its truncation, since their
nodes cluster and lower-order zeros lie close to them: over 3,000 rules at
q = e^{i theta} with 64 or 128 guard bits a few float64 masses moved, one
by 8e-8 relative, and with 192 none did.  The polish starts from the
recurrence and keeps only a float64 node and mass, so it runs at 192
bits: a 53-bit seed and the 2^-70 stop rule take 123 bits, and 192 leaves
64 guard bits above 128.  A rule whose nodes are ill conditioned relative
to the entries of its Jacobi matrix, as a node near t = 0 far below the
rest makes them, keeps the recurrence's precision.

The recurrence and the polish run on signed (mantissa, exponent) integer
pairs, through a small kernel of their own.  Each operation rounds its
exact result half-even to the precision at hand.  Under round_nearest,
mpmath's mpf_add, mpf_sub, mpf_mul and mpf_div are correctly rounded in
the same sense, and a correctly rounded result is unique.  So the
recurrence is bit for bit mpf arithmetic at the working precision, and the
polish is bit for bit mpf arithmetic at 192 bits on the coefficients and
the refined seed, each rounded once to 192 bits, without mpmath's cost per
operation.  That the float64 rules are the ones a polish at the working
precision gives was checked by sweep over weights, q and orders; it does
not hold by construction.  Only the final nodes and masses are cast to
float64, which perturbs the matched moments by a few ulps at most.  A
polished node below zero means no positive measure on t >= 0 fits the
moments, even with a definite Hankel matrix, and the rule is refused as
indefinite.

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
from mpmath.libmp import (dps_to_prec, from_float, from_man_exp, fzero, mpf_e, mpf_exp,
                          mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_pow,
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
    at this order."""


# the solver's own failures at an order; anything else is a fault and propagates
_SOLVER_FAILURES = (_Breakdown, ZeroDivisionError, OverflowError)


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
# Arithmetic precision of the Newton polish, in bits.  A float64 seed and the
# 2^-70 stop rule take 53 + 70 = 123 bits; 192 leaves 64 guard bits above 128.
_POLISH_BITS = 192
# the largest relative condition of the nodes at which the polish runs at
# _POLISH_BITS (see _polish_prec)
_MAX_CONDITION = 2.0 ** 48
# Guard bits of _refine_seeds' fixed point below the ulp of the smallest
# nonzero seed; at 64 or 128 the masses of some nearly atomic rules move
# (see the module docstring)
_SEED_GUARD_BITS = 192


def _golub_welsch(m: MomentSequence, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and masses of the Gauss rule, ascending, as float64.

    float64 eigenvalues of the Jacobi matrix seed Newton on the monic
    recurrence p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1}.  _refine_seeds
    takes the first step exactly in fixed point, which leaves each seed
    about 106 bits right; the polish at _POLISH_BITS, capped at the
    recurrence's precision, then meets the 2^-70 stop rule on its first
    correctly rounded sweep, where a float64 seed took two.  That sweep
    gives every node, and each mass is the Christoffel number
    1 / sum_k p_k(x)^2 / (beta_1 ... beta_k) in units where m_0 = 1, taken
    from it by the Christoffel-Darboux identity.  With the nodes' relative
    condition at most 2^48, 192 bits keep more than 144 bits of each node,
    74 above the stop rule; a worse conditioned rule is polished at the
    recurrence's precision (see _polish_prec).  A mass, or a node the
    polish left nonzero, below the smallest normal double is refused as an
    underflow, and a node past a double as an overflow.
    """
    alpha, beta, atoms, log_s, log_m0, dps = _chebyshev_recurrence(m, order)
    npts = atoms if atoms is not None else order
    off = np.sqrt(np.array([float(b) for b in beta[1:npts]]))
    jacobi = (np.diag([float(a) for a in alpha[:npts]])
              + np.diag(off, 1) + np.diag(off, -1))
    if not np.all(np.isfinite(jacobi)):
        raise _Breakdown("the Jacobi matrix overflows float64")
    seeds = np.linalg.eigvalsh(jacobi)
    starts = _refine_seeds(alpha[:npts], beta[:npts], seeds)
    roots, weights = _polish(alpha[:npts], beta[:npts], seeds, dps, starts,
                             prec=_polish_prec(jacobi, dps))
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
    # a subnormal mass keeps only a few bits, too few for the moments it
    # matches, and so does a nonzero node rounded to 0 or a subnormal; a node
    # past a double matches none
    tiny = np.finfo(float).tiny
    if np.any(masses < tiny):
        raise _Breakdown("a Christoffel mass underflows float64")
    if not np.isfinite(nodes).all():
        raise _Breakdown("a Gauss node overflows float64")
    if any(x != fzero and t < tiny for x, t in zip(roots, nodes)):
        raise _Breakdown("a nonzero Gauss node underflows float64")
    return nodes, masses


def _polish_prec(jacobi: np.ndarray, dps: int) -> int:
    """The polish's precision in bits: _POLISH_BITS, capped at the
    recurrence's, when the nodes are well conditioned relative to the
    entries of the Jacobi matrix J, else the recurrence's.

    A sweep rounded to b bits is exact for J with each entry moved by a
    few 2^-b of itself.  For a definite J that moves each node by at most
    about 2^-b / lambda_min(H) of itself, with H = D^-1/2 J D^-1/2 and
    D = diag(J) (Demmel and Veselic 1992).  Nodes spread over many decades
    by a graded J keep lambda_min(H) near 1.  A node near t = 0 far below
    the rest, as a nearly atomic measure at 0 gives, drives it to float64
    noise, and 192 bits would hold that node too coarsely for the stop
    rule."""
    prec = dps_to_prec(dps)
    diag = np.diag(jacobi)
    if np.all(diag > 0):
        d = 1.0 / np.sqrt(diag)
        with np.errstate(over="ignore"):
            h = d[:, None] * jacobi * d[None, :]
        if (np.all(np.isfinite(h))
                and np.linalg.eigvalsh(h)[0] * _MAX_CONDITION >= 1.0):
            return min(prec, _POLISH_BITS)
    return prec


def _refine_seeds(alpha, beta, seeds) -> list:
    """One Newton step on p_npts, npts = len(alpha), from each float64 seed,
    exactly in fixed point, as (mantissa, exponent) integer pairs.

    alpha_k, beta_k and the seed are truncated to multiples of 2^-F, F being
    _SEED_GUARD_BITS below the ulp of the smallest nonzero seed, so every
    seed is exact.  The coefficients of p_npts then come out of the
    recurrence as exact integers, that of x^j in units of 2^-(npts-j)F, once
    for all seeds; Horner's rule in the seed's 53-bit mantissa gives
    p_npts(x) and p_npts'(x) exactly.  No operation is rounded: only the step
    p_npts / p_npts' is truncated to a multiple of 2^-F.  A seed whose
    p_npts' is 0 keeps its float64 value."""
    smallest = min((abs(s) for s in seeds if s), default=1.0)
    f = _SEED_GUARD_BITS - (math.frexp(math.ulp(smallest))[1] - 1)

    def fixed(x):
        m, e = _pair(x)
        return m << (e + f) if e + f >= 0 else m >> -(e + f)

    # p_{k-1} and p_k, highest coefficient first
    prev, cur = [], [1]
    for a, b in zip(alpha, beta):
        am, bm = fixed(a._mpf_), fixed(b._mpf_)
        nxt = cur + [0]
        for j in range(len(cur)):
            nxt[j + 1] -= am * cur[j]
        for j in range(len(prev)):
            nxt[j + 2] -= bm * prev[j] << f
        prev, cur = cur, nxt
    starts = []
    for seed in seeds:
        xm, xe = _pair(from_float(seed))
        sh = xe + f                     # x in units of 2^-F is xm << sh
        p, dp = 1, 0
        for c in cur[1:]:
            dp = (dp * xm << sh) + p
            p = (p * xm << sh) + c
        starts.append(((xm << sh) - p // dp, -f) if dp else (xm, xe))
    return starts


def _polish(alpha, beta, seeds, dps: int, starts=None, *,
            prec: int) -> tuple[list, list]:
    """Newton-polished zeros of p_npts, npts = len(alpha), from the float64
    seeds, and the Christoffel number at each, as raw mpf tuples at ``prec``
    bits.  Newton starts from ``starts``, one (mantissa, exponent) pair per
    seed as _refine_seeds gives them, or else from the seeds themselves; a
    message names the float64 seed.  Each start, alpha_k and beta_k is
    rounded once to ``prec`` bits, as mpf(+a) rounds it there, and the
    iteration runs on integer pairs, every operation correctly rounded to
    nearest, so each tuple is the one mpf arithmetic gives at ``prec`` bits
    from that start.  The noise floor 10^-(dps // 2) still comes from the
    recurrence's ``dps``.

    Each Newton sweep ends with p_npts, p_npts', p_{npts-1} and p_{npts-1}'
    at its iterate, and the confluent Christoffel-Darboux identity, exact at
    every x,

        sum_{k<npts} p_k(x)^2 / h_k = (p_npts' p_{npts-1} - p_npts p_{npts-1}') / h_{npts-1}

    with h_k = beta_1 ... beta_k, gives the Christoffel number 1 / sum as
    h_{npts-1} over that numerator, with no further sweep.  It is taken at
    the iterate just before the node: the stop rule bounds that last step
    by 2^-70 |x|, and from a refined seed, whose first sweep is its last,
    the step is about the refined seed's error, some 2^-106 |x|, far below
    float64.  A numerator that is not positive is a breakdown."""
    with mpmath.workprec(prec):
        # Newton converges quadratically, so once a step is below 2^-70 |x|
        # the node is exact far beyond float64; a node at t = 0 only meets
        # the recurrence's own noise floor, and inside it the node is 0
        floor_m, floor_e = _pair((mpmath.mpf(10) ** (-(dps // 2)))._mpf_)
    # each coefficient rounded once to prec bits, as mpf(+a) rounds it
    coeffs = [(*_round(*_pair(a._mpf_), prec), *_round(*_pair(b._mpf_), prec))
              for a, b in zip(alpha, beta)]
    hm, he = 1, 0                           # beta_1 ... beta_{npts-1}
    for _, _, bm, be in coeffs[1:]:
        hm, he = _round(hm * bm, he + be, prec)
    roots, weights = [], []
    if starts is None:
        starts = [_pair(from_float(s)) for s in seeds]
    for seed, (xm, xe) in zip(seeds, starts):
        xm, xe = _round(xm, xe, prec)
        for _ in range(_NEWTON_STEPS):
            # p_npts(x) and p_npts'(x) by the recurrence and its derivative
            qm = qe = pe = dqm = dqe = dpm = dpe = 0     # p_prev, p, dp_prev, dp
            pm = 1
            for am, ae, bm, be in coeffs:
                tm, te = _add(xm, xe, -am, ae, prec)
                um, ue = _round(tm * pm, te + pe, prec)
                vm, ve = _round(bm * qm, be + qe, prec)
                nm, ne = _add(um, ue, -vm, ve, prec)
                um, ue = _round(tm * dpm, te + dpe, prec)
                um, ue = _add(pm, pe, um, ue, prec)
                vm, ve = _round(bm * dqm, be + dqe, prec)
                dqm, dqe, dpm, dpe = dpm, dpe, *_add(um, ue, -vm, ve, prec)
                qm, qe, pm, pe = pm, pe, nm, ne
            dm, de = _div(pm, pe, dpm, dpe, prec)
            xm, xe = _add(xm, xe, -dm, de, prec)
            sm, se = abs(xm), xe - 70                  # 2^-70 |x|, exact
            if _lt(sm, se, floor_m, floor_e):
                sm, se = floor_m, floor_e
            if not _lt(sm, se, abs(dm), de):
                break
        else:
            raise _Breakdown(f"Newton polish did not converge from seed {seed!r}")
        if not _lt(floor_m, floor_e, abs(xm), xe):
            xm = 0
        # the last sweep's values, at the iterate before x
        um, ue = _round(dpm * qm, dpe + qe, prec)
        vm, ve = _round(pm * dqm, pe + dqe, prec)
        cm, ce = _add(um, ue, -vm, ve, prec)
        if cm <= 0:
            raise _Breakdown(f"the Christoffel-Darboux numerator is not positive "
                             f"at the node polished from seed {seed!r}")
        roots.append(from_man_exp(xm, xe))
        weights.append(from_man_exp(*_div(hm, he, cm, ce, prec)))
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

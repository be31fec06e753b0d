"""Reference Gauss rules in mpf-object arithmetic, for the tests and for
tests/gauss_sweep.py.

The solver holds integer pairs (m, e), the value m 2^e, from its scaled
moments to its float64 rule; ``to_mpf`` turns one into an mpf for these
oracles.  ``mpf_recurrence`` and ``mpf_polish`` are the solver's recurrence
and Newton polish in mpf objects.  From the solver's own scaled moments and
working precision (``solver_precision``) they give its coefficients to the
last bit and its rules.  ``exact_golub_welsch`` runs them from the exact
moments of the weights instead, rounded once at four times the solver's
working precision, with the recurrence and polish at that precision too:
the rule the solver would give if nothing but its epsilon test and noise
floor, which keep the solver's digits, depended on its precision.
"""

import contextlib
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
from mpmath import libmp

from qmanin import measure
from qmanin.errors import IndefiniteMomentsError

# the solver itself, whatever a test patches in its place
SOLVER = measure._golub_welsch


def to_mpf(x):
    """The solver's integer pair x = (m, e) as the mpf m 2^e."""
    return mpmath.mp.make_mpf(libmp.from_man_exp(*x))


def solver_precision(m, order, solve=None):
    """The scaled moments and the working precision at which the last
    recurrence of ``solve``, by default the solver, ran on the
    order-``order`` rule of ``m``, whether it returned or was refused, with
    the scale and mass taken at that precision; the moments, scale and mass
    as mpf."""
    seen = []
    real = measure._recurrence

    def record(nu, n, dps):
        seen.append((nu, dps))
        return real(nu, n, dps)

    with mock.patch.object(measure, "_recurrence", record), \
            contextlib.suppress(IndefiniteMomentsError, measure._Breakdown):
        (solve or SOLVER)(m, order)
    nu, dps = seen[-1]
    _, scale, mass = measure._scaled_moments(m, 2 * order, libmp.dps_to_prec(dps))
    return [to_mpf(x) for x in nu], to_mpf(scale), to_mpf(mass), dps


def mpf_recurrence(nu, order, dps, prec=None):
    """``measure._recurrence`` in mpf-object arithmetic, from the scaled
    moments ``nu``, at the precision of ``dps`` digits or at ``prec`` bits,
    with the epsilon of ``dps``: (alpha, beta, atoms)."""
    with mpmath.workprec(prec or libmp.dps_to_prec(dps)):
        alpha = [nu[1] / nu[0]]
        beta = [nu[0]]
        eps = mpmath.mpf(10) ** (-(dps // 2))
        sig_prev = [mpmath.mpf(0)] * (2 * order)
        sig_cur = list(nu)
        atoms = None
        for k in range(1, order):
            sig_next = [mpmath.mpf(0)] * (2 * order)
            for l in range(k, 2 * order - k):
                sig_next[l] = (sig_cur[l + 1]
                               - alpha[k - 1] * sig_cur[l]
                               - beta[k - 1] * sig_prev[l])
            b = sig_next[k] / sig_cur[k - 1]
            if b <= eps * max(1, abs(beta[-1])):
                if b < -eps * max(1, abs(beta[-1])):
                    raise IndefiniteMomentsError(
                        f"Hankel matrix indefinite at order {k + 1}: no positive "
                        f"measure matches these moments", order=k + 1)
                atoms = k
                break
            alpha.append(sig_next[k + 1] / sig_next[k] - sig_cur[k] / sig_cur[k - 1])
            beta.append(b)
            sig_prev, sig_cur = sig_cur, sig_next
        return alpha, beta, atoms


def jacobi_seeds(alpha, beta, npts):
    off = np.sqrt(np.array([float(b) for b in beta[1:npts]]))
    jacobi = (np.diag([float(a) for a in alpha[:npts]])
              + np.diag(off, 1) + np.diag(off, -1))
    if not np.all(np.isfinite(jacobi)):
        raise measure._Breakdown("the Jacobi matrix overflows float64")
    return np.linalg.eigvalsh(jacobi)


def mpf_newton(alpha, beta, seed, dps, prec=None):
    """The polished node from one seed and the last Newton sweep's values,
    in mpf objects at ``prec`` bits, by default the precision of ``dps``
    digits; the floor comes from ``dps``.  The mpf-object Newton polish that
    ``measure._nodes_and_masses`` is compared against."""
    npts = len(alpha)
    with mpmath.workprec(prec or libmp.dps_to_prec(dps)):
        tol = mpmath.mpf(2) ** -70
        floor = mpmath.mpf(10) ** (-(dps // 2))
        x = mpmath.mpf(seed)
        for _ in range(measure._NEWTON_STEPS):
            sweep = monic_values(alpha, beta, npts, x)
            dx = sweep[1] / sweep[2]           # p_npts / p_npts'
            x -= dx
            if abs(dx) <= max(tol * abs(x), floor):
                break
        else:
            raise measure._Breakdown(
                f"Newton polish did not converge from seed {seed!r}")
        return (x if abs(x) > floor else mpmath.mpf(0)), sweep


def mpf_polish(alpha, beta, seeds, dps, prec=None):
    """The mpf-object polish that ``measure._nodes_and_masses`` is compared
    against, returning mpf: each mass
    is h_{npts-1} / (p_npts' p_{npts-1} - p_npts p_{npts-1}') from the last
    Newton sweep, the confluent Christoffel-Darboux identity.  Every
    coefficient is first rounded to the working precision."""
    with mpmath.workprec(prec or libmp.dps_to_prec(dps)):
        alpha, beta = [+a for a in alpha], [+b for b in beta]
        h_last = mpmath.mpf(1)
        for b in beta[1:]:
            h_last *= b
        roots, weights = [], []
        for seed in seeds:
            x, (values, p, dp, dp_prev) = mpf_newton(alpha, beta, seed, dps, prec)
            cd = dp * values[-1] - p * dp_prev
            if not cd > 0:
                raise measure._Breakdown(
                    f"the Christoffel-Darboux numerator is not positive at the "
                    f"node polished from seed {seed!r}")
            roots.append(x)
            weights.append(h_last / cd)
        return roots, weights


def mpf_christoffel_polish(alpha, beta, seeds, dps, prec=None):
    """The same nodes with each mass the Christoffel sum
    1 / sum_k p_k(x)^2 / (beta_1 ... beta_k), taken in a further sweep at
    the polished node, in mpf objects."""
    npts = len(alpha)
    with mpmath.workprec(prec or libmp.dps_to_prec(dps)):
        norms = [mpmath.mpf(1)]
        for k in range(1, npts):
            norms.append(norms[-1] * beta[k])
        roots, weights = [], []
        for seed in seeds:
            x, _ = mpf_newton(alpha, beta, seed, dps, prec)
            p = monic_values(alpha, beta, npts, x)[0]
            roots.append(x)
            weights.append(1 / mpmath.fsum(v ** 2 / h for v, h in zip(p, norms)))
        return roots, weights


def mpf_rule(nu, scale, mass, order, dps, polish=mpf_polish, prec=None):
    """``measure._golub_welsch`` in mpf-object arithmetic throughout, from
    the scaled moments ``nu``, the scale and the mass, at the precision of
    ``dps`` digits or at ``prec`` bits."""
    alpha, beta, atoms = mpf_recurrence(nu, order, dps, prec)
    npts = atoms if atoms is not None else order
    seeds = jacobi_seeds(alpha, beta, npts)
    roots, weights = polish(alpha[:npts], beta[:npts], seeds, dps, prec)
    with mpmath.workprec(prec or libmp.dps_to_prec(dps)):
        if any(a >= b for a, b in zip(roots, roots[1:])):
            raise measure._Breakdown("two float64 seeds polished into one node")
        if roots[0] < 0:
            raise IndefiniteMomentsError(
                f"the order-{npts} Gauss rule has a node t = r^2 < 0: no "
                f"positive measure on t >= 0 matches these moments", order=npts)
        nodes = np.array([float(x * scale) for x in roots])
        masses = np.array([float(w * mass) for w in weights])
    if np.any(masses < np.finfo(float).tiny):
        raise measure._Breakdown("a Christoffel mass underflows float64")
    return nodes, masses


def mpf_golub_welsch(m, order, polish=mpf_polish):
    """``measure._golub_welsch`` in mpf-object arithmetic, from the solver's
    own scaled moments and working precision."""
    nu, scale, mass, dps = solver_precision(m, order)
    return mpf_rule(nu, scale, mass, order, dps, polish)


def exact_scaled_moments(w, q, count, prec):
    """nu_j = m_j / (m_0 s^j) for j < count, the scale s = m_1 / m_0 and the
    mass m_0 of the weights ``w`` at ``q``, as mpf at ``prec`` bits.  Each
    nu_j and s is an exact rational, rounded once, for a table and for a
    rule with integer s >= 0; for any other s the powers are taken 64 bits
    further.  m_0 = w_0 / pi is rounded twice."""
    re, im = Fraction(q.value.real), Fraction(q.value.imag)
    q2 = re * re + im * im                      # |q|^2 = n 2^e, exact
    n, e = q2.numerator, 1 - q2.denominator.bit_length()
    if w.table is not None:
        t = [Fraction(x) for x in w.table[:count]]
        ratios = [t[j + 1] * t[0] / (t[j] * t[1]) for j in range(count - 1)]
        first, w0 = t[1] / t[0], t[0] * Fraction(w.scale)
    else:
        first, w0 = Fraction(1), Fraction(w.c) * Fraction(w.scale)
        if w.s.is_integer() and w.s >= 0:
            ratios = [Fraction((j + 1) ** int(w.s)) for j in range(count - 1)]
        else:
            ratios = None
    rnd = libmp.round_nearest
    nu, product = [], Fraction(1)
    for j in range(count):
        # nu_j = (r_0 ... r_{j-1}) / |q|^{j(j-1)}, the power of 2 an exponent
        half = j * (j - 1) // 2
        if ratios is None:
            with mpmath.workprec(prec + 64):
                value = (mpmath.factorial(j) ** mpmath.mpf(w.s)
                         * mpmath.mp.make_mpf(libmp.from_rational(1, n ** half, prec + 64, rnd)))
            x = libmp.mpf_pos(value._mpf_, prec, rnd)
        else:
            x = libmp.from_rational(product.numerator, product.denominator * n ** half, prec, rnd)
            if j < count - 1:
                product *= ratios[j]
        nu.append(mpmath.mp.make_mpf(libmp.mpf_shift(x, -e * half)))
    scale = libmp.mpf_shift(libmp.from_rational(first.numerator, first.denominator * n, prec, rnd),
                            -e)
    with mpmath.workprec(prec + 64):
        mass = mpmath.mpf(w0.numerator) / w0.denominator / mpmath.pi
    with mpmath.workprec(prec):
        return nu, mpmath.mp.make_mpf(scale), +mass


def exact_golub_welsch(m, order):
    """The rule, or refusal, of ``mpf_rule`` from the exact moments of
    ``m.weights`` at ``m.q``, at four times the solver's working precision
    for the order-``order`` rule and with the epsilon and floor of that
    precision."""
    dps = solver_precision(m, order)[3]
    prec = 4 * libmp.dps_to_prec(dps)
    nu, scale, mass = exact_scaled_moments(m.weights, m.q, 2 * order, prec)
    return mpf_rule(nu, scale, mass, order, dps, mpf_polish, prec)


def monic_values(alpha, beta, npts, x):
    """[p_0(x) .. p_{npts-1}(x)], p_npts(x), p_npts'(x) and p_{npts-1}'(x)
    in mpf objects."""
    p_prev, p = mpmath.mpf(0), mpmath.mpf(1)
    dp_prev, dp = mpmath.mpf(0), mpmath.mpf(0)
    values = []
    for k in range(npts):
        values.append(p)
        t = x - alpha[k]
        p_next = t * p - beta[k] * p_prev
        dp_next = p + t * dp - beta[k] * dp_prev
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    return values, p, dp, dp_prev

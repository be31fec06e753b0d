"""Reference computations and output checks, made apart from qmanin.

Nothing here imports qmanin.  Closed forms come from the mathematics
(exponential and geometric kernels, the annihilation band, the coherent
coefficients), moment targets from ``math.lgamma``, and moment sums are
recomputed from a rule's nodes and masses in mpmath.  Every check returns a
``Check`` whose ``worst`` is the largest deviation it saw, so a report can
say by how much a value missed.

Weights are described by the same JSON shape qmanin reads,
``{"kind": "factorial" | "constant" | "power-factorial", "params": {...}}``.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import mpmath
import numpy as np


class Check(NamedTuple):
    ok: bool
    worst: float
    what: str


def _check(worst: float, tol: float, what: str) -> Check:
    # a NaN deviation fails: comparisons with NaN are false
    return Check(bool(worst <= tol), float(worst), what)


def log_weight(spec: dict, n: int) -> float:
    """log w_n for the rule families the workloads use."""
    kind, params = spec["kind"], spec.get("params", {})
    if kind == "factorial":
        return math.lgamma(n + 1)
    if kind == "constant":
        return math.log(params.get("c", 1.0))
    if kind == "power-factorial":
        return params.get("s", 1.0) * math.lgamma(n + 1)
    raise ValueError(f"no reference for weight kind {kind!r}")


def max_rel(got, want) -> float:
    """Largest elementwise |got - want| / |want|."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want) / np.abs(want)))


def max_scaled(got, want) -> float:
    """Largest |got - want| relative to the largest |want|."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


# -- closed forms -----------------------------------------------------------

def kernel_closed_form(spec: dict, mu: complex, lam: complex) -> complex:
    """K(mu, lambda) where |q| = 1 gives a closed form."""
    z = complex(mu).conjugate() * complex(lam)
    if spec["kind"] == "factorial":
        return cmath.exp(z)
    if spec["kind"] == "constant":
        return 1.0 / (spec.get("params", {}).get("c", 1.0) * (1.0 - z))
    raise ValueError(f"no closed-form kernel for {spec['kind']!r}")


def norm_sq_closed_form(spec: dict, lam: complex) -> float:
    return kernel_closed_form(spec, lam, lam).real


def kernel_direct(spec: dict, q_abs: float, mu: complex, lam: complex) -> complex:
    """K(mu, lambda) = sum_n (conj(mu) lambda)^n |q|^{n(n+1)} / w_n, summed
    term by term until the terms fall below 1e-20 of the running sum.

    Used where no closed form exists; only valid where the terms decay, which
    holds for |q| < 1 and every family here.
    """
    z = complex(mu).conjugate() * complex(lam)
    if z == 0:
        return complex(math.exp(-log_weight(spec, 0)))
    log_r, arg = math.log(abs(z)), cmath.phase(z)
    log_q = math.log(q_abs)
    total, n = 0j, 0
    while True:
        log_t = n * log_r + n * (n + 1) * log_q - log_weight(spec, n)
        term = cmath.rect(math.exp(log_t), n * arg)
        total += term
        if n > 4 and abs(term) < 1e-20 * abs(total):
            return total
        n += 1
        if n > 100_000:
            raise ArithmeticError("reference kernel series did not converge")


def coherent_coefficients(spec: dict, q: complex, lam: complex, count: int) -> np.ndarray:
    """a_n = lambda^n q^{n(n+1)/2} w_n^{-1/2} for n < count."""
    lam, q = complex(lam), complex(q)
    log_q = cmath.log(q)
    out = np.empty(count, dtype=complex)
    for n in range(count):
        tri = n * (n + 1) // 2
        out[n] = (lam ** n) * cmath.exp(tri * log_q - 0.5 * log_weight(spec, n))
    return out


def annihilation_band(spec: dict, q: complex, N: int) -> np.ndarray:
    """(N+1)x(N+1) matrix of T_tb: entry (n-1, n) = q^{-n} (w_n / w_{n-1})^{1/2}."""
    q = complex(q)
    mat = np.zeros((N + 1, N + 1), dtype=complex)
    for n in range(1, N + 1):
        ratio = math.exp(0.5 * (log_weight(spec, n) - log_weight(spec, n - 1)))
        mat[n - 1, n] = q ** (-n) * ratio
    return mat


def adjoint_band(spec: dict, q: complex, N: int) -> np.ndarray:
    """Conjugate transpose of the annihilation band."""
    return annihilation_band(spec, q, N).conj().T


def toeplitz_number_diagonal(spec: dict, q: complex, N: int) -> np.ndarray:
    """T_{th^1 tb^1}: diagonal q^{-n} w_{n+1} / w_n (that is (n+1) q^{-n}
    for factorial weights)."""
    q = complex(q)
    diag = [q ** (-n) * math.exp(log_weight(spec, n + 1) - log_weight(spec, n))
            for n in range(N + 1)]
    return np.diag(np.array(diag, dtype=complex))


def paragrassmann_band(weights) -> np.ndarray:
    """l x l nilpotent annihilation: superdiagonal (w_j / w_{j-1})^{1/2}."""
    l = len(weights)
    mat = np.zeros((l, l), dtype=complex)
    for j in range(1, l):
        mat[j - 1, j] = math.sqrt(weights[j] / weights[j - 1])
    return mat


def moment_target_logs(spec: dict, q_abs: float, jmax: int) -> list:
    """log m_j = -j(j+1) log|q| + log w_j - log pi for j = 0..jmax."""
    log_q = math.log(q_abs)
    return [-j * (j + 1) * log_q + log_weight(spec, j) - math.log(math.pi)
            for j in range(jmax + 1)]


def moment_sums(nodes, masses, jmax: int, dps: int = 40) -> list:
    """log of sum_i mass_i t_i^j for j = 0..jmax, in extended precision."""
    with mpmath.workdps(dps):
        t = [mpmath.mpf(float(x)) for x in nodes]
        m = [mpmath.mpf(float(x)) for x in masses]
        return [float(mpmath.log(mpmath.fsum(mi * ti ** j for mi, ti in zip(m, t))))
                for j in range(jmax + 1)]


# -- checks -----------------------------------------------------------------

def check_values(got, want, rtol: float, what: str) -> Check:
    return _check(max_rel(got, want), rtol, what)


def check_matrix(got, want, tol: float, what: str) -> Check:
    return _check(max_scaled(got, want), tol, what)


def check_at_most(value: float, limit: float, what: str) -> Check:
    return _check(value, limit, what)


def check_moments(nodes, masses, spec: dict, q_abs: float, jmax: int,
                  rtol: float = 1e-9) -> Check:
    """Every moment sum of the rule matches its target to ``rtol``."""
    if len(nodes) != len(masses) or len(nodes) == 0:
        return Check(False, math.inf, "moments: malformed rule")
    if min(masses) <= 0 or min(nodes) < 0:
        return Check(False, math.inf, "moments: non-positive mass or negative node")
    got = moment_sums(nodes, masses, jmax)
    want = moment_target_logs(spec, q_abs, jmax)
    worst = max(abs(math.expm1(g - w)) for g, w in zip(got, want))
    return _check(worst, rtol, f"moments 0..{jmax}")


def check_identity(got, tol: float, what: str) -> Check:
    got = np.asarray(got, dtype=complex)
    return _check(float(np.max(np.abs(got - np.eye(got.shape[0])))), tol, what)


def check_norm_bound(bound: float, matrix, what: str) -> Check:
    """The quadrature norm bound dominates the operator 2-norm."""
    op_norm = float(np.linalg.norm(np.asarray(matrix, dtype=complex), 2))
    return Check(bool(bound >= op_norm), op_norm / bound, what)


def nilpotency_index(matrix) -> int:
    """Smallest p with M^p = 0 exactly, or 0 when no p <= dim works."""
    m = np.asarray(matrix, dtype=complex)
    power = np.eye(m.shape[0], dtype=complex)
    for p in range(1, m.shape[0] + 1):
        power = power @ m
        if not power.any():
            return p
    return 0


def check_nilpotent(matrix, index: int) -> Check:
    found = nilpotency_index(matrix)
    return Check(found == index, float(abs(found - index)),
                 f"nilpotent of index {index} (found {found})")

"""The acceptance suite: every closed-form identity as a checkable gate.

Each criterion pins its own configuration and tolerance and reports a
pass/fail verdict with the worst observed deviation, taken by
``measure.worst`` so that a NaN deviation is the worst and fails.  The
CLI command ``qmanin verify`` runs the full list and exits non-zero on
any failure; the pytest suite wraps the same functions.

Oracles used for cross-checking (the adjacent-swap rewriter, the
coefficient recursion, column-wise projection of symbol products) are
implemented here independently of the production code paths they test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np
from numpy.random import default_rng

from .algebra import ManinElement, normal_order_product, project_P
from .coherent import (coherent_coefficients, coherent_norm_sq, cs_transform,
                       eigen_residual, evolve, evolve_state, kernel,
                       radius_of_convergence)
from .measure import (MomentSequence, closed_form_density,
                      gauss_quadrature_from_moments, norm_divergence_witness,
                      verify_density_moments, verify_moments,
                      verify_resolution_identity, worst)
from .operators import (adjoint_annihilation_matrix, annihilation_matrix,
                        toeplitz_matrix)
from .paragrassmann import ParagrassmannConfig, pg_annihilation, pg_structure_report
from .symbols import (PolynomialSymbol, lower_symbol, lower_symbol_grid,
                      quantize_cs, quantize_cs_norm_bound, secondary_toeplitz)
from .weights import QParam, WeightSequence


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number:02d} [{self.name}]: {self.detail}"


def _qgauss_table(q_abs: float, length: int = 31) -> WeightSequence:
    """Explicit table w_n = |q|^{n(n+1)}, the radius-one family for any q."""
    return WeightSequence.explicit([q_abs ** (n * (n + 1)) for n in range(length)])


# -- 1 ----------------------------------------------------------------------

def criterion_coherent_eigen_identity() -> tuple[bool, str]:
    """Eigen residual of truncated coherent states at tol 1e-14."""
    w = WeightSequence.factorial()
    residual = 0.0
    for q in (1.0, 1j, cmath.exp(1j * math.pi / 5)):
        for lam in (0.5, 1 + 1j, 3.0):
            st = coherent_coefficients(lam, w, q, tol=1e-14)
            residual = worst(residual, eigen_residual(st, w, q).residual)
    return residual <= 1e-10, f"max residual {residual:.3e} (<= 1e-10)"


# -- 2 ----------------------------------------------------------------------

def criterion_radius() -> tuple[bool, str]:
    """Rules give their closed forms exactly, and the table estimator gives
    the closed form of the rule its table holds within 1e-2."""
    const, ones = WeightSequence.constant(), WeightSequence.explicit([1.0] * 1001)
    ok, details = True, []
    for w, q, want, verdict in ((const, 1.0, 1.0, "diverges"),
                                (WeightSequence.factorial(), 1.0, math.inf, None),
                                (const, 2.0, 0.0, None), (ones, 1.0, 1.0, "diverges"),
                                (ones, 2.0, 0.0, None), (_qgauss_table(0.5), 0.5, 1.0, None),
                                (_qgauss_table(2.0), 2.0, 1.0, None)):
        est = radius_of_convergence(w, q)
        tol = 1e-2 if w.table is not None and want else 0.0
        ok = (ok and (est.value == want or abs(est.value - want) <= tol)
              and est.extreme == (want == 0.0) and verdict in (None, est.boundary_verdict))
        details.append(f"{w.describe()}/q={q:g} -> {est.value:.4f}")
    return ok, ", ".join(details) + " (rules exact, tables <= 1e-2)"


# -- 3 ----------------------------------------------------------------------

def criterion_closed_form_measure() -> tuple[bool, str]:
    w = WeightSequence.factorial()
    density = closed_form_density(w, 1.0)
    if density is None:
        return False, "closed form missing for factorial/|q|=1"
    rep = verify_density_moments(density, w, 1.0, 20, tol=1e-9)
    surrogate = density.quadrature(12)
    rep2 = verify_moments(surrogate, w, 1.0, 10, tol=1e-8)
    return (rep.ok and rep2.ok,
            f"density moment dev {rep.max_deviation:.3e} (<= 1e-9), "
            f"surrogate normalization dev {rep2.max_deviation:.3e} (<= 1e-8)")


# -- 4 ----------------------------------------------------------------------

def criterion_resolution_identity() -> tuple[bool, str]:
    w = WeightSequence.factorial()
    quad = gauss_quadrature_from_moments(
        MomentSequence.from_weights(w, 1.0, 23), 12)
    rep = verify_resolution_identity(quad, w, 1.0, basis_size=10,
                                     angular_points=25, tol=1e-8)
    return rep.ok, f"max |G - I| = {rep.max_deviation:.3e} (<= 1e-8)"


# -- 5 ----------------------------------------------------------------------

def criterion_divergence_identity() -> tuple[bool, str]:
    w = WeightSequence.factorial()
    quad = gauss_quadrature_from_moments(
        MomentSequence.from_weights(w, 1.0, 23), 12)
    wit = norm_divergence_witness(quad, w, 1.0, 20)
    term_dev = worst(*(abs(s - (n + 1)) for n, s in enumerate(wit.partial_sums)))
    slope_dev = abs(wit.slope - 1.0)
    return (term_dev <= 1e-6 and slope_dev <= 1e-6,
            f"partial-sum dev {term_dev:.3e} (<= 1e-6), "
            f"slope dev {slope_dev:.3e} (<= 1e-6)")


# -- 6 ----------------------------------------------------------------------

def _lambda_grid(scale: float, count: int = 50) -> np.ndarray:
    k = np.arange(count)
    radii = scale * (0.15 + 0.8 * (k + 1) / count)
    angles = 2.0 * math.pi * k / count + 0.37
    return radii * np.exp(1j * angles)


def criterion_lower_symbols() -> tuple[bool, str]:
    configs = [
        (WeightSequence.factorial(), 1.0, 2.5),
        (WeightSequence.factorial(), 1j, 2.5),
        (WeightSequence.constant(), 1.0, 0.6),
        (WeightSequence.power_factorial(2.0), cmath.exp(1j * math.pi / 7), 2.0),
        (_qgauss_table(2.0), 2.0, 0.4),
    ]
    worst_flat = 0.0
    for w, q, scale in configs:
        window = w.max_index(120)
        A = annihilation_matrix(w, q, window)
        pts = _lambda_grid(scale)
        vals = lower_symbol_grid(A, pts, w, q, normalized=True).values
        worst_flat = worst(worst_flat, float(np.max(np.abs(vals - pts))))
    ok_flat = worst_flat <= 1e-10

    worst_sharp = 0.0
    for q, w, lam in ((1.0, WeightSequence.factorial(), 1 + 0.5j),
                      (2.0, _qgauss_table(2.0), 0.3),
                      (1 / 3, WeightSequence.factorial(), 0.8)):
        window = w.max_index(120) - 1
        A = adjoint_annihilation_matrix(w, q, window)
        v = lower_symbol(A, lam, w, q, normalized=False)
        target = complex(lam).conjugate() * coherent_norm_sq(lam, w, q, tol=1e-14)
        worst_sharp = worst(worst_sharp, abs(v - target))
    ok_sharp = worst_sharp <= 1e-9
    return (ok_flat and ok_sharp,
            f"annihilation Berezin dev {worst_flat:.3e} (<= 1e-10) over 5 configs, "
            f"adjoint unnormalized dev {worst_sharp:.3e} (<= 1e-9)")


# -- 7 ----------------------------------------------------------------------

def criterion_upper_symbols() -> tuple[bool, str]:
    w = WeightSequence.factorial()
    q = cmath.exp(1j * math.pi / 5)           # |q| = 1
    N = 12
    quad = gauss_quadrature_from_moments(MomentSequence.from_weights(w, q, 27), 14)
    dev_ann = np.max(np.abs(quantize_cs(PolynomialSymbol.lam(), quad, w, q, N).matrix
                            - annihilation_matrix(w, q, N).matrix))
    dev_adj = np.max(np.abs(quantize_cs(PolynomialSymbol.lam_conj(), quad, w, q, N).matrix
                            - adjoint_annihilation_matrix(w, q, N).matrix))
    dev_one = np.max(np.abs(quantize_cs(PolynomialSymbol.one(), quad, w, q, N).matrix
                            - np.eye(N + 1)))
    f = PolynomialSymbol.lam()
    bound = quantize_cs_norm_bound(f, quad, w, q)
    op_norm = float(np.linalg.norm(quantize_cs(f, quad, w, q, 15).matrix, 2))
    ok = (dev_ann <= 1e-8 and dev_adj <= 1e-8 and dev_one <= 1e-12
          and op_norm <= bound)
    return ok, (f"Qcs(lam) dev {dev_ann:.3e}, Qcs(lam*) dev {dev_adj:.3e} "
                f"(<= 1e-8), Qcs(1) dev {dev_one:.3e}, "
                f"norm {op_norm:.3f} <= bound {bound:.3f}")


# -- 8 ----------------------------------------------------------------------

def criterion_transform_kernel() -> tuple[bool, str]:
    w = WeightSequence.factorial()
    q = 1.0
    # basis images
    worst_basis = 0.0
    for j in range(7):
        e = np.zeros(j + 1)
        e[j] = 1.0
        for lam in (0.4, 1 - 0.7j):
            got = cs_transform(e, lam, w, q)
            expect = w.weight(j) ** -0.5 * complex(lam).conjugate() ** j
            worst_basis = worst(worst_basis, abs(got - expect))
    # orthonormality of the images under the quadrature inner product, on the
    # Gauss-Laguerre surrogate of e^{-t}/pi (criterion 4 certifies the
    # moment-solved rule)
    quad = closed_form_density(w, q).quadrature(12)
    gram = verify_resolution_identity(quad, w, q, basis_size=10,
                                      angular_points=25, tol=1e-8)
    # Cor 6.1 and the diagonal identity
    rng = default_rng(808)
    lam, mu = np.array([[complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
                         for _ in range(2)] for _ in range(20)]).T
    K = kernel(mu, lam, w, q, tol=1e-14)
    worst_cor = worst(*(abs(cs_transform(coherent_coefficients(l, w, q, tol=1e-14)
                                         .coefficients(), m, w, q) - k)
                        for l, m, k in zip(lam, mu, K)))
    worst_diag = float(np.max(np.abs(kernel(lam, lam, w, q, tol=1e-14)
                                     - coherent_norm_sq(lam, w, q, tol=1e-14))))
    worst_exp = float(np.max(np.abs(K - np.exp(mu.conj() * lam))))
    # Cor 6.1 in the Hardy space (constant weights at q = 1), against the
    # closed-form Szego kernel 1 / (1 - conj(mu) lam).  With |mu| <= |lam|
    # each dropped term |a_n(mu) a_n(lam)| is at most |a_n(lam)|^2, so the
    # truncation costs at most phi_lam's certified tail, 1e-14 K(lam, lam)
    wh = WeightSequence.constant()
    rng = default_rng(809)
    r = 0.8 * np.sqrt(rng.uniform(0, 1, (2, 8)))
    arg = np.exp(2j * np.pi * rng.uniform(0, 1, (2, 8)))
    lam, mu = r.max(axis=0) * arg[0], r.min(axis=0) * arg[1]
    worst_hardy = worst(*(abs(cs_transform(coherent_coefficients(l, wh, q, tol=1e-14)
                                           .coefficients(), m, wh, q) - k)
                          for l, m, k in zip(lam, mu, kernel(mu, lam, wh, q))))
    ok = (worst_basis <= 1e-12 and gram.ok and worst_cor <= 1e-10
          and worst_diag <= 1e-12 and worst_exp <= 1e-10 and worst_hardy <= 1e-10)
    return ok, (f"basis-image dev {worst_basis:.3e}, image Gram dev "
                f"{gram.max_deviation:.3e} (<= 1e-8), C(phi_lam) vs K dev "
                f"{worst_cor:.3e} (<= 1e-10), K diag dev {worst_diag:.3e}, "
                f"exp kernel dev {worst_exp:.3e} (<= 1e-10), Hardy C(phi_lam) "
                f"vs Szego K dev {worst_hardy:.3e} (<= 1e-10)")


# -- 9 ----------------------------------------------------------------------

def criterion_secondary_quantization() -> tuple[bool, str]:
    worst_id, worst_shift, worst_adj = 0.0, 0.0, 0.0
    for q, N, order in ((1.0, 12, 14), (0.5, 5, 6)):
        w = WeightSequence.factorial()
        quad = gauss_quadrature_from_moments(
            MomentSequence.from_weights(w, q, 2 * order - 1), order)
        S1 = secondary_toeplitz(PolynomialSymbol.one(), quad, w, q, N)
        worst_id = worst(worst_id, float(np.max(np.abs(S1.matrix - np.eye(N + 1)))))
        S = secondary_toeplitz(PolynomialSymbol.lam_conj(), quad, w, q, N)
        shift = np.zeros((N + 1, N + 1), dtype=complex)
        for k in range(N):
            shift[k + 1, k] = (QParam.of(q).value.conjugate() ** -(k + 1)
                               * math.sqrt(w.weight(k + 1) / w.weight(k)))
        scale = float(np.max(np.abs(shift)))
        worst_shift = worst(worst_shift, float(np.max(np.abs(S.matrix - shift))) / scale)
        worst_adj = worst(worst_adj, float(np.max(np.abs(
            S.matrix - adjoint_annihilation_matrix(w, q, N).matrix))) / scale)
    ok = worst_id <= 1e-12 and worst_shift <= 1e-8 and worst_adj <= 1e-8
    return ok, (f"S(1) dev {worst_id:.3e}, S(lam*) closed-form rel dev "
                f"{worst_shift:.3e} (<= 1e-8), vs adjoint rel dev "
                f"{worst_adj:.3e} at real q")


# -- 10 ---------------------------------------------------------------------

def criterion_time_evolution() -> tuple[bool, str]:
    w = WeightSequence.factorial()
    q = cmath.exp(1j * math.pi / 5)
    rng = default_rng(505)
    worst_coef, worst_norm = 0.0, 0.0
    for _ in range(20):
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        t = float(rng.uniform(0, 2 * math.pi))
        st = coherent_coefficients(lam, w, q, tol=1e-14)
        moved = evolve_state(st, t)
        rebuilt = coherent_coefficients(evolve(lam, t), w, q, tol=1e-14)
        n = min(moved.n_cutoff, rebuilt.n_cutoff) + 1
        worst_coef = worst(worst_coef, float(np.max(np.abs(
            moved.coefficients()[:n] - rebuilt.coefficients()[:n]))))
        worst_norm = worst(worst_norm, abs(moved.norm_sq - st.norm_sq))
    ok = worst_coef <= 1e-12 and worst_norm <= 1e-12
    return ok, (f"componentwise dev {worst_coef:.3e} (<= 1e-12), "
                f"norm drift {worst_norm:.3e}")


# -- 11 ---------------------------------------------------------------------

def criterion_paragrassmann() -> tuple[bool, str]:
    rng = default_rng(1111)
    details = []
    ok = True
    for l in (2, 3, 5):
        weights = tuple(float(x) for x in rng.uniform(0.5, 3.0, size=l))
        cfg = ParagrassmannConfig(l, weights, q=1.7)
        T = pg_annihilation(cfg).matrix
        power = np.linalg.matrix_power(T, l)
        prev = np.linalg.matrix_power(T, l - 1)
        rep = pg_structure_report(cfg)
        eigs = np.linalg.eigvals(T)
        ok = ok and (not power.any() and prev.any()
                     and rep.eigenvector_count == 1
                     and float(np.max(np.abs(eigs))) <= 1e-12
                     and rep.jordan_deviation <= 1e-12)
        details.append(f"l={l}: T^{l}=0 exactly, jordan dev "
                       f"{rep.jordan_deviation:.1e}")
    return ok, "; ".join(details)


# -- 12 ---------------------------------------------------------------------

def _swap_oracle(i1, j1, i2, j2, q: complex) -> tuple[int, int, int]:
    """Normal-order theta^i1 tb^j1 theta^i2 tb^j2 by adjacent swaps.

    Returns (i, j, qexp) where the product is q**qexp * theta^i tb^j."""
    word = ["t"] * i1 + ["b"] * j1 + ["t"] * i2 + ["b"] * j2
    qexp = 0
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] == "b" and word[k + 1] == "t":
                word[k], word[k + 1] = "t", "b"
                qexp -= 1
                changed = True
    return word.count("t"), word.count("b"), qexp


def criterion_oracle_suites() -> tuple[bool, str]:
    rng = default_rng(2024)
    # normal ordering vs swap rewriting
    for _ in range(200):
        i1, j1, i2, j2 = (int(x) for x in rng.integers(0, 9, size=4))
        q = float(rng.uniform(0.5, 2.0)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        c1 = complex(rng.standard_normal(), rng.standard_normal())
        c2 = complex(rng.standard_normal(), rng.standard_normal())
        prod = normal_order_product(ManinElement.monomial(q, i1, j1, c1),
                                    ManinElement.monomial(q, i2, j2, c2))
        oi, oj, oexp = _swap_oracle(i1, j1, i2, j2, q)
        (mon, coeff), = list(prod)
        if (mon.i, mon.j) != (oi, oj) or coeff.qexp != oexp:
            return False, f"normal ordering mismatch at {(i1, j1, i2, j2)}"
        if not abs(coeff.value - c1 * c2) <= 1e-12 * abs(c1 * c2):
            return False, f"coefficient mismatch at {(i1, j1, i2, j2)}"

    # toeplitz matrix vs algebra-side projection, all monomials i,j <= 4
    w = WeightSequence.factorial()
    q = 0.8 * cmath.exp(0.9j)
    N = 12
    worst_t = 0.0
    for i in range(5):
        for j in range(5):
            g = ManinElement.monomial(q, i, j)
            T = toeplitz_matrix(g, w, q, N).matrix
            for n in range(N + 1):
                col = np.zeros(N + 1, dtype=complex)
                phi_n = ManinElement.monomial(q, n, 0, w.weight(n) ** -0.5)
                img = project_P(normal_order_product(g, phi_n), w)
                for mon, _ in img:
                    if mon.i <= N:
                        col[mon.i] = (img.coefficient(mon.i, 0)
                                      * math.sqrt(w.weight(mon.i)))
                scale = max(float(np.max(np.abs(col))), 1.0)
                worst_t = worst(worst_t, float(np.max(np.abs(T[:, n] - col))) / scale)
    if not worst_t <= 1e-12:
        return False, f"toeplitz oracle deviation {worst_t:.3e}"

    # closed form (explicit power) vs the recursion, 50 random triples
    worst_r = 0.0
    for _ in range(50):
        q = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * float(rng.uniform(0.4, 1.0))
        wseq = (WeightSequence.factorial() if rng.random() < 0.5
                else WeightSequence.constant(float(rng.uniform(0.5, 2.0))))
        lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        st = coherent_coefficients(lam, wseq, q, tol=1e-13)
        closed = st.coefficients()
        qp = QParam.of(q)
        rec = np.empty_like(closed)
        rec[0] = wseq.weight(0) ** -0.5
        for n in range(len(rec) - 1):
            rec[n + 1] = (lam * qp.value ** (n + 1)
                          * math.sqrt(wseq.weight(n) / wseq.weight(n + 1)) * rec[n])
        scale = float(np.max(np.abs(rec)))
        worst_r = worst(worst_r, float(np.max(np.abs(closed - rec))) / scale)
    if not worst_r <= 1e-12:
        return False, f"recursion oracle deviation {worst_r:.3e}"
    return True, (f"200 ordering cases exact, toeplitz dev {worst_t:.3e}, "
                  f"recursion dev {worst_r:.3e} (<= 1e-12)")


CRITERIA: List[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "coherent-eigen-identity", criterion_coherent_eigen_identity),
    (2, "phase-space-radius", criterion_radius),
    (3, "closed-form-measure", criterion_closed_form_measure),
    (4, "resolution-of-identity", criterion_resolution_identity),
    (5, "norm-divergence", criterion_divergence_identity),
    (6, "lower-symbols", criterion_lower_symbols),
    (7, "upper-symbols", criterion_upper_symbols),
    (8, "transform-and-kernel", criterion_transform_kernel),
    (9, "secondary-quantization", criterion_secondary_quantization),
    (10, "time-evolution", criterion_time_evolution),
    (11, "paragrassmann", criterion_paragrassmann),
    (12, "oracle-suites", criterion_oracle_suites),
]


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            try:
                passed, detail = fn()
            except Exception as exc:  # a crash is a failure, not an abort
                return CriterionResult(num, name, False, f"raised {exc!r}")
            return CriterionResult(num, name, passed, detail)
    raise KeyError(f"no criterion {number}")

import cmath
import json
import math
import warnings

import numpy as np
import pytest

from conftest import column_from_projection
from qmanin import (ConfigError, ManinElement, WeightSequence,
                    adjoint_annihilation_matrix, annihilation_matrix,
                    boundedness_report, creation_matrix, domain_membership,
                    number_matrix, toeplitz_matrix)
from qmanin import jsonio
from qmanin.errors import InputTooLargeError
from qmanin.operators import TruncatedOperator, OperatorMeta
from qmanin.weights import QParam

WFAC = WeightSequence.factorial()
WCONST = WeightSequence.constant()


class TestToeplitzMatrix:
    def test_annihilation_band_paper_values(self):
        q = 0.9 * cmath.exp(0.4j)
        T = toeplitz_matrix(ManinElement.theta_bar(q), WFAC, q, 6)
        for n in range(1, 7):
            expect = QParam.of(q).power(-n) * math.sqrt(n)
            assert abs(T.matrix[n - 1, n] - expect) < 1e-13 * abs(expect)
        assert np.count_nonzero(T.matrix) == 6

    def test_unit_symbol_is_exact_identity(self):
        q = 1.7j
        T = toeplitz_matrix(ManinElement.one(q), WFAC, q, 5)
        assert np.array_equal(T.matrix, np.eye(6, dtype=complex))
        assert T.meta.exact

    def test_theta_thetabar_diagonal(self):
        q = 0.8
        g = ManinElement.monomial(q, 1, 1)
        T = toeplitz_matrix(g, WFAC, q, 5)
        for n in range(6):
            expect = q**-n * WFAC.weight(n + 1) / WFAC.weight(n)
            assert abs(T.matrix[n, n] - expect) < 1e-13 * abs(expect)

    def test_matches_projection_oracle(self):
        N = 8
        for q in (1.0, 0.8 * cmath.exp(0.9j)):
            for i in range(4):
                for j in range(4):
                    g = ManinElement.monomial(q, i, j)
                    T = toeplitz_matrix(g, WFAC, q, N)
                    for n in range(N + 1):
                        col = column_from_projection(g, WFAC, N, n)
                        scale = max(float(np.max(np.abs(col))), 1.0)
                        assert np.max(np.abs(T.matrix[:, n] - col)) <= 1e-12 * scale

    def test_multi_term_symbol_oracle(self):
        q = 1.1 * cmath.exp(0.3j)
        g = (ManinElement.monomial(q, 2, 1, 0.5 - 0.5j)
             + ManinElement.monomial(q, 0, 2)
             + ManinElement.one(q) * 2.0)
        T = toeplitz_matrix(g, WFAC, q, 10)
        for n in range(11):
            col = column_from_projection(g, WFAC, 10, n)
            scale = max(float(np.max(np.abs(col))), 1.0)
            assert np.max(np.abs(T.matrix[:, n] - col)) <= 1e-12 * scale

    def test_band_structure(self):
        q = 1j
        for i, j in ((2, 0), (0, 3), (2, 1), (3, 3)):
            T = toeplitz_matrix(ManinElement.monomial(q, i, j), WFAC, q, 9)
            rows, cols = np.nonzero(T.matrix)
            assert np.all(rows - cols == i - j)

    def test_linearity(self):
        q = 0.7 + 0.1j
        g = ManinElement.monomial(q, 1, 1)
        h = ManinElement.theta_bar(q)
        alpha = 2.0 - 1.0j
        left = toeplitz_matrix(alpha * g + h, WFAC, q, 7).matrix
        right = (alpha * toeplitz_matrix(g, WFAC, q, 7).matrix
                 + toeplitz_matrix(h, WFAC, q, 7).matrix)
        assert np.allclose(left, right, rtol=1e-13)

    def test_exactness_flag(self):
        q = 1.0
        assert toeplitz_matrix(ManinElement.theta_bar(q), WFAC, q, 5).meta.exact
        assert not toeplitz_matrix(ManinElement.theta(q), WFAC, q, 5).meta.exact
        mixed = ManinElement.theta(q) + ManinElement.theta_bar(q)
        assert not toeplitz_matrix(mixed, WFAC, q, 5).meta.exact

    def test_entry_too_large_for_a_double_is_refused(self):
        # th^200 at N = 200: the one entry sqrt(200!) ~ 1e187 still fits
        T = toeplitz_matrix(ManinElement.monomial(1.0, 200, 0), WFAC, 1.0, 200)
        assert math.isclose(T.matrix[200, 0].real, math.exp(0.5 * math.lgamma(201)),
                            rel_tol=1e-12)
        # th^400 at N = 400: sqrt(400!) overflows, so the operator is refused
        with pytest.raises(ConfigError, match="finite"):
            toeplitz_matrix(ManinElement.monomial(1.0, 400, 0), WFAC, 1.0, 400)

    def test_horizon_failure_is_config_error(self):
        w = WeightSequence.explicit([1.0, 2.0, 3.0])
        with pytest.raises(ConfigError):
            toeplitz_matrix(ManinElement.theta(1.0), w, 1.0, 5)

    def test_band_entries_exact_to_rounding(self):
        # factorial weights at q = 1: entry (n+i-j, n) is
        # sqrt(perm(n+i, i) * perm(n+i, j)); the th tb diagonal is n + 1
        N = 1024
        d = toeplitz_matrix(ManinElement.monomial(1.0, 1, 1), WFAC, 1.0, N).matrix
        n = np.arange(N + 1)
        assert np.max(np.abs(np.diag(d).real - (n + 1)) / (n + 1)) <= 4.5e-16
        for i in range(4):
            for j in range(4):
                T = toeplitz_matrix(ManinElement.monomial(1.0, i, j), WFAC, 1.0, N).matrix
                for col in range(max(0, j - i), N + 1 + min(0, j - i)):
                    exact = math.sqrt(math.perm(col + i, i) * math.perm(col + i, j))
                    assert abs(T[col + i - j, col] - exact) <= 1e-15 * exact, (i, j, col)

    def test_long_band_refused_before_allocation(self):
        # th^K tb^K stays on the diagonal, but each entry would multiply 2K
        # ratios; th^K alone leaves the window and costs nothing
        K = 10**9
        with pytest.raises(InputTooLargeError):
            toeplitz_matrix(ManinElement.monomial(1.0, K, K), WCONST, 1.0, 4)
        T = toeplitz_matrix(ManinElement.monomial(1.0, K, 0), WCONST, 1.0, 4)
        assert not T.matrix.any() and not T.meta.exact

    def test_ratio_past_a_double_is_refused(self):
        # the band entry (w_n / w_{n-1})^{1/2} = n^200 passes a double from
        # n = 35 on
        w = WeightSequence.power_factorial(400.0)
        with pytest.raises(ConfigError, match="finite"):
            annihilation_matrix(w, 1.0, 100)

    def test_band_entry_inside_a_double_builds_where_its_square_does_not(self):
        # w_15 / w_14 = 15^300 passes a double, its square root 15^150 does not
        A = annihilation_matrix(WeightSequence.power_factorial(300.0), 1.0, 15)
        assert math.isclose(A.matrix[14, 15].real, float(15**150), rel_tol=1e-14)
        assert np.isfinite(A.matrix).all()


class TestNamedMatrices:
    def test_annihilation_superdiagonal(self):
        A = annihilation_matrix(WFAC, 1.0, 3)
        assert np.allclose(np.diag(A.matrix, k=1), [1, math.sqrt(2), math.sqrt(3)])

    def test_number_matrix(self):
        assert np.array_equal(number_matrix(2).matrix,
                              np.diag([0.0, 1.0, 2.0]).astype(complex))

    def test_adjoint_is_conjugate_transpose(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            q = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
            w = (WFAC if rng.random() < 0.5
                 else WeightSequence.constant(float(rng.uniform(0.5, 2))))
            N = int(rng.integers(2, 12))
            A = annihilation_matrix(w, q, N)
            Astar = adjoint_annihilation_matrix(w, q, N)
            assert np.allclose(Astar.matrix, A.matrix.conj().T, rtol=1e-13)
            assert np.allclose(A.adjoint().matrix, Astar.matrix, rtol=1e-13)

    def test_creation_vs_adjoint(self):
        # distinct for q = 2 (spec/paper: not adjoints unless q = 1)
        C2 = creation_matrix(WFAC, 2.0, 6).matrix
        A2 = adjoint_annihilation_matrix(WFAC, 2.0, 6).matrix
        assert np.max(np.abs(C2 - A2)) > 0.1
        C1 = creation_matrix(WFAC, 1.0, 6).matrix
        A1 = adjoint_annihilation_matrix(WFAC, 1.0, 6).matrix
        assert np.allclose(C1, A1, rtol=1e-14)

    def test_named_bands_are_toeplitz_matrices(self):
        for w in (WFAC, WeightSequence.power_factorial(-0.5), WeightSequence.constant(2.0)):
            for q in (1.0, cmath.exp(0.6j), 0.9, 2 + 1j, -1.0):
                A = annihilation_matrix(w, q, 120)
                C = creation_matrix(w, q, 120)
                assert np.array_equal(
                    A.matrix, toeplitz_matrix(ManinElement.theta_bar(q), w, q, 120).matrix)
                assert np.array_equal(
                    C.matrix, toeplitz_matrix(ManinElement.theta(q), w, q, 120).matrix)
                assert (A.meta.symbol, A.meta.exact) == ("tb", True)
                assert (C.meta.symbol, C.meta.exact) == ("th", False)

    def test_creation_is_q_free(self):
        a = creation_matrix(WFAC, 2.0, 5).matrix
        b = creation_matrix(WFAC, 0.5j, 5).matrix
        assert np.array_equal(a, b)


class TestTruncatedOperator:
    def test_rejects_nonfinite(self):
        bad = np.eye(3, dtype=complex)
        bad[1, 1] = math.inf
        with pytest.raises(ConfigError):
            TruncatedOperator(bad, OperatorMeta("x", "factorial", 1.0, True))

    def test_json_and_csv(self):
        A = annihilation_matrix(WFAC, 1j, 2)
        doc = json.loads(jsonio.dumps(A))
        assert doc["dim"] == 3
        assert doc["meta"]["symbol"] == "tb"
        csv_text = A.to_csv()
        rows = csv_text.strip().split("\n")
        assert len(rows) == 3
        # three quoted "re,im" cells: 3 commas inside + 2 separators
        assert rows[0].count(",") == 5
        assert rows[0].count('"') == 6


def _norm_bound_cases():
    """(matrix, one band?) pairs: the lower-symbol bands over weight families,
    q values and windows, and matrices of several bands."""
    rng = np.random.default_rng(5)
    for w in (WFAC, WCONST, WeightSequence.power_factorial(2.0),
              WeightSequence.explicit([1.5 ** (n * (n + 1)) for n in range(42)])):
        for q in (1.0, 1j, 0.8, 1.3 * cmath.exp(0.4j)):
            for N in (10, 40):
                ann = annihilation_matrix(w, q, N).matrix
                yield ann, True
                yield creation_matrix(w, q, N).matrix, True
                yield adjoint_annihilation_matrix(w, q, N).matrix, True
                yield ann + ann.conj().T, False
                g = ManinElement.monomial(q, 2, 1) + ManinElement.monomial(q, 0, 1, 0.5j)
                yield toeplitz_matrix(g, w, q, N).matrix, False
    for N in (0, 10, 120):
        yield number_matrix(N).matrix, True
        dense = rng.normal(size=(N + 1, N + 1)) + 1j * rng.normal(size=(N + 1, N + 1))
        yield dense, N == 0
        yield np.triu(np.tril(dense, 2), -1), N == 0


def test_norm_bound_against_svd():
    # an upper bound of ||A||_2 up to rounding, and ||A||_2 itself on one band
    count = 0
    for matrix, one_band in _norm_bound_cases():
        A = TruncatedOperator(matrix, OperatorMeta("A", "w", 1.0, True))
        svd = float(np.linalg.norm(A.matrix, 2))
        ulp4 = 4 * np.spacing(svd)
        assert A.norm_bound() >= svd - ulp4
        if one_band:
            assert abs(A.norm_bound() - svd) <= ulp4
        count += 1
    assert count == 2 * 4 * 4 * 5 + 3 * 3
    zero = TruncatedOperator(np.zeros((4, 4)), OperatorMeta("0", "w", 1.0, True))
    assert zero.norm_bound() == 0.0


class TestBoundedness:
    def test_constant_unit_q_bounded_not_compact(self):
        rep = boundedness_report(WCONST, 1.0)
        assert rep.bounded == "yes" and rep.compact == "no"
        assert rep.sup_estimate == 1.0

    def test_factorial_unit_q_unbounded(self):
        rep = boundedness_report(WFAC, 1.0)
        assert rep.bounded == "no" and rep.compact == "no"
        assert math.isinf(rep.sup_estimate)

    def test_factorial_q2_compact(self):
        rep = boundedness_report(WFAC, 2.0, horizon=200)
        assert rep.compact == "yes" and rep.bounded == "yes"

    def test_backward_shift_bounded_iff_q_at_least_one(self):
        # constant weights: ratios |q|^{-2n} decay for |q| > 1 and blow up
        # geometrically for |q| < 1
        rep_big = boundedness_report(WCONST, 1.2)
        assert rep_big.bounded == "yes" and rep_big.compact == "yes"
        rep_small = boundedness_report(WCONST, 0.8)
        assert rep_small.bounded == "no"

    def test_slowly_growing_ratios_inconclusive(self):
        # ratios log(n+2): increments decay exactly like 1/n, the p-series edge
        table, acc = [], 1.0
        for n in range(151):
            if n:
                acc *= math.log(n + 2)
            table.append(acc)
        rep = boundedness_report(WeightSequence.explicit(table), 1.0, horizon=150)
        assert rep.bounded == "inconclusive"

    def test_overflowing_ratios_are_unbounded_without_warning(self):
        # |q|^{-2n} n! passes a double near n = 150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = boundedness_report(WFAC, 0.1)
        assert math.isinf(max(rep.ratio_sequence))
        assert rep.bounded == "no" and math.isinf(rep.sup_estimate)

    def test_invariant_guard(self):
        from qmanin.operators import BoundednessReport
        with pytest.raises(ConfigError):
            BoundednessReport((1.0,), "yes", "no", math.inf)
        with pytest.raises(ConfigError):
            BoundednessReport((1.0,), "inconclusive", "yes", 1.0)


class TestDomainMembership:
    def test_finite_vector(self):
        assert domain_membership([1.0, 2.0, 3.0], WFAC, 1.0) == "in_domain"

    def test_coherent_coefficients_inside(self):
        lam = 2.0
        def family(n):
            return lam**n / math.sqrt(WFAC.weight(n))
        assert domain_membership(family, WFAC, 1.0) == "in_domain"

    def test_harmonic_coefficients_outside(self):
        assert domain_membership(lambda n: 1.0 / (n + 1), WFAC, 1.0) \
            == "not_in_domain"

    def test_geometric_inside_constant_weights(self):
        assert domain_membership(lambda n: 0.5**n, WCONST, 1.0) == "in_domain"

    def test_growing_terms_outside(self):
        assert domain_membership(lambda n: 1.0, WCONST, 0.8) == "not_in_domain"


# -- the toeplitz matrix against a per-entry oracle -----------------------------

def _entrywise_toeplitz(g, w, q, N):
    """T_g one entry at a time, in Python complex arithmetic: the symbol
    coefficient times q^{-jn}, times the products of sqrt_ratio taken from
    1.0 in increasing k; the matrix, or the refusal's type and message."""
    q = QParam.of(q)
    mat = np.zeros((N + 1, N + 1), dtype=complex)
    try:
        for mon, coeff in g:
            i, j = mon.i, mon.j
            for n in range(max(0, j - i), N + min(0, j - i) + 1):
                z = coeff.evaluate(g.q) * q.power(-j * n)
                for ts in (range(1, i + 1), range(i - j + 1, i + 1)):
                    band = 1.0
                    for t in ts:
                        band *= w.sqrt_ratio(n + t)
                    z = z * band
                mat[n + i - j, n] += z
        TruncatedOperator(mat, OperatorMeta("g", w.describe(), q.value, True))
    except ConfigError as exc:
        return type(exc).__name__, str(exc)
    return _hex(mat)


def _hex(mat):
    return [(z.real.hex(), z.imag.hex()) for z in mat.ravel().tolist()]


def _built(g, w, q, N):
    try:
        return _hex(toeplitz_matrix(g, w, q, N).matrix)
    except ConfigError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("w", [WFAC, WCONST, WeightSequence.power_factorial(-1.5),
                               WeightSequence.power_factorial(300.0),
                               WeightSequence.explicit([1e-300, 1e300, 1.0, 2.0, 5.0, 0.5])],
                         ids=["factorial", "constant", "pf-1.5", "pf300", "table"])
@pytest.mark.parametrize("q", [1.0, 0.8 * cmath.exp(0.9j), -0.6, 40.0, 25.0 * cmath.exp(-2.2j)])
def test_toeplitz_matrix_is_the_entrywise_product_bit_for_bit(w, q):
    # at |q| = 40 and 25, q^{-jn} underflows within the window; pf300's band
    # entries leave a double, and on the table's whole window th^i tb^j with
    # i, j >= 1 needs w_{N+1}, past its horizon: both are refused
    N = w.max_index(60)
    for i in range(5):
        for j in range(5):
            g = ManinElement.monomial(q, i, j, 0.3 - 0.7j)
            assert _built(g, w, q, N) == _entrywise_toeplitz(g, w, q, N), (i, j)
    g = (ManinElement.monomial(q, 2, 1, 1.5j) + ManinElement.monomial(q, 3, 2, -0.25)
         + ManinElement.monomial(q, 0, 4, 2.0))
    assert _built(g, w, q, N) == _entrywise_toeplitz(g, w, q, N)


def test_toeplitz_refusal_names_the_first_power_past_a_double():
    # the CLI's `operator --q 0.1 --cutoff 400`: |q|^-n passes a double at n = 305
    g = ManinElement.theta_bar(0.1)
    want = ("InputTooLargeError", "|q|**-305 overflows a double")
    assert _entrywise_toeplitz(g, WFAC, 0.1, 400) == want
    assert _built(g, WFAC, 0.1, 400) == want

import cmath
import math

import numpy as np
import pytest

from conftest import qgauss_table
from qmanin import (ConfigError, InsufficientQuadratureError, ManinElement,
                    MomentSequence, OutsidePhaseSpaceError, PolynomialSymbol,
                    WeightSequence,
                    WindowTooSmallError, adjoint_annihilation_matrix, annihilation_matrix,
                    coherent_coefficients, coherent_norm_sq,
                    gauss_quadrature_from_moments,
                    lower_symbol, lower_symbol_grid, number_matrix, quantize_cs,
                    quantize_cs_norm_bound, secondary_toeplitz, toeplitz_matrix)
from qmanin.coherent import _kernel_series, coeff_log_arrays
from qmanin.errors import InputTooLargeError
from qmanin.operators import TruncatedOperator
from qmanin.series import bound_from_log
from qmanin.symbols import _forms
from qmanin.weights import QParam

WFAC = WeightSequence.factorial()


@pytest.fixture(scope="module")
def quad12():
    return gauss_quadrature_from_moments(
        MomentSequence.from_weights(WFAC, 1.0, 27), 14)


class TestPolynomialSymbol:
    def test_parse_and_describe(self):
        f = PolynomialSymbol.parse("(2) L^1 Lc^2 + L^3 + (0-1j) 1")
        assert f.coeffs == {(0, 0): -1j, (1, 2): 2.0, (3, 0): 1.0}
        again = PolynomialSymbol.parse(f.describe())
        assert again == f

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            PolynomialSymbol.parse("L^x")
        with pytest.raises(ConfigError):
            PolynomialSymbol.parse("th^1")
        with pytest.raises(ConfigError):
            PolynomialSymbol.parse("(abc) L^1")

    def test_parse_shares_the_manin_grammar(self):
        # bare names mean power one, as in parse_manin_symbol
        f = PolynomialSymbol.parse("L Lc + (2) Lc + (1,2) 1")
        assert f.coeffs == {(0, 0): 1 + 2j, (0, 1): 2.0, (1, 1): 1.0}

    def test_conjugate(self):
        f = PolynomialSymbol({(2, 1): 1 + 2j})
        assert f.conjugate().coeffs == {(1, 2): 1 - 2j}
        assert f.conjugate().conjugate() == f

    def test_evaluate_and_degree(self):
        f = PolynomialSymbol({(1, 1): 1.0})
        assert abs(f.evaluate(3 + 4j) - 25.0) < 1e-12
        assert f.degree == 2
        assert PolynomialSymbol.one().degree == 0


class TestLowerSymbol:
    def test_annihilation_berezin_is_identity_function(self):
        A = annihilation_matrix(WFAC, 1j, 90)
        for lam in (0.3, 1 + 1j, 2.2 - 0.1j):
            v = lower_symbol(A, lam, WFAC, 1j)
            assert abs(v - lam) < 1e-12

    def test_parameter_independence(self):
        lam = 0.35 + 0.1j
        values = []
        for w, q in ((WFAC, 1.0), (WFAC, 1j), (WeightSequence.constant(), 0.9),
                     (WeightSequence.power_factorial(2.0), cmath.exp(0.5j)),
                     (qgauss_table(2.0), 2.0)):
            A = annihilation_matrix(w, q, w.max_index(90))
            values.append(lower_symbol(A, lam, w, q))
        assert max(abs(v - lam) for v in values) < 1e-12

    def test_identity_symbol(self):
        I = toeplitz_matrix(ManinElement.one(1.0), WFAC, 1.0, 80)
        assert abs(lower_symbol(I, 1.4, WFAC, 1.0) - 1.0) < 1e-13

    def test_adjoint_unnormalized(self):
        for q in (1.0, 0.5):
            A = adjoint_annihilation_matrix(WFAC, q, 90)
            lam = 0.9 + 0.4j
            v = lower_symbol(A, lam, WFAC, q, normalized=False)
            expect = lam.conjugate() * coherent_norm_sq(lam, WFAC, q, tol=1e-14)
            assert abs(v - expect) <= 1e-11 * abs(expect)

    def test_number_operator_symbol(self):
        # sum n |lam|^{2n}/n! over sum |lam|^{2n}/n! = |lam|^2
        N = number_matrix(100)
        lam = 1.7j
        v = lower_symbol(N, lam, WFAC, 1.0)
        assert abs(v - abs(lam) ** 2) < 1e-11

    def test_adjoint_rule_and_reality(self):
        rng = np.random.default_rng(23)
        M = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
        from qmanin.operators import TruncatedOperator, OperatorMeta
        A = TruncatedOperator(M, OperatorMeta("rand", "factorial", 1.0, True))
        lam = 0.8 - 0.3j
        sharp = lower_symbol(A, lam, WFAC, 1.0, normalized=False)
        sharp_star = lower_symbol(A.adjoint(), lam, WFAC, 1.0, normalized=False)
        assert abs(sharp_star - sharp.conjugate()) < 1e-10 * abs(sharp)
        sym = TruncatedOperator(M + M.conj().T,
                                OperatorMeta("sym", "factorial", 1.0, True))
        v = lower_symbol(sym, lam, WFAC, 1.0)
        assert abs(v.imag) < 1e-12 * max(abs(v), 1.0)

    def test_window_too_small(self):
        A = annihilation_matrix(WFAC, 1.0, 10)
        with pytest.raises(WindowTooSmallError):
            lower_symbol(A, 2.5, WFAC, 1.0)

    def test_certified_error_reported(self):
        A = annihilation_matrix(WFAC, 1.0, 90)
        v, err = lower_symbol(A, 1.2, WFAC, 1.0, return_error=True)
        assert err < 1e-9
        assert abs(v - 1.2) <= max(err, 1e-12)

    def test_operator_norm_only_for_the_error(self, monkeypatch):
        A = annihilation_matrix(WFAC, 1.0, 90)
        _, err = lower_symbol(A, 1.2, WFAC, 1.0, return_error=True)

        def no_norm(*args, **kwargs):
            raise AssertionError("operator norm computed without return_error")

        monkeypatch.setattr(np.linalg, "norm", no_norm)
        assert abs(lower_symbol(A, 1.2, WFAC, 1.0) - 1.2) <= max(err, 1e-12)

    def test_grid_csv(self):
        A = annihilation_matrix(WFAC, 1.0, 80)
        grid = lower_symbol_grid(A, [0.5, 0.5j], WFAC, 1.0)
        text = grid.to_csv()
        assert text.splitlines()[0] == "re_lambda,im_lambda,re_value,im_value"
        assert len(text.splitlines()) == 3


class TestQuantization:
    def test_unit_symbol(self, quad12):
        Q = quantize_cs(PolynomialSymbol.one(), quad12, WFAC, 1.0, 12)
        assert np.max(np.abs(Q.matrix - np.eye(13))) < 1e-12

    def test_reproduces_annihilation(self, quad12):
        Q = quantize_cs(PolynomialSymbol.lam(), quad12, WFAC, 1.0, 12)
        A = annihilation_matrix(WFAC, 1.0, 12)
        assert np.max(np.abs(Q.matrix - A.matrix)) < 1e-8

    def test_reproduces_adjoint(self, quad12):
        Q = quantize_cs(PolynomialSymbol.lam_conj(), quad12, WFAC, 1.0, 12)
        A = adjoint_annihilation_matrix(WFAC, 1.0, 12)
        assert np.max(np.abs(Q.matrix - A.matrix)) < 1e-8

    def test_adjoint_covariance_random_symbols(self, quad12):
        rng = np.random.default_rng(31)
        for _ in range(5):
            coeffs = {}
            for _ in range(3):
                a, b = (int(x) for x in rng.integers(0, 3, size=2))
                coeffs[(a, b)] = complex(*rng.standard_normal(2))
            f = PolynomialSymbol(coeffs)
            Qf = quantize_cs(f, quad12, WFAC, 1.0, 8)
            Qfc = quantize_cs(f.conjugate(), quad12, WFAC, 1.0, 8)
            assert np.max(np.abs(Qfc.matrix - Qf.matrix.conj().T)) < 1e-10

    def test_dequantize_quantize_bottom(self):
        quad20 = gauss_quadrature_from_moments(
            MomentSequence.from_weights(WFAC, 1.0, 39), 20)
        Q1 = quantize_cs(PolynomialSymbol.one(), quad20, WFAC, 1.0, 38)
        for lam in (0.4, 0.5j, -0.3 + 0.3j):
            assert abs(lower_symbol(Q1, lam, WFAC, 1.0) - 1.0) < 1e-10

    @pytest.mark.parametrize("w, q", [
        (WFAC, 0.95 * cmath.exp(0.7j)),
        (WeightSequence.power_factorial(2.0), 1.0),
        (WeightSequence.constant(), 0.9),
    ])
    def test_closed_form_matches_grid_oracle(self, w, q):
        f = PolynomialSymbol.parse("(0.5-1j) L^2 Lc^1 + (2) Lc^3 + (1j) 1")
        N, order = 10, 8
        quad = gauss_quadrature_from_moments(
            MomentSequence.from_weights(w, q, 2 * order - 1), order)
        # oracle: I[k, n] sampled on the node x angle grid, whose
        # 2 * (N + deg f) + 1 angles integrate every angular frequency exactly
        angles = 2 * (N + f.degree) + 1
        z = (np.sqrt(quad.nodes)[:, None]
             * np.exp(2j * math.pi * np.arange(angles) / angles)[None, :]).ravel()
        wts = np.repeat(quad.masses * (math.pi / angles), angles)
        V = z[:, None] ** np.arange(N + 1)[None, :]
        I = V.T @ ((f.evaluate(z) * wts)[:, None] * V.conj())
        pref = np.array([complex(q) ** (k * (k + 1) // 2) / math.sqrt(w.weight(k))
                         for k in range(N + 1)])
        expect = pref[:, None] * pref.conj()[None, :] * I
        for builder in (quantize_cs, secondary_toeplitz):
            M = builder(f, quad, w, q, N).matrix
            assert np.max(np.abs(M - expect)) <= 1e-13 * np.max(np.abs(expect))
            # entry (k, n) is reached only by terms with a - b = n - k
            shift = np.subtract.outer(np.arange(N + 1), np.arange(N + 1))
            reached = np.isin(-shift, [a - b for a, b in f.coeffs])
            assert np.all(M[~reached] == 0)
            assert np.all(M[reached] != 0)

    def test_insufficient_radial_order(self):
        quad3 = gauss_quadrature_from_moments(
            MomentSequence.from_weights(WFAC, 1.0, 5), 3)
        with pytest.raises(InsufficientQuadratureError):
            quantize_cs(PolynomialSymbol.lam(), quad3, WFAC, 1.0, 12)

    def test_norm_bound(self, quad12):
        f = PolynomialSymbol.lam()
        assert quantize_cs_norm_bound(PolynomialSymbol({}), quad12, WFAC, 1.0) == 0.0
        b1 = quantize_cs_norm_bound(f, quad12, WFAC, 1.0)
        b2 = quantize_cs_norm_bound(f.scaled(2.0), quad12, WFAC, 1.0)
        assert abs(b2 - 2 * b1) < 1e-9 * b1
        op = np.linalg.norm(quantize_cs(f, quad12, WFAC, 1.0, 15).matrix, 2)
        assert op <= b1

    def test_norm_bound_dominates_grid_and_operator_norm(self, quad12):
        # the majorant sum |c_ab| r^{a+b} bounds the angular mean of |f| on
        # every node, with equality for a monomial
        q_off = 0.9 * cmath.exp(0.4j)
        rules = [(quad12, 1.0), (gauss_quadrature_from_moments(
            MomentSequence.from_weights(WFAC, q_off, 27), 14), q_off)]
        rng = np.random.default_rng(7)
        for _ in range(30):
            powers = rng.integers(0, 4, size=(int(rng.integers(1, 5)), 2))
            f = PolynomialSymbol({(int(a), int(b)): complex(*rng.normal(size=2))
                                  for a, b in powers})
            for quad, q in rules:
                bound = quantize_cs_norm_bound(f, quad, WFAC, q)
                grid = _grid_norm_estimate(f, quad, WFAC, q)
                assert bound >= grid * (1 - 1e-14)
                if len(f.coeffs) == 1:
                    assert abs(bound - grid) <= 1e-14 * grid
                op = np.linalg.norm(quantize_cs(f, quad, WFAC, q, 12).matrix, 2)
                assert op <= bound


def _grid_norm_estimate(f, quad, w, q):
    """The rule integral of |f| ||phi_lambda||^2 with the angular mean of
    |f| taken over max(64, 4 deg f + 1) angles on each node."""
    count = max(64, 4 * f.degree + 1)
    alpha = 2.0 * math.pi * np.arange(count) / count
    r = np.sqrt(quad.nodes)
    nsq = coherent_norm_sq(r, w, q, tol=1e-12)
    mean_abs = np.mean(np.abs(f.evaluate(r[:, None] * np.exp(1j * alpha))), axis=1)
    return float(np.sum(math.pi * quad.masses * nsq * mean_abs))


class TestSecondaryToeplitz:
    def test_unit_symbol_fixes_basis(self, quad12):
        S = secondary_toeplitz(PolynomialSymbol.one(), quad12, WFAC, 1.0, 12)
        assert np.max(np.abs(S.matrix - np.eye(13))) < 1e-12
        assert S.meta.basis == "B_AH"

    def test_conjugate_shift_closed_form(self, quad12):
        for q, N in ((1.0, 12), (0.5, 5)):
            order = 14 if q == 1.0 else 6
            quad = (quad12 if q == 1.0 else gauss_quadrature_from_moments(
                MomentSequence.from_weights(WFAC, q, 2 * order - 1), order))
            S = secondary_toeplitz(PolynomialSymbol.lam_conj(), quad, WFAC, q, N)
            expect = np.zeros((N + 1, N + 1), dtype=complex)
            for k in range(N):
                expect[k + 1, k] = (complex(q).conjugate() ** -(k + 1)
                                    * math.sqrt(WFAC.weight(k + 1) / WFAC.weight(k)))
            scale = np.max(np.abs(expect))
            assert np.max(np.abs(S.matrix - expect)) <= 1e-8 * scale
            # real q: coincides with the adjoint annihilation band
            A = adjoint_annihilation_matrix(WFAC, q, N)
            assert np.max(np.abs(S.matrix - A.matrix)) <= 1e-8 * scale

    def test_radial_symbol_diagonal(self, quad12):
        S = secondary_toeplitz(PolynomialSymbol({(1, 1): 1.0}), quad12, WFAC, 1.0, 10)
        off = S.matrix - np.diag(np.diag(S.matrix))
        assert np.max(np.abs(off)) < 1e-10
        for k in range(11):
            expect = WFAC.weight(k + 1) / WFAC.weight(k)
            assert abs(S.matrix[k, k] - expect) < 1e-8 * expect


class TestLowerSymbolGrid:
    def test_grid_matches_single_points(self):
        rng = np.random.default_rng(8)
        pts = 2.0 * rng.uniform(0, 1, 40) * np.exp(2j * math.pi * rng.uniform(0, 1, 40))
        pts[3] = 0.0
        for q, normalized in ((1j, True), (0.8, False)):
            A = adjoint_annihilation_matrix(WFAC, q, 90)
            grid = lower_symbol_grid(A, pts, WFAC, q, normalized=normalized)
            for z, v in zip(pts, grid.values):
                one = lower_symbol(A, complex(z), WFAC, q, normalized=normalized)
                assert abs(v - one) <= 1e-15 * max(abs(one), 1.0)

    def test_first_failing_point_raises(self):
        A = annihilation_matrix(WeightSequence.constant(), 1.0, 30)
        w = WeightSequence.constant()
        # point 1 needs more than 30 terms, point 2 lies outside the disk
        with pytest.raises(WindowTooSmallError):
            lower_symbol_grid(A, [0.1, 0.8, 1.5], w, 1.0)
        with pytest.raises(OutsidePhaseSpaceError):
            lower_symbol_grid(A, [0.1, 1.5, 0.8], w, 1.0)
        # lambda = 35 needs more than a 1,024 window, lambda = 27 overflows
        # unnormalized: whichever comes first in the grid raises
        A = annihilation_matrix(WFAC, 1.0, 1024)
        with pytest.raises(InputTooLargeError):
            lower_symbol_grid(A, [1.0, 27.0, 35.0], WFAC, 1.0, normalized=False)
        with pytest.raises(WindowTooSmallError):
            lower_symbol_grid(A, [1.0, 35.0, 27.0], WFAC, 1.0, normalized=False)

    def test_past_a_double(self):
        # ||phi_27||^2 = e^729: the Berezin symbol stays finite, the
        # unnormalized one is refused
        A = annihilation_matrix(WFAC, 1.0, 1024)
        assert abs(lower_symbol(A, 27.0, WFAC, 1.0) - 27.0) <= 1e-12 * 27
        grid = lower_symbol_grid(A, [27.0, 1.0], WFAC, 1.0)
        assert np.all(np.abs(grid.values - [27.0, 1.0]) <= 1e-12 * 27)
        with pytest.raises(InputTooLargeError):
            lower_symbol(A, 27.0, WFAC, 1.0, normalized=False)
        with pytest.raises(InputTooLargeError):
            lower_symbol_grid(A, [1.0, 27.0], WFAC, 1.0, normalized=False)
        # a vanishing form stays 0, not 0 * e^729
        Z = TruncatedOperator(np.zeros((1025, 1025)), A.meta)
        assert lower_symbol(Z, 27.0, WFAC, 1.0, normalized=False) == 0

    def test_error_bound_past_a_double(self):
        # the certified error is taken in the log domain: finite for the
        # Berezin symbol at ||phi_27||^2 = e^729, refused unnormalized
        A = annihilation_matrix(WFAC, 1.0, 1024)
        v, err = lower_symbol(A, 27.0, WFAC, 1.0, return_error=True)
        assert abs(v - 27.0) <= 1e-12 * 27 and 0.0 < err < 1e-4
        with pytest.raises(InputTooLargeError):
            lower_symbol(A, 27.0, WFAC, 1.0, normalized=False, return_error=True)
        # where everything fits a double it is 2 ||A|| sqrt(tail * ||phi||^2)
        st = coherent_coefficients(1.7, WFAC, 1.0, tol=1e-14)
        op_norm = float(np.linalg.norm(A.matrix, 2))
        plain = 2.0 * math.sqrt(st.tail_bound * st.norm_sq) * op_norm
        for normalized, want in ((False, plain), (True, plain / st.norm_sq)):
            _, err = lower_symbol(A, 1.7, WFAC, 1.0, normalized=normalized,
                                  return_error=True)
            assert abs(err - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# the one coherent-state core against the state-based path
# ---------------------------------------------------------------------------

def _lower_symbol_via_state(A, lam, w, q, normalized, tol):
    """The lower symbol and its error bound taken through the stored
    coherent state: coherent_coefficients, scaled_coefficients, _forms."""
    state = coherent_coefficients(lam, w, q, tol=tol)
    if state.n_cutoff > A.cutoff:
        raise WindowTooSmallError(state.n_cutoff)
    b, m = state.scaled_coefficients()
    value = complex(_forms(A, b[None, :], np.array([m]), [state.lam], normalized)[0])
    op_norm = A.norm_bound()
    log_norm_sq = 2.0 * m + math.log(float(np.vdot(b, b).real))
    log_err = 0.5 * (state.tail_log + log_norm_sq)
    if normalized:
        log_err -= log_norm_sq
    return value, 2.0 * op_norm * bound_from_log(log_err) if op_norm else 0.0


def _grid_via_cutoffs(A, pts, w, q, normalized, tol):
    """The lower symbols of a grid from its cutoffs, one mask over the
    rows of one coefficient array."""
    qp = QParam.of(q)
    cuts = np.array([r.nterms - 1 for r in _kernel_series(pts, pts, w, qp, tol)])
    K = int(cuts.max()) + 1
    logmag, phase = coeff_log_arrays(pts, w, qp, 0, K)
    logmag[np.arange(K) > cuts[:, None]] = -np.inf
    m = logmag.max(axis=1)
    B = np.exp(logmag - m[:, None]) * np.exp(1j * phase)
    return _forms(A, B, m, pts, normalized)


_CORE_WEIGHTS = [WFAC, WeightSequence.constant(), WeightSequence.power_factorial(2.0),
                 qgauss_table(1.5, 41)]
_CORE_Q = [1.0, 1j, 0.8, cmath.exp(1j * math.pi / 5)]


@pytest.mark.parametrize("w", _CORE_WEIGHTS, ids=["fac", "const", "pf2", "table"])
def test_lower_symbol_is_the_state_path_bit_for_bit(w):
    rng = np.random.default_rng(31)
    lams = [0.0, 0.05, 0.4 + 0.3j, -0.6j] + [
        0.9 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform()) for _ in range(3)]
    for q in _CORE_Q:
        N = w.max_index(90)
        for A in (annihilation_matrix(w, q, N), adjoint_annihilation_matrix(w, q, N),
                  number_matrix(N)):
            for normalized in (True, False):
                for lam in lams:
                    got = lower_symbol(A, lam, w, q, normalized=normalized,
                                       return_error=True)
                    assert got == _lower_symbol_via_state(A, lam, w, q, normalized, 1e-14)
                    assert lower_symbol(A, lam, w, q, normalized=normalized) == got[0]
                grid = lower_symbol_grid(A, lams, w, q, normalized=normalized)
                want = _grid_via_cutoffs(A, lams, w, q, normalized, 1e-14)
                assert grid.values.tobytes() == want.tobytes()



_DEGREE_2 = [(a, b) for a in range(3) for b in range(3) if a + b <= 2]


@pytest.mark.parametrize("w", [WFAC, WeightSequence.power_factorial(2.0),
                               WeightSequence.constant()],
                         ids=["factorial", "power-factorial-2", "constant"])
@pytest.mark.parametrize("q", [1.0, 1j, 0.9 * cmath.exp(0.4j), 0.7],
                         ids=["1", "i", "0.9e^0.4i", "0.7"])
class TestWickIdentities:
    """The coherent state quantization quantizes the Toeplitz quantization:
    at degree <= 2 it is anti-Wick in A, and Berezin symbols are Wick."""

    def test_anti_wick(self, w, q):
        # Q_cs(lambda^a conj(lambda)^b) = A^a (A*)^b from an order-16 rule
        # solved from the moments; the window N + 4 holds every index the
        # products reach from the (N + 1)^2 block
        N = 10
        quad = gauss_quadrature_from_moments(MomentSequence.from_weights(w, q, 31), 16)
        A = annihilation_matrix(w, q, N + 4).matrix
        for a, b in _DEGREE_2:
            Q = quantize_cs(PolynomialSymbol({(a, b): 1.0}), quad, w, q, N).matrix
            P = (np.linalg.matrix_power(A, a)
                 @ np.linalg.matrix_power(A.conj().T, b))[:N + 1, :N + 1]
            assert np.max(np.abs(Q - P)) <= 1e-12 * np.max(np.abs(P))

    def test_wick(self, w, q):
        # the normalized lower symbol of (A*)^b A^a is conj(lambda)^b lambda^a
        A = annihilation_matrix(w, q, 120)
        pts = np.array([0.3 + 0.4j, -0.5 + 0.2j, 0.6 - 0.35j])
        for a, b in _DEGREE_2:
            M = (np.linalg.matrix_power(A.matrix.conj().T, b)
                 @ np.linalg.matrix_power(A.matrix, a))
            got = lower_symbol_grid(TruncatedOperator(M, A.meta), pts, w, q).values
            want = pts.conj() ** b * pts ** a
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

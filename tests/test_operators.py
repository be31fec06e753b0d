import cmath
import functools
import json
import math
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from conftest import (DOUBLE_MAX, U, band_entry_ulps, column_from_projection,
                      operator_from_matrix, power_ulps, sqrt_reference)
from qmanin import (ConfigError, ManinElement, WeightHorizonError, WeightSequence,
                    adjoint_annihilation_matrix, annihilation_matrix,
                    boundedness_report, creation_matrix, number_matrix,
                    radius_of_convergence, toeplitz_matrix)
from qmanin import jsonio
from qmanin.errors import InputTooLargeError
from qmanin.operators import BoundednessReport, TruncatedOperator, OperatorMeta
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
        with pytest.raises(InputTooLargeError, match="^the annihilation band entry of "
                                                     "column 35 is past the double range$"):
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
            operator_from_matrix(bad, OperatorMeta("x", "factorial", 1.0, True))

    @pytest.mark.parametrize("bands,dim,message", [
        ({1: np.ones(3)}, 3, "^band 1 has shape \\(3,\\), not \\(2,\\)$"),
        ({-2: np.ones((1, 1))}, 3, "^band -2 has shape \\(1, 1\\), not \\(1,\\)$"),
        ({3: np.ones(0)}, 3, "^band offset 3 is outside a 3-dimensional operator$"),
        ({-4: np.ones(1)}, 3, "^band offset -4 is outside a 3-dimensional operator$"),
        ({0: [1.0, math.nan, 2.0]}, 3, "^operator entries must be finite$"),
        ({-1: [1.0, complex(0, math.inf)]}, 3, "^operator entries must be finite$"),
        ({}, 0, "^operator dimension must be at least 1, got 0$"),
    ], ids=["long-band", "2d-band", "offset-past-dim", "offset-below-dim", "nan",
            "complex-inf", "dim-0"])
    def test_band_refusals(self, bands, dim, message):
        with pytest.raises(ConfigError, match=message):
            TruncatedOperator(bands, dim, OperatorMeta("x", "factorial", 1.0, True))

    def test_bands_and_their_dense_view(self):
        # band d holds the entries (r, r + d) in the order np.diag reads them
        A = TruncatedOperator({2: [1, 2], -1: [3j, 4, 5], 0: np.zeros(4)}, 4,
                              OperatorMeta("x", "factorial", 1.0, True))
        assert list(A.bands) == [-1, 0, 2] and A.cutoff == 3
        assert A.matrix.tolist() == [[0, 0, 1, 0], [3j, 0, 0, 2], [0, 4, 0, 0], [0, 0, 5, 0]]
        assert A.adjoint().matrix.tolist() == A.matrix.conj().T.tolist()
        assert A.norm_bound() == 5.0 + 0.0 + 2.0

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
        A = operator_from_matrix(matrix, OperatorMeta("A", "w", 1.0, True))
        svd = float(np.linalg.norm(A.matrix, 2))
        ulp4 = 4 * np.spacing(svd)
        assert A.norm_bound() >= svd - ulp4
        if one_band:
            assert abs(A.norm_bound() - svd) <= ulp4
        count += 1
    assert count == 2 * 4 * 4 * 5 + 3 * 3
    zero = operator_from_matrix(np.zeros((4, 4)), OperatorMeta("0", "w", 1.0, True))
    assert zero.norm_bound() == 0.0


# -- boundedness of the annihilation operator against the theory ---------------

def _sup_reference(s, r):
    """max over n >= 1 of n^s r^{-2n}, r > 1, at 40 digits: term by term
    until the terms fall, since log(n^s r^{-2n}) is concave in n; where the
    peak lies past 10^4 terms, the real maximum (s / (2e log r))^s, which
    the integer one is within a relative s (2 log r / s)^2 / 2 of."""
    with mpmath.workdps(40):
        log_r = mpmath.log(mpmath.mpf(r))
        if s > 2e4 * log_r:
            return (s / (2 * mpmath.e * log_r)) ** s
        best, n = mpmath.mpf(0), 1
        while True:
            term = mpmath.mpf(n) ** s * mpmath.exp(-2 * n * log_r)
            if term < best:
                return best
            best, n = term, n + 1


_EXPONENTS = (-1.0, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0)
_MODULI = (0.5, 0.999, 1.0, 1.001, 2.0)
# phases at which abs(cmath.rect(r, phase)) is r for every r of _MODULI
_PHASES = (0.0, 2.1, -2.5)

_verdict_cases = [
    pytest.param(replace(WeightSequence.power_factorial(s), scale=scale),
                 cmath.rect(r, phase), id=f"s{s:g}-q{r:g}-arg{phase:g}-scale{scale:g}")
    for s in _EXPONENTS for r in _MODULI for phase in _PHASES for scale in (1.0, 0.03)
] + [
    pytest.param(WCONST, 1.2, id="constant-q1.2"),
    pytest.param(WeightSequence.constant(7.0), 0.8, id="constant7-q0.8"),
    pytest.param(WFAC, 0.1, id="factorial-q0.1"),   # |q|^{-2n} n! passes a double
    # x* = s / (2 log|q|) is about 2e16, past 2^53
    pytest.param(WeightSequence.power_factorial(10.0), 1.0 + 2.0 ** -52, id="pf10-q1+eps"),
    # abs(q) rounds to 1 - 2^-53, below 1
    pytest.param(WFAC, cmath.exp(0.31950650216738913j), id="factorial-q1-ulp"),
    pytest.param(WeightSequence.power_factorial(-1.0), cmath.exp(0.31950650216738913j),
                 id="pf-1-q1-ulp"),
    # the sup is about 150075^300 1.001^-300150, past a double
    pytest.param(WeightSequence.power_factorial(300.0), 1.001, id="pf300-q1.001"),
    # s log n and 2n log|q| both pass a double at the largest s
    pytest.param(WeightSequence.power_factorial(sys.float_info.max), 2.0, id="pfmax-q2"),
    pytest.param(WeightSequence.explicit([math.factorial(n) for n in range(151)]), 1.0,
                 id="table"),
]


@pytest.mark.parametrize("w, q", _verdict_cases)
def test_annihilation_verdicts_are_the_closed_form(w, q):
    # T_tb is the weighted backward shift with |band_n|^2 = |q|^{-2n} n^s:
    # ||T_tb||^2 = sup_n |band_n|^2, compact iff band_n -> 0.  The norm is
    # checked against a 40-digit scan; its log-domain value is within a few
    # ulps of |log ||T_tb||^2| <= 400, so 1e-12 relative bounds it
    r, s = abs(q), w.s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if w.table is not None:
            with pytest.raises(WeightHorizonError, match="no w_n past n = 150"):
                boundedness_report(w, q)
            return
        if r > 1.0 and _sup_reference(s, r) > mpmath.mpf(sys.float_info.max):
            with pytest.raises(InputTooLargeError, match="past a double"):
                boundedness_report(w, q)
            return
        rep = boundedness_report(w, q)
    radius = radius_of_convergence(w, q).value
    if r < 1.0 or (r == 1.0 and s > 0):
        assert (rep.bounded, rep.compact, rep.norm_sq) == (False, False, math.inf)
    elif r == 1.0:
        assert (rep.bounded, rep.compact, rep.norm_sq) == (True, s < 0, 1.0)
    else:
        assert rep.bounded and rep.compact
        assert abs(rep.norm_sq / _sup_reference(s, r) - 1) <= 1e-12
    # unbounded iff R = inf, compact iff R = 0, and otherwise R = ||T_tb|| = 1
    assert (not rep.bounded) == (radius == math.inf)
    assert rep.compact == (radius == 0.0)
    if rep.bounded and not rep.compact:
        assert radius == math.sqrt(rep.norm_sq) == 1.0


class TestBoundedness:
    def test_invariant_guard(self):
        with pytest.raises(ConfigError):
            BoundednessReport(True, False, math.inf)
        with pytest.raises(ConfigError):
            BoundednessReport(False, False, 1.0)
        with pytest.raises(ConfigError):
            BoundednessReport(False, True, math.inf)
        assert BoundednessReport(True, True, 0.25).norm_sq == 0.25


# -- the toeplitz matrix against a per-entry oracle -----------------------------

# the bound, in u, on a complex product's rounding error
_SQRT5 = math.sqrt(5)


def _exp2(t):
    """2^t, inf past the double range."""
    return math.inf if t > 1023 else 2.0 ** t


def _factor(x, ulps):
    """A factor of an entry as (exact, log2 |exact|, bound): its computed
    double is within ulps·u·max(|exact|, NORMAL_MIN) of it, and the bound is
    that error over u·|exact|."""
    lm = float(mpmath.log(abs(x), 2))
    return x, lm, ulps * max(1.0, _exp2(-1022 - lm))


@functools.lru_cache(maxsize=None)
def _power(q, e):
    """q^e as a factor, within ``power_ulps``."""
    with mpmath.workdps(40):
        return _factor(mpmath.mpc(q.value) ** e, power_ulps(q, e))


@functools.lru_cache(maxsize=None)
def _root(w, k):
    """The band entry of column k as a factor, within ``band_entry_ulps``."""
    with mpmath.workdps(40):
        return _factor(sqrt_reference(w, k), band_entry_ulps(w))


def _times(a, b, ulps):
    """The product of two factors, rounded with relative error ulps·u and
    by up to four subnormal steps of u·NORMAL_MIN (a complex product rounds
    two products in each part): the bounds compose, relative to the exact
    product."""
    (x, lx, rx), (y, ly, ry) = a, b
    r = rx + ry + rx * ry * U
    r += (ulps + 4 * _exp2(-1022 - lx - ly)) * (1 + r * U)
    return x * y, lx + ly, r


def _plus(a, b):
    """The sum of two factors, each part rounded once."""
    (x, lx, rx), (y, ly, ry) = a, b
    err = (rx * mpmath.mpf(2) ** lx + ry * mpmath.mpf(2) ** ly) * U
    total = x + y
    size = abs(total)
    r = float(err / (size * U))
    return total, float(mpmath.log(size, 2)), r + 1 + r * U


def _past_a_double(value):
    """Whether the double computed for a factor is past the double range;
    the data stays clear of the edge, where rounding decides."""
    x, lx, r = value
    if lx + math.log2(1 + r * U) < 1023.99:     # 2^1023.99 < DOUBLE_MAX
        return False
    part, err = max(abs(x.real), abs(x.imag)), r * U * abs(x)
    if part + err < DOUBLE_MAX:
        return False
    assert part - err > DOUBLE_MAX, "too close to the double range to tell"
    return True


def _entrywise_toeplitz(g, w, q, N):
    """T_g one entry at a time in mpmath at 40 digits: the symbol
    coefficient times q^{-jn}, times the products of the band entries
    sqrt_reference(w, k) taken from 1 in increasing k, each with the bound
    on its rounding error that this order of operations gives from the
    factors' bounds and one rounding per product and sum.  A dict
    {(row, column): (exact, bound / (u |exact|))}, or the refusal's type
    and message."""
    q = QParam.of(q)
    entries, past = {}, False
    with mpmath.workdps(40):
        try:
            for mon, coeff in g:
                i, j = mon.i, mon.j
                lo, hi = max(0, j - i), N + min(0, j - i)
                if lo > hi:
                    continue
                for e in [coeff.qexp] + [-j * n for n in range(lo, hi + 1)]:
                    if e * q.log_abs > 700.0:
                        raise InputTooLargeError(f"|q|**{e} overflows a double")
                roots = [_root(w, k) for k in range(1, hi + i + 1)]
                c = _factor(mpmath.mpc(coeff.value), 0)
                if coeff.qexp:
                    c = _times(c, _power(q, coeff.qexp), _SQRT5)
                for n in range(lo, hi + 1):
                    v = _times(c, _power(q, -j * n), _SQRT5)
                    past = past or _past_a_double(v)
                    for ts in (range(1, i + 1), range(i - j + 1, i + 1)):
                        band = (1, 0.0, 0.0)
                        for t in ts:
                            band = _times(band, roots[n + t - 1], 1)
                            past = past or _past_a_double(band)
                        v = _times(v, band, 1)
                        past = past or _past_a_double(v)
                    key = (n + i - j, n)
                    entries[key] = _plus(entries[key], v) if key in entries else v
                    past = past or _past_a_double(entries[key])
            if past:
                raise ConfigError("operator entries must be finite")
        except ConfigError as exc:
            return type(exc).__name__, str(exc)
    return entries


def _built(g, w, q, N):
    try:
        return toeplitz_matrix(g, w, q, N).matrix
    except ConfigError as exc:
        return type(exc).__name__, str(exc)


def _assert_within(g, w, q, N):
    """T_g as built is the oracle's refusal, or within the oracle's bound
    of it at every entry, and exactly 0 off the entries the symbol fills."""
    want, got = _entrywise_toeplitz(g, w, q, N), _built(g, w, q, N)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    with mpmath.workdps(40):
        for (r, c), (exact, _, bound) in want.items():
            assert abs(mpmath.mpmathify(got[r, c]) - exact) <= bound * U * abs(exact), (r, c)
    off = got.copy()
    for key in want:
        off[key] = 0
    assert not off.any()


@pytest.mark.parametrize("w", [WFAC, WCONST, WeightSequence.power_factorial(-1.5),
                               WeightSequence.power_factorial(300.0),
                               WeightSequence.explicit([1e-300, 1e300, 1.0, 2.0, 5.0, 0.5])],
                         ids=["factorial", "constant", "pf-1.5", "pf300", "table"])
@pytest.mark.parametrize("q", [1.0, 0.8 * cmath.exp(0.9j), -0.6, 40.0, 25.0 * cmath.exp(-2.2j)])
def test_toeplitz_matrix_is_within_its_bound_of_the_entrywise_product(w, q):
    # at |q| = 40 and 25, q^{-jn} underflows within the window; pf300's band
    # entries leave a double, and on the table's whole window th^i tb^j with
    # i, j >= 1 needs w_{N+1}, past its horizon: both are refused
    N = w.max_index(60)
    for i in range(5):
        for j in range(5):
            _assert_within(ManinElement.monomial(q, i, j, 0.3 - 0.7j), w, q, N)
    g = (ManinElement.monomial(q, 2, 1, 1.5j) + ManinElement.monomial(q, 3, 2, -0.25)
         + ManinElement.monomial(q, 0, 4, 2.0))
    _assert_within(g, w, q, N)
    # at q = -0.6 the coefficient times q^{-n} passes a double from n = 38
    _assert_within(ManinElement.monomial(q, 0, 1, 1e300), w, q, N)


def test_toeplitz_refusal_names_the_first_power_past_a_double():
    # the CLI's `operator --q 0.1 --cutoff 400`: |q|^-n passes a double at n = 305
    g = ManinElement.theta_bar(0.1)
    want = ("InputTooLargeError", "|q|**-305 overflows a double")
    assert _entrywise_toeplitz(g, WFAC, 0.1, 400) == want
    assert _built(g, WFAC, 0.1, 400) == want

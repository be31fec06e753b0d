import cmath
import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qgauss_table, sqrt_reference
from qmanin import (OutsidePhaseSpaceError, ToleranceUnreachableError,
                    WeightHorizonError, WeightSequence, boundedness_report,
                    closed_form_density, coherent_coefficients, coherent_norm_sq,
                    cs_transform, eigen_residual, evolve, evolve_state, kernel,
                    radius_of_convergence)
from qmanin import coherent, jsonio
from qmanin.coherent import CoherentStateVector, _geometric_indexes, _kernel_series
from qmanin.errors import InputTooLargeError
from qmanin.weights import SERIES_CAP, QParam

WFAC = WeightSequence.factorial()
WCONST = WeightSequence.constant()


class TestCoefficients:
    def test_normalization_a0(self):
        for w in (WFAC, WeightSequence.constant(4.0)):
            st = coherent_coefficients(0.7j, w, 1.0)
            a0 = st.coefficients()[0]
            assert abs(a0 - w.weight(0) ** -0.5) < 1e-15

    def test_lambda_zero(self):
        st = coherent_coefficients(0.0, WFAC, 2j)
        assert st.n_cutoff == 0
        assert st.coefficients()[0] == 1.0
        assert st.tail_bound == 0.0 and st.norm_sq == 1.0

    @pytest.mark.parametrize("w", [WeightSequence.constant(7.0),
                                   WeightSequence.explicit([6.0, 1.0, 2.0, 5.0])])
    def test_lambda_zero_has_the_norms_one_rule(self, w):
        # one rule at lambda = 0: the single term 1 / w_0 of the norm series
        st = coherent_coefficients(0.0, w, 0.9j)
        assert st.norm_sq == coherent_norm_sq(0.0, w, 0.9j) == kernel(0, 0, w, 0.9j).real
        assert st.norm_sq == 1.0 / w.weight(0)
        assert st.logmag.tolist() == [-0.5 * math.log(w.weight(0))]
        assert st.phase.tolist() == [0.0] and st.tail_log == -math.inf

    def test_pinned_a2_value(self):
        # a_2 = (1/2)^2 * i^3 / sqrt(2) = -i / (4 sqrt 2)
        st = coherent_coefficients(0.5, WFAC, 1j, tol=1e-14)
        expect = -1j / (4 * math.sqrt(2))
        assert abs(st.coefficients()[2] - expect) < 1e-15

    def test_recursion_consistency(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            q = float(rng.uniform(0.4, 1.0)) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            w = WFAC if rng.random() < 0.5 else WeightSequence.constant(
                float(rng.uniform(0.5, 2.0)))
            lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            st = coherent_coefficients(lam, w, q, tol=1e-13)
            closed = st.coefficients()
            rec = np.empty_like(closed)
            rec[0] = w.weight(0) ** -0.5
            for n in range(len(rec) - 1):
                rec[n + 1] = (lam * QParam.of(q).value ** (n + 1)
                              * math.sqrt(w.weight(n) / w.weight(n + 1)) * rec[n])
            scale = float(np.max(np.abs(rec)))
            assert np.max(np.abs(closed - rec)) <= 1e-12 * scale

    def test_tail_invariant(self):
        for lam, tol in ((1.5, 1e-10), (3.0, 1e-14), (0.2j, 1e-8)):
            st = coherent_coefficients(lam, WFAC, 1.0, tol=tol)
            assert st.tail_bound <= tol * st.norm_sq

    def test_divergent_lambda_rejected(self):
        with pytest.raises(OutsidePhaseSpaceError):
            coherent_coefficients(1.5, WCONST, 1.0)

    def test_boundary_lambda_rejected(self):
        # |lambda| = R_w = 1: the norm series is sum of ones
        with pytest.raises(OutsidePhaseSpaceError):
            coherent_coefficients(1.0, WCONST, 1.0)

    def test_log_polar_survives_overflowing_magnitudes(self):
        # at lambda = 40 the peak coefficient is ~e^800 and the squared norm
        # is e^1600: both overflow doubles, the log-polar storage must not.
        # Precision degrades gracefully (lgamma quantization at |log| ~ 1e4),
        # it does not explode.
        st = coherent_coefficients(40.0, WFAC, 1.0, tol=1e-12)
        assert math.isinf(st.norm_sq)          # honest float overflow
        b, scale = st.scaled_coefficients()
        assert np.all(np.isfinite(b)) and scale > 700
        r = eigen_residual(st, WFAC, 1.0)
        assert r.residual <= 1e-9

    def test_subnormal_phase(self):
        # atan2(5e-324, 25) underflows to 0, where cmath.phase raised
        st, real = (coherent_coefficients(lam, WFAC, 1.0) for lam in (25 + 5e-324j, 25))
        assert st.logmag.tolist() == real.logmag.tolist()
        assert st.phase.tolist() == real.phase.tolist()
        assert (st.tail_log, st.norm_sq) == (real.tail_log, real.norm_sq)
        assert kernel(2 + 5e-324j, 1.0, WFAC, 1.0) == kernel(2, 1.0, WFAC, 1.0)

    def test_modulus_past_a_double_refused(self):
        lam = complex(1e308, 1.7e308)
        with pytest.raises(InputTooLargeError, match=r"point \(1e\+308\+1\.7e\+308j\)"):
            coherent_coefficients(lam, WFAC, 1.0)
        with pytest.raises(InputTooLargeError, match="modulus past the double range"):
            kernel(lam, 1.0, WFAC, 1.0)


def _mp_norm(lam: float, s: float, q) -> mpmath.mpf:
    """sum_n |lam|^{2n} |q|^{n(n+1)} (n!)^{-s}, at the working precision and
    the exact modulus of the double q, to past the peak term by 45 digits."""
    logl, logq = 2 * mpmath.log(abs(mpmath.mpf(lam))), mpmath.log(abs(mpmath.mpc(q)))
    total, peak, log_t, n = mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0), 0
    while True:
        t = mpmath.exp(log_t)
        total, peak = total + t, max(peak, t)
        ratio = logl + 2 * (n + 1) * logq - s * mpmath.log(n + 1)
        if ratio < 0 and t < peak * mpmath.mpf(10) ** -45:
            return total
        log_t, n = log_t + ratio, n + 1


class TestNorm:
    def test_lambda_zero(self):
        assert coherent_norm_sq(0.0, WeightSequence.constant(5.0), 1.0) == 0.2

    def test_factorial_exponential(self):
        lam = 1.3
        got = coherent_norm_sq(lam, WFAC, 1.0, tol=1e-12)
        assert abs(got - math.exp(lam**2)) <= 1e-10 * math.exp(lam**2)

    def test_divergence_is_an_error_not_a_number(self):
        with pytest.raises(OutsidePhaseSpaceError):
            coherent_norm_sq(2.0, WCONST, 1.0)

    def test_outside_a_rules_phase_space_refused_before_summing(self):
        # power-factorial(-0.5) at |q| = 1 has R = 0: the phase space is {0},
        # and at lambda = 1e-4 the term ratio passes 1 only near n = 1e16
        w = WeightSequence.power_factorial(-0.5)
        with pytest.raises(OutsidePhaseSpaceError,
                           match=r"norm series diverges at lambda = \(0\.0001\+0j\)") as info:
            coherent_norm_sq(1e-4, w, 1.0)
        assert info.value.series == "norm" and info.value.__cause__ is None
        assert w._logs[1] == 0          # no log weight taken: no term summed
        assert coherent_norm_sq(0.0, w, 1.0) == 1.0

    @pytest.mark.parametrize("s", [-0.5, -2.0])
    @pytest.mark.parametrize("q", [0.9, 0.95 * cmath.exp(0.3j), 0.99,
                                   0.999 * cmath.exp(0.3j)])
    def test_a_rule_of_infinite_radius_refuses_no_point(self, s, q):
        # power-factorial(s < 0) at |q| < 1 has R = inf: the terms rise for
        # a long stretch before they fall, and every point gets its norm.
        # Up to |q| = 0.95 the norm is within tol of a 40-digit sum at the
        # exact modulus of q, taken in the log domain since some norms pass
        # a double (the worst, 8.8e-13 at s = -2 and |q| = 0.95, is mostly
        # the rounding of |q|); nearer the circle the rounding of the log
        # terms can pass tol (ROADMAP item 12)
        w, tol = WeightSequence.power_factorial(s), 1e-12
        lams = np.exp(np.random.default_rng(37).uniform(math.log(0.05), math.log(40.0), 12))
        norms = coherent_norm_sq(lams, w, q, tol=tol)
        assert np.all(norms > 0)
        if abs(q) > 0.95:
            return
        for lam, res in zip(lams, _kernel_series(lams, lams, w, QParam.of(q), tol)):
            with mpmath.workdps(40):
                exact = _mp_norm(float(lam), s, q)
                got = mpmath.mpf(res.value.real) * mpmath.exp(res.log_scale)
                assert abs(got - exact) <= tol * exact


    def test_log_weights_near_the_double_range_keep_their_sums(self):
        # log w_n = 1e306 log n! is finite up to n = 57: every term past
        # |lambda|^2 |q|^2 / w_1 underflows
        w = WeightSequence.power_factorial(1e306)
        assert coherent_norm_sq(1.5, w, 1.0) == 3.25
        assert kernel(1.5, 0.7 + 0.2j, w, 0.8) == complex(
            float.fromhex("0x1.ac083126e978ep+0"), float.fromhex("0x1.89374bc6a7efcp-3"))
        grid = coherent_norm_sq(np.array([0.5, 2.0, 3j]), w, 0.9)
        assert [x.hex() for x in grid] == [
            "0x1.33d70a3d70a3ep+0", "0x1.0f5c28f5c28f6p+2", "0x1.0947ae147ae15p+3"]

    def test_log_weight_past_a_double_is_refused_not_summed(self):
        # log w_58 = -1e306 log 58! is past a double: refused on the chunk
        # that reaches it, not summed to the 200,000-term cap
        w = WeightSequence.power_factorial(-1e306)
        for call in (lambda: coherent_norm_sq(1.5, w, 1.0),
                     lambda: kernel(1.5, 0.7j, w, 1.0),
                     lambda: coherent_norm_sq(np.array([0.5, 1.0, 2.0]), w, 0.9)):
            with pytest.raises(InputTooLargeError, match="log w_58 of"):
                call()


class TestEigenResidual:
    def test_zero_eigenvalue_exact(self):
        st = coherent_coefficients(0.0, WFAC, 1.0)
        assert eigen_residual(st, WFAC, 1.0).residual == 0.0

    def test_flagship(self):
        st = coherent_coefficients(1.0, WFAC, 1.0, tol=1e-14)
        r = eigen_residual(st, WFAC, 1.0)
        assert r.residual <= 1e-12

    def test_residual_bounded_by_tail(self):
        # residual stays rounding-level; leakage tracks the discarded tail
        for lam, q, w in ((2.0, 1j, WFAC), (0.4, 0.8, WCONST),
                          (0.3, 2.0, qgauss_table(2.0))):
            st = coherent_coefficients(lam, w, q, tol=1e-12)
            r = eigen_residual(st, w, q)
            assert r.residual <= 1e-11
            assert r.leakage <= 10 * abs(lam) * math.sqrt(st.tail_bound / st.norm_sq)


    def test_band_entry_inside_a_double_where_its_ratio_is_not(self):
        # w_n / w_{n-1} = n^300 passes a double from n = 11 on, its square
        # root from n = 114 on
        w = WeightSequence.power_factorial(300.0)
        st = coherent_coefficients(1.5, w, 1.0)
        assert 11 <= st.n_cutoff < 114
        assert eigen_residual(st, w, 1.0).residual <= 1e-12

    def test_band_entry_past_a_double_is_refused(self):
        # (w_11 / w_10)^{1/2} = 11^300 passes a double
        w = WeightSequence.power_factorial(600.0)
        st = coherent_coefficients(1.5, w, 1.0)
        with pytest.raises(InputTooLargeError, match="entry of column 11 is past"):
            eigen_residual(st, w, 1.0)

    def test_band_entry_past_a_double_from_finite_factors_is_refused(self):
        # at column 79, q^-79 = 2^79 and (w_79 / w_78)^{1/2} = 79^150 are
        # doubles, their product is not
        w, q = WeightSequence.power_factorial(300.0), 0.5
        st = coherent_coefficients(1e308, w, q)
        assert st.n_cutoff >= 79
        assert cmath.isfinite(QParam(q).power(-79)) and math.isfinite(sqrt_reference(w, 79))
        with pytest.raises(InputTooLargeError, match="entry of column 79 is past"):
            eigen_residual(st, w, q)

    @pytest.mark.parametrize("w", [WFAC, WeightSequence.power_factorial(0.5),
                                   replace(WeightSequence.constant(2.5), scale=0.3),
                                   qgauss_table(1.3)],
                             ids=["factorial", "pf0.5", "constant", "table"])
    def test_a_warm_band_gives_the_cold_residual_bit_for_bit(self, w):
        # one object switches q back and forth, |q| < 1, = 1 and > 1 (q =
        # -1 + 0i and -1 - 0i compare equal but differ in arg q), while its
        # cutoff rises and falls; every residual is that of a fresh object
        rng = np.random.default_rng(32)
        warm = replace(w)
        for q in (0.8, 1.0, cmath.exp(0.9j), 1.3, 0.8, complex(-1.0, 0.0),
                  complex(-1.0, -0.0), 1.0):
            for n in (5, w.max_index(60), 12, w.max_index(60), 2):
                st = _random_state(rng, n)
                assert _hexes(eigen_residual(st, warm, q)) == _hexes(
                    eigen_residual(st, replace(w), q))

    def test_a_warm_band_is_not_built_again(self, monkeypatch):
        w, q = WeightSequence.power_factorial(0.5), 0.9j
        big, small = (coherent_coefficients(lam, w, q) for lam in (3.0, 0.5))
        assert small.n_cutoff < big.n_cutoff
        want = [_hexes(eigen_residual(st, replace(w), q)) for st in (big, small)]
        eigen_residual(big, w, q)

        def built(*args):
            raise AssertionError("the band was built")

        monkeypatch.setattr(QParam, "power", built)
        monkeypatch.setattr(WeightSequence, "sqrt_ratios", built)
        assert [_hexes(eigen_residual(st, w, q)) for st in (big, small, big)] == want + want[:1]
        # another q, or a longer cutoff, builds the band anew
        longer = coherent_coefficients(30.0, w, q)
        assert longer.n_cutoff > big.n_cutoff
        for st, p in ((big, 1.0), (longer, q)):
            with pytest.raises(AssertionError, match="the band was built"):
                eigen_residual(st, w, p)


def _random_state(rng, n):
    """A state of cutoff n with random coefficients, for the band's bits."""
    return CoherentStateVector(complex(*rng.normal(size=2)), rng.normal(size=n + 1),
                               rng.uniform(-math.pi, math.pi, n + 1), -40.0, 1.0)


def _hexes(res):
    return res.residual.hex(), res.leakage.hex()


class TestEvolution:
    def test_identity_and_half_turn(self):
        lam = 0.7 - 0.2j
        assert evolve(lam, 0.0) == lam
        assert abs(evolve(lam, math.pi) + lam) < 1e-15

    def test_componentwise_agreement(self):
        st = coherent_coefficients(1.1 + 0.3j, WFAC, 1j, tol=1e-13)
        for t in (0.3, 2.0, 5.5):
            a = evolve_state(st, t)
            b = coherent_coefficients(evolve(st.lam, t), WFAC, 1j, tol=1e-13)
            n = min(a.n_cutoff, b.n_cutoff) + 1
            assert np.max(np.abs(a.coefficients()[:n] - b.coefficients()[:n])) < 1e-12

    def test_norm_preserved(self):
        st = coherent_coefficients(0.9, WFAC, 1.0, tol=1e-13)
        assert evolve_state(st, 1.23).norm_sq == st.norm_sq


class TestTransform:
    def test_basis_images(self):
        q = 1j
        lam = 0.6 + 0.1j
        for j in range(6):
            e = np.zeros(j + 1)
            e[j] = 1.0
            got = cs_transform(e, lam, WFAC, q)
            expect = ((1j) ** (j * (j + 1) // 2)).conjugate() \
                * WFAC.weight(j) ** -0.5 * lam.conjugate() ** j
            assert abs(got - expect) < 1e-14

    def test_lambda_zero_projects_onto_c0(self):
        got = cs_transform([2.0 + 1.0j, 5.0, 7.0], 0.0, WFAC, 1.0)
        assert abs(got - (2.0 + 1.0j)) < 1e-15

    def test_reproduces_kernel(self):
        lam, mu = 0.8 - 0.5j, -0.2 + 0.9j
        st = coherent_coefficients(lam, WFAC, 1.0, tol=1e-14)
        got = cs_transform(st.coefficients(), mu, WFAC, 1.0)
        assert abs(got - kernel(mu, lam, WFAC, 1.0, tol=1e-14)) < 1e-12

    def test_out_of_domain(self):
        with pytest.raises(OutsidePhaseSpaceError):
            cs_transform([1.0, 1.0], 1.7, WCONST, 1.0)


class TestKernel:
    def test_diagonal_is_norm(self):
        lam = 1.2 - 0.4j
        assert abs(kernel(lam, lam, WFAC, 1j, tol=1e-13)
                   - coherent_norm_sq(lam, WFAC, 1j, tol=1e-13)) < 1e-12

    def test_conjugate_symmetry(self):
        mu, lam = 0.5 + 0.7j, -0.9 + 0.2j
        a = kernel(mu, lam, WFAC, 1j, tol=1e-13)
        b = kernel(lam, mu, WFAC, 1j, tol=1e-13)
        assert abs(a.conjugate() - b) < 1e-13

    def test_exponential_closed_form(self):
        mu, lam = 1 + 1j, 2.0
        got = kernel(mu, lam, WFAC, 1.0, tol=1e-13)
        expect = cmath.exp(mu.conjugate() * lam)
        assert abs(got - expect) <= 1e-10 * abs(expect)

    def test_cauchy_schwarz_strict(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(mu - lam) < 1e-3:
                continue
            k2 = abs(kernel(mu, lam, WFAC, 1.0, tol=1e-14)) ** 2
            bound = (coherent_norm_sq(mu, WFAC, 1.0, tol=1e-14)
                     * coherent_norm_sq(lam, WFAC, 1.0, tol=1e-14))
            assert k2 < bound - 1e-10

    def test_out_of_disk(self):
        with pytest.raises(OutsidePhaseSpaceError):
            kernel(1.1, 1.1, WCONST, 1.0)

    def test_kernel_domain_is_the_product_of_moduli(self):
        # constant weights at q = 1: K(mu, lam) = 1 / (1 - conj(mu) lam) for
        # |mu| |lam| < R^2 = 1, also where |mu| > 1; on |mu| |lam| = 1 every
        # term has modulus 1 and the series diverges: refused unsummed
        assert abs(kernel(2.0, 0.4, WCONST, 1.0) - 5.0) <= 1e-11
        for lam in (0.5j, 0.5, 0.6):
            with pytest.raises(OutsidePhaseSpaceError) as info:
                kernel(2.0, lam, WCONST, 1.0)
            assert info.value.series == "kernel" and info.value.__cause__ is None


class TestSeriesTag:
    # the norm, the coefficients and the transform's domain check sum the
    # kernel's diagonal, tagged "norm"; only the kernel itself is "kernel"
    @pytest.mark.parametrize("call, tag", [
        (lambda: coherent_coefficients(1.5, WCONST, 1.0), "norm"),
        (lambda: coherent_norm_sq(1.5, WCONST, 1.0), "norm"),
        (lambda: cs_transform([1.0], 1.5, WCONST, 1.0), "norm"),
        (lambda: kernel(1.2, 1.5, WCONST, 1.0), "kernel"),
    ])
    def test_divergence_carries_series_tag(self, call, tag):
        with pytest.raises(OutsidePhaseSpaceError) as info:
            call()
        assert info.value.series == tag


class TestExplicitHorizon:
    FACT = [float(math.factorial(n)) for n in range(60)]

    def test_long_table_matches_the_rule(self):
        w = WeightSequence.explicit(self.FACT)
        mu, lam = 0.6 + 0.3j, -1.1 + 0.4j
        assert abs(kernel(mu, lam, w, 1.0) - kernel(mu, lam, WFAC, 1.0)) < 1e-14
        assert abs(coherent_norm_sq(lam, w, 1.0)
                   - coherent_norm_sq(lam, WFAC, 1.0)) < 1e-14

    def test_short_table_stops_at_its_horizon(self):
        # 9 weights: both series stop after 9 terms, never asking for w_9
        w = WeightSequence.explicit(self.FACT[:9])
        for call in (lambda: kernel(1.0, 1.5, w, 1.0),
                     lambda: coherent_norm_sq(1.5, w, 1.0)):
            with pytest.raises(ToleranceUnreachableError, match="within 9 terms"):
                call()

    @pytest.mark.parametrize("lam", [1.0, 1.5, 3.0j])
    def test_a_table_has_no_point_outside(self, lam):
        # a table fixes no weight past its last index, so no point of it is
        # outside the phase space: 1,001 ones at |lam| >= 1 are summed to the
        # table's end and refused with the tolerance error naming its length
        w = WeightSequence.explicit([1.0] * 1001)
        for call in (lambda: coherent_norm_sq(lam, w, 1.0), lambda: kernel(lam, lam, w, 1.0),
                     lambda: coherent_coefficients(lam, w, 1.0)):
            with pytest.raises(ToleranceUnreachableError,
                               match="could not certify tail <= 1e-12 within 1001 terms"):
                call()


class TestRadius:
    def test_constant_unit(self):
        est = radius_of_convergence(WCONST, 1.0)
        assert abs(est.value - 1.0) <= 1e-2
        assert not est.extreme
        assert est.boundary_verdict == "diverges"

    def test_factorial_infinite(self):
        est = radius_of_convergence(WFAC, 1.0)
        assert math.isinf(est.value)
        est2 = radius_of_convergence(WFAC, cmath.exp(0.7j))
        assert math.isinf(est2.value)

    def test_extreme_case(self):
        est = radius_of_convergence(WCONST, 2.0)
        assert est.value == 0.0 and est.extreme

    def test_extreme_iff_zero(self):
        for w, q in ((WCONST, 1.0), (WFAC, 1.0), (WCONST, 2.0),
                     (qgauss_table(1.5, 41), 1.5)):
            est = radius_of_convergence(w, q)
            assert est.extreme == (est.value == 0.0)

    def test_qgauss_table_radius_one(self):
        est = radius_of_convergence(qgauss_table(2.0, 31), 2.0)
        assert abs(est.value - 1.0) <= 1e-2

    def test_boundary_convergent_case(self):
        # w_n = (n+1)^2: R = 1 and the boundary series sums 1/(n+1)^2.
        # At the exact radius Raabe certifies convergence; the finite-sample
        # estimate drifts above 1, so the bracketed verdict stays agnostic.
        from qmanin.coherent import boundary_series_verdict
        w = WeightSequence.explicit([(n + 1.0) ** 2 for n in range(10_001)])
        assert boundary_series_verdict(1.0, w, 1.0) == "converges"
        est = radius_of_convergence(w, 1.0)
        assert abs(est.value - 1.0) <= 2e-2
        assert est.boundary_verdict == "inconclusive"

    @pytest.mark.parametrize("w", [WFAC, WeightSequence.power_factorial(2.0),
                                   WeightSequence.power_factorial(-0.5),
                                   WeightSequence.constant(2.0)],
                             ids=["factorial", "power-factorial-2",
                                  "power-factorial--0.5", "constant-2"])
    def test_boundary_verdict_past_a_double_is_quiet(self, w):
        # at |q| < 1 the ratios u_n / u_{n+1} deep in the window pass a
        # double; their infinite Raabe values read as "converges", silently
        import warnings
        from qmanin.coherent import boundary_series_verdict
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for radius in (0.5, 1.0, 2.0, 3.0):
                assert boundary_series_verdict(radius, w, 0.9) == "converges"

    def test_median_is_numpys(self):
        from qmanin.coherent import _median
        rng = np.random.default_rng(3)
        for size in range(1, 41):
            x = rng.normal(size=size)
            x[rng.random(size) < 0.1] = np.inf
            assert _median(x) == float(np.median(x))
        x[size // 2] = np.nan
        assert math.isnan(_median(x))

    def test_scale_invariance_within_uncertainty(self):
        for w in (WCONST, WeightSequence.explicit([1.0] * 1001)):
            base = radius_of_convergence(w, 1.0)
            scaled = radius_of_convergence(replace(w, scale=4.0), 1.0)
            assert (abs(base.value - scaled.value)
                    <= base.uncertainty + scaled.uncertainty)

    def test_json_inf_marker(self):
        doc = json.loads(jsonio.dumps(radius_of_convergence(WFAC, 1.0)))
        assert doc["value"] == "inf"

    @pytest.mark.parametrize("w", [WFAC, WCONST, WeightSequence.constant(2.0),
                                   WeightSequence.power_factorial(-0.5),
                                   WeightSequence.power_factorial(2.0)],
                             ids=["factorial", "constant-1", "constant-2",
                                  "power-factorial--0.5", "power-factorial-2"])
    @pytest.mark.parametrize("q", [0.5, 1.0, cmath.exp(1j * math.pi / 5), 2.0],
                             ids=["0.5", "1", "e^(i pi/5)", "2"])
    def test_rule_radius_is_the_closed_form(self, w, q):
        # R^2 = liminf |q|^{-(n+1)} w_n^{1/n} with w_n^{1/n} ~ (n/e)^s: |q|
        # decides it, and at |q| = 1 the sign of s
        if abs(q) != 1.0:
            want = math.inf if abs(q) < 1.0 else 0.0
        else:
            want = math.inf if w.s > 0 else 1.0 if w.s == 0 else 0.0
        est = radius_of_convergence(w, q)
        assert est.value == want and est.uncertainty == 0.0
        assert est.extreme == (want == 0.0)
        assert est.boundary_verdict == {math.inf: "inconclusive", 1.0: "diverges",
                                        0.0: "converges"}[want]
        doc = json.loads(jsonio.dumps(est))
        assert set(doc) == {"value", "boundary_verdict", "extreme", "uncertainty"}

    def test_table_estimate_holds_its_samples(self):
        doc = json.loads(jsonio.dumps(radius_of_convergence(qgauss_table(2.0, 31), 2.0)))
        assert set(doc) == {"value", "boundary_verdict", "extreme", "uncertainty",
                            "monotone", "samples"}
        n = [s["n"] for s in doc["samples"]]
        assert n[0] == 1 and n[-1] == 30

    def test_factorial_table_is_an_extrapolation(self):
        # 171 entries (up to 170!, the last finite double) cannot show R = inf
        w = WeightSequence.explicit([float(math.factorial(n)) for n in range(171)])
        est = radius_of_convergence(w, 1.0)
        assert 5.0 < est.value < 8.0 and 4.0 < est.uncertainty < 5.0


def test_geometric_indexes():
    idx = _geometric_indexes(1, 10**6, 50)
    assert idx[0] == 1 and idx[-1] == 10**6
    assert np.all(np.diff(idx) > 0)
    assert _geometric_indexes(5, 5, 10) == [5]


@pytest.mark.parametrize("horizon", [10**5, 10**7])
def test_geometric_indexes_end_exactly_at_the_horizon(horizon):
    idx = _geometric_indexes(1, horizon, 400)
    assert idx[0] == 1 and idx[-1] == horizon
    assert all(type(n) is int for n in idx)
    assert all(a < b for a, b in zip(idx, idx[1:]))
    # the points between stay geometric: one common ratio, up to rounding
    # each point to an integer
    step = math.exp(math.log(horizon) / 399)
    ratios = [(a, b / a) for a, b in zip(idx, idx[1:]) if a > 10**4]
    assert ratios and all(abs(r / step - 1) < 2.0 / a for a, r in ratios)


class TestArrayPoints:
    def test_kernel_broadcasts_and_matches_scalars(self):
        mu = np.array([[0.5 + 0.2j], [-1.0 + 0.0j]])
        lam = np.array([0.0, 0.3j, 1.1 - 0.4j])
        got = kernel(mu, lam, WFAC, 1j, tol=1e-13)
        assert got.shape == (2, 3) and got.dtype == complex
        for i in range(2):
            for j in range(3):
                one = kernel(complex(mu[i, 0]), complex(lam[j]), WFAC, 1j, tol=1e-13)
                assert abs(got[i, j] - one) <= 1e-14 * abs(one)
        assert np.all(got[:, 0] == 1.0)           # a zero point keeps 1/w_0

    def test_norm_array_matches_scalars(self):
        w = WeightSequence.constant(4.0)
        lam = np.array([0.0, 0.5, 0.3 - 0.6j, 0.9j])
        got = coherent_norm_sq(lam, w, 0.9)
        assert got.shape == (4,) and got[0] == 0.25
        for z, v in zip(lam, got):
            one = coherent_norm_sq(complex(z), w, 0.9)
            assert abs(v - one) <= 1e-14 * one

    def test_scalars_keep_their_types(self):
        assert type(kernel(0.5, 0.5j, WFAC, 1.0)) is complex
        assert type(coherent_norm_sq(0.5, WFAC, 1.0)) is float
        assert type(kernel(0.0, 0.5j, WFAC, 1.0)) is complex


# -- the closed forms at |q| = 1: Bargmann's space (w_n = c n!) and the ----
# -- Hardy space (w_n = c), neither summed --------------------------------

U = 2.0 ** -53
UNIT_QS = (1.0, cmath.exp(1j * math.pi / 5), -1.0, 1j)


def _closed_rule(s, pf=False, c=1.0, scale=1.0):
    """A rule with s = 1 (factorial) or s = 0 (constant c), or the same s
    as power-factorial (c = 1)."""
    kind = "power-factorial" if pf else "factorial" if s else "constant"
    return WeightSequence(kind, c=c, s=s, scale=scale)


def _closed_exact(mu, lam, w):
    """e^z / w_0 (s = 1) or 1 / ((1 - z) w_0) (s = 0), z = conj(mu) lam,
    from the exact doubles at 40 digits."""
    with mpmath.workdps(40):
        z = mpmath.conj(mpmath.mpc(mu)) * mpmath.mpc(lam)
        k = mpmath.exp(z) if w.s else 1 / (1 - z)
        return k / (mpmath.mpf(w.c) * mpmath.mpf(w.scale))


def _closed_bound(mu, lam, w):
    """The rounding bounds coherent._closed_kernel derives."""
    if w.s:
        return 24 * U * (abs(mu) * abs(lam) + abs(math.log(w.c * w.scale)) + 1)
    return 4 * U * (1 + abs(math.log(w.c)) + abs(math.log(w.scale)))


def _rel(got, exact):
    with mpmath.workdps(40):
        return float(abs(mpmath.mpc(got) - exact) / abs(exact))


def _outside_disk(mu, lam) -> bool:
    """|conj(mu) lam| >= 1, in exact rationals."""
    def sq(z):
        return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
    return sq(complex(mu)) * sq(complex(lam)) >= 1


@pytest.mark.parametrize("s", [1.0, 0.0])
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.floats(0.0, 25.0), st.floats(0.0, 25.0),
       st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
       st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.booleans(),
       st.sampled_from(UNIT_QS))
def test_bargmann_kernel_within_its_rounding_bound(s, rm, rl, am, al, c, scale, pf, q):
    # coherent._closed_kernel: 24 u (|z| + |log(c scale)| + 1) with c = 1 in
    # Bargmann's space, 4 u (1 + |log c| + |log scale|) in the Hardy space,
    # whose radii reach |conj(mu) lam| = 1 - 1e-12, on and off the diagonal
    w = _closed_rule(s, pf, c, scale)
    if not s:
        rm, rl = (math.sqrt(1.0 - 10.0 ** (-12.0 * r / 25.0)) for r in (rm, rl))
    mu, lam = cmath.rect(rm, am), cmath.rect(rl, al)
    exact, bound = _closed_exact(mu, lam, w), _closed_bound(mu, lam, w)
    for got in (kernel(mu, lam, w, q), kernel(np.array([mu]), lam, w, q)[0]):
        assert _rel(got, exact) <= bound
    exact, bound = _closed_exact(lam, lam, w), _closed_bound(lam, lam, w)
    for got in (coherent_norm_sq(lam, w, q), coherent_norm_sq(np.array([lam]), w, q)[0]):
        assert _rel(got, exact) <= bound


@pytest.mark.parametrize("w, mu, lam", [
    # arg lam - arg mu = -0.8: the term-by-term sum was off by 0.13 at r = 10
    *[pytest.param(WFAC, cmath.rect(r, 0.4), cmath.rect(r, -0.4), id=f"bargmann-{r}")
      for r in (5.0, 10.0, 20.0)],
    # conj(mu) lam = -0.9998: the alternating sum was off by 1.3e-11
    pytest.param(WCONST, 0.9998 ** 0.5, -(0.9998 ** 0.5), id="hardy-minus-0.9998"),
    *[pytest.param(WCONST, cmath.rect(r, 0.4), cmath.rect(r, -0.4), id=f"hardy-{r}")
      for r in (0.99, 0.9999)],
    pytest.param(WeightSequence.constant(3.0), cmath.rect(1 - 1e-12, 2.0),
                 cmath.rect(1 - 1e-13, -1.5), id="hardy-c3-1e-12"),
])
def test_bargmann_kernel_off_the_diagonal_does_not_cancel(w, mu, lam):
    exact = _closed_exact(mu, lam, w)
    assert _rel(kernel(mu, lam, w, 1.0), exact) <= min(1e-12, _closed_bound(mu, lam, w))


@pytest.mark.parametrize("s", [1.0, 0.0])
@pytest.mark.parametrize("q", [1.0, cmath.exp(1j * math.pi / 5)])
def test_bargmann_values_sum_no_series(monkeypatch, s, q):
    def summed(*args, **kwargs):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(coherent, "sum_series", summed)
    monkeypatch.setattr(coherent, "sum_series_rows", summed)
    w = _closed_rule(s)
    if s:
        mu, lam = 1.5 - 0.5j, np.array([-0.3 + 2j, 0.0, 1.2])
        expect, norms = np.exp(np.conj(mu) * lam), np.exp(abs(lam) ** 2)
    else:
        mu, lam = 0.6 - 0.2j, np.array([-0.3 + 0.7j, 0.0, 0.9])
        expect, norms = 1 / (1 - np.conj(mu) * lam), 1 / (1 - abs(lam) ** 2)
    assert abs(kernel(mu, complex(lam[0]), w, q) - expect[0]) <= 1e-14 * abs(expect[0])
    assert np.allclose(kernel(mu, lam, w, q), expect, rtol=1e-14, atol=0)
    assert coherent_norm_sq(lam[2], w, q) == kernel(lam[2], lam[2], w, q).real
    assert np.allclose(coherent_norm_sq(lam, w, q), norms, rtol=1e-14, atol=0)
    # the transform's domain check takes the closed form too
    got = cs_transform([1.0, 0.5], complex(lam[0]), w, q)
    assert abs(got - (1.0 + 0.5 * np.conj(lam[0] * q))) <= 1e-15 * abs(got)
    if not s:
        for call in (lambda: kernel(2.0, 0.5j, w, q), lambda: coherent_norm_sq(1.0, w, q),
                     lambda: cs_transform([1.0], -1.0, w, q)):
            with pytest.raises(OutsidePhaseSpaceError):
                call()
    with pytest.raises(AssertionError, match="summed"):
        kernel(mu, complex(lam[0]), w, 0.8)       # the patch is in force


@pytest.mark.parametrize("s, radius", [(1.0, 6.0), (0.0, 0.7)])
def test_bargmann_arrays_equal_scalars_bit_for_bit(s, radius):
    rng = np.random.default_rng(29)
    mu = radius * (rng.uniform(-1, 1, (5, 1)) + 1j * rng.uniform(-1, 1, (5, 1)))
    lam = radius * (rng.uniform(-1, 1, (1, 7)) + 1j * rng.uniform(-1, 1, (1, 7)))
    k = radius / 6.0
    mu[0, 0], lam[0, :3] = 2.0 * k, (0.0, complex(1.5 * k, -0.0), -3.0 * k)

    def bits(z):
        return complex(z).real.hex(), complex(z).imag.hex()

    for w in (_closed_rule(s), _closed_rule(s, pf=True, scale=0.3),
              _closed_rule(s, c=2.5, scale=0.3)):
        for q in UNIT_QS[:2]:
            grid = kernel(mu, lam, w, q)
            norms = coherent_norm_sq(lam, w, q)
            for i in range(mu.shape[0]):
                for j in range(lam.shape[1]):
                    one = kernel(complex(mu[i, 0]), complex(lam[0, j]), w, q)
                    assert bits(grid[i, j]) == bits(one)
            for j in range(lam.shape[1]):
                assert norms[0, j].hex() == coherent_norm_sq(complex(lam[0, j]), w, q).hex()
            assert bits(grid[0, 0]) == bits(1 / w.weight(0))   # a zero point
            assert math.copysign(1.0, grid[0, 1].imag) == 1.0  # a real value


@pytest.mark.parametrize("r2", [0.9999, 0.99995, 1 - 1e-9, 1 - 1e-12])
def test_hardy_norm_near_the_circle(r2):
    # the summed norm refused |lam|^2 = 0.9999 after 200,000 terms; the
    # closed form keeps its few-u bound however close the point is
    for lam in (r2 ** 0.5, cmath.rect(r2 ** 0.5, 2.5)):
        exact = _closed_exact(lam, lam, WCONST)
        got = coherent_norm_sq(lam, WCONST, 1.0)
        assert _rel(got, exact) <= _closed_bound(lam, lam, WCONST)
        assert kernel(lam, lam, WCONST, 1.0) == complex(got, 0.0)


def test_hardy_refuses_exactly_the_points_outside_the_disk():
    # points within a few ulps of the unit circle: a point gets a value if
    # and only if |conj(mu) lam| < 1 in exact arithmetic, which the rounded
    # log test log|mu| + log|lam| >= 0 misjudges for some of them
    rng = np.random.default_rng(30)
    pts = []
    for theta in rng.uniform(-math.pi, math.pi, 60):
        z = cmath.rect(1.0, float(theta))
        for k in range(-3, 4):
            re = z.real
            for _ in range(abs(k)):
                re = math.nextafter(re, math.copysign(math.inf, k * re))
            pts.append(complex(re, z.imag))
    pairs = [(p, p) for p in pts] + list(zip(pts, pts[7:] + pts[:7]))
    misjudged = 0
    for mu, lam in pairs:
        outside = _outside_disk(mu, lam)
        misjudged += outside != (math.log(abs(mu)) + math.log(abs(lam)) >= 0.0)
        for call in (lambda: kernel(mu, lam, WCONST, 1.0),
                     lambda: kernel(np.array([mu]), lam, WCONST, 1.0)[0]):
            if outside:
                with pytest.raises(OutsidePhaseSpaceError) as info:
                    call()
                assert info.value.series == "kernel" and info.value.__cause__ is None
            else:
                assert _rel(call(), _closed_exact(mu, lam, WCONST)) <= 4 * U
        if mu == lam and outside:
            with pytest.raises(OutsidePhaseSpaceError, match="norm series"):
                coherent_norm_sq(lam, WCONST, 1.0)
    assert misjudged > 0


def test_cs_transform_domain_check_takes_the_closed_form():
    # the summed check raised ToleranceUnreachableError at each of these,
    # where R = inf under factorial weights and |lam| < 1 = R under constant
    for lam, w in ((600.0, WFAC), (1e8, WFAC), (0.99995 ** 0.5, WCONST)):
        got = cs_transform([1, 0.5], lam, w, 1)
        assert abs(got - (1 + 0.5 * lam)) <= 1e-14 * abs(got)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.5, 5.0])
def test_series_engine_keeps_its_bargmann_oracle(r):
    # kernel and coherent_norm_sq no longer sum this case; the engine, which
    # the truncating callers still use, keeps e^{|lam|^2} as its oracle
    pts = [cmath.rect(r, a) for a in (0.0, 0.9, -2.0)]
    exact = [math.exp(r * r) for _ in pts]
    one, = _kernel_series(pts[:1], pts[:1], WFAC, QParam(1.0), 1e-12)
    rows = _kernel_series(pts, pts, WFAC, QParam(1.0), 1e-12)
    for res, e in zip([one] + rows, exact[:1] + exact):
        assert res.float_value.imag == 0.0
        assert abs(res.float_value.real - e) <= 1e-12 * e


# -- points whose terms still grow at the term cap ----------------------------

_THETA_Q = cmath.exp(0.31950650216738913j)      # abs() rounds to 1 - 2^-53


def _summing(*args, **kwargs):
    raise AssertionError("a series was summed")


@pytest.mark.parametrize("call, want", [
    (lambda: coherent_coefficients(1e8, WFAC, 1.0), "1e-12 within 200000"),
    (lambda: coherent_coefficients(500.0, WFAC, 1.0), "1e-12 within 200000"),
    (lambda: coherent_norm_sq(1.5, WCONST, _THETA_Q), "1e-12 within 200000"),
    # the transform sums no norm: at R = inf it refuses no point, and its
    # value is 1 + lam/2 exactly
    (lambda: cs_transform([1.0, 0.5], 6e4, WeightSequence.power_factorial(2.0), 1.0),
     30001.0),
], ids=["factorial-1e8", "factorial-500", "constant-theta", "cs-transform"])
def test_terms_growing_at_the_cap_are_refused_before_summing(monkeypatch, call, want):
    # R = inf at each point, yet the terms still grow at the last index the
    # engine reaches, so no sum to the cap can certify them
    monkeypatch.setattr(coherent, "sum_series", _summing)
    monkeypatch.setattr(coherent, "sum_series_rows", _summing)
    took = []
    for _ in range(3):
        start = time.perf_counter()
        if isinstance(want, str):
            with pytest.raises(ToleranceUnreachableError,
                               match=f"could not certify tail <= {want} terms"):
                call()
        else:
            assert abs(call() - want) <= 1e-15 * want
        took.append(time.perf_counter() - start)
    assert min(took) < 5e-3
    assert abs(_THETA_Q) == 1 - 2.0 ** -53
    assert radius_of_convergence(WCONST, _THETA_Q).value == math.inf


@pytest.mark.parametrize("w, lam", [(WeightSequence.power_factorial(-0.5), 1e-4),
                                    (WCONST, 1.5)], ids=["point-space", "hardy"])
def test_cs_transform_refuses_outside_points_without_summing(monkeypatch, w, lam):
    # R = 0 at q = 1 for s < 0, and |lam| > 1 = R in the Hardy space: the
    # transform refuses as the norm refuses, from (w, q) alone
    monkeypatch.setattr(coherent, "sum_series", _summing)
    monkeypatch.setattr(coherent, "sum_series_rows", _summing)
    for call in (lambda: cs_transform([1.0, 0.5], lam, w, 1.0),
                 lambda: coherent_norm_sq(lam, w, 1.0)):
        with pytest.raises(OutsidePhaseSpaceError, match="norm series") as info:
            call()
        assert info.value.series == "norm"


def test_a_sum_whose_terms_peak_below_the_cap_keeps_its_bits():
    # factorial weights at q = 1, |lam| = 400: the terms peak near
    # n = 160,000 and the sum certifies within the cap, as it did before
    # the cap refusal
    res, = _kernel_series([400.0], [400.0], WFAC, QParam(1.0), 1e-12)
    assert (res.value.real.hex(), res.value.imag.hex(), res.log_scale.hex(),
            res.nterms, res.tail_log.hex()) == (
        "0x1.f5536f3ad00ccp+9", "0x0.0p+0", "0x1.387c8b77e5118p+17", 162832,
        "0x1.38721c2efc2d8p+17")


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
@pytest.mark.parametrize("space", ["bargmann", "hardy"])
def test_closed_form_truncation_against_mpmath(monkeypatch, space, tol):
    # in Bargmann's space (w_n = w_0 n!) the true tail after N terms is
    # e^l P(N, l) / w_0, with P the regularized lower incomplete gamma
    # function and l = |lam|^2; in the Hardy space (w_n = w_0) it is
    # l^N / (w_0 (1 - l)).  Each state's cutoff is taken from the closed
    # form with no series summed: its certified tail bounds the true one
    # and its cutoff is the summed one or one chunk (16 terms) shorter
    rng = np.random.default_rng(34)
    if space == "bargmann":
        w, radius = replace(WFAC, scale=0.3), 20.0
    else:
        w, radius = replace(WeightSequence.constant(2.5), scale=0.7), math.sqrt(0.999)
    r = radius * np.sqrt(rng.uniform(size=16))
    pts = (r * np.exp(2j * math.pi * rng.uniform(size=16))).tolist() + [radius + 0j]
    summed = [res.nterms for res in _kernel_series(pts, pts, w, QParam(1.0), tol)]

    def summing(*args, **kwargs):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(coherent, "sum_series", summing)
    monkeypatch.setattr(coherent, "sum_series_rows", summing)
    for lam, nterms in zip(pts, summed):
        st = coherent_coefficients(lam, w, 1.0, tol=tol)
        n = st.n_cutoff + 1
        assert n % 16 == 0 and nterms - 16 <= n <= nterms
        with mpmath.workdps(40):
            l = mpmath.mpf(lam.real) ** 2 + mpmath.mpf(lam.imag) ** 2
            w0 = mpmath.mpf(w.c) * mpmath.mpf(w.scale)
            if space == "bargmann":
                true_tail = mpmath.exp(l) * mpmath.gammainc(n, 0, l, regularized=True) / w0
            else:
                true_tail = l ** n / (w0 * (1 - l))
            assert true_tail <= st.tail_bound <= tol * st.norm_sq


def test_closed_form_truncation_at_a_loose_tol_near_the_cap(monkeypatch):
    # at tol 0.3 and l = |lam|^2 near 2e5 in Bargmann's space the summed
    # path bounds the tail against its own retained sum, which the closed
    # form knows only as K less its tail bound, so the closed form can stop
    # one chunk later.  Its certificate holds either way, and it refuses at
    # the cap only where the summed cutoff is the cap itself: l = 199,548
    # is such a point, and l = 199,500 one that stops a chunk later
    tol = 0.3
    rng = np.random.default_rng(34)
    ls = [199_500.0, 199_548.0] + rng.uniform(1.9e5, 1.995e5, 6).tolist()
    pts = [math.sqrt(l) * cmath.exp(2j * math.pi * a)
           for l, a in zip(ls, rng.uniform(size=len(ls)))]
    summed = _kernel_series(pts, pts, WFAC, QParam(1.0), tol)

    def summing(*args, **kwargs):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(coherent, "sum_series", summing)
    monkeypatch.setattr(coherent, "sum_series_rows", summing)
    later = refused = 0
    for lam, s, c in zip(pts, summed, coherent._closed_truncations(pts, WFAC, "bargmann", tol)):
        if isinstance(c, ToleranceUnreachableError):
            assert isinstance(s, ToleranceUnreachableError) or s.nterms == SERIES_CAP
            refused += 1
            continue
        n = c.nterms
        assert n % 16 == 0 and s.nterms - 16 <= n <= s.nterms + 16
        later += n > s.nterms
        with mpmath.workdps(40):
            l = mpmath.mpf(lam.real) ** 2 + mpmath.mpf(lam.imag) ** 2
            true_log = l + mpmath.log(mpmath.gammainc(n, 0, l, regularized=True))
            assert true_log <= c.tail_log
        assert c.tail_log <= math.log(tol) + math.log(c.value.real) + c.log_scale
    assert later and refused == 1


class _Summed(Exception):
    pass


@pytest.mark.parametrize("w", [WFAC, WCONST, WeightSequence.constant(2.0),
                               WeightSequence.power_factorial(-0.5),
                               WeightSequence.power_factorial(0.5),
                               WeightSequence.power_factorial(2.0)],
                         ids=lambda w: w.describe())
@pytest.mark.parametrize("q", [0.5, 1.0, cmath.exp(1j * math.pi / 5), 2.0, _THETA_Q],
                         ids=["0.5", "1", "e^(i pi/5)", "2", "theta"])
def test_one_decision_of_the_phase_space(w, q, monkeypatch):
    # WeightSequence.radius and closed_form decide everything (w, q) gives
    qp = QParam.of(q)
    R, space = w.radius(qp), w.closed_form(qp)
    if q is _THETA_Q:       # 1 - 2^-53 is not the circle
        assert R == math.inf and space is None
    assert radius_of_convergence(w, q).value == R
    rep = boundedness_report(w, q)
    assert rep.bounded == (R < math.inf) and rep.compact == (R == 0.0)
    assert (closed_form_density(w, q) is not None) == (space == "bargmann")

    def summing(*args, **kwargs):
        raise _Summed

    monkeypatch.setattr(coherent, "_kernel_series", summing)
    lam = 0.3 + 0.2j if R else 0.0     # inside the phase space
    for f in (lambda: kernel(0.5j * lam, lam, w, q), lambda: coherent_norm_sq(lam, w, q),
              lambda: coherent_coefficients(lam, w, q)):
        if space is None:
            with pytest.raises(_Summed):
                f()
        else:
            f()


def test_a_table_decides_no_space():
    for q in (0.5, 1.0, 2.0):
        w = qgauss_table(abs(q))
        assert w.radius(QParam.of(q)) is None and w.closed_form(QParam.of(q)) is None
        with pytest.raises(WeightHorizonError, match="not decided"):
            boundedness_report(w, q)

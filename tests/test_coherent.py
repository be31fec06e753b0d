import cmath
import math

import numpy as np
import pytest

from conftest import qgauss_table
from qmanin import (OutsidePhaseSpaceError, ToleranceUnreachableError,
                    WeightSequence, coherent_coefficients, coherent_norm_sq, cs_transform,
                    eigen_residual, evolve, evolve_state, kernel,
                    radius_of_convergence)
from qmanin.weights import QParam

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
        base = radius_of_convergence(WCONST, 1.0, horizon=10**6)
        scaled = radius_of_convergence(WCONST.scaled(4.0), 1.0, horizon=10**6)
        assert (abs(base.value - scaled.value)
                <= base.uncertainty + scaled.uncertainty)

    def test_json_inf_marker(self):
        doc = radius_of_convergence(WFAC, 1.0).to_json()
        assert doc["value"] == "inf"


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

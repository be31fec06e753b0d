import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import roots_laguerre

import qmanin
from qmanin import measure
from qmanin import (ConfigError, IndefiniteMomentsError, MomentSequence,
                    RadialQuadrature, WeightSequence, closed_form_density,
                    gauss_quadrature_from_moments, norm_divergence_witness,
                    verify_density_moments, verify_moments,
                    verify_resolution_identity)
from qmanin.errors import OrderTooHighError

WFAC = WeightSequence.factorial()
WCONST = WeightSequence.constant()


class TestClosedForm:
    def test_factorial_unit_q_present(self):
        for w in (WFAC, WeightSequence.power_factorial(1.0)):
            d = closed_form_density(w, 1.0)
            assert d is not None
            assert abs(d.density(0.0) - 1 / math.pi) < 1e-15
            assert abs(d.density(2.0) - math.exp(-2) / math.pi) < 1e-15

    def test_absent_cases(self):
        assert closed_form_density(WCONST, 1.0) is None
        assert closed_form_density(
            WeightSequence.explicit([1.0, 3.0, 7.0]), 1.0) is None
        assert closed_form_density(WFAC, 2.0) is None
        assert closed_form_density(WeightSequence.power_factorial(2.0), 1.0) is None

    def test_density_satisfies_moment_identities(self):
        d = closed_form_density(WFAC, 1.0)
        rep = verify_density_moments(d, WFAC, 1.0, 20, tol=1e-9)
        assert rep.ok, rep.max_deviation

    def test_quadrature_surrogate_is_laguerre(self):
        d = closed_form_density(WFAC, 1.0)
        quad = d.quadrature(8)
        nodes, weights = roots_laguerre(8)
        assert np.allclose(quad.nodes, nodes, rtol=1e-13)
        assert np.allclose(quad.masses, weights / math.pi, rtol=1e-13)
        assert quad.provenance == "closed-form"

    def test_criterion_3_runs_without_scipy(self):
        script = ("import sys, qmanin, qmanin.cli\n"
                  "from qmanin import acceptance\n"
                  "result = acceptance.run_criterion(3)\n"
                  "assert result.passed, result.detail\n"
                  "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                  "assert not loaded, loaded\n")
        env = dict(os.environ, PYTHONPATH=str(Path(qmanin.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestMomentSolver:
    def test_matches_laguerre_oracle(self):
        m = MomentSequence.from_weights(WFAC, 1.0, 9)
        quad = gauss_quadrature_from_moments(m, 5)
        nodes, weights = roots_laguerre(5)
        assert np.allclose(quad.nodes, nodes, atol=1e-12)
        assert np.allclose(quad.masses, weights / math.pi, atol=1e-14)

    def test_one_point_rule(self):
        m = MomentSequence.from_weights(WFAC, 1.0, 1)
        quad = gauss_quadrature_from_moments(m, 1)
        assert abs(quad.nodes[0] - m.values[1] / m.values[0]) < 1e-14
        assert abs(quad.masses[0] - m.values[0]) < 1e-16

    def test_constant_weights_unit_atom(self):
        # all moments 1/pi force the single atom at t = 1, any order
        for order in (1, 3, 5):
            m = MomentSequence.from_weights(WCONST, 1.0, 2 * order - 1)
            quad = gauss_quadrature_from_moments(m, order)
            assert quad.nodes.shape == (1,)
            assert abs(quad.nodes[0] - 1.0) < 1e-12
            assert abs(quad.masses[0] - 1 / math.pi) < 1e-14
            for j in range(2 * order):
                s = float(np.sum(quad.masses * quad.nodes**j))
                assert abs(s - 1 / math.pi) < 1e-12

    def test_round_trip_random_measure(self):
        # moments of a random positive atomic measure must be reproduced
        # and the solver must rediscover the atoms themselves
        rng = np.random.default_rng(17)
        atoms = np.linspace(0.5, 9.0, 6) + rng.uniform(-0.2, 0.2, size=6)
        masses = rng.uniform(0.2, 2.0, size=6)
        vals = [float(np.sum(masses * atoms**j)) for j in range(12)]
        m = MomentSequence(tuple(vals), tuple(math.log(v) for v in vals))
        quad = gauss_quadrature_from_moments(m, 6)
        for j in range(12):
            s = float(np.sum(quad.masses * quad.nodes**j))
            assert abs(s - vals[j]) <= 1e-8 * abs(vals[j])
        assert np.allclose(quad.nodes, atoms, rtol=1e-6)
        assert np.allclose(quad.masses, masses, rtol=1e-6)

    def test_small_q_scaled_moments(self):
        # |q| < 1 blows the raw moments up; log storage keeps the solve alive
        m = MomentSequence.from_weights(WFAC, 0.5, 11)
        quad = gauss_quadrature_from_moments(m, 6)
        assert np.all(quad.masses > 0)
        rep = verify_moments(quad, WFAC, 0.5, 8)
        assert rep.max_deviation <= 1e-8

    def test_indefinite_moments_rejected(self):
        # w = (1, 10, 1, ...): log-concavity violated, Hankel indefinite
        w = WeightSequence.explicit([1.0, 10.0, 1.0, 10.0])
        m = MomentSequence.from_weights(w, 1.0, 3)
        assert not m.is_positive_definite(2)
        with pytest.raises(IndefiniteMomentsError):
            gauss_quadrature_from_moments(m, 2)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_node_at_zero_polishes_to_zero(self, order):
        # moments m_j = w_j / pi = (2, 1, 1, ...): the measure delta_0 + delta_1
        w = WeightSequence.explicit([math.pi * x for x in (2, 1, 1, 1, 1, 1, 1, 1)])
        quad = gauss_quadrature_from_moments(
            MomentSequence.from_weights(w, 1.0, 2 * order - 1), order)
        assert list(quad.nodes) == [0.0, 1.0]
        assert list(quad.masses) == [1.0, 1.0]

    @pytest.mark.parametrize("w, q, order", [
        (WFAC, 1.3, 2),
        (WeightSequence.power_factorial(2.0), 1.05j, 8),
        (WeightSequence.power_factorial(1.5), 1.02, 12),
    ])
    def test_negative_node_rejected(self, w, q, order):
        # the Hankel matrix is positive definite, but the Gauss rule puts a
        # node at t = r^2 < 0: no positive measure on t >= 0 fits
        m = MomentSequence.from_weights(w, q, 2 * order - 1)
        assert m.is_positive_definite(order)
        with pytest.raises(IndefiniteMomentsError, match="node"):
            gauss_quadrature_from_moments(m, order)

    @pytest.mark.parametrize("w, q", [
        (WFAC, 0.95 * cmath.exp(0.7j)),
        (WCONST, 0.9),
    ])
    @pytest.mark.parametrize("order", [8, 12])
    def test_matches_eigsy_oracle(self, w, q, order):
        m = MomentSequence.from_weights(w, q, 2 * order - 1)
        quad = gauss_quadrature_from_moments(m, order)
        nodes, masses = _eigsy_rule(m, order)
        np.testing.assert_allclose(quad.nodes, nodes, rtol=1e-15, atol=0)
        np.testing.assert_allclose(quad.masses, masses, rtol=1e-15, atol=0)

    def test_collapsed_seeds_raise_order_too_high(self, monkeypatch):
        # two seeds in one basin polish into the same node
        real = np.linalg.eigvalsh

        def duplicated(a):
            seeds = real(a)
            if len(seeds) > 1:
                seeds[1] = seeds[0]
            return seeds

        monkeypatch.setattr(measure.np.linalg, "eigvalsh", duplicated)
        m = MomentSequence.from_weights(WFAC, 1.0, 15)
        with pytest.raises(OrderTooHighError) as info:
            gauss_quadrature_from_moments(m, 8)
        assert isinstance(info.value.achievable, int)
        assert 0 <= info.value.achievable < 8

    @pytest.mark.parametrize("w, q, order, achievable", [
        # the smallest Christoffel mass underflows float64
        (WCONST, 0.6, 20, 19),
        # the moments need more working digits than the solver's cap, and
        # the orders below it overflow or underflow float64
        (WFAC, 1e-6, 10, 4),
        (WFAC, 1e-30, 20, 2),
    ])
    def test_unrepresentable_rule_raises_order_too_high(self, w, q, order,
                                                         achievable):
        m = MomentSequence.from_weights(w, q, 2 * order - 1)
        with pytest.raises(OrderTooHighError) as info:
            gauss_quadrature_from_moments(m, order)
        assert info.value.achievable == achievable
        quad = gauss_quadrature_from_moments(m, achievable)
        assert np.all(quad.masses > 0)

    def test_precision_cap_leaves_definiteness_undecided(self):
        m = MomentSequence.from_weights(WFAC, 1e-30, 39)
        assert m.is_positive_definite(2)
        with pytest.raises(OrderTooHighError, match="undecided"):
            m.is_positive_definite(20)

    def test_order_cap_warns_and_falls_back(self):
        m = MomentSequence.from_weights(WFAC, 1.0, 2 * 25 - 1)
        with pytest.warns(UserWarning, match="cap"):
            quad = gauss_quadrature_from_moments(m, 25)
        assert quad.order == 20

    def test_positivity_enforced(self):
        with pytest.raises(ConfigError):
            RadialQuadrature(np.array([1.0]), np.array([-0.5]), 1, "moment-solved")
        with pytest.raises(ConfigError, match="nodes"):
            RadialQuadrature(np.array([-1.0]), np.array([0.5]), 1, "moment-solved")

    def test_json_roundtrip(self):
        m = MomentSequence.from_weights(WFAC, 1.0, 9)
        quad = gauss_quadrature_from_moments(m, 5)
        back = RadialQuadrature.from_json(quad.to_json())
        assert np.allclose(back.nodes, quad.nodes)
        assert np.allclose(back.masses, quad.masses)


def _eigsy_rule(m, order):
    """Reference rule: the Jacobi matrix diagonalized by mpmath.eigsy at the
    recurrence's precision, masses from the eigenvectors' first components."""
    alpha, beta, atoms, log_s, log_m0, dps = measure._chebyshev_recurrence(m, order)
    n = atoms if atoms is not None else order
    with mpmath.workdps(dps):
        J = mpmath.zeros(n, n)
        for k in range(n):
            J[k, k] = alpha[k]
        for k in range(1, n):
            J[k, k - 1] = J[k - 1, k] = mpmath.sqrt(beta[k])
        E, Q = mpmath.eigsy(J)
        nodes = np.array([float(E[i] * mpmath.e ** log_s) for i in range(n)])
        masses = np.array([float(Q[0, i] ** 2 * mpmath.e ** log_m0) for i in range(n)])
    idx = np.argsort(nodes)
    return nodes[idx], masses[idx]


@pytest.fixture(scope="module")
def quad12():
    return gauss_quadrature_from_moments(
        MomentSequence.from_weights(WFAC, 1.0, 23), 12)


class TestVerification:
    def test_normalization_unit(self, quad12):
        rep = verify_moments(quad12, WFAC, 1.0, 10)
        assert rep.max_deviation <= 1e-12

    def test_total_mass_is_probability(self, quad12):
        # n = 0: pi * total mass / w_0 = 1
        assert abs(math.pi * float(np.sum(quad12.masses)) / WFAC.weight(0)
                   - 1.0) < 1e-12

    def test_corrupted_mass_detected(self, quad12):
        bad = RadialQuadrature(quad12.nodes, quad12.masses * 1.01,
                               quad12.order, "moment-solved")
        rep = verify_moments(bad, WFAC, 1.0, 10)
        assert 5e-3 <= rep.max_deviation <= 2e-2

    def test_gram_identity(self, quad12):
        rep = verify_resolution_identity(quad12, WFAC, 1.0, 10, 25, tol=1e-8)
        assert rep.ok
        off = rep.matrix - np.diag(np.diag(rep.matrix))
        assert np.max(np.abs(off)) < 1e-12   # angular orthogonality is exact

    def test_gram_offset_invariance(self, quad12):
        a = verify_resolution_identity(quad12, WFAC, 1.0, 8, 21)
        b = verify_resolution_identity(quad12, WFAC, 1.0, 8, 21,
                                       angle_offset=0.37)
        assert abs(a.max_deviation - b.max_deviation) < 1e-12

    def test_angular_undersampling_rejected(self, quad12):
        with pytest.raises(ConfigError):
            verify_resolution_identity(quad12, WFAC, 1.0, 10, 20)

    def test_divergence_witness(self, quad12):
        wit = norm_divergence_witness(quad12, WFAC, 1.0, 20)
        assert abs(wit.partial_sums[0] - 1.0) < 1e-12
        assert abs(wit.partial_sums[9] - 10.0) < 1e-10
        assert abs(wit.slope - 1.0) < 1e-6

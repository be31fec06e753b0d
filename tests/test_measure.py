import cmath
import functools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp
from scipy.special import roots_laguerre

import qmanin
from qmanin import measure
from qmanin import (ConfigError, IndefiniteMomentsError, MomentSequence,
                    PolynomialSymbol, RadialQuadrature, WeightSequence,
                    closed_form_density, gauss_quadrature_from_moments,
                    norm_divergence_witness, quantize_cs, verify_density_moments,
                    verify_moments, verify_resolution_identity)
from qmanin.errors import OrderTooHighError

WFAC = WeightSequence.factorial()
WCONST = WeightSequence.constant()
# delta_0 + delta_1 at |q| = 1: moments (2, 1, 1, ...), an atomic measure
WDELTA01 = WeightSequence.explicit([math.pi * x for x in (2,) + (1,) * 39])


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

    def test_only_at_q_abs_exactly_one(self):
        # |q|^{-j(j+1)} j!/pi are not the moments of e^{-t}/pi at |q| != 1
        assert closed_form_density(WFAC, 1 + 1e-13) is None
        assert closed_form_density(WFAC, 1 - 1e-13) is None
        assert closed_form_density(WFAC, cmath.exp(1j * math.pi / 5)) is not None

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
        # a RuntimeWarning is an error in the child, as the suite makes it in process
        env = dict(os.environ, PYTHONPATH=str(Path(qmanin.__file__).parents[1]),
                   PYTHONWARNINGS="error::RuntimeWarning")
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
        m0, m1 = (math.exp(x) for x in m.log_values)
        assert abs(quad.nodes[0] - m1 / m0) < 1e-14
        assert abs(quad.masses[0] - m0) < 1e-16

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
        m = MomentSequence(tuple(math.log(v) for v in vals))
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

    def test_node_at_zero_keeps_the_checks_finite(self):
        # t**0 = 1 at the node t = 0, where 0 * log 0 would give NaN moments
        quad = gauss_quadrature_from_moments(
            MomentSequence.from_weights(WDELTA01, 1.0, 5), 3)
        assert list(quad.nodes) == [0.0, 1.0]
        rep = verify_moments(quad, WDELTA01, 1.0, 5, tol=1e-12)
        assert rep.ok and rep.max_deviation <= 1e-15
        wit = norm_divergence_witness(quad, WDELTA01, 1.0, 5)
        assert np.allclose(wit.partial_sums, np.arange(1.0, 7.0), rtol=0, atol=1e-14)
        assert abs(wit.slope - 1.0) <= 1e-12
        one = quantize_cs(PolynomialSymbol.one(), quad, WDELTA01, 1.0, 2)
        assert np.max(np.abs(one.matrix - np.eye(3))) <= 1e-15

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_refused(self, order):
        m = MomentSequence.from_weights(WFAC, 1.0, 3)
        with pytest.raises(ConfigError, match="order must be >= 1"):
            m.is_positive_definite(order)
        with pytest.raises(ConfigError, match="order must be >= 1"):
            gauss_quadrature_from_moments(m, order)

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

    @pytest.mark.parametrize("w, q, order, achievable", [
        (WCONST, 0.5, 17, 16),
        (WeightSequence.constant(2.0), 0.5, 17, 16),
        (WDELTA01, 0.5, 17, 16),
        (WeightSequence.power_factorial(0.5), 0.3, 13, 12),
    ])
    def test_subnormal_mass_refused(self, w, q, order, achievable):
        # a subnormal mass keeps a few bits only: cast as is, these rules
        # miss their own moments up to 2 * order - 1 by 8e-5 to 3.5e-3
        m = MomentSequence.from_weights(w, q, 2 * order - 1)
        with pytest.raises(OrderTooHighError, match="Christoffel mass underflows") as info:
            gauss_quadrature_from_moments(m, order)
        assert info.value.achievable == achievable
        quad = gauss_quadrature_from_moments(m, achievable)
        assert np.all(quad.masses >= np.finfo(float).tiny)
        assert verify_moments(quad, w, q, 2 * achievable - 1).ok

    @pytest.mark.parametrize("q, order, reason", [
        (1e-155, 1, "a Gauss node overflows float64"),          # node about 1e310
        (1e300, 1, "a nonzero Gauss node underflows float64"),  # node about 1e-600
        (1e-155, 2, "the Jacobi matrix overflows float64"),
    ])
    def test_node_past_the_double_range_refused(self, q, order, reason):
        # cast as is, the node 1e310 is inf and 1e-600 is 0.0, and the rules
        # of order 1 passed on as the achievable ones
        m = MomentSequence.from_weights(WFAC, q, 2 * order)
        with pytest.raises(OrderTooHighError, match=reason) as info:
            gauss_quadrature_from_moments(m, order)
        assert info.value.achievable == 0

    @pytest.mark.parametrize("nodes, masses", [
        ([math.inf], [1.0]), ([math.nan], [1.0]), ([1.0], [math.inf]), ([1.0], [math.nan])])
    def test_rule_not_finite_refused(self, nodes, masses):
        with pytest.raises(ConfigError, match="must be finite"):
            RadialQuadrature(nodes, masses, 1, "moment-solved")

    def test_probe_lets_faults_through(self, monkeypatch):
        # only the solver's own failures lower the achievable order; a
        # programming error at a lower order is raised, not swallowed
        def solver(m, order):
            if order == 8:
                raise measure._Breakdown("forced breakdown")
            raise TypeError("a fault below the requested order")

        monkeypatch.setattr(measure, "_golub_welsch", solver)
        m = MomentSequence.from_weights(WFAC, 1.0, 15)
        with pytest.raises(TypeError, match="fault below"):
            gauss_quadrature_from_moments(m, 8)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_log_moments_refused(self, bad):
        # a NaN would slip past Python's max into the solver's precision and
        # an infinity would overflow it: malformed input is a ConfigError,
        # not a conditioning refusal
        with pytest.raises(ConfigError, match="log moments must be finite"):
            MomentSequence((0.0, bad, 1.0, 2.0))

    def test_positivity_enforced(self):
        with pytest.raises(ConfigError):
            RadialQuadrature(np.array([1.0]), np.array([-0.5]), 1, "moment-solved")
        with pytest.raises(ConfigError, match="nodes"):
            RadialQuadrature(np.array([-1.0]), np.array([0.5]), 1, "moment-solved")


def _outcome(solve, *args):
    """The solver's result, or the type, message and achievable order of
    what it raised."""
    try:
        return solve(*args)
    except (ConfigError, OrderTooHighError, IndefiniteMomentsError,
            measure._Breakdown) as exc:
        return type(exc), str(exc), getattr(exc, "achievable", None)


def _refused(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


@pytest.mark.parametrize("w", [WFAC, WeightSequence.power_factorial(2.0), WCONST,
                               WDELTA01],
                         ids=["factorial", "power-factorial-2", "constant",
                              "delta0+delta1"])
@pytest.mark.parametrize("q", [1.0, 0.95 * cmath.exp(0.7j), 0.7, 1.3, 0.5],
                         ids=["1", "0.95e^0.7i", "0.7", "1.3", "0.5"])
@pytest.mark.parametrize("order", [2, 8, 14, 20])
def test_raw_tuple_solver_matches_mpf_objects(w, q, order, monkeypatch):
    # the recurrence on raw mpf tuples rounds every operation as mpf objects
    # do, so every coefficient is the same to the last bit of the working
    # precision, and so is every rule and refusal; at |q| = 0.5 order 20 is
    # refused below it
    m = MomentSequence.from_weights(w, q, 2 * order - 1)
    got = _outcome(measure._chebyshev_recurrence, m, order)
    want = _outcome(_mpf_recurrence, m, order)
    if _refused(want):
        assert got == want
    else:
        alpha, beta = got[:2]
        assert all(isinstance(x, mpmath.mpf) for x in alpha + beta)
        assert alpha == want[0] and beta == want[1]
        assert got[2:] == want[2:]
    rule = _outcome(gauss_quadrature_from_moments, m, order)
    # the float64 rule is also the one the Christoffel sum at the polished
    # node gives, as the masses differ far below float64
    for polish in (_mpf_polish, _mpf_christoffel_polish):
        monkeypatch.setattr(measure, "_golub_welsch",
                            functools.partial(_mpf_golub_welsch, polish=polish))
        ref = _outcome(gauss_quadrature_from_moments, m, order)
        if _refused(ref):
            assert rule == ref
        else:
            assert np.array_equal(rule.nodes, ref.nodes)
            assert np.array_equal(rule.masses, ref.masses)


def _on_polish_grid(test):
    """Parametrize ``test`` over the 80 configurations (w, q, order) on
    which the polish is compared with mpf objects."""
    for mark in [
            pytest.mark.parametrize("order", [2, 8, 14, 20]),
            pytest.mark.parametrize("q", [1.0, 0.95 * cmath.exp(0.7j), 0.7, 1.3, 0.5],
                                    ids=["1", "0.95e^0.7i", "0.7", "1.3", "0.5"]),
            pytest.mark.parametrize("w", [WFAC, WeightSequence.power_factorial(2.0),
                                          WCONST, WDELTA01],
                                    ids=["factorial", "power-factorial-2", "constant",
                                         "delta0+delta1"])]:
        test = mark(test)
    return test


@functools.cache
def _polish_args(w, q, order):
    """The polish's arguments (alpha, beta, seeds, dps) for the order-n
    rule, or None where the recurrence or the seeds are refused and leave
    nothing to polish; cached, as four tests share the grid."""
    m = MomentSequence.from_weights(w, q, 2 * order - 1)
    recurrence = _outcome(measure._chebyshev_recurrence, m, order)
    if _refused(recurrence):
        return None
    alpha, beta, atoms, _, _, dps = recurrence
    npts = atoms if atoms is not None else order
    seeds = _outcome(_jacobi_seeds, alpha, beta, npts)
    if _refused(seeds):
        return None
    return alpha[:npts], beta[:npts], seeds, dps


@functools.cache
def _exact_polish(w, q, order):
    """``measure._nodes_and_masses`` on ``_polish_args``, or None."""
    args = _polish_args(w, q, order)
    return None if args is None else _outcome(measure._nodes_and_masses, *args)


@_on_polish_grid
def test_exact_polish_matches_mpf_objects(w, q, order):
    # the exact fixed-point polish against mpf objects rounded at the
    # recurrence's precision, both from the float64 seeds: every node and
    # Christoffel number agrees to 2^-120 of itself, and a node inside the
    # noise floor is 0 in both; a refused recurrence or seed leaves nothing
    # to polish
    args = _polish_args(w, q, order)
    if args is None:
        return
    npts, dps = len(args[0]), args[3]
    ref = _outcome(_mpf_polish, *args)
    polished = _exact_polish(w, q, order)
    if _refused(ref):
        assert polished == ref
        return
    roots, weights, f = polished
    assert len(roots) == len(weights) == npts
    with mpmath.workdps(dps):
        bound = mpmath.mpf(2) ** -120
        for x, want in zip(roots, ref[0]):
            assert abs(mpmath.ldexp(x, -f) - want) <= bound * abs(want)
        for c, want in zip(weights, ref[1]):
            assert abs(mpmath.mp.make_mpf(c) - want) <= bound * want


@_on_polish_grid
def test_exact_polish_nodes_bracket_a_zero(w, q, order):
    # with alpha_k and beta_k truncated to 2^-F, P_k = p_k 2^{kF} is an
    # integer at every x = X 2^-F, by P_{k+1} = (X - A_k) P_k - B_k 2^F
    # P_{k-1}: that recurrence changes sign across each nonzero polished
    # node within 2^-140 of it, twice the 2^-70 stop rule's bits
    args = _polish_args(w, q, order)
    if args is None:
        return
    polished = _exact_polish(w, q, order)
    if _refused(polished):
        return
    alpha, beta = args[:2]
    roots, _, f = polished
    coeffs = [(measure._fixed(a, f), measure._fixed(b, f)) for a, b in zip(alpha, beta)]

    def p_n(x):
        prev, cur = 0, 1
        for a, b in coeffs:
            prev, cur = cur, (x - a) * cur - (b << f) * prev
        return cur

    for x in roots:
        if x:
            d = abs(x) >> 140
            assert p_n(x - d) * p_n(x + d) < 0


@_on_polish_grid
def test_exact_christoffel_numbers_match_the_christoffel_sum(w, q, order):
    # the Christoffel-Darboux mass, exact at the iterate before the node,
    # against 1 / sum_k p_k(x)^2 / h_k in mpf objects at the node polished
    # at the recurrence's precision: they agree to 2^-80 of the mass, 27
    # bits below float64
    args = _polish_args(w, q, order)
    if args is None:
        return
    ref = _outcome(_mpf_christoffel_polish, *args)
    polished = _exact_polish(w, q, order)
    if _refused(ref) or _refused(polished):
        return
    with mpmath.workdps(args[3]):
        bound = mpmath.mpf(2) ** -80
        for c, want in zip(polished[1], ref[1]):
            assert abs(mpmath.mp.make_mpf(c) - want) <= bound * want


@_on_polish_grid
def test_polish_bits_keep_a_guard_margin(w, q, order, monkeypatch):
    # 128 guard bits already give every float64 rule and refusal that
    # _SEED_GUARD_BITS give, so the production fixed point keeps 64 bits of
    # margin on these configurations
    m = MomentSequence.from_weights(w, q, 2 * order - 1)
    rule = _outcome(gauss_quadrature_from_moments, m, order)
    monkeypatch.setattr(measure, "_SEED_GUARD_BITS", 128)
    lean = _outcome(gauss_quadrature_from_moments, m, order)
    if _refused(rule):
        assert lean == rule
    else:
        assert np.array_equal(lean.nodes, rule.nodes)
        assert np.array_equal(lean.masses, rule.masses)


def test_polish_takes_seeds_past_two_to_the_244():
    # 192 guard bits below the ulp of a seed near 2^249 would put F below 0;
    # F stays at 0, and the two-point rule of alpha = (2^250, 2^251),
    # beta_1 = 2^500 still matches its closed form, nodes 2^249 (3 -+ sqrt 5)
    # with masses 1 / (1 + (x - alpha_0)^2 / beta_1)
    alpha = [mpmath.mpf(2) ** 250, mpmath.mpf(2) ** 251]
    beta = [mpmath.mpf(1), mpmath.mpf(2) ** 500]
    seeds = _jacobi_seeds(alpha, beta, 2)
    assert min(seeds) >= 2.0 ** 244
    roots, weights, f = measure._nodes_and_masses(alpha, beta, seeds, 30)
    assert f == 0
    with mpmath.workdps(60):
        for x, w, sign in zip(roots, weights, (-1, 1)):
            node = 2 ** 249 * (3 + sign * mpmath.sqrt(5))
            mass = 1 / (1 + (node - alpha[0]) ** 2 / beta[1])
            assert abs(x - node) <= 2 ** -70 * node
            assert abs(mpmath.mp.make_mpf(w) - mass) <= 2 ** -80 * mass


@pytest.mark.parametrize("q, order", [
    (0.9999943765867481, 20), (0.9999968377223398, 20), (0.9999982217205899, 18)])
def test_polish_widens_below_a_noisy_seed(q, order, monkeypatch):
    # a node near t = 0 whose float64 seed is noise 60 decades or more
    # above it keeps fewer than 192 + 53 bits of 2^-F, so the polish reruns
    # with F widened; at the first F that node lands 3.5e-91 to 4.5e-91, or
    # 3e-14 to 2e-9 of itself, off
    m = MomentSequence.from_weights(WDELTA01, q, 2 * order - 1)
    alpha, beta, atoms, _, _, dps = measure._chebyshev_recurrence(m, order)
    npts = atoms if atoms is not None else order
    seeds = _jacobi_seeds(alpha, beta, npts)
    smallest = min(abs(s) for s in seeds if s)
    first = measure._SEED_GUARD_BITS - (math.frexp(math.ulp(smallest))[1] - 1)
    roots, _, f = measure._nodes_and_masses(alpha[:npts], beta[:npts], seeds, dps)
    assert f > first
    node = min(x for x in roots if x)
    assert 0 < node / 2 ** f < 1e-60 * smallest
    rule = gauss_quadrature_from_moments(m, order)
    monkeypatch.setattr(measure, "_golub_welsch", _mpf_golub_welsch)
    ref = gauss_quadrature_from_moments(m, order)
    assert np.array_equal(rule.nodes, ref.nodes)
    assert np.array_equal(rule.masses, ref.masses)


@pytest.mark.parametrize("w, q, order", [
    (WeightSequence.constant(2.0), 0.10178114258214559 + 0.9948068149217077j, 6),
    (WCONST, 0.8737292721603928 + 0.48641253989804817j, 5),
    (WDELTA01, -0.8151944056348668 + 0.5791874316847839j, 4),
    (WCONST, -0.1490597623392169 + 0.9888281889445588j, 4),
    (WDELTA01, -0.9912759751350373 - 0.13180265976102656j, 7),
    # 128 guard bits move a mass by one ulp, and one by 1.5e-8
    (WDELTA01, 0.05548377731337452 + 0.9984595887941784j, 8),
    (WDELTA01, 0.6616357683510744 - 0.7498253863657081j, 9),
])
def test_seed_guard_bits(w, q, order, monkeypatch):
    # nearly atomic rules at q = e^{i theta}: nodes clustered within 1e-8 of
    # t = 1, a node near t = 0, and lower-order zeros near the nodes, so the
    # Christoffel numbers read the fixed point's truncation; with 192 guard
    # bits the rule is the one the two-sweep polish from the float64 seeds
    # gives at the recurrence's precision
    m = MomentSequence.from_weights(w, q, 2 * order - 1)
    rule = gauss_quadrature_from_moments(m, order)
    monkeypatch.setattr(measure, "_golub_welsch",
                        functools.partial(_mpf_golub_welsch, polish=_mpf_polish))
    ref = gauss_quadrature_from_moments(m, order)
    assert np.array_equal(rule.nodes, ref.nodes)
    assert np.array_equal(rule.masses, ref.masses)


@pytest.mark.parametrize("w, q, order", [
    (WFAC, 0.1, 9),                 # nodes over 33 decades, each well conditioned
    (WFAC, 0.95, 20),
    (WDELTA01, 0.9999, 16),         # a node near t = 0, 40 decades below the rest
    (WDELTA01, 0.99999, 12),
    (WDELTA01, 0.9999999, 8),
    # nodes over 236 decades: at 192 rounded bits a Christoffel-Darboux
    # numerator comes out not positive, where the mass underflows
    (WFAC, -2.877957375027204e-30 + 2.556262796661036e-30j, 3),
], ids=["factorial-0.1", "factorial-0.95", "delta0+delta1-0.9999",
        "delta0+delta1-0.99999", "delta0+delta1-0.9999999", "factorial-3e-30"])
def test_graded_and_nearly_atomic_rules_match_mpf_objects(w, q, order, monkeypatch):
    # a graded Jacobi matrix spreads the nodes over many decades, each well
    # conditioned; a node near t = 0 far below the rest is ill conditioned
    # relative to the matrix entries; for each the exact polish gives the
    # rule or refusal that mpf objects give at the recurrence's precision
    m = MomentSequence.from_weights(w, q, 2 * order - 1)
    rule = _outcome(gauss_quadrature_from_moments, m, order)
    monkeypatch.setattr(measure, "_golub_welsch", _mpf_golub_welsch)
    ref = _outcome(gauss_quadrature_from_moments, m, order)
    if _refused(ref):
        assert rule == ref
    else:
        assert np.array_equal(rule.nodes, ref.nodes)
        assert np.array_equal(rule.masses, ref.masses)


@pytest.mark.parametrize("w, q", [
    # the node 3.4e-17 lies 2.4e-48 of itself above a midpoint of doubles,
    # nearer than a polish rounded to the recurrence's 209 bits holds it
    (WDELTA01, 0.912978884799118 + 0.40800680865759914j),
    (WFAC, 1.0), (WCONST, 0.7), (WeightSequence.power_factorial(2.0), 0.95 * cmath.exp(0.7j)),
], ids=["delta0+delta1-circle", "factorial-1", "constant-0.7", "power-factorial-2"])
def test_two_point_rule_is_correctly_rounded(w, q):
    # the zeros of p_2 = (x - alpha_0)(x - alpha_1) - beta_1 in closed form,
    # and the Christoffel numbers 1 / (1 + (x - alpha_0)^2 / beta_1) there,
    # at four times the recurrence's precision: every float64 node and mass
    # of the solver is their value rounded once
    m = MomentSequence.from_weights(w, q, 3)
    quad = gauss_quadrature_from_moments(m, 2)
    alpha, beta, atoms, log_s, log_m0, dps = measure._chebyshev_recurrence(m, 2)
    assert atoms is None
    with mpmath.workdps(4 * dps):
        a0, a1, b1 = alpha[0], alpha[1], beta[1]
        top = (a0 + a1) / 2 + mpmath.sqrt(((a0 - a1) / 2) ** 2 + b1)
        xs = [(a0 * a1 - b1) / top, top]     # the smaller zero without cancellation
        nodes = [float(x * mpmath.e ** log_s) for x in xs]
        masses = [float(mpmath.e ** log_m0 / (1 + (x - a0) ** 2 / b1)) for x in xs]
    assert list(quad.nodes) == nodes
    assert list(quad.masses) == masses


def _mpf_recurrence(m, order):
    """``measure._chebyshev_recurrence`` in mpf-object arithmetic."""
    if 2 * order - 1 > m.jmax:
        raise ConfigError(f"order {order} needs moments up to {2 * order - 1}, "
                          f"have {m.jmax}")
    span = max(abs(x) for x in m.log_values[: 2 * order]) / math.log(10.0)
    dps = int(50 + 6 * order + span)
    if dps > measure.MAX_DPS:
        raise measure._Breakdown(f"the moments need {dps} working digits, above "
                                 f"the cap of {measure.MAX_DPS}")
    raw = m.mp_logs if len(m.mp_logs) > m.jmax else [mpmath.mpf(x) for x in m.log_values]
    with mpmath.workdps(dps):
        log_m0 = mpmath.mpf(raw[0])
        log_s = mpmath.mpf(raw[1]) - log_m0 if m.jmax >= 1 else mpmath.mpf(0)
        nu = [mpmath.e ** (mpmath.mpf(raw[j]) - log_m0 - j * log_s)
              for j in range(2 * order)]
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
        return alpha, beta, atoms, log_s, log_m0, dps


def _jacobi_seeds(alpha, beta, npts):
    off = np.sqrt(np.array([float(b) for b in beta[1:npts]]))
    jacobi = (np.diag([float(a) for a in alpha[:npts]])
              + np.diag(off, 1) + np.diag(off, -1))
    if not np.all(np.isfinite(jacobi)):
        raise measure._Breakdown("the Jacobi matrix overflows float64")
    return np.linalg.eigvalsh(jacobi)


def _mpf_newton(alpha, beta, seed, dps, prec=None):
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
            sweep = _monic_values(alpha, beta, npts, x)
            dx = sweep[1] / sweep[2]           # p_npts / p_npts'
            x -= dx
            if abs(dx) <= max(tol * abs(x), floor):
                break
        else:
            raise measure._Breakdown(
                f"Newton polish did not converge from seed {seed!r}")
        return (x if abs(x) > floor else mpmath.mpf(0)), sweep


def _mpf_polish(alpha, beta, seeds, dps, prec=None):
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
            x, (values, p, dp, dp_prev) = _mpf_newton(alpha, beta, seed, dps, prec)
            cd = dp * values[-1] - p * dp_prev
            if not cd > 0:
                raise measure._Breakdown(
                    f"the Christoffel-Darboux numerator is not positive at the "
                    f"node polished from seed {seed!r}")
            roots.append(x)
            weights.append(h_last / cd)
        return roots, weights


def _mpf_christoffel_polish(alpha, beta, seeds, dps):
    """The same nodes with each mass the Christoffel sum
    1 / sum_k p_k(x)^2 / (beta_1 ... beta_k), taken in a further sweep at
    the polished node, in mpf objects."""
    npts = len(alpha)
    with mpmath.workdps(dps):
        norms = [mpmath.mpf(1)]
        for k in range(1, npts):
            norms.append(norms[-1] * beta[k])
        roots, weights = [], []
        for seed in seeds:
            x, _ = _mpf_newton(alpha, beta, seed, dps)
            p = _monic_values(alpha, beta, npts, x)[0]
            roots.append(x)
            weights.append(1 / mpmath.fsum(v ** 2 / h for v, h in zip(p, norms)))
        return roots, weights


def _mpf_golub_welsch(m, order, polish=_mpf_polish):
    """``measure._golub_welsch`` in mpf-object arithmetic throughout."""
    alpha, beta, atoms, log_s, log_m0, dps = _mpf_recurrence(m, order)
    npts = atoms if atoms is not None else order
    seeds = _jacobi_seeds(alpha, beta, npts)
    roots, weights = polish(alpha[:npts], beta[:npts], seeds, dps)
    with mpmath.workdps(dps):
        if any(a >= b for a, b in zip(roots, roots[1:])):
            raise measure._Breakdown("two float64 seeds polished into one node")
        if roots[0] < 0:
            raise IndefiniteMomentsError(
                f"the order-{npts} Gauss rule has a node t = r^2 < 0: no "
                f"positive measure on t >= 0 matches these moments", order=npts)
        scale = mpmath.e ** log_s
        total = mpmath.e ** log_m0
        nodes = np.array([float(x * scale) for x in roots])
        masses = np.array([float(w * total) for w in weights])
    if np.any(masses < np.finfo(float).tiny):
        raise measure._Breakdown("a Christoffel mass underflows float64")
    return nodes, masses


def _monic_values(alpha, beta, npts, x):
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


# the solver's integer-pair arithmetic against mpmath.libmp at round_nearest:
# both round the exact result half-even, so they agree after normalization;
# the largest precision is the MAX_DPS cap in bits
_PRECS = [53, 113, 333, 1000, libmp.dps_to_prec(measure.MAX_DPS)]
_BINARY = [(measure._add, libmp.mpf_add), (measure._div, libmp.mpf_div),
           (lambda m1, e1, m2, e2, prec: measure._add(m1, e1, -m2, e2, prec),
            libmp.mpf_sub),
           (lambda m1, e1, m2, e2, prec: measure._round(m1 * m2, e1 + e2, prec),
            libmp.mpf_mul)]


def _check_kernel(a, b, prec):
    """Every kernel operation on the pairs a, b against mpmath's."""
    x, y = libmp.from_man_exp(*a), libmp.from_man_exp(*b)
    for op, ref in _BINARY:
        if ref is libmp.mpf_div and not b[0]:
            with pytest.raises(ZeroDivisionError):
                ref(x, y, prec, libmp.round_nearest)
            with pytest.raises(ZeroDivisionError):
                op(*a, *b, prec)
            continue
        m, e = op(*a, *b, prec)
        assert abs(m).bit_length() <= prec
        assert libmp.from_man_exp(m, e) == ref(x, y, prec, libmp.round_nearest)
    assert measure._lt(*a, *b) == libmp.mpf_lt(x, y)
    assert (not measure._lt(*b, *a)) == libmp.mpf_le(x, y)


@st.composite
def _kernel_operands(draw):
    """Two pairs of at most prec bits whose exponents lie 0-300 apart."""
    prec = draw(st.sampled_from(_PRECS))

    def pair(e):
        bits = draw(st.integers(0, prec))
        m = draw(st.integers(0, 2 ** bits - 1)) | (1 << bits >> 1)
        return (-m if draw(st.booleans()) else m), e

    e = draw(st.integers(-2000, 2000))
    a, b = pair(e), pair(e - draw(st.integers(0, 300)))
    return (a, b, prec) if draw(st.booleans()) else (b, a, prec)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_kernel_operands())
def test_kernel_matches_libmp(operands):
    _check_kernel(*operands)


@pytest.mark.parametrize("prec", _PRECS)
def test_kernel_matches_libmp_on_edge_cases(prec):
    top = 2 ** prec - 1
    half = random.Random(prec).getrandbits(prec) | 1 << (prec - 1)
    cases = []
    for kept in (half & ~1, half | 1, top):
        # exact ties on an even and an odd kept mantissa, and the carry to
        # 2**prec from an odd tie and from above the tie
        cases += [((kept, 1), (1, 0)), ((kept, 1), (-1, 0)),
                  ((kept, 2), (3, 0)), ((-kept, 1), (-1, 0))]
        # exact cancellation, and zero operands
        cases += [((kept, 5), (kept, 5)), ((kept, 5), (0, 0)), ((0, -9), (kept, 5)),
                  ((0, 0), (0, 7))]
    for gap in range(0, 301, 7):
        # a full, a short and a one-bit operand at exponent gaps 0 to 294,
        # so the exact sum and the shortcut past 100 bits both run
        for small in (top, 2 ** (prec // 2) + 1, 1):
            cases += [((half, gap), (small, 0)), ((half, gap), (-small, 0)),
                      ((top, gap - prec), (small, -prec)), ((1, gap), (-small, 0))]
    for a, b in cases:
        _check_kernel(a, b, prec)
        _check_kernel(b, a, prec)


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


@pytest.mark.parametrize("q_abs, solved", [
    (0.95, 20), (0.8, 20), (0.7, 20), (0.5, 16), (0.3, 12)])
def test_stieltjes_wigert_closed_form(q_abs, solved):
    # constant weights at |q| < 1: m_n = (c/pi) r^{n(n+1)}, r = 1/|q|, the
    # Stieltjes-Wigert moments, whose monic recurrence is in closed form,
    # alpha_n = r^2n (r^2n (1 + r^2) - 1) and beta_n = r^{6n-2} (r^2n - 1)
    c = 2.0
    w = WeightSequence.constant(c)
    orders = []
    for order in range(1, measure.MAX_ORDER + 1):
        m = MomentSequence.from_weights(w, q_abs, 2 * order - 1)
        try:
            # not the public solver, whose refusals re-solve every lower order
            nodes, masses = measure._golub_welsch(m, order)
        except measure._Breakdown:
            continue
        orders.append(order)
        alpha, beta, atoms, log_s, _, dps = measure._chebyshev_recurrence(m, order)
        assert atoms is None
        with mpmath.workdps(2 * dps):
            r2 = 1 / mpmath.mpf(q_abs) ** 2
            a = [r2 ** n * (r2 ** n * (1 + r2) - 1) for n in range(order)]
            b = [mpmath.mpf(c) / mpmath.pi] + [r2 ** (3 * n - 1) * (r2 ** n - 1)
                                                for n in range(1, order)]
            # the solver works in t / s with s = m_1 / m_0
            s = mpmath.e ** log_s
            for n in range(order):
                assert abs(alpha[n] * s / a[n] - 1) <= 1e-50
                if n:
                    assert abs(beta[n] * s ** 2 / b[n] - 1) <= 1e-50
            # nodes: the eigenvalues of the closed-form Jacobi matrix; masses:
            # the Christoffel sum b_0 / sum_k p_k(x)^2 / (b_1 ... b_k) there
            J = mpmath.zeros(order, order)
            for n in range(order):
                J[n, n] = a[n]
                if n:
                    J[n, n - 1] = J[n - 1, n] = mpmath.sqrt(b[n])
            for k, x in enumerate(sorted(mpmath.eigsy(J, eigvals_only=True))):
                total, p_prev, p, h = 0, 0, mpmath.mpf(1), mpmath.mpf(1)
                for n in range(order):
                    if n:
                        h *= b[n]
                    total += p ** 2 / h
                    p_prev, p = p, (x - a[n]) * p - b[n] * p_prev
                for got, want in ((nodes[k], x), (masses[k], b[0] / total)):
                    assert abs(got - want) <= 4 * np.spacing(float(want))
    assert orders == list(range(1, solved + 1))


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

    def test_nan_deviation_fails_the_report(self, quad12, monkeypatch):
        # Python's max drops a NaN that does not come first
        report = measure.MomentCheckReport((0.0, math.nan), measure.worst(0.0, math.nan), 1.0)
        assert math.isnan(report.max_deviation) and not report.ok
        real = measure.log_power_sums

        def nan_at_3(*args):
            out = real(*args)
            out[3] = math.nan
            return out

        monkeypatch.setattr(measure, "log_power_sums", nan_at_3)
        rep = verify_moments(quad12, WFAC, 1.0, 10)
        assert math.isnan(rep.deviations[3]) and math.isnan(rep.max_deviation)
        assert not rep.ok and rep.to_json()["ok"] is False
        real_quad = measure.mpmath.fp.quad
        calls = iter(range(100))
        monkeypatch.setattr(measure.mpmath.fp, "quad", lambda *args: (
            math.nan if next(calls) == 3 else real_quad(*args)))
        rep = verify_density_moments(closed_form_density(WFAC, 1.0), WFAC, 1.0, 6)
        assert math.isnan(rep.max_deviation) and not rep.ok

    def test_zero_node_rule_checks_without_warning(self):
        # every column max of log S_n, n >= 1, is -inf; the suite turns a
        # RuntimeWarning into an error
        rep = verify_moments(RadialQuadrature([0.0], [0.5], 1, "moment-solved"), WFAC, 1.0, 3)
        assert rep.deviations == (abs(math.pi * 0.5 - 1.0), 1.0, 1.0, 1.0)

    def test_gram_identity(self, quad12):
        rep = verify_resolution_identity(quad12, WFAC, 1.0, 10, 25, tol=1e-8)
        assert rep.ok
        off = rep.matrix - np.diag(np.diag(rep.matrix))
        assert np.max(np.abs(off)) < 1e-12   # angular orthogonality is exact

    def test_angular_undersampling_rejected(self, quad12):
        with pytest.raises(ConfigError):
            verify_resolution_identity(quad12, WFAC, 1.0, 10, 20)

    def test_divergence_witness(self, quad12):
        wit = norm_divergence_witness(quad12, WFAC, 1.0, 20)
        assert abs(wit.partial_sums[0] - 1.0) < 1e-12
        assert abs(wit.partial_sums[9] - 10.0) < 1e-10
        assert abs(wit.slope - 1.0) < 1e-6

"""The numpy kernels against direct evaluation."""

import importlib
import math

import numpy as np

from qmanin import kernels


def test_csum_logpolar_against_direct():
    rng = np.random.default_rng(3)
    logmag = rng.uniform(-5, 5, size=200)
    phase = rng.uniform(-20, 20, size=200)
    acc, scale = kernels.csum_logpolar(logmag, phase)
    direct = np.sum(np.exp(logmag) * np.exp(1j * phase))
    assert abs(acc * math.exp(scale) - direct) <= 1e-12 * abs(direct)


def test_csum_logpolar_edges():
    acc, scale = kernels.csum_logpolar(np.array([]), np.array([]))
    assert acc == 0 and scale == -math.inf
    acc, scale = kernels.csum_logpolar(np.array([-math.inf] * 4), np.zeros(4))
    assert acc == 0 and scale == -math.inf
    # huge magnitudes survive through rescaling
    acc, scale = kernels.csum_logpolar(np.array([1000.0, 1000.0]), np.zeros(2))
    assert abs(acc - 2.0) < 1e-14 and scale == 1000.0


def test_log_power_sums():
    nodes = np.array([0.5, 2.0, 7.0])
    masses = np.array([0.1, 0.2, 0.3])
    got = kernels.log_power_sums(np.log(nodes), np.log(masses), 6)
    expect = [math.log(np.sum(masses * nodes**n)) for n in range(7)]
    assert np.allclose(got, expect, rtol=1e-13)


def test_log_power_sums_huge_nodes():
    # values that would overflow float64 in linear space
    log_nodes = np.array([700.0, 500.0])
    log_masses = np.array([-300.0, -100.0])
    got = kernels.log_power_sums(log_nodes, log_masses, 3)
    assert np.all(np.isfinite(got))
    assert math.isclose(got[3], math.log(math.exp(2100 - 300 - (1600))
                                         + math.exp(1500 - 100 - 1600)) + 1600,
                        rel_tol=1e-12)


def test_power_matrix():
    z = np.array([1.0 + 1.0j, 0.5, -2.0j])
    V = kernels.power_matrix(z, 5)
    expect = z[:, None] ** np.arange(6)[None, :]
    assert np.allclose(V, expect, rtol=1e-13)


def test_weighted_gram():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    wts = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    G = kernels.weighted_gram(V, wts)
    expect = np.einsum("pj,p,pk->jk", V, wts, V.conj())
    assert np.allclose(G, expect, rtol=1e-12)


def test_selector_reports_backend(monkeypatch):
    # the retired backend switch must not be read
    monkeypatch.setenv("QMANIN_BACKEND", "cython")
    spec = importlib.util.find_spec("qmanin.kernels")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.backend_name() == "numpy"

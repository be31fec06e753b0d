import json
import math

import numpy as np
import pytest

from qmanin import jsonio
from qmanin.errors import InputTooLargeError
from qmanin.paragrassmann import MAX_PG_ORDER
from qmanin import (ConfigError, ParagrassmannConfig, pg_annihilation,
                    pg_structure_report)


def test_l2_unit_weights():
    cfg = ParagrassmannConfig(2, (1.0, 1.0))
    assert np.array_equal(pg_annihilation(cfg).matrix,
                          np.array([[0, 1], [0, 0]], dtype=complex))


def test_l3_superdiagonal():
    cfg = ParagrassmannConfig(3, (1.0, 1.0, 2.0))
    T = pg_annihilation(cfg).matrix
    assert np.allclose(np.diag(T, k=1), [1.0, math.sqrt(2)])


def test_column_zero_is_zero():
    cfg = ParagrassmannConfig(5, (1.0, 2.0, 3.0, 4.0, 5.0), q=1j)
    assert not pg_annihilation(cfg).matrix[:, 0].any()


def test_q_independence():
    w = (1.0, 0.5, 2.0)
    a = pg_annihilation(ParagrassmannConfig(3, w, q=1.0)).matrix
    b = pg_annihilation(ParagrassmannConfig(3, w, q=-2.5j)).matrix
    assert np.array_equal(a, b)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_exact_nilpotency(l):
    cfg = ParagrassmannConfig(l, tuple(1.0 + 0.3 * k for k in range(l)))
    T = pg_annihilation(cfg).matrix
    assert np.linalg.matrix_power(T, l - 1).any()
    assert not np.linalg.matrix_power(T, l).any()   # exact zero matrix


def test_structure_report():
    cfg = ParagrassmannConfig(4, (1.0, 1.5, 0.5, 2.0), q=3.0)
    rep = pg_structure_report(cfg)
    assert rep.nilpotency_index == 4
    assert rep.eigenvalues == (0j,)
    assert rep.eigenvector_count == 1
    assert rep.phase_space == (0j,)
    assert rep.extreme
    assert rep.jordan_deviation <= 1e-12


def test_agreement_with_spectral_machinery():
    # the eigen solver side: only the eigenvalue 0, geometric multiplicity 1
    cfg = ParagrassmannConfig(5, (1.0, 2.0, 1.0, 0.5, 3.0))
    T = pg_annihilation(cfg).matrix
    eigs = np.linalg.eigvals(T)
    assert np.max(np.abs(eigs)) <= 1e-12
    rank = np.linalg.matrix_rank(T)
    assert T.shape[0] - rank == 1


def test_config_validation():
    with pytest.raises(ConfigError):
        ParagrassmannConfig(1, (1.0,))
    with pytest.raises(ConfigError):
        ParagrassmannConfig(3, (1.0, 1.0))
    with pytest.raises(ConfigError):
        ParagrassmannConfig(2, (1.0, -1.0))
    with pytest.raises(ConfigError):
        ParagrassmannConfig(2, (1.0, 1.0), q=0.0)


def test_order_cap():
    assert ParagrassmannConfig(MAX_PG_ORDER, (1.0,) * MAX_PG_ORDER).l == 256
    with pytest.raises(ConfigError, match="exceeds the cap 256"):
        ParagrassmannConfig(MAX_PG_ORDER + 1, (1.0,) * (MAX_PG_ORDER + 1))


def test_report_json():
    doc = json.loads(jsonio.dumps(pg_structure_report(ParagrassmannConfig(3, (1.0, 1.0, 1.0)))))
    assert doc["nilpotency_index"] == 3
    assert doc["extreme"] is True


def _dense_report(cfg):
    """Nilpotency index, eigenvector count and Jordan deviation from the
    dense l x l matrix products."""
    T = pg_annihilation(cfg).matrix
    l = cfg.l
    power = np.eye(l, dtype=complex)
    nilpotency = None
    for p in range(1, l + 1):
        power = power @ T
        if not power.any():
            nilpotency = p
            break
    d = np.ones(l)
    for j in range(1, l):
        d[j] = d[j - 1] / T[j - 1, j].real
    conj = np.diag(1.0 / d) @ T @ np.diag(d)
    deviation = float(np.max(np.abs(conj - np.diag(np.ones(l - 1), k=1))))
    return nilpotency, l - int(np.count_nonzero(np.diag(T, k=1))), deviation


@pytest.mark.parametrize("l", [2, 3, 5, 40, 256])
def test_band_report_is_the_dense_report(l):
    rng = np.random.default_rng(l)
    for sigma in (0.1, 3.0):
        w = tuple(np.exp(np.cumsum(rng.normal(0.0, sigma, l))).tolist())
        cfg = ParagrassmannConfig(l, w, q=0.7j)
        rep = pg_structure_report(cfg)
        assert (rep.nilpotency_index, rep.eigenvector_count,
                rep.jordan_deviation) == _dense_report(cfg)


def test_weight_quotient_past_a_double_is_refused():
    with pytest.raises(ConfigError, match="w_1 / w_0"):
        ParagrassmannConfig(3, (1e300, 1e-300, 1.0))       # underflows to 0
    with pytest.raises(ConfigError, match="w_2 / w_1"):
        ParagrassmannConfig(3, (1.0, 1e-300, 1e300))       # overflows


def test_band_power_past_a_double_is_refused():
    # every quotient is a double, but T^3's band (w_3 / w_0)^{1/2} is not
    cfg = ParagrassmannConfig(4, (5e-324, 1e-20, 1e150, 1e308))
    with pytest.raises(InputTooLargeError, match="T\\^3"):
        pg_structure_report(cfg)


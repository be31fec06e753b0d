import math

import numpy as np
import pytest

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
    doc = pg_structure_report(ParagrassmannConfig(3, (1.0, 1.0, 1.0))).to_json()
    assert doc["nilpotency_index"] == 3
    assert doc["extreme"] is True

import math

import numpy as np
import pytest

from qmanin import WeightSequence


@pytest.fixture
def wfac():
    return WeightSequence.factorial()


@pytest.fixture
def wconst():
    return WeightSequence.constant()


def qgauss_table(q_abs: float, length: int = 31) -> WeightSequence:
    """w_n = |q|^{n(n+1)}: radius exactly one for the given |q|."""
    return WeightSequence.explicit([q_abs ** (n * (n + 1)) for n in range(length)])


def sqrt_reference(w, n):
    """The band entry (w_n / w_{n-1})^{1/2} one index at a time:
    sqrt(w_n / w_{n-1}) where the quotient is a normal double; past it,
    sqrt(w_n) / sqrt(w_{n-1}), n**(s/2) for a rule.  Refused past a
    table's horizon, as ``w.ratio(n)`` refuses."""
    r = w.ratio(n)
    if n <= 0 or 2.0 ** -1022 <= r < math.inf:
        return math.sqrt(r)
    if w.table is not None:
        return math.sqrt(w.table[n]) / math.sqrt(w.table[n - 1])
    return float(n) ** (0.5 * w.s)


def random_complex(rng, scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def column_from_projection(g, w, N, n):
    """Column n of T_g computed through the algebra module: P(g * phi_n)."""
    import math

    from qmanin import normal_order_product, project_P
    from qmanin.algebra import ManinElement

    phi_n = ManinElement.monomial(g.q.value, n, 0, w.weight(n) ** -0.5)
    img = project_P(normal_order_product(g, phi_n), w)
    col = np.zeros(N + 1, dtype=complex)
    for mon, _ in img:
        if mon.i <= N:
            col[mon.i] = img.coefficient(mon.i, 0) * math.sqrt(w.weight(mon.i))
    return col

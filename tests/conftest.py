import cmath
import math
import sys

import mpmath
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


# the unit roundoff of a double, the largest double and the smallest normal
# one, as an mpmath number so that u times it does not underflow
U, DOUBLE_MAX, NORMAL_MIN = 2.0 ** -53, sys.float_info.max, mpmath.mpf(2) ** -1022
# the bound, in u, on the rounding error of a band entry: k^(s/2) is one
# numpy power, sqrt(w_k) / sqrt(w_{k-1}) two square roots and a quotient
RULE_ENTRY_ULPS, TABLE_ENTRY_ULPS = 4, 3


def band_entry_ulps(w):
    return RULE_ENTRY_ULPS if w.table is None else TABLE_ENTRY_ULPS


def power_ulps(q, e):
    """The bound, in u, on the rounding error of ``QParam.power`` at e:
    exp(e log|q|) e^{i e arg q}, where e log|q| and e arg q are rounded and
    log|q| and arg q carry the rounding of |q| and atan2."""
    return 2 * abs(e * q.log_abs) + 2 * abs(e * q.arg) + 2 * abs(e) + 4


def sqrt_reference(w, n):
    """The band entry (w_n / w_{n-1})^{1/2}, n >= 1, in mpmath at 40 digits:
    n^(s/2) for a rule, (w_n / w_{n-1})^{1/2} of the table's doubles for a
    table.  Refused past a table's horizon, as ``w.ratio(n)`` refuses."""
    w.ratio(n)
    with mpmath.workdps(40):
        return _reference(w, n)


def _reference(w, n):
    if w.table is None:
        return mpmath.mpf(n) ** (mpmath.mpf(w.s) / 2)
    return mpmath.sqrt(mpmath.mpf(w.table[n]) / mpmath.mpf(w.table[n - 1]))


def rounding_error(got, exact):
    """The error of the double or complex ``got`` against the mpmath value
    ``exact``, in u: |got - exact| / (u max(|exact|, NORMAL_MIN)), relative
    where |exact| is a normal double and absolute below.  A non-finite got
    is exact (0) where |exact| passes the largest double, else inf."""
    with mpmath.workdps(40):
        size = abs(exact)
        if not cmath.isfinite(got):
            return 0.0 if size > DOUBLE_MAX else math.inf
        return float(abs(mpmath.mpmathify(got) - exact) / (U * max(size, NORMAL_MIN)))


def band_bounds(w, n):
    """Arrays lo, hi of doubles for k = 1..n such that a double in
    [lo[k-1], hi[k-1]] is within ``band_entry_ulps(w)`` of
    ``sqrt_reference(w, k)`` in the sense of ``rounding_error``; each end is
    rounded inwards.  hi is inf where the reference passes the largest
    double.  Refused as ``sqrt_reference`` refuses."""
    n = max(n, 0)
    if n:
        w.ratio(min(n, w.max_index(n) + 1))    # the first k past a table
    ulps = band_entry_ulps(w)
    lo, hi = np.empty(n), np.empty(n)
    with mpmath.workdps(40):
        for k in range(1, n + 1):
            exact = _reference(w, k)
            slack = ulps * U * max(exact, NORMAL_MIN)
            lo[k - 1] = _inwards(exact - slack, math.inf)
            hi[k - 1] = math.inf if exact > DOUBLE_MAX else _inwards(exact + slack, -math.inf)
    return lo, hi


def _inwards(x, towards):
    """The double nearest x, moved one step towards ``towards`` if it lies
    on the other side of x."""
    f = float(x)
    return math.nextafter(f, towards) if (f < x if towards > 0 else f > x) else f


def within(got, bounds, k0=1):
    """Whether every entry of ``got``, the band entries from k0 on, lies in
    its interval of ``bounds``."""
    lo, hi = (b[k0 - 1:k0 - 1 + len(got)] for b in bounds)
    return len(lo) == len(got) and bool(np.all((lo <= got) & (got <= hi)))


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

import math

import mpmath
import numpy as np
import pytest

from qmanin import ConfigError, QParam, WeightHorizonError, WeightSequence


def test_qparam_rejects_zero_and_nonfinite():
    with pytest.raises(ConfigError):
        QParam(0)
    with pytest.raises(ConfigError):
        QParam(complex(math.inf, 0))
    assert QParam.of(2j).value == 2j


def test_qparam_integer_powers():
    q = QParam(1j)
    assert abs(q.power(-1) - (-1j)) < 1e-15
    assert q.power(0) == 1
    assert abs(QParam(2.0).power(10) - 1024.0) < 1e-9


def test_qparam_logs_are_computed_once_outside_equality():
    q = QParam(0.9 * complex(math.cos(0.4), math.sin(0.4)))
    log_abs, arg = math.log(abs(q.value)), math.atan2(q.value.imag, q.value.real)
    for e in (-7, 1, 12):
        assert q.power(e) == math.exp(e * log_abs) * complex(math.cos(e * arg),
                                                             math.sin(e * arg))
    fresh = QParam(q.value)
    assert q == fresh and hash(q) == hash(fresh)
    assert repr(q) == f"QParam(value={q.value!r})"


def test_factorial_weights_exact_small():
    w = WeightSequence.factorial()
    assert w.weight(0) == 1.0
    assert w.weight(2) == 2.0
    assert w.weight(5) == 120.0


def test_negative_index_convention():
    for w in (WeightSequence.factorial(), WeightSequence.constant(3.0),
              WeightSequence.explicit([2.0, 4.0])):
        assert w.weight(-1) == 1.0
        assert w.log_weight(-3) == 0.0


def test_log_weights_match_weights():
    w = WeightSequence.power_factorial(1.5)
    for n in range(12):
        assert math.isclose(math.exp(w.log_weight(n)), w.weight(n), rel_tol=1e-12)
    arr = w.log_weights(-1, 6)
    assert arr[0] == 0.0
    assert np.allclose(arr[1:], [w.log_weight(n) for n in range(6)])


def test_explicit_table_validation_and_horizon():
    with pytest.raises(ConfigError):
        WeightSequence.explicit([1.0, -2.0])
    with pytest.raises(ConfigError):
        WeightSequence.explicit([])
    w = WeightSequence.explicit([1.0, 2.0, 6.0])
    assert w.horizon == 2
    assert w.weight(2) == 6.0
    with pytest.raises(WeightHorizonError):
        w.weight(3)
    with pytest.raises(WeightHorizonError):
        w.log_weights(0, 5)


def test_overflowing_rule_weights_fall_back_to_logs():
    w = WeightSequence.factorial()
    assert math.isinf(w.weight(200))
    assert math.isfinite(w.log_weight(200))
    # ratio still finite through the log path
    assert math.isclose(w.ratio(200), 200.0, rel_tol=1e-10)


def test_scaled_copies():
    w = WeightSequence.factorial().scaled(4.0)
    assert w.weight(3) == 24.0
    assert math.isclose(w.log_weight(3), math.log(24.0), rel_tol=1e-14)
    again = w.scaled(0.25)
    assert again.weight(3) == 6.0


def test_json_roundtrip():
    for w in (WeightSequence.factorial(), WeightSequence.constant(2.5),
              WeightSequence.power_factorial(0.5).scaled(3.0),
              WeightSequence.explicit([1.0, 5.0, 7.0])):
        back = WeightSequence.from_json(w.to_json())
        assert back.kind == w.kind
        for n in range(min(3, (w.horizon or 3) + 1)):
            assert math.isclose(back.weight(n), w.weight(n), rel_tol=1e-15)


def test_describe_strings():
    assert WeightSequence.factorial().describe() == "factorial"
    assert "constant" in WeightSequence.constant(2.0).describe()
    assert "explicit" in WeightSequence.explicit([1.0]).describe()


def test_kind_fixes_the_family_parameters():
    # w_n = c * (n!)**s: each kind fixes (c, s) instead of ignoring one
    assert WeightSequence("factorial", c=5.0, s=3.0) == WeightSequence.factorial()
    assert (WeightSequence.factorial().c, WeightSequence.factorial().s) == (1.0, 1.0)
    assert (WeightSequence.constant(2.5).c, WeightSequence.constant(2.5).s) == (2.5, 0.0)
    pf = WeightSequence("power-factorial", c=7.0, s=1.5)
    assert (pf.c, pf.s) == (1.0, 1.5)
    for bad in (dict(kind="constant", c=0.0), dict(kind="constant", c=math.inf),
                dict(kind="power-factorial", s=math.nan)):
        with pytest.raises(ConfigError):
            WeightSequence(**bad)


@pytest.mark.parametrize("scale", [1.0, 3.7])
def test_power_factorial_one_is_factorial_bit_for_bit(scale):
    fac = WeightSequence.factorial().scaled(scale)
    pf1 = WeightSequence.power_factorial(1.0).scaled(scale)
    for n in range(-1, 201):
        assert pf1.weight(n) == fac.weight(n)
        assert pf1.log_weight(n) == fac.log_weight(n)
        assert pf1.ratio(n) == fac.ratio(n)
        with mpmath.workdps(40):
            assert pf1.mp_log_weight(n) == fac.mp_log_weight(n)
    assert np.array_equal(pf1.log_weights(-2, 201), fac.log_weights(-2, 201))


def _mp_log_weight_reference(w, n):
    """log w_n as one expression per index: (s log n! + log c) + log scale."""
    ls = mpmath.log(mpmath.mpf(w.scale))
    if w.table is not None:
        return mpmath.log(mpmath.mpf(w.table[n])) + ls
    lg = mpmath.mpf(w.s) * mpmath.loggamma(n + 1) if w.s else 0
    return lg + mpmath.log(mpmath.mpf(w.c)) + ls


@pytest.mark.parametrize("scale", [1.0, 3.7])
@pytest.mark.parametrize("w", [WeightSequence.factorial(), WeightSequence.constant(2.5),
                               WeightSequence.power_factorial(0.5),
                               WeightSequence.explicit([1.0, 3.0, 7.5, 2e300, 0.1])],
                         ids=["factorial", "constant", "power-factorial", "explicit"])
def test_mp_log_weights_are_mp_log_weight_bit_for_bit(w, scale):
    w = w.scaled(scale)
    count = w.max_index(40) + 1
    for dps in (40, 120):
        with mpmath.workdps(dps):
            logs = w.mp_log_weights(count)
            assert len(logs) == count and w.mp_log_weights(0) == []
            for n in range(count):
                assert logs[n] == w.mp_log_weight(n) == _mp_log_weight_reference(w, n)
    with pytest.raises(WeightHorizonError):
        WeightSequence.explicit([1.0, 2.0]).mp_log_weights(3)


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0])
def test_power_factorial_weight_matches_mpmath(s):
    w = WeightSequence.power_factorial(s)
    finite = 0
    for n in range(171):
        v = w.weight(n)
        if math.isinf(v):
            continue
        finite += 1
        with mpmath.workdps(50):
            ref = mpmath.factorial(n) ** mpmath.mpf(s)
            assert abs(mpmath.mpf(v) / ref - 1) <= 4e-16, n
    assert finite >= 85


@pytest.mark.parametrize("doc", [
    {"kind": "explicit"},                               # no table
    {"kind": "constant", "params": []},                 # params not an object
    {"params": {}},                                     # no kind
    {"kind": "constant", "params": {"scale": "x"}},
])
def test_malformed_json_spec_is_config_error(doc):
    with pytest.raises(ConfigError):
        WeightSequence.from_json(doc)

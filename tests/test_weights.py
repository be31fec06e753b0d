import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (band_bounds, power_ulps, rounding_error, sqrt_reference,
                      RULE_ENTRY_ULPS, TABLE_ENTRY_ULPS, within)
from qmanin import ConfigError, QParam, WeightHorizonError, WeightSequence
from qmanin.errors import InputTooLargeError


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


def test_unit_q_powers_are_exactly_one():
    q = QParam(1.0)
    e = [0, 1, -1, 7, -400, 2**31, -2**31, 10**9]
    one = [((1.0).hex(), (0.0).hex())] * len(e)
    assert [(z.real.hex(), z.imag.hex()) for z in map(q.power, e)] == one
    assert [(z.real.hex(), z.imag.hex())
            for z in q.power(np.array(e, dtype=np.int64)).tolist()] == one


def test_qparam_logs_are_computed_once_outside_equality():
    q = QParam(0.9 * complex(math.cos(0.4), math.sin(0.4)))
    log_abs, arg = math.log(abs(q.value)), math.atan2(q.value.imag, q.value.real)
    assert (q.log_abs, q.arg) == (log_abs, arg)
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


@pytest.mark.parametrize("s, first", [(-1e306, 58), (1e307, 12), (1e308, 4)])
def test_log_weight_past_a_double_is_refused_at_its_first_index(s, first):
    w = WeightSequence.power_factorial(s)
    assert math.isfinite(w.log_weight(first - 1))
    assert np.isfinite(w.log_weights(-2, first)).all()
    refusal = f"log w_{first} of power-factorial({s:g}) weights is past the double range"
    for call in (lambda: w.log_weight(first), lambda: w.log_weight(10 * first),
                 lambda: w.log_weights(0, first + 1), lambda: w.log_weights(-3, 200)):
        with pytest.raises(InputTooLargeError) as exc:
            call()
        assert str(exc.value) == refusal


def test_scaled_copies():
    w = replace(WeightSequence.factorial(), scale=4.0)
    assert w.weight(3) == 24.0
    assert math.isclose(w.log_weight(3), math.log(24.0), rel_tol=1e-14)
    again = replace(w, scale=w.scale * 0.25)
    assert again.weight(3) == 6.0


def test_json_roundtrip():
    for w in (WeightSequence.factorial(), WeightSequence.constant(2.5),
              replace(WeightSequence.power_factorial(0.5), scale=3.0),
              WeightSequence.explicit([1.0, 5.0, 7.0])):
        back = WeightSequence.from_json(w.to_json())
        assert back.kind == w.kind
        for n in range(min(3, (w.horizon or 3) + 1)):
            assert math.isclose(back.weight(n), w.weight(n), rel_tol=1e-15)


def test_describe_strings():
    assert WeightSequence.factorial().describe() == "factorial"
    assert "constant" in WeightSequence.constant(2.0).describe()
    assert "explicit" in WeightSequence.explicit([1.0]).describe()


@pytest.mark.parametrize("w, text, doc", [
    (WeightSequence.factorial(), "factorial",
     {"kind": "factorial", "params": {"scale": 1.0}}),
    (replace(WeightSequence.factorial(), scale=2.0), "2*factorial",
     {"kind": "factorial", "params": {"scale": 2.0}}),
    (WeightSequence.constant(2.5), "constant(2.5)",
     {"kind": "constant", "params": {"scale": 1.0, "c": 2.5}}),
    (replace(WeightSequence.constant(2.5), scale=0.5), "0.5*constant(2.5)",
     {"kind": "constant", "params": {"scale": 0.5, "c": 2.5}}),
    (WeightSequence.power_factorial(1.5), "power-factorial(1.5)",
     {"kind": "power-factorial", "params": {"scale": 1.0, "s": 1.5}}),
    (replace(WeightSequence.power_factorial(1.5), scale=3.0), "3*power-factorial(1.5)",
     {"kind": "power-factorial", "params": {"scale": 3.0, "s": 1.5}}),
    (WeightSequence.explicit([1, 2, 6]), "explicit[3]",
     {"kind": "explicit", "params": {"scale": 1.0}, "table": [1.0, 2.0, 6.0]}),
    (replace(WeightSequence.explicit([1, 2, 6]), scale=2.0), "2*explicit[3]",
     {"kind": "explicit", "params": {"scale": 2.0}, "table": [1.0, 2.0, 6.0]}),
], ids=["factorial", "factorial-scaled", "constant", "constant-scaled", "power-factorial",
        "power-factorial-scaled", "explicit", "explicit-scaled"])
def test_describe_and_to_json_of_each_kind(w, text, doc):
    assert w.describe() == text
    assert w.to_json() == doc
    assert list(w.to_json()["params"]) == list(doc["params"])


def test_only_a_table_sets_the_horizon():
    with pytest.raises(TypeError):
        WeightSequence("factorial", horizon=10)
    assert WeightSequence.power_factorial(2.0).horizon is None
    assert replace(WeightSequence.explicit([1, 2, 6]), scale=2.0).horizon == 2


@pytest.mark.parametrize("q", [1.0, -1.0, 1j, 0.6 + 0.8j, cmath.exp(0.31950650216738913j),
                               0.5, 1.3 * cmath.exp(2j)])
def test_radius_one_is_exactly_the_hardy_space(q):
    # R = 1 where and only where the closed form is the Hardy space, on the
    # unit circle and off it (|q| = 1 - 2^-53 at the fifth q): the callers
    # of the kernel series take that space in closed form first, so they
    # never sum a series at R = 1
    qp = QParam.of(q)
    rules = [WeightSequence.factorial(), WeightSequence.constant(),
             replace(WeightSequence.constant(2.5), scale=0.3),
             WeightSequence.explicit([1.0, 2.0, 3.0])]
    rules += [WeightSequence.power_factorial(s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0)]
    for w in rules:
        assert (w.radius(qp) == 1.0) == (w.closed_form(qp) == "hardy"), w


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
    fac = replace(WeightSequence.factorial(), scale=scale)
    pf1 = replace(WeightSequence.power_factorial(1.0), scale=scale)
    for n in range(-1, 201):
        assert pf1.weight(n) == fac.weight(n)
        assert pf1.log_weight(n) == fac.log_weight(n)
        assert pf1.ratio(n) == fac.ratio(n)
    assert np.array_equal(pf1.log_weights(-2, 201), fac.log_weights(-2, 201))


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


_positive = st.floats(1e-300, 1e300)
_specs = st.one_of(
    st.builds(WeightSequence, st.just("factorial"), scale=_positive),
    st.builds(WeightSequence, st.just("constant"), c=_positive, scale=_positive),
    st.builds(WeightSequence, st.just("power-factorial"), s=st.floats(-50.0, 50.0),
              scale=_positive),
    st.builds(WeightSequence, st.just("explicit"), scale=_positive,
              table=st.lists(_positive, min_size=1, max_size=20).map(tuple)),
)


@given(_specs)
def test_json_roundtrip_is_exact(w):
    assert WeightSequence.from_json(w.to_json()) == w


@pytest.mark.parametrize("text, doc", [
    ("factorial", {"kind": "factorial"}),
    (" constant ", {"kind": "constant", "params": {"c": 1.0}}),
    ("constant:2.5", {"kind": "constant", "params": {"c": 2.5}}),
    ("power-factorial:1.5", {"kind": "power-factorial", "params": {"s": 1.5}}),
    ("explicit:1,2,6", {"kind": "explicit", "table": [1, 2, 6]}),
])
def test_shorthand_is_its_object(text, doc):
    assert WeightSequence.from_json(text) == WeightSequence.from_json(doc)


@pytest.mark.parametrize("doc", [
    {"kind": "factorial"},
    {"kind": "factorial", "params": {"scale": 2.0}},
    {"kind": "constant", "params": {"c": 2.0, "scale": 0.5}},
    {"kind": "power-factorial", "params": {"s": 2, "scale": 1}},
    {"kind": "explicit", "table": [1, 2.5], "params": {"scale": 3.0}},
])
def test_object_forms_parse(doc):
    w = WeightSequence.from_json(doc)
    assert w.scale == doc.get("params", {}).get("scale", 1.0)


@pytest.mark.parametrize("spec, text", [
    ({"kind": "constant", "parms": {"c": 2}}, "no weight spec key 'parms'"),
    ({"kind": "constant", "params": {"C": 2}}, "no weight spec key 'C'"),
    ({"kind": "factorial", "params": {"s": 3}}, "no weight spec key 's'"),
    ({"kind": "power-factorial", "params": {"c": 3}}, "no weight spec key 'c'"),
    ({"kind": "factorial", "tabel": [1, 2]}, "no weight spec key 'tabel'"),
    ({"kind": "factorial", "table": [1, 2]}, "no weight spec key 'table'"),
    ({"kind": "constant", "params": {"c": True}}, "must be numbers"),
    ({"kind": "constant", "params": {"c": "2"}}, "must be numbers"),
    ({"kind": "factorial", "params": {"scale": None}}, "must be numbers"),
    ({"kind": "explicit", "table": [1, "2"]}, "must be numbers"),
    ({"kind": "explicit", "table": [1, False]}, "must be numbers"),
    ({"kind": "explicit", "table": "12"}, "must be numbers"),
    ({"kind": "nonsense"}, "unknown weight kind"),
    ([1, 2], "weight spec must be"),
    (True, "weight spec must be"),
    ("constant:abc", "needs numbers"),
    ("factorial:3", "unknown weight spec"),
])
def test_spec_refuses_what_it_does_not_read(spec, text):
    with pytest.raises(ConfigError, match=text):
        WeightSequence.from_json(spec)


# -- the per-instance log-weight table and the band entry ----------------------


def _log_reference(w, n):
    """log w_n as the per-index formula takes it."""
    if n < 0:
        return 0.0
    if w.table is not None:
        return math.log(w.table[n]) + math.log(w.scale)
    lg = w.s * math.lgamma(n + 1) if w.s else 0.0
    return lg + math.log(w.c) + math.log(w.scale)


_table_specs = st.one_of(
    st.builds(WeightSequence, st.just("factorial"), scale=_positive),
    st.builds(WeightSequence, st.just("constant"), c=_positive, scale=_positive),
    st.builds(WeightSequence, st.just("power-factorial"), scale=_positive,
              s=st.one_of(st.floats(-50.0, -1e-3), st.just(0.0), st.floats(1e-3, 50.0))),
    st.builds(WeightSequence, st.just("explicit"), scale=_positive,
              table=st.lists(_positive, min_size=1, max_size=300).map(tuple)),
)
_requests = st.lists(st.tuples(st.integers(-20, 400), st.integers(0, 200)),
                     min_size=1, max_size=8)


@settings(deadline=None)
@given(_table_specs, _requests, st.randoms(use_true_random=False))
def test_table_slices_are_the_per_index_values_bit_for_bit(w, requests, rnd):
    requests = [(n0, w.max_index(n0 + k - 1) + 1) for n0, k in requests]
    shuffled = rnd.sample(requests, len(requests))
    orders = (shuffled, sorted(requests, key=lambda r: -r[1]), sorted(requests, key=lambda r: r[1]))
    bounds = band_bounds(w, max(n1 for _, n1 in requests) - 1)
    for order in orders:
        fresh = replace(w)
        for n0, n1 in order:
            logs = fresh.log_weights(n0, n1)
            assert logs.shape == (max(n1 - n0, 0),)
            want_logs = [_log_reference(w, n).hex() for n in range(n0, n1)]
            k0 = max(n0, 1)
            assert [x.hex() for x in logs.tolist()] == want_logs
            assert [fresh.log_weight(n).hex() for n in range(n0, n1)] == want_logs
            # the band entries of a warm object are within their bound too
            roots = fresh.sqrt_ratios(n1 - 1)[k0 - 1:]
            assert roots.shape == (max(n1 - k0, 0),) and within(roots, bounds, k0)


@pytest.mark.parametrize("table, n, root", [
    ([1e-300, 1e300, 1.0], 1, 1e300),      # w_1 / w_0 = 1e600 passes a double
    ([1e300, 1e-300, 1.0], 1, 1e-300),     # w_1 / w_0 = 1e-600 is below it
    ([1.0, 1e-310, 1.0], 1, math.sqrt(1e-310)),   # a subnormal quotient
])
def test_table_band_entry_at_half_range(table, n, root):
    w = WeightSequence.explicit(table)
    band = w.sqrt_ratios(len(table) - 1)
    assert math.isclose(band[n - 1], root, rel_tol=1e-15)
    for k in range(1, len(table)):
        assert rounding_error(band[k - 1], sqrt_reference(w, k)) <= TABLE_ENTRY_ULPS


def test_rule_band_entry_below_the_normal_range():
    # 2**-1100 underflows a double; its square root 2**-550 does not
    w = WeightSequence.power_factorial(-1100.0)
    assert w.ratio(2) == 0.0
    assert w.sqrt_ratios(2)[1] == sqrt_reference(w, 2) == 2.0 ** -550


def test_refusals_are_the_same_on_a_cold_and_a_warm_table():
    refusal = "log w_58 of power-factorial(1e+306) weights is past the double range"
    cold, warm = (WeightSequence.from_json("power-factorial:1e306") for _ in range(2))
    first = warm.log_weights(0, 16)
    for w in (cold, warm, warm):
        for call in (lambda: w.log_weights(0, 100), lambda: w.log_weights(50, 59),
                     lambda: w.log_weight(58), lambda: w.log_weights(-3, 200)):
            with pytest.raises(InputTooLargeError) as exc:
                call()
            assert str(exc.value) == refusal
        assert w.log_weights(0, 16).tolist() == first.tolist()
        assert np.isfinite(w.log_weights(40, 58)).all()


def test_a_warm_table_keeps_its_horizon():
    w = WeightSequence.explicit([1.0, 2.0, 6.0])
    w.log_weights(0, 3)
    for call in (lambda: w.log_weights(0, 4), lambda: w.log_weights(-2, 4),
                 lambda: w.log_weight(3), lambda: w.sqrt_ratios(3)):
        with pytest.raises(WeightHorizonError):
            call()


def test_returned_arrays_do_not_alias_the_table():
    w = WeightSequence.factorial()
    for n0, n1 in ((0, 10), (-3, 10), (4, 8), (-5, -1), (-3, 0)):
        before = w.log_weights(n0, n1).tolist()
        w.log_weights(n0, n1)[:] = 7.0
        assert w.log_weights(n0, n1).tolist() == before


def test_a_warm_table_pads_indexes_below_zero():
    w = WeightSequence.factorial()
    w.log_weights(0, 40)
    assert w.log_weights(-5, -1).tolist() == [0.0] * 4
    assert w.log_weights(-2, 2).tolist() == [0.0, 0.0, 0.0, 0.0]


def test_a_request_past_the_series_cap_is_served():
    w = WeightSequence.factorial()
    n0, n1 = 199_998, 200_003
    assert w.log_weights(n0, n1).tolist() == [_log_reference(w, n) for n in range(n0, n1)]
    assert w.log_weight(n1 + 10) == _log_reference(w, n1 + 10)


@pytest.mark.parametrize("w", [WeightSequence.factorial(),
                               replace(WeightSequence.constant(2.5), scale=0.5),
                               WeightSequence.power_factorial(-1.5),
                               replace(WeightSequence.explicit([1, 2, 6]), scale=2.0)],
                         ids=["factorial", "constant", "power-factorial", "explicit"])
def test_a_warm_table_leaves_equality_hash_and_json(w):
    cold = replace(w)
    w.log_weights(-2, w.max_index(40) + 1)
    w.annihilation_band(QParam(0.8), w.max_index(40))
    assert w == cold and hash(w) == hash(cold)
    assert w.describe() == cold.describe()
    assert w.to_json() == cold.to_json()
    assert repr(w) == repr(cold)


# -- q powers and band entries against mpmath ----------------------------------

def _parts_or_refusal(call, refusal):
    """The hex of both parts of every value, or the refusal's type and text."""
    try:
        values = call()
    except refusal as exc:
        return type(exc).__name__, str(exc)
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


_q_values = st.one_of(
    st.sampled_from([1.0, -1.0, 1j, -1j, complex(0.5, -0.0), complex(-2.0, -0.0)]),
    st.floats(1e-3, 1e3).map(complex),                                 # arg 0
    st.builds(lambda r, a: complex(r * math.cos(a), r * math.sin(a)),
              st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),        # |q| = 1 or not
              st.floats(-math.pi, math.pi)),
)


@settings(deadline=None, max_examples=300)
@given(_q_values, st.one_of(*(st.lists(st.integers(lo, hi), max_size=60)
                              for lo, hi in ((-400, 400), (-400, 0), (0, 400)))))
@example(1e3 * cmath.exp(2.5j), list(range(-130, -100)))     # |q|^e underflows
@example(1e-3 * cmath.exp(-1.1j), list(range(100, 130)))
@example(1e3, list(range(-130, -100)))
@example(0.5 * cmath.exp(0.7j), list(range(-300, 300)))     # exponents of both signs
def test_power_is_within_its_bound_of_mpmath(q, exponents):
    # |q|^e passes a double for some drawn |q| and e: the array and the
    # scalar refuse at the first such exponent, with the same message;
    # where |q|^e is below the normal range, the error is taken absolutely
    q = QParam(q)
    e = np.array(exponents, dtype=np.int64)
    past = [k for k in exponents if k * q.log_abs > 700.0]
    if past:
        for call in (lambda: q.power(e), lambda: q.power(past[0])):
            with pytest.raises(InputTooLargeError) as exc:
                call()
            assert str(exc.value) == f"|q|**{past[0]} overflows a double"
        return
    got = q.power(e)
    assert got.shape == e.shape
    with mpmath.workdps(40):
        z = mpmath.mpc(q.value)
        for k, array_value in zip(exponents, got.tolist()):
            exact = z ** k
            for v in (array_value, q.power(k)):
                assert rounding_error(v, exact) <= power_ulps(q, k), (k, v)


@settings(deadline=None)
@given(_table_specs, st.integers(0, 400))
def test_sqrt_ratios_are_within_their_bound_of_mpmath(w, n):
    # tables of at most 300 entries: n past the horizon refuses at its first k
    try:
        bounds = band_bounds(w, n)
    except WeightHorizonError as exc:
        with pytest.raises(WeightHorizonError) as got:
            w.sqrt_ratios(n)
        assert str(got.value) == str(exc)
    else:
        assert within(w.sqrt_ratios(n), bounds)


@pytest.mark.parametrize("w", [
    WeightSequence.power_factorial(300.0),       # n^300 passes a double from n = 11
    WeightSequence.power_factorial(-1100.0),     # n^-1100 is below it from n = 2
    WeightSequence.power_factorial(-1.5),
    WeightSequence.explicit([1e-300, 1e300, 1.0]),
    WeightSequence.explicit([1e300, 1e-300, 1.0]),
    WeightSequence.explicit([1.0, 1e-310, 1.0]),
    WeightSequence.explicit([5e-324, 1.7e308, 1.0]),   # the entry passes a double
    WeightSequence.explicit([1.7e308, 5e-324, 1.0]),   # the entry is subnormal
], ids=["pf300", "pf-1100", "pf-1.5", "up", "down", "subnormal", "past", "below"])
def test_sqrt_ratios_at_half_range(w):
    n = w.max_index(40)
    assert within(w.sqrt_ratios(n), band_bounds(w, n))
    assert w.sqrt_ratios(0).size == 0


# -- the annihilation band kept per weights object -----------------------------

_BAND_REFUSALS = (InputTooLargeError, WeightHorizonError)


@pytest.mark.parametrize("w, q, ns, refusal", [
    # |q|^-1010 passes a double at |q| = 0.5
    (WeightSequence.constant(), 0.5, [1009, 1010, 1008, 1011, 1009],
     "|q|**-1010 overflows a double"),
    (WeightSequence.explicit([1.0, 2.0, 6.0, 24.0]), 0.8, [3, 4, 2, 5, 3],
     "w_4 requested but only indices <= 3 are materialized"),
    # (w_11 / w_10)^{1/2} = 11^300 passes a double
    (WeightSequence.power_factorial(600.0), 1.0, [10, 11, 5, 40, 10],
     "the annihilation band entry of column 11 is past the double range"),
], ids=["q-power", "horizon", "pf600"])
def test_a_warm_band_refuses_as_a_cold_one(w, q, ns, refusal):
    # n rises past the refusal and falls back below it on one object; every
    # answer is that of a fresh object, the band or the refusal's text
    refused = []
    for n in ns:
        cold = _parts_or_refusal(lambda: replace(w).annihilation_band(QParam(q), n),
                                 _BAND_REFUSALS)
        assert _parts_or_refusal(lambda: w.annihilation_band(QParam(q), n),
                                 _BAND_REFUSALS) == cold
        refused.append(isinstance(cold, tuple))
        assert cold[1] == refusal if refused[-1] else len(cold) == n
    assert refused == [False, True, False, True, False]


def test_the_band_is_the_product_of_its_factors_read_only():
    # each entry is within the bounds of its two factors, plus the rounding
    # of their product
    w, q = WeightSequence.power_factorial(2.0), QParam(0.9 * cmath.exp(0.4j))
    band = w.annihilation_band(q, 30)
    assert band.shape == (30,)
    with mpmath.workdps(40):
        for k, z in enumerate(band.tolist(), 1):
            exact = mpmath.mpc(q.value) ** -k * sqrt_reference(w, k)
            assert rounding_error(z, exact) <= power_ulps(q, -k) + RULE_ENTRY_ULPS + 2
    assert not band.flags.writeable
    assert not w.annihilation_band(q, 12).flags.writeable
    assert w.annihilation_band(q, 0).size == 0

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmanin import (ConfigError, ManinElement, WeightSequence,
                    normal_order_product, project_P, sesquilinear_form)
from qmanin.algebra import ManinMonomial, QCoeff
from qmanin.errors import InputTooLargeError

W = WeightSequence.factorial()


def allclose(a, b, rtol):
    """Equal q, and every coefficient equal to within rtol relative."""
    if a.q.value != b.q.value:
        return False
    for m in set(a.terms) | set(b.terms):
        x, y = a.coefficient(*m), b.coefficient(*m)
        if abs(x - y) > rtol * max(abs(x), abs(y), 1e-300):
            return False
    return True


def swap_oracle(i1, j1, i2, j2):
    """Normal order by repeated adjacent swaps tb*th -> q^{-1} th*tb."""
    word = ["t"] * i1 + ["b"] * j1 + ["t"] * i2 + ["b"] * j2
    qexp = 0
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] == "b" and word[k + 1] == "t":
                word[k], word[k + 1] = "t", "b"
                qexp -= 1
                changed = True
    return word.count("t"), word.count("b"), qexp


qs = st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 2 * math.pi)).map(
    lambda r_a: r_a[0] * cmath.exp(1j * r_a[1]))
coeffs = st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 2 * math.pi)).map(
    lambda t: t[0] * cmath.exp(1j * t[1]))
powers = st.integers(0, 8)


def test_single_swap():
    q = 0.7 + 0.4j
    th = ManinElement.theta(q)
    tb = ManinElement.theta_bar(q)
    p = normal_order_product(tb, th)
    c = p.terms[ManinMonomial(1, 1)]
    assert c.qexp == -1 and c.value == 1.0
    assert abs(p.coefficient(1, 1) - 1 / q) < 1e-15


def test_spec_product_example():
    # (th^2 tb) * (th tb) -> q^{-1} th^3 tb^2
    q = 1.3 - 0.2j
    a = ManinElement.monomial(q, 2, 1)
    b = ManinElement.monomial(q, 1, 1)
    p = normal_order_product(a, b)
    c = p.terms.get(ManinMonomial(3, 2))
    assert c is not None and c.qexp == -1


def test_unit_laws():
    q = 2j
    one = ManinElement.one(q)
    m = ManinElement.monomial(q, 3, 2, 1.5 - 1j)
    assert normal_order_product(m, one) == m
    assert normal_order_product(one, m) == m


@settings(max_examples=200, deadline=None)
@given(powers, powers, powers, powers, qs, coeffs, coeffs)
def test_matches_swap_oracle(i1, j1, i2, j2, q, c1, c2):
    prod = normal_order_product(ManinElement.monomial(q, i1, j1, c1),
                                ManinElement.monomial(q, i2, j2, c2))
    oi, oj, oexp = swap_oracle(i1, j1, i2, j2)
    (mon, coeff), = list(prod)
    assert (mon.i, mon.j) == (oi, oj)
    assert coeff.qexp == oexp
    assert abs(coeff.value - c1 * c2) <= 1e-12 * max(abs(c1 * c2), 1e-30)


elements = st.builds(
    lambda q, terms: ManinElement(q, {ManinMonomial(i, j): QCoeff(c)
                                      for (i, j, c) in terms}),
    qs,
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), coeffs),
             min_size=1, max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity(data):
    q = data.draw(qs)
    def draw_elem():
        terms = data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), coeffs),
            min_size=1, max_size=3))
        return ManinElement(q, {ManinMonomial(i, j): QCoeff(c) for i, j, c in terms})
    a, b, c = draw_elem(), draw_elem(), draw_elem()
    left = normal_order_product(normal_order_product(a, b), c)
    right = normal_order_product(a, normal_order_product(b, c))
    assert allclose(left, right, rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sesquilinearity(data):
    q = data.draw(qs)
    def draw_elem():
        terms = data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), coeffs),
            min_size=1, max_size=3))
        return ManinElement(q, {ManinMonomial(i, j): QCoeff(c) for i, j, c in terms})
    a, b, c = draw_elem(), draw_elem(), draw_elem()
    z = data.draw(coeffs)
    # additive in both slots
    assert abs(sesquilinear_form(a + b, c, W)
               - sesquilinear_form(a, c, W) - sesquilinear_form(b, c, W)) < 1e-9
    assert abs(sesquilinear_form(c, a + b, W)
               - sesquilinear_form(c, a, W) - sesquilinear_form(c, b, W)) < 1e-9
    # conjugate-homogeneous first slot, homogeneous second
    assert abs(sesquilinear_form(z * a, b, W)
               - z.conjugate() * sesquilinear_form(a, b, W)) < 1e-9
    assert abs(sesquilinear_form(a, z * b, W)
               - z * sesquilinear_form(a, b, W)) < 1e-9


def test_form_paper_examples():
    q = 0.9 + 0.1j
    th2 = ManinElement.monomial(q, 2, 0)
    assert sesquilinear_form(th2, th2, W) == W.weight(2)
    a = ManinElement.monomial(q, 2, 1)
    b = ManinElement.monomial(q, 3, 2)
    assert sesquilinear_form(a, b, W) == W.weight(4)
    th = ManinElement.theta(q)
    tb = ManinElement.theta_bar(q)
    assert sesquilinear_form(th, tb, W) == 0


def test_form_index_enumeration_oracle():
    # brute-force the defining rule over all monomial pairs up to degree 4
    q = 1.1 - 0.3j
    rng = np.random.default_rng(7)
    for _ in range(25):
        i, j, k, l = (int(x) for x in rng.integers(0, 5, size=4))
        got = sesquilinear_form(ManinElement.monomial(q, i, j),
                                ManinElement.monomial(q, k, l), W)
        expect = W.weight(i + l) if i - j == k - l else 0.0
        assert got == expect


def test_projection_examples():
    q = 0.8 + 0.6j
    p = project_P(ManinElement.monomial(q, 3, 1), W)
    assert all(m.j == 0 for m in p.terms)
    assert abs(p.coefficient(2, 0) - 3.0) < 1e-15
    assert not project_P(ManinElement.theta_bar(q), W)
    m = ManinElement.monomial(q, 4, 0)
    assert project_P(m, W) == m


def test_projection_one_term_sum_oracle():
    # P(x) = sum_k w_k^{-1} <theta^k, x> theta^k has at most one term
    q = 1.2j
    rng = np.random.default_rng(11)
    for _ in range(25):
        i, j = (int(x) for x in rng.integers(0, 6, size=2))
        x = ManinElement.monomial(q, i, j, complex(*rng.standard_normal(2)))
        p = project_P(x, W)
        expect = ManinElement(q, {})
        for k in range(12):
            ip = sesquilinear_form(ManinElement.monomial(q, k, 0), x, W)
            if ip != 0:
                expect = expect + ManinElement.monomial(q, k, 0, ip / W.weight(k))
        assert allclose(p, expect, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_projection_idempotent(data):
    q = data.draw(qs)
    terms = data.draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), coeffs),
        min_size=1, max_size=4))
    x = ManinElement(q, {ManinMonomial(i, j): QCoeff(c) for i, j, c in terms})
    once = project_P(x, W)
    assert allclose(project_P(once, W), once, rtol=1e-12)


def test_lazy_exponent_merging_on_collision():
    # (0,1) x (2,1) and (1,1) x (1,1) both land on (2,2) with exponents -2, -1
    q = 1.5
    a = ManinElement.theta_bar(q) + ManinElement.monomial(q, 1, 1)
    b = ManinElement.monomial(q, 2, 1) + ManinElement.monomial(q, 1, 1)
    p = normal_order_product(a, b)
    got = p.coefficient(2, 2)
    expect = q**-2 + q**-1
    assert abs(got - expect) < 1e-14


def test_zero_pruning_and_ordering():
    q = 1j
    e = ManinElement(q, {ManinMonomial(1, 1): QCoeff(1.0),
                         ManinMonomial(0, 2): QCoeff(0.0)})
    assert list(e.terms) == [ManinMonomial(1, 1)]
    e2 = ManinElement(q, {ManinMonomial(2, 0): QCoeff(1.0),
                          ManinMonomial(0, 1): QCoeff(2.0),
                          ManinMonomial(1, 1): QCoeff(3.0)})
    assert list(e2.terms) == [ManinMonomial(0, 1), ManinMonomial(1, 1),
                              ManinMonomial(2, 0)]


def test_exponent_overflow_guard():
    q = 2.0
    big = ManinElement.monomial(q, 0, 2**20)
    other = ManinElement.monomial(q, 2**20, 0)
    with pytest.raises(InputTooLargeError):
        # q exponent would be -(2^20)^2 = -2^40 past the guard
        normal_order_product(big, other)


def test_mixed_q_rejected():
    with pytest.raises(ConfigError):
        normal_order_product(ManinElement.theta(1.0), ManinElement.theta(2.0))


def test_negative_monomial_rejected():
    with pytest.raises(ConfigError):
        ManinElement(1.0, {ManinMonomial(-1, 0): QCoeff(1.0)})

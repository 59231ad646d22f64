"""Unit tests for sparse multivariate polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfenum.mpoly import (Indeterminate, Monomial, MultiPoly, ParseError,
                          as_poly, from_json, from_text, monomial, to_json,
                          to_text, var)


def test_indeterminate_interning():
    assert var("x") is var("x")
    assert var("w", 3) is var("w", 3)
    assert var("w", 3) is not var("w", 4)
    assert var("a", 0, 2) is Indeterminate("a", 0, 2)


def test_operator_overloading():
    x, y = var("x"), var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert 3 * x - x - x - x == as_poly(0)


def test_coeff_of_and_degree():
    x, y = var("x"), var("y")
    p = 5 * x ** 2 * y + 7
    assert p.coeff_of(Monomial({x: 2, y: 1})) == 5
    assert p.coeff_of(Monomial()) == 7
    assert p.coeff_of(Monomial({x: 1})) == 0


def test_text_round_trip():
    p = 5 * var("x1") ** 2 * var("w", 3) - var("a", 0, 2)
    text = to_text(p)
    assert text == "-1*a[0,2] + 5*w[3]*x1^2"
    assert from_text(text) == p
    assert from_text("5*x1^2*w[3] + -1*a[0,2]") == p
    assert to_text(as_poly(0)) == "0"
    assert from_text("0") == as_poly(0)


def test_json_round_trip():
    p = 5 * var("x1") ** 2 * var("w", 3) - var("a", 0, 2)
    assert from_json(to_json(p)) == p
    assert '"coeff": "5"' in to_json(p)


def test_parse_error():
    with pytest.raises(ParseError):
        from_text("x +* y")


def test_substitute_value_and_family_rules():
    x, y, w3 = var("x"), var("y"), var("w", 3)
    p = x * y + w3 ** 2
    assert p.substitute({"x": 2}) == 2 * y + w3 ** 2
    # family rule with indices; returning None keeps it symbolic
    q = p.substitute({"w": lambda ell: ell if ell != 3 else None})
    assert q == p
    q = p.substitute({"w": lambda ell: ell})
    assert q == x * y + 9


def test_substitute_is_simultaneous():
    x, y = var("x"), var("y")
    p = x + y
    # x -> y and y -> x swap rather than cascade
    assert p.substitute({"x": as_poly(y), "y": as_poly(x)}) == p
    q = (x ** 2).substitute({"x": x + 1})
    assert q == x * x + 2 * x + 1


def test_evaluate_fractions():
    x, y = var("x"), var("y")
    p = x * y + 2
    assert p.evaluate({x: Fraction(1, 2), y: Fraction(1, 3)}) \
        == Fraction(13, 6)


def test_monomial_ordering_is_stable():
    p = var("b") + var("a") + var("a", 1)
    assert to_text(p) == to_text(from_text(to_text(p)))


def test_monomial_from_pairs():
    # plain and indexed families; zero exponents drop, repeats add up
    m = monomial([("x", 2), (("w", 3), 1), ("y", 0), ("x", 1)])
    assert m == Monomial({var("x"): 3, var("w", 3): 1})
    assert monomial([("z", 0)]) == Monomial()


_small = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw):
    names = ["x", "y", "z"]
    terms = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(names), max_size=3), _small),
        max_size=5))
    total = as_poly(0)
    for vs, c in terms:
        m = as_poly(c)
        for nm in vs:
            m = m * var(nm)
        total = total + m
    return total


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + as_poly(0) == p
    assert p * as_poly(1) == p
    assert p - p == as_poly(0)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_serialization_round_trips(p):
    assert from_text(to_text(p)) == p
    assert from_json(to_json(p)) == p

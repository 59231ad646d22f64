"""Unit tests for sparse multivariate polynomials."""

from fractions import Fraction
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cfenum import mpoly
from cfenum.mpoly import (MAX_EXPONENT, ExponentError, Indeterminate,
                          Monomial, MultiPoly, ParseError, as_poly, from_text,
                          monomial, to_text, var)

import mpoly_oracle as oracle


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
    assert (x + 1) ** 0 == 1 and (x + 1) ** 1 == x + 1
    assert (x - 1) ** 5 == (x - 1) ** 2 * (x - 1) ** 3
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


def test_zero_coefficient_terms_are_dropped():
    # a term 0*m is no term: parsed polynomials keep only nonzero
    # coefficients, and the monomial is still range-checked
    y = as_poly(var("y"))
    for text in ("0*x", "0", "0*x + 0*x^2*z", "1*x + -1*x"):
        p = from_text(text)
        assert p == 0 and not p and to_text(p) == "0"
    assert from_text("1*y + 0*z") == y
    assert from_text("0*z + 1*y") == y
    assert to_text(from_text("1*y + 0*z")) == "1*y"
    with pytest.raises(ParseError, match="exponent 40000 of x"):
        from_text("0*x^40000")


def test_bool_is_not_a_coefficient():
    for value in (True, False):
        with pytest.raises(TypeError, match="cannot make a polynomial"):
            as_poly(value)
    assert as_poly(1) == 1 and to_text(as_poly(1)) == "1"


def test_coefficients_above_4300_digits_round_trip():
    # past the interpreter's default limit on int-to-str conversion
    c = 10 ** 4999 + 7  # 5,000 digits
    x = var("x")
    p = c * x ** 2 - c
    digits = "1" + "0" * 4998 + "7"
    assert to_text(p) == "-%s + %s*x^2" % (digits, digits)
    assert from_text(to_text(p)) == p


def test_parse_error():
    # int() alone would read underscores and non-ASCII digits (here the
    # Arabic-Indic 3 and the fullwidth 1)
    for text in ("x +* y", "5_000*x", "\u0663*x", "1*x[\u0663]",
                 "1*x^\u0663", "1*x[1_0]", "1*x^1_0", "1*w[\uff11]"):
        with pytest.raises(ParseError):
            from_text(text)


def test_factor_is_the_whole_text():
    # a regex `$` also matches before a final newline
    assert mpoly.parse_factor("x") == ("x", (), None)
    for text in ("x\n", "w[3]\n", "x^2\n", " x"):
        with pytest.raises(ParseError):
            mpoly.parse_factor(text)


def test_ascii_int():
    assert [mpoly.ascii_int(t) for t in ("7", " 12 ", "-3", "+4")] \
        == [7, 12, -3, 4]
    for text in ("1_0", "\u0663", "\uff11", "", "-", "1 2", "0x1", "9" * 4400):
        with pytest.raises(ValueError):
            mpoly.ascii_int(text)


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


def test_substitute_folds_one_term_images_with_range_checks():
    x, y, w, u, z = (var(name) for name in "xywuz")
    p = 3 * x ** 2 * y + x * w - u
    # one-term images fold into the coefficient and the kept monomial,
    # longer ones multiply out, and a zero image drops its terms
    assert p.substitute({"x": -2 * z ** 3, "y": z + 1, "u": 0}) \
        == 12 * z ** 6 * (z + 1) - 2 * z ** 3 * w
    # a folded power and a folded product are range-checked, also where
    # their exponent of z, 80,000, would carry into the next field
    with pytest.raises(ExponentError, match="of z"):
        (x ** 4).substitute({x: z ** 20000})
    with pytest.raises(ExponentError, match="exponent 40000 of z"):
        (x * y * w * u).substitute({v: z ** 20000 for v in (x, y, w, u)})


def test_evaluate_fractions():
    x, y = var("x"), var("y")
    p = x * y + 2
    assert p.evaluate({x: Fraction(1, 2), y: Fraction(1, 3)}) \
        == Fraction(13, 6)
    with pytest.raises(KeyError):  # a point must value every indeterminate
        p.evaluate({x: 1})


def test_compare_with_other_types():
    x, y = var("x"), var("y")
    m = Monomial({x: 1})
    assert not m == 1 and m != 1 and m != "x"
    assert m not in [None, 3] and m in [None, m]
    assert Monomial() != 1  # the constant monomial is not the int 1
    assert x != 1 and x not in [None, 3]
    for other in (1, "x", None, y):  # indeterminates are unordered
        with pytest.raises(TypeError):
            x < other


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


# ---------------------------------------------------------------------------
# Packed monomials against the tuple monomial of tests/mpoly_oracle.py

_FRESH = itertools.count()
_EXPONENT = st.one_of(st.integers(1, 3), st.integers(1, MAX_EXPONENT),
                      st.sampled_from([2 ** 14, MAX_EXPONENT - 1,
                                       MAX_EXPONENT]))
_POINT_VALUES = [-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2)]


def _fresh_keys():
    """45 (family, *indices) keys of families no earlier call used: plain,
    one-index and two-index, and one family with two index arities."""
    uid = next(_FRESH)
    return ([("v%d_%d" % (uid, k),) for k in range(12)]
            + [("w%d" % uid, i) for i in (0, 1, 2, 3, 4, 5, 6, 7, 9, 10,
                                          11, 12, 20, 100)]
            + [("a%d" % uid, i, j) for i in range(4) for j in range(4)]
            + [("a%d" % uid, i) for i in range(3)])


def _build(spec):
    """The same polynomial as a MultiPoly and as an oracle Poly."""
    new, old = MultiPoly({}), oracle.Poly()
    for exps, c in spec:
        if c:
            new = new + c * as_poly(Monomial(exps))
            old = old + oracle.Poly({oracle.Monomial(exps): c})
    return new, old


def _same(new, old):
    """Equal term lists in monomial order.  Coefficients are compared as
    ints: c^e for an exponent near the limit has more digits than str()
    converts."""
    assert [(m.exps, c) for m, c in new.sorted_terms()] \
        == [(m.exps, c) for m, c in old.sorted_terms()]


def _same_or_exponent_error(compute, expected):
    """compute() equals the oracle Poly `expected`, or raises ExponentError
    exactly when `expected` has an exponent above the limit."""
    if expected.max_exponent() > MAX_EXPONENT:
        with pytest.raises(ExponentError):
            compute()
    else:
        _same(compute(), expected)


def check_against_oracle(vs, p_spec, q_spec, images, point):
    """Every Monomial and MultiPoly operation on the two polynomials of
    p_spec and q_spec agrees with the oracle.  `images` maps some of the
    indeterminates vs to an int or to (c, w, k) for c * w^k; the one-index
    family w also gets a rule (even index i -> i + 1, odd -> symbolic).
    `point` values some of vs; evaluation gives the others 3."""
    p, po = _build(p_spec)
    q, qo = _build(q_spec)
    full_point = {v: point.get(v, 3) for v in vs}
    for a, ao in ((p, po), (q, qo)):
        assert to_text(a) == oracle.to_text(ao)
        assert [(m.exps, repr(m)) for m, _ in a.sorted_terms()] \
            == [(m.exps, repr(m)) for m, _ in ao.sorted_terms()]
        assert a.evaluate(full_point) == ao.evaluate(full_point)
    _same(p + q, po + qo)
    _same_or_exponent_error(lambda: p * q, po * qo)
    for (m1, _), (m2, _) in itertools.product(p.sorted_terms(),
                                              q.sorted_terms()):
        mo = oracle.Monomial(m1.exps) * oracle.Monomial(m2.exps)
        _same_or_exponent_error(lambda: as_poly(m1 * m2),
                                oracle.Poly({mo: 1}))

    rule_family = next(v.family for v in vs if v.family[0] == "w")
    subs = {rule_family: lambda i: i + 1 if i % 2 == 0 else None}
    for v, img in images.items():
        subs[v] = img if isinstance(img, int) else img[0] * img[1] ** img[2]

    def oracle_image(v):
        img = images.get(v)
        if img is None:
            if v.family != rule_family or v.indices[0] % 2:
                return None
            img = v.indices[0] + 1
        if isinstance(img, int):
            return oracle.Poly.const(img)
        c, w, k = img
        return oracle.Poly({oracle.Monomial({w: k}): c})

    terms = po.substituted_terms(oracle_image)
    if max((t.max_exponent() for t in terms), default=0) > MAX_EXPONENT:
        with pytest.raises(ExponentError):
            p.substitute(subs)
    else:
        _same(p.substitute(subs), sum(terms, oracle.Poly()))


@st.composite
def _oracle_cases(draw):
    # interned in a drawn order, so slot order is not display order
    vs = [Indeterminate(*k) for k in draw(st.permutations(_fresh_keys()))]
    term = st.tuples(st.dictionaries(st.sampled_from(vs), _EXPONENT,
                                     max_size=5), st.integers(-3, 3))
    p_spec = draw(st.lists(term, max_size=6))
    q_spec = draw(st.lists(term, max_size=6))
    images = draw(st.dictionaries(
        st.sampled_from(vs),
        st.one_of(st.sampled_from([-2, -1, 1, 2]),
                  st.tuples(st.sampled_from([-2, -1, 1, 2]),
                            st.sampled_from(vs), st.integers(1, 2))),
        max_size=6))
    point = draw(st.dictionaries(st.sampled_from(vs),
                                 st.sampled_from(_POINT_VALUES)))
    return vs, p_spec, q_spec, images, point


@settings(max_examples=80, deadline=None)
@given(_oracle_cases())
def test_packed_monomials_match_oracle(case):
    check_against_oracle(*case)


def _fixed_case(seed):
    rng = random.Random(seed)
    keys = _fresh_keys()
    rng.shuffle(keys)
    vs = [Indeterminate(*k) for k in keys]

    def spec():
        return [({v: rng.choice([1, 2, 5, 2 ** 14, MAX_EXPONENT])
                  for v in rng.sample(vs, rng.randint(0, 5))},
                 rng.choice([-3, -1, 1, 2])) for _ in range(6)]

    images = {vs[0]: 2, vs[1]: (-1, vs[2], 2)}
    point = {v: rng.choice(_POINT_VALUES) for v in vs[:30]}
    return vs, spec(), spec(), images, point


def test_wrong_rank_table_is_caught(monkeypatch):
    # ranking slots in intern order, not by (family, indices), decodes
    # every monomial consistently but in the wrong order
    case = _fixed_case(2024)
    check_against_oracle(*case)
    slots = list(mpoly._by_slot)
    monkeypatch.setattr(mpoly, "_by_rank", slots)
    monkeypatch.setattr(mpoly, "_rank_codes",
                        lambda: [s << 16 for s in range(len(slots))])
    with pytest.raises(AssertionError):
        check_against_oracle(*case)


def test_exponent_limits():
    x, y = var("x"), var("y")
    edge = Monomial({x: MAX_EXPONENT, y: 1})
    assert repr(edge) == "x^%d*y" % MAX_EXPONENT
    assert edge.exps == ((x, MAX_EXPONENT), (y, 1))
    for bad in (MAX_EXPONENT + 1, -1):
        with pytest.raises(ExponentError, match="exponent %d of x" % bad):
            Monomial({x: bad})
    half = Monomial({x: 2 ** 14})
    with pytest.raises(ExponentError, match="exponent 32768 of x"):
        half * half
    with pytest.raises(ExponentError):
        as_poly(half) * as_poly(half)
    with pytest.raises(ExponentError):
        Monomial([(x, 2 ** 14), (x, 2 ** 14)])
    assert repr(half * Monomial({x: 2 ** 14 - 1})) == "x^%d" % MAX_EXPONENT
    # each substituted term is range-checked, also where two cancel
    z = var("z")
    top = as_poly(z) ** MAX_EXPONENT
    with pytest.raises(ExponentError, match="exponent 32768 of z"):
        (x * top - y * top).substitute({x: z, y: z})


@pytest.mark.parametrize("text", [
    "1*x^32768", "1*x^40000", "1*x^20000*x^20000", "1*x^" + "9" * 5000])
def test_exponent_above_limit_is_parse_error(text):
    assert from_text("1*x^32767") == var("x") ** MAX_EXPONENT
    with pytest.raises(ParseError):
        from_text(text)


def test_repeated_monomials_add_up_and_cancel():
    x = var("x")
    assert from_text("2*x + 3*x") == 5 * x
    assert from_text("1*x + -1*x") == 0 and not from_text("1*x + -1*x")
    with pytest.raises(ParseError, match="exponent 40000 of x"):
        from_text("1*x^40000 + -1*x^40000")


def test_terms_are_keyed_by_packed_ints():
    from cfenum.permstats import PERM, enumerate_polynomial
    from cfenum.series import expand_jfraction
    x, y = var("x"), var("y")
    p = (x + 2 * y) * x - 1
    polys = [as_poly(3), as_poly(x), as_poly(Monomial({x: 2, y: 1})),
             p + y, p * p, p ** 3, p.substitute({"y": x + 1, x: 2}),
             from_text(to_text(p)),
             *expand_jfraction(lambda h: x, lambda h: y, 4),
             enumerate_polynomial(PERM, 4, weight="two-var")]
    for q in polys:
        assert q.terms and all(type(k) is int for k in q.terms), q

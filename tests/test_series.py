"""Unit tests for truncated power series and continued fractions."""

from fractions import Fraction

import pytest

from cfenum.mpoly import ExponentError, MultiPoly, as_poly, var
from cfenum.series import (InsufficientOrder, NonUnitConstantTerm,
                           TerminatedFraction, attach_component_weight,
                           expand_jfraction, expand_sfraction,
                           indecomposable_series, jfraction_from_series,
                           reciprocal)


def _ints(coeffs):
    return [c.terms.get(0, 0) for c in coeffs]


# Nested reciprocals, innermost level first: the independent oracle for
# the path DP of expand_sfraction / expand_jfraction.

def nested_sfraction(alpha, order):
    """[t^0..t^order] of 1/(1 - alpha_1 t/(1 - alpha_2 t/(1 - ...)))."""
    f = [as_poly(1)]
    for k in range(order + 1, 0, -1):
        # f <- 1/(1 - alpha_k t f)
        inner = [as_poly(1)] + [-as_poly(alpha(k)) * c for c in f[:order]]
        f = reciprocal(inner)
    return f


def nested_jfraction(gamma, beta, order):
    """[t^0..t^order] of 1/(1 - g_0 t - b_1 t^2/(1 - g_1 t - ...))."""
    f = [as_poly(1)]
    for k in range(order // 2, -1, -1):
        # f <- 1/(1 - gamma_k t - beta_{k+1} t^2 f)
        inner = [as_poly(1), -as_poly(gamma(k))] \
            + [-as_poly(beta(k + 1)) * c for c in f[:order - 1]]
        f = reciprocal(inner[:order + 1])
    return f


def test_reciprocal_geometric():
    s = [as_poly(1), as_poly(-1)] + [as_poly(0)] * 5
    assert _ints(reciprocal(s)) == [1] * 7
    # 1/(1 - t - t^2) gives the Fibonacci numbers.
    assert reciprocal([1, -1, -1, 0, 0, 0, 0, 0]) \
        == [1, 1, 2, 3, 5, 8, 13, 21]


def test_reciprocal_requires_unit_constant():
    for s in ([as_poly(2), as_poly(1)], [Fraction(0), Fraction(1)], [2, 1]):
        with pytest.raises(NonUnitConstantTerm):
            reciprocal(s)


def test_sfraction_all_ones_is_catalan():
    # alpha_n = 1 gives the Catalan generating function.
    f = expand_sfraction(lambda n: 1, 8)
    assert _ints(f) == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_sfraction_double_factorials_and_factorials():
    # alpha_n = n gives the odd double factorials (2n-1)!!.
    f = expand_sfraction(lambda n: n, 6)
    assert _ints(f) == [1, 1, 3, 15, 105, 945, 10395]
    # alpha_n = ceil(n/2) gives n!.
    f = expand_sfraction(lambda n: (n + 1) // 2, 7)
    assert _ints(f) == [1, 1, 2, 6, 24, 120, 720, 5040]


def test_jfraction_motzkin_and_bell():
    # gamma_n = 1, beta_n = 1: Motzkin numbers.
    f = expand_jfraction(lambda n: 1, lambda n: 1, 7)
    assert _ints(f) == [1, 1, 2, 4, 9, 21, 51, 127]
    # gamma_n = n+1, beta_n = n: Bell numbers.
    f = expand_jfraction(lambda n: n + 1, lambda n: n, 7)
    assert _ints(f) == [1, 1, 2, 5, 15, 52, 203, 877]


def test_contraction_matches_direct_expansion():
    # Contraction: the S-fraction equals the J-fraction with g_0 = a_1,
    # g_n = a_{2n} + a_{2n+1} and b_n = a_{2n-1} a_{2n}.
    x, y = var("x"), var("y")
    for alpha in (lambda n: x + n * y, lambda n: 10 * n):
        gamma = lambda n, a=alpha: a(1) if n == 0 else a(2 * n) + a(2 * n + 1)
        beta = lambda n, a=alpha: a(2 * n - 1) * a(2 * n)
        assert expand_sfraction(alpha, 8) == expand_jfraction(gamma, beta, 8)


def test_expansion_range_checks_every_step():
    # b_1^2 = x^40000 first appears on the path UDUD: the path DP
    # range-checks its state after every step
    x = var("x")
    with pytest.raises(ExponentError, match="exponent 40000 of x"):
        expand_sfraction(lambda n: x ** 20000, 2)
    assert expand_sfraction(lambda n: x ** 16000, 2)[2] \
        == 2 * as_poly(x) ** 32000


def test_attach_component_weight():
    z = var("z")
    alpha = lambda n: n
    weighted = attach_component_weight(alpha, z)
    assert [weighted(n) for n in (1, 2, 3)] == [as_poly(z), 2, 3]
    # Each connected component weighted by z; at z=1 nothing changes.
    f = expand_sfraction(weighted, 6)
    assert [c.substitute({"z": 1}) for c in f] \
        == expand_sfraction(alpha, 6)
    # z=0 kills every nonempty object.
    assert [c.substitute({"z": 0}) for c in f[1:]] \
        == [MultiPoly()] * 6
    # Matchings of [4]: two with one component, one with two.
    assert f[2] == 2 * as_poly(z) + as_poly(z) ** 2


def test_indecomposable_series():
    # For factorials, indecomposable counts are 1,1,3,13,71,461,...
    f = expand_sfraction(lambda n: (n + 1) // 2, 6)
    g = indecomposable_series(f)
    assert _ints(g) == [0, 1, 1, 3, 13, 71, 461]


def test_rational_series_reciprocal():
    s = [Fraction(1), Fraction(1, 2)] + [Fraction(0)] * 3
    r = reciprocal(s)
    assert r == [Fraction(1), Fraction(-1, 2), Fraction(1, 4),
                 Fraction(-1, 8), Fraction(1, 16)]
    assert all(type(c) is Fraction for c in r)
    with pytest.raises(NonUnitConstantTerm):
        reciprocal([Fraction(0), Fraction(1), Fraction(0)])


def test_jfraction_from_series_round_trip():
    gam = [3, 1, 4, 1, 5, 9]
    bet = [0, 2, 7, 1, 8, 2]  # bet[0] unused
    f = expand_jfraction(lambda n: gam[n], lambda n: bet[n], 9)
    gammas, betas = jfraction_from_series(_ints(f), 4)
    assert gammas == gam[:5]
    assert betas == bet[1:5]


def test_jfraction_from_series_errors():
    with pytest.raises(InsufficientOrder):
        jfraction_from_series([1, 1, 2, 5, 15], 2)
    # the constant coefficient is checked before the length
    with pytest.raises(NonUnitConstantTerm):
        jfraction_from_series([Fraction(2), Fraction(1)], 5)
    # 1/(1-t) has beta_1 = 0: the fraction terminates.
    with pytest.raises(TerminatedFraction):
        jfraction_from_series([Fraction(1)] * 6, 2)


def test_jfraction_from_series_rational_values():
    order = 7
    gam = lambda n: Fraction(1, n + 1)
    bet = lambda n: Fraction(n, 2)
    # Expand the fraction with exact rational arithmetic, innermost-first.
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for k in range(order // 2, -1, -1):
        inner = [Fraction(1)] + [Fraction(0)] * order
        inner[1] -= gam(k)
        for j in range(order - 1):
            inner[j + 2] -= bet(k + 1) * coeffs[j]
        coeffs = reciprocal(inner)
    gammas, betas = jfraction_from_series(coeffs, 3)
    assert gammas == [gam(k) for k in range(4)]
    assert betas == [bet(k) for k in range(1, 4)]

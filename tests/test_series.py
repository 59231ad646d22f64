"""Unit tests for truncated power series and continued fractions."""

from fractions import Fraction

import pytest

from cfenum.mpoly import MultiPoly, as_poly, var
from cfenum.series import (InsufficientOrder, NonUnitConstantTerm,
                           PowerSeries, RationalSeries, TerminatedFraction,
                           attach_component_weight, expand_jfraction,
                           expand_sfraction, indecomposable_series,
                           jfraction_from_series)


def _ints(series):
    return [c.constant_term() for c in series.coeffs]


# Nested reciprocals, innermost level first: the independent oracle for
# the path DP of expand_sfraction / expand_jfraction.

def nested_sfraction(alpha, order):
    """[t^0..t^order] of 1/(1 - alpha_1 t/(1 - alpha_2 t/(1 - ...)))."""
    f = [as_poly(1)]
    for k in range(order + 1, 0, -1):
        # f <- 1/(1 - alpha_k t f)
        inner = [as_poly(1)] + [-as_poly(alpha(k)) * c for c in f[:order]]
        f = PowerSeries(inner, order).reciprocal().coeffs
    return f


def nested_jfraction(gamma, beta, order):
    """[t^0..t^order] of 1/(1 - g_0 t - b_1 t^2/(1 - g_1 t - ...))."""
    f = [as_poly(1)]
    for k in range(order // 2, -1, -1):
        # f <- 1/(1 - gamma_k t - beta_{k+1} t^2 f)
        inner = [as_poly(1), -as_poly(gamma(k))] \
            + [-as_poly(beta(k + 1)) * c for c in f[:order - 1]]
        f = PowerSeries(inner, order).reciprocal().coeffs
    return f


def test_series_padding_and_subtraction():
    s = PowerSeries([1, 2, 3], 5)
    t = PowerSeries([1, 1], 5)
    assert _ints(s) == [1, 2, 3, 0, 0, 0]
    assert _ints(PowerSeries([1, 2, 3], 1)) == [1, 2]
    assert _ints(s - t) == [0, 1, 3, 0, 0, 0]
    assert s - s == PowerSeries([], 5)
    assert PowerSeries.one(3) == PowerSeries([1], 3)


def test_reciprocal_geometric():
    s = PowerSeries([1, -1], 6)
    assert _ints(s.reciprocal()) == [1] * 7
    # 1/(1 - t - t^2) gives the Fibonacci numbers.
    assert _ints(PowerSeries([1, -1, -1], 7).reciprocal()) \
        == [1, 1, 2, 3, 5, 8, 13, 21]


def test_reciprocal_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        PowerSeries([2, 1], 3).reciprocal()


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


def test_attach_component_weight():
    z = var("z")
    alpha = lambda n: n
    weighted = attach_component_weight(alpha, z)
    assert [weighted(n) for n in (1, 2, 3)] == [as_poly(z), 2, 3]
    # Each connected component weighted by z; at z=1 nothing changes.
    f = expand_sfraction(weighted, 6)
    assert [c.substitute({"z": 1}) for c in f.coeffs] \
        == expand_sfraction(alpha, 6).coeffs
    # z=0 kills every nonempty object.
    assert [c.substitute({"z": 0}) for c in f.coeffs[1:]] \
        == [MultiPoly.zero()] * 6
    # Matchings of [4]: two with one component, one with two.
    assert f.coeffs[2] == 2 * as_poly(z) + as_poly(z) ** 2


def test_indecomposable_series():
    # For factorials, indecomposable counts are 1,1,3,13,71,461,...
    f = expand_sfraction(lambda n: (n + 1) // 2, 6)
    g = indecomposable_series(f)
    assert _ints(g) == [0, 1, 1, 3, 13, 71, 461]


def test_rational_series_reciprocal():
    s = RationalSeries([1, Fraction(1, 2)], 4)
    r = s.reciprocal()
    assert r.coeffs == [Fraction(1), Fraction(-1, 2), Fraction(1, 4),
                        Fraction(-1, 8), Fraction(1, 16)]
    with pytest.raises(NonUnitConstantTerm):
        RationalSeries([0, 1], 2).reciprocal()


def test_jfraction_from_series_round_trip():
    gam = [3, 1, 4, 1, 5, 9]
    bet = [0, 2, 7, 1, 8, 2]  # bet[0] unused
    f = expand_jfraction(lambda n: gam[n], lambda n: bet[n], 9)
    s = RationalSeries(_ints(f), 9)
    gammas, betas = jfraction_from_series(s, 4)
    assert gammas == gam[:5]
    assert betas == bet[1:5]


def test_jfraction_from_series_errors():
    s = RationalSeries([1, 1, 2, 5, 15], 4)
    with pytest.raises(InsufficientOrder):
        jfraction_from_series(s, 2)
    with pytest.raises(NonUnitConstantTerm):
        jfraction_from_series(RationalSeries([2, 1], 3), 0)
    # 1/(1-t) has beta_1 = 0: the fraction terminates.
    with pytest.raises(TerminatedFraction):
        jfraction_from_series(RationalSeries([1, 1, 1, 1, 1, 1], 5), 2)


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
        coeffs = RationalSeries(inner, order).reciprocal().coeffs
    gammas, betas = jfraction_from_series(RationalSeries(coeffs, order), 3)
    assert gammas == [gam(k) for k in range(4)]
    assert betas == [bet(k) for k in range(1, 4)]

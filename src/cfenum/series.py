"""Truncated formal power series in t, and expansion/extraction of
Stieltjes- and Jacobi-type continued fractions.  A series truncated at
t^order is the list of its coefficients [t^0..t^order].

An S-fraction is 1/(1 - a1 t/(1 - a2 t/(1 - ...))); a J-fraction is
1/(1 - g0 t - b1 t^2/(1 - g1 t - b2 t^2/(1 - ...))).  A J-fraction is
expanded by Flajolet's reading of a continued fraction as a sum over
weighted Motzkin paths.  An S-fraction in t is the J-fraction in u with
t = u^2, all g zero and b = a, so it is expanded by the same engine.
"""

from collections import defaultdict
from fractions import Fraction
from functools import cache

from .mpoly import MultiPoly, add_product, as_poly, checked_terms


class NonUnitConstantTerm(ValueError):
    """Series operation requiring constant coefficient 1 got something else."""


class TerminatedFraction(ValueError):
    """The continued fraction terminates (a beta coefficient is zero)."""


class InsufficientOrder(ValueError):
    """The input series is too short for the requested extraction depth."""


def reciprocal(coeffs):
    """[t^0..t^order] of 1/f for f = coeffs through the same order, with
    MultiPoly, Fraction or int coefficients; requires f(0) = 1."""
    if coeffs[0] != 1:
        raise NonUnitConstantTerm(
            "constant coefficient is %r, not 1" % (coeffs[0],))
    zero = coeffs[0] - 1  # 0 of the coefficient type
    out = [coeffs[0]]
    for k in range(1, len(coeffs)):
        acc = zero
        for j in range(1, k + 1):
            if coeffs[j] and out[k - j]:
                acc = acc + coeffs[j] * out[k - j]
        out.append(-acc)
    return out


# The expansion runs a dynamic programme over path heights: state[h] is
# the weighted sum of the path prefixes of the current length that end at
# height h.  Unlike nested series reciprocals, the intermediate polynomial
# sizes are bounded by the weighted counts of path prefixes, which keeps
# symbolic master weights tractable.  Each state[h] is a MultiPoly's terms
# dict (see mpoly); a step adds w*gamma(h), w and w*beta(h) into the next
# heights' dicts in place, then range-checks every key and drops zeros
# once.  The coefficient of t^j is the MultiPoly of state[0].

def expand_sfraction(alpha, order):
    """Taylor coefficients of the S-fraction through t^order: the
    J-fraction in u = sqrt(t) with gamma = 0 and beta = alpha, at the even
    powers of u."""
    return expand_jfraction(lambda h: 0, alpha, 2 * order)[::2]


def expand_jfraction(gamma, beta, order):
    """Taylor coefficients of the J-fraction through t^order: Motzkin
    paths with level steps at height h weighted gamma(h) and falls from
    height h weighted beta(h)."""
    g = cache(lambda h: as_poly(gamma(h)).terms)
    b = cache(lambda h: as_poly(beta(h)).terms)
    one = {0: 1}
    coeffs = [MultiPoly.one()]
    state = {0: one}
    for j in range(1, order + 1):
        top = order - j  # a path above top cannot return to 0 in time
        nxt = defaultdict(dict)
        for h, w in state.items():
            if h <= top:
                add_product(nxt[h], w, g(h))
            if h < top:
                add_product(nxt[h + 1], w, one)
            if h:
                add_product(nxt[h - 1], w, b(h))
        state = {h: checked_terms(terms) for h, terms in nxt.items()}
        coeffs.append(MultiPoly(state.get(0, {})))
    return coeffs


def attach_component_weight(alpha, zeta):
    """Weight each connected component by zeta: the S-fraction coefficient
    function with alpha_1 multiplied by zeta."""
    zeta = as_poly(zeta)
    return lambda n: zeta * as_poly(alpha(1)) if n == 1 else alpha(n)


def indecomposable_series(f):
    """1 - 1/f: the generating series of indecomposable objects."""
    r = reciprocal(f)
    return [1 - r[0]] + [-c for c in r[1:]]


def jfraction_from_series(coeffs, depth):
    """Peel J-fraction coefficients level by level from the rational
    coefficients [t^0..t^order] of a series with constant coefficient 1.

    Writing s = 1/(1 - g0 t - b1 t^2/(1 - g1 t - ...)), returns the pair
    (gammas, betas) with gammas = [g0..g_depth] and betas = [b1..b_depth].
    Requires order >= 2*depth + 1.
    """
    r = reciprocal(coeffs)
    if len(coeffs) < 2 * depth + 2:
        raise InsufficientOrder(
            "need order >= %d, got %d" % (2 * depth + 1, len(coeffs) - 1))
    gammas = []
    betas = []
    for k in range(depth + 1):
        gammas.append(-r[1])
        if k == depth:
            break
        # r = 1 - gamma t - beta t^2 s_next
        beta = -r[2]
        if beta == 0:
            raise TerminatedFraction("beta_%d = 0" % (k + 1,))
        betas.append(beta)
        r = reciprocal([-Fraction(c) / beta for c in r[2:]])
    return gammas, betas

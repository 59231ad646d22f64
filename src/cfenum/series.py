"""Truncated formal power series in t with polynomial coefficients, and
expansion/extraction of Stieltjes- and Jacobi-type continued fractions.

An S-fraction is 1/(1 - a1 t/(1 - a2 t/(1 - ...))); a J-fraction is
1/(1 - g0 t - b1 t^2/(1 - g1 t - b2 t^2/(1 - ...))).  Both are expanded by
Flajolet's reading of a continued fraction as a sum over weighted lattice
paths (Dyck paths for S, Motzkin paths for J), one height at a time.
"""

from fractions import Fraction
from functools import cache

from .mpoly import MultiPoly, as_poly


class NonUnitConstantTerm(ValueError):
    """Series operation requiring constant coefficient 1 got something else."""


class TerminatedFraction(ValueError):
    """The continued fraction terminates (a beta coefficient is zero)."""


class InsufficientOrder(ValueError):
    """The input series is too short for the requested extraction depth."""


class PowerSeries:
    """Power series truncated at t^order, coefficients are MultiPoly."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = [as_poly(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) < order + 1:
            coeffs = coeffs + [MultiPoly.zero()] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs[: order + 1]

    @staticmethod
    def one(order):
        return PowerSeries([MultiPoly.one()], order)

    def __eq__(self, other):
        return (self.order == other.order and self.coeffs == other.coeffs)

    def __sub__(self, other):
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[k] - other.coeffs[k]
                            for k in range(n + 1)], n)

    def reciprocal(self):
        """Series r with self*r = 1; requires constant coefficient 1."""
        if not self.coeffs[0].is_one():
            raise NonUnitConstantTerm(
                "constant coefficient is %r, not 1" % (self.coeffs[0],))
        out = [MultiPoly.one()]
        for k in range(1, self.order + 1):
            acc = MultiPoly.zero()
            for j in range(1, k + 1):
                c = self.coeffs[j]
                if c.terms and out[k - j].terms:
                    acc = acc + c * out[k - j]
            out.append(-acc)
        return PowerSeries(out, self.order)

    def __repr__(self):
        return "PowerSeries(order=%d, %r)" % (self.order, self.coeffs)


# Both expansions run a dynamic programme over path heights: state[h] is
# the weighted sum of the path prefixes of the current length that end at
# height h.  Unlike nested series reciprocals, the intermediate polynomial
# sizes are bounded by the weighted counts of path prefixes, which keeps
# symbolic master weights tractable.

def expand_sfraction(alpha, order):
    """Taylor coefficients of the S-fraction through t^order: Dyck paths
    of semilength n with falls from height h weighted alpha(h)."""
    a = cache(lambda h: as_poly(alpha(h)))
    coeffs = [MultiPoly.one()]
    state = {0: MultiPoly.one()}
    for j in range(1, 2 * order + 1):
        nxt = {}
        for h, w in state.items():
            if h <= 2 * order - j - 1:
                nxt[h + 1] = nxt.get(h + 1, MultiPoly.zero()) + w
            if h > 0:
                nxt[h - 1] = nxt.get(h - 1, MultiPoly.zero()) + w * a(h)
        state = {h: w for h, w in nxt.items() if w}
        if j % 2 == 0:
            coeffs.append(state.get(0, MultiPoly.zero()))
    return PowerSeries(coeffs, order)


def expand_jfraction(gamma, beta, order):
    """Taylor coefficients of the J-fraction through t^order: Motzkin
    paths with level steps at height h weighted gamma(h) and falls from
    height h weighted beta(h)."""
    g = cache(lambda h: as_poly(gamma(h)))
    b = cache(lambda h: as_poly(beta(h)))
    coeffs = [MultiPoly.one()]
    state = {0: MultiPoly.one()}
    for j in range(1, order + 1):
        nxt = {}
        for h, w in state.items():
            nxt[h] = nxt.get(h, MultiPoly.zero()) + w * g(h)
            nxt[h + 1] = nxt.get(h + 1, MultiPoly.zero()) + w
            if h > 0:
                nxt[h - 1] = nxt.get(h - 1, MultiPoly.zero()) + w * b(h)
        # a path above height order - j cannot return to 0 in time
        state = {h: w for h, w in nxt.items() if w and h <= order - j}
        coeffs.append(state.get(0, MultiPoly.zero()))
    return PowerSeries(coeffs, order)


def attach_component_weight(alpha, zeta):
    """Weight each connected component by zeta: the S-fraction coefficient
    function with alpha_1 multiplied by zeta."""
    zeta = as_poly(zeta)
    return lambda n: zeta * as_poly(alpha(1)) if n == 1 else alpha(n)


def indecomposable_series(f):
    """1 - 1/f: the generating series of indecomposable objects."""
    return PowerSeries.one(f.order) - f.reciprocal()


class RationalSeries:
    """Truncated series with exact rational coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) < order + 1:
            coeffs = coeffs + [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs[: order + 1]

    def __eq__(self, other):
        return self.order == other.order and self.coeffs == other.coeffs

    def reciprocal(self):
        c0 = self.coeffs[0]
        if c0 == 0:
            raise NonUnitConstantTerm("constant coefficient is 0")
        out = [1 / c0]
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j]
            out.append(-acc / c0)
        return RationalSeries(out, self.order)

    def __repr__(self):
        return "RationalSeries(order=%d, %r)" % (self.order, self.coeffs)


def jfraction_from_series(s, depth):
    """Peel J-fraction coefficients level by level from a rational series
    with constant coefficient 1.

    Writing s = 1/(1 - g0 t - b1 t^2/(1 - g1 t - ...)), returns the pair
    (gammas, betas) with gammas = [g0..g_depth] and betas = [b1..b_depth].
    Requires s.order >= 2*depth + 1.
    """
    if s.coeffs[0] != 1:
        raise NonUnitConstantTerm("constant coefficient is %s" % s.coeffs[0])
    if s.order < 2 * depth + 1:
        raise InsufficientOrder(
            "need order >= %d, got %d" % (2 * depth + 1, s.order))
    gammas = []
    betas = []
    cur = s
    for k in range(depth + 1):
        r = cur.reciprocal()
        gamma = -r.coeffs[1]
        gammas.append(gamma)
        if k == depth:
            break
        # r = 1 - gamma t - beta t^2 s_next
        rest = [-(r.coeffs[j + 2]) for j in range(r.order - 1)]
        beta = rest[0]
        if beta == 0:
            raise TerminatedFraction("beta_%d = 0" % (k + 1,))
        betas.append(beta)
        cur = RationalSeries([c / beta for c in rest], r.order - 2)
    return gammas, betas

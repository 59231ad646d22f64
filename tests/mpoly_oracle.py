"""Reference monomials and polynomial operations for the packed Monomial.

`Monomial` is the tuple monomial that cfenum.mpoly used before packed
exponent vectors: a tuple of (Indeterminate, exponent) pairs kept sorted by
(family, indices), with no exponent limit.  `Poly` writes the MultiPoly
operations plainly over it.  `to_text` is the canonical text form as
cfenum.mpoly printed it.  Only Indeterminate is shared with the
library: nothing here reads a packed int, a slot or a rank table.
"""

from fractions import Fraction


class Monomial:
    """A product of indeterminate powers, stored canonically sorted."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps=()):
        if isinstance(exps, dict):
            items = exps.items()
        else:
            items = exps
        self.exps = tuple(sorted(((v, e) for v, e in items if e),
                                 key=lambda ve: ve[0]._key))
        self._hash = hash(self.exps)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.exps == other.exps

    def sort_key(self):
        return tuple([(v._key, e) for v, e in self.exps])

    def __mul__(self, other):
        d = dict(self.exps)
        for v, e in other.exps:
            d[v] = d.get(v, 0) + e
        return Monomial(d)

    def degree(self):
        return sum(e for _, e in self.exps)

    def max_exponent(self):
        return max((e for _, e in self.exps), default=0)

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(["%s^%d" % (v._text, e) if e > 1 else v._text
                         for v, e in self.exps])


ONE = Monomial()


class Poly:
    """Dict Monomial -> nonzero int coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def const(c):
        return Poly({ONE: c})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    def max_exponent(self):
        return max((m.max_exponent() for m in self.terms), default=0)

    def substituted_terms(self, image):
        """Each term with every indeterminate v replaced by image(v), a
        one-term Poly, or kept when image(v) is None; the terms are not
        summed.  Powers of one-term images are taken in closed form, so
        exponents up to the limit stay cheap."""
        out = []
        for m, c in self.terms.items():
            term = Poly.const(c)
            for v, e in m.exps:
                img = image(v) or Poly({Monomial(((v, 1),)): 1})
                (mi, ci), = img.terms.items()
                term = term * Poly({Monomial([(w, k * e) for w, k in mi.exps]):
                                    ci ** e})
            out.append(term)
        return out

    def evaluate(self, point):
        total = Fraction(0)
        for m, c in self.terms.items():
            term = Fraction(c)
            for v, e in m.exps:
                term *= Fraction(point[v]) ** e
            total += term
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())


def to_text(p):
    if not p.terms:
        return "0"
    return " + ".join([str(c) if not m.exps else "%d*%s" % (c, repr(m))
                       for m, c in p.sorted_terms()])


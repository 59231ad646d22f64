"""Exact sparse multivariate polynomials over arbitrary-precision integers.

Indeterminates belong to named indexed families created lazily: a plain
variable like x1 has no indices, w[3] has one index, a[0,2] has two.  A
polynomial is a dict from monomials to nonzero integer coefficients, so all
arithmetic is exact and there is no overflow.
"""

from fractions import Fraction
import json
import re


_registry = {}


class Indeterminate:
    """A single variable, identified by (family, indices) and interned.

    The same family name may be used with different index arities in
    different weight systems (e.g. a[0] and a[0,0]); the full (family,
    indices) pair is what identifies the indeterminate.
    """

    __slots__ = ("family", "indices", "_key", "_hash", "_text")

    def __new__(cls, family, *indices):
        key = (family, tuple(indices))
        hit = _registry.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.family = family
        self.indices = key[1]
        self._key = key
        self._hash = hash(key)
        self._text = ("%s[%s]" % (family, ",".join(map(str, key[1])))
                      if key[1] else family)
        _registry[key] = self
        return self

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return self._text

    # Arithmetic promotes to MultiPoly so formulas read naturally.
    def __add__(self, other):
        return as_poly(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return as_poly(self) - other

    def __rsub__(self, other):
        return as_poly(other) - as_poly(self)

    def __mul__(self, other):
        return as_poly(self) * other

    __rmul__ = __mul__

    def __neg__(self):
        return -as_poly(self)

    def __pow__(self, e):
        return as_poly(self) ** e


def var(family, *indices):
    """Convenience constructor for an (interned) indeterminate."""
    return Indeterminate(family, *indices)


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

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return tuple([(v._key, e) for v, e in self.exps])

    def __mul__(self, other):
        d = dict(self.exps)
        for v, e in other.exps:
            d[v] = d.get(v, 0) + e
        return Monomial(d)

    def degree(self):
        return sum(e for _, e in self.exps)

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(["%s^%d" % (v._text, e) if e > 1 else v._text
                         for v, e in self.exps])


_ONE_MONO = Monomial()


def monomial(pairs):
    """Monomial from (family, exponent) pairs.  A family is a name like
    "x" or a tuple like ("w", 3); zero exponents are dropped and repeated
    families add up."""
    exps = {}
    for fam_idx, e in pairs:
        if e:
            v = Indeterminate(*fam_idx) if isinstance(fam_idx, tuple) \
                else Indeterminate(fam_idx)
            exps[v] = exps.get(v, 0) + e
    return Monomial(exps)


def as_poly(obj):
    """Coerce an int, Indeterminate, Monomial, or MultiPoly to MultiPoly."""
    if isinstance(obj, MultiPoly):
        return obj
    if isinstance(obj, int):
        return MultiPoly({_ONE_MONO: obj} if obj else {})
    if isinstance(obj, Indeterminate):
        return MultiPoly({Monomial(((obj, 1),)): 1})
    if isinstance(obj, Monomial):
        return MultiPoly({obj: 1})
    raise TypeError("cannot make a polynomial from %r" % (obj,))


class MultiPoly:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def zero():
        return MultiPoly({})

    @staticmethod
    def one():
        return MultiPoly({_ONE_MONO: 1})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {_ONE_MONO: 1}

    def constant_term(self):
        return self.terms.get(_ONE_MONO, 0)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                other = as_poly(other)
            except TypeError:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = as_poly(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for m, c in b.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) + (-self)

    def __mul__(self, other):
        other = as_poly(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly({})
        if len(a) < len(b):
            a, b = b, a
        out = {}
        for m2, c2 in b.items():
            if not m2.exps:
                for m1, c1 in a.items():
                    p = c1 * c2
                    s = out.get(m1, 0) + p
                    if s:
                        out[m1] = s
                    elif m1 in out:
                        del out[m1]
                continue
            for m1, c1 in a.items():
                m = m1 * m2
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def coeff_of(self, m):
        """Exact coefficient of monomial m (0 if absent)."""
        return self.terms.get(m, 0)

    def substitute(self, subs):
        """Simultaneous substitution of indeterminates by polynomials.

        Keys of subs are either Indeterminate objects or family-name strings;
        a string key gives a family-wide rule whose value is either a fixed
        replacement or a callable on the index tuple returning one (return
        None to leave that particular indeterminate symbolic).  Uncovered
        indeterminates stay symbolic.
        """
        def image(v):
            if v in subs:
                return as_poly(subs[v])
            rule = subs.get(v.family)
            if rule is None:
                return None
            if callable(rule):
                r = rule(*v.indices)
                return None if r is None else as_poly(r)
            return as_poly(rule)

        cache = {}
        out = MultiPoly({})
        for m, c in self.terms.items():
            term = as_poly(c)
            for v, e in m.exps:
                img = cache.get(v, False)
                if img is False:
                    img = image(v)
                    cache[v] = img
                if img is None:
                    term = term * as_poly(Monomial(((v, e),)))
                else:
                    term = term * img ** e
            out = out + term
        return out

    def evaluate(self, point, default=None):
        """Evaluate at a numeric point (dict Indeterminate -> number).

        Missing indeterminates take `default` if given, else raise KeyError.
        Returns an int or Fraction depending on the point values.
        """
        total = Fraction(0) if any(
            isinstance(x, Fraction) for x in point.values()) else 0
        for m, c in self.terms.items():
            term = c
            for v, e in m.exps:
                if v in point:
                    x = point[v]
                elif default is not None:
                    x = default
                else:
                    raise KeyError("no value for %r" % (v,))
                term *= x ** e
            total += term
        return total

    def indeterminates(self):
        """Sorted list of all indeterminates appearing in the polynomial."""
        seen = set()
        for m in self.terms:
            for v, _ in m.exps:
                seen.add(v)
        return sorted(seen, key=lambda v: v._key)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())

    def __repr__(self):
        return to_text(self)

    def __bool__(self):
        return bool(self.terms)


# ---------------------------------------------------------------------------
# Canonical text form: `5*x1^2*w[3] + -1*a[0,2]`, terms in monomial order.

def to_text(p):
    p = as_poly(p)
    if not p.terms:
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        if not m.exps:
            parts.append(str(c))
        else:
            parts.append("%d*%s" % (c, repr(m)))
    return " + ".join(parts)


_VAR_RE = re.compile(
    r"^([A-Za-z_][A-Za-z_0-9]*?)(?:\[(\d+(?:,\d+)*)\])?(?:\^(\d+))?$")


class ParseError(ValueError):
    pass


def from_text(text):
    """Parse the canonical text form back into a MultiPoly."""
    text = text.strip()
    if text == "0":
        return MultiPoly.zero()
    total = MultiPoly.zero()
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ParseError("empty term in %r" % text)
        factors = term.split("*")
        try:
            coeff = int(factors[0])
        except ValueError:
            raise ParseError("term %r must start with an integer "
                             "coefficient" % term) from None
        exps = {}
        for fac in factors[1:]:
            mt = _VAR_RE.match(fac.strip())
            if not mt:
                raise ParseError("bad factor %r" % fac)
            family, idx, exp = mt.groups()
            indices = tuple(int(i) for i in idx.split(",")) if idx else ()
            v = Indeterminate(family, *indices)
            exps[v] = exps.get(v, 0) + (int(exp) if exp else 1)
        total = total + MultiPoly({Monomial(exps): coeff})
    return total


# ---------------------------------------------------------------------------
# JSON form: {"terms":[{"coeff":"5","exps":[["x1",[],2],["w",[3],1]]}]}

def to_json_obj(p):
    p = as_poly(p)
    return {"terms": [
        {"coeff": str(c),
         "exps": [[v.family, list(v.indices), e] for v, e in m.exps]}
        for m, c in p.sorted_terms()]}


def to_json(p):
    return json.dumps(to_json_obj(p))


def from_json_obj(obj):
    total = MultiPoly.zero()
    for t in obj["terms"]:
        exps = {}
        for family, indices, e in t["exps"]:
            v = Indeterminate(family, *indices)
            exps[v] = exps.get(v, 0) + e
        total = total + MultiPoly({Monomial(exps): int(t["coeff"])})
    return total


def from_json(text):
    return from_json_obj(json.loads(text))

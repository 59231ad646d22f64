"""Exact sparse multivariate polynomials over arbitrary-precision integers.

Indeterminates belong to named indexed families created lazily: a plain
variable like x1 has no indices, w[3] has one index, a[0,2] has two.  A
polynomial is a dict from packed monomials to nonzero integer
coefficients, so all arithmetic is exact and there is no overflow.

A monomial is a packed exponent vector (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", 2007):
each indeterminate gets a slot when it is interned, and a monomial is one
int holding exponent e of the indeterminate in slot s as e << (16 * s).
Exponents range over 0..MAX_EXPONENT; the top bit of every 16-bit field is
a guard, so the sum of two valid monomials never carries into the next
field, and a guard bit set in a sum is an exponent over the limit.
"""

from array import array
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import compress, count
from operator import attrgetter, itemgetter, or_
import re
import sys


_BITS = 16
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = _FIELD >> 1

_registry = {}
_by_slot = []   # the Indeterminate in each slot, in intern order
_guard = 0      # the guard bit of every slot given out
_by_rank = []   # the interned Indeterminates in _key order
_rank_code = []


class ExponentError(ValueError):
    """An exponent is negative or above MAX_EXPONENT."""


class Indeterminate:
    """A single variable, identified by (family, indices) and interned.

    The same family name may be used with different index arities in
    different weight systems (e.g. a[0] and a[0,0]); the full (family,
    indices) pair is what identifies the indeterminate.
    """

    __slots__ = ("family", "indices", "_key", "_hash", "_text", "_shift")

    def __new__(cls, family, *indices):
        global _guard
        key = (family, tuple(indices))
        hit = _registry.get(key)
        if hit is not None:
            return hit
        if not isinstance(family, str) \
                or any(type(i) is not int for i in key[1]):
            raise TypeError("an indeterminate is a family name and int "
                            "indices, not %r" % (key,))
        self = object.__new__(cls)
        self.family = family
        self.indices = key[1]
        self._key = key
        self._hash = hash(key)
        self._text = ("%s[%s]" % (family, ",".join(map(str, key[1])))
                      if key[1] else family)
        self._shift = _BITS * len(_by_slot)
        _by_slot.append(self)
        _guard |= 1 << (self._shift + _BITS - 1)
        _registry[key] = self
        return self

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other

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


def _fields(packed):
    """The 16-bit exponent fields of a packed monomial, slot 0 first."""
    fields = array("H", packed.to_bytes(
        (packed.bit_length() + _BITS - 1) // _BITS * 2, "little"))
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


def _rank_codes():
    """Slot -> rank << 16, where the rank is the position of the slot's
    indeterminate in (family, indices) order.  Rebuilt only after new
    indeterminates have been interned."""
    global _rank_code, _by_rank
    if len(_by_rank) != len(_by_slot):
        _by_rank = sorted(_by_slot, key=attrgetter("_key"))
        _rank_code = [0] * len(_by_rank)
        for r, v in enumerate(_by_rank):
            _rank_code[v._shift // _BITS] = r << _BITS
    return _rank_code


def _display(packed, rank_code):
    """Display key of a packed monomial: rank << 16 | exponent of each of
    its indeterminates, in display order.  Keys compare as the tuples of
    ((family, indices), exponent) pairs they stand for, so they also sort
    terms in monomial order."""
    fields = _fields(packed)
    return sorted([rank_code[s] + fields[s]
                   for s in compress(count(), fields)])


def _display_text(key):
    parts = []
    for code in key:
        text, e = _by_rank[code >> _BITS]._text, code & _FIELD
        parts.append(text if e == 1 else "%s^%d" % (text, e))
    return "*".join(parts) or "1"


def _out_of_range(v, e):
    return ExponentError("exponent %d of %s is outside 0..%d"
                         % (e, v, MAX_EXPONENT))


def _checked(packed):
    """packed, unless a guard bit shows a field above MAX_EXPONENT.  A
    field holds at most the sum of two in-range exponents, so it is still
    exact and names the exponent in the error."""
    over = packed & _guard
    if over:
        shift = over.bit_length() - _BITS
        raise _out_of_range(_by_slot[shift // _BITS],
                            (packed >> shift) & _FIELD)
    return packed


def _exps(packed):
    """[(Indeterminate, exponent)] of a packed monomial in display
    order."""
    return [(_by_rank[code >> _BITS], code & _FIELD)
            for code in _display(packed, _rank_codes())]


class Monomial:
    """A product of indeterminate powers, packed into one int (see the
    module docstring).  Built from a dict or from (Indeterminate,
    exponent) pairs; repeated indeterminates add up."""

    __slots__ = ("_packed",)

    def __init__(self, exps=()):
        packed = 0
        for v, e in exps.items() if isinstance(exps, dict) else exps:
            if not 0 <= e <= MAX_EXPONENT:
                raise _out_of_range(v, e)
            packed += e << v._shift
            if packed & _guard:  # a repeated indeterminate went over
                _checked(packed)
        self._packed = packed

    def __hash__(self):
        return hash(self._packed)

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._packed == other._packed

    @property
    def exps(self):
        """((Indeterminate, exponent), ...) in display order."""
        return tuple(_exps(self._packed))

    def __mul__(self, other):
        return _wrap(_checked(self._packed + other._packed))

    def __repr__(self):
        return _display_text(_display(self._packed, _rank_codes()))


_new = object.__new__


def _wrap(packed):
    m = _new(Monomial)
    m._packed = packed
    return m


def monomial(pairs):
    """Monomial from (family, exponent) pairs.  A family is a name like
    "x" or a tuple like ("w", 3); zero exponents are dropped and repeated
    families add up."""
    return Monomial([(Indeterminate(*fam_idx) if isinstance(fam_idx, tuple)
                      else Indeterminate(fam_idx), e)
                     for fam_idx, e in pairs if e])


def sum_of_products(rows, codes):
    """The MultiPoly sum over (shared, keys, count) rows of count times the
    product of the Monomials codes[key] over the row's keys: the first
    `shared` keys of the row before it, then `keys`.  The product of each
    shared prefix is reused, not recomputed.  `codes` is the caller's
    table, a list or a dict, read as each key is added; each product is a
    sum of packed ints, range-checked after every addition (as in
    Monomial), so no exponent wraps, even in a row whose count is 0 or
    cancels.  Zero coefficients are dropped once, at the end."""
    acc = {}
    prefix = [0]  # prefix[i]: the product of the last row's first i keys
    for shared, keys, count in rows:
        del prefix[shared + 1:]
        packed = prefix[shared]
        for key in keys:
            packed += codes[key]._packed
            if packed & _guard:
                _checked(packed)
            prefix.append(packed)
        acc[packed] = acc.get(packed, 0) + count
    return MultiPoly({k: c for k, c in acc.items() if c})


def add_product(acc, a, b):
    """Add a*b into acc, all three dicts from packed monomials to
    coefficients: the one multiplication loop.  Sums are not range-checked
    and zero coefficients stay in acc, for checked_terms to handle once
    per term (a field cannot carry, so a product of two checked keys above
    the limit keeps its guard bit)."""
    if len(a) < len(b):
        a, b = b, a
    a = a.items()
    for k2, c2 in b.items():
        for k1, c1 in a:
            k = k1 + k2
            acc[k] = acc.get(k, 0) + c1 * c2


def checked_terms(terms):
    """terms without its zero coefficients, after a range check of every
    key, a key whose terms cancelled too: the keys' union has a guard bit
    set exactly when one of them does, and _checked names that key's
    exponent."""
    if reduce(or_, terms, 0) & _guard:
        for k in terms:
            _checked(k)
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    return terms


def is_int(v):
    """Whether v is an int; a bool is not one here."""
    return isinstance(v, int) and not isinstance(v, bool)


def as_poly(obj):
    """Coerce an int, Indeterminate, Monomial, or MultiPoly to MultiPoly.
    A bool is not a coefficient: it raises TypeError like any other
    type."""
    if isinstance(obj, MultiPoly):
        return obj
    if is_int(obj):
        return MultiPoly({0: obj} if obj else {})
    if isinstance(obj, Indeterminate):
        return MultiPoly({1 << obj._shift: 1})
    if isinstance(obj, Monomial):
        return MultiPoly({obj._packed: 1})
    raise TypeError("cannot make a polynomial from %r" % (obj,))


class MultiPoly:
    """Sparse multivariate polynomial with integer coefficients: terms is
    a dict from packed monomials (ints, see the module docstring) to
    nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def one():
        return MultiPoly({0: 1})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                other = as_poly(other)
            except TypeError:
                return NotImplemented
        return self.terms == other.terms

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
        out = {}
        add_product(out, self.terms, as_poly(other).terms)
        return MultiPoly(checked_terms(out))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = None  # not 1: a product by 1 is still a product
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return MultiPoly.one() if result is None else result

    def coeff_of(self, m):
        """Exact coefficient of monomial m (0 if absent)."""
        return self.terms.get(m._packed, 0)

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
            if callable(rule):
                rule = rule(*v.indices)
            return None if rule is None else as_poly(rule)

        images = {}  # slot -> the image of its indeterminate, if covered
        symbolic = 0  # the fields of the indeterminates no rule covers
        for slot in compress(count(), _fields(reduce(or_, self.terms, 0))):
            img = image(_by_slot[slot])
            if img is None:
                symbolic |= _FIELD << _BITS * slot
            else:
                images[slot] = img
        powers = {}  # packed v^e -> (image of v)^e, or its one term (m, c)
        acc = {}
        for k, c in self.terms.items():
            kept = k & symbolic  # times the one-term images, folded in
            term = None  # the product of the other images, a MultiPoly
            fields = _fields(k ^ kept)
            for slot in compress(count(), fields):
                key = fields[slot] << _BITS * slot  # v^e, packed
                p = powers.get(key)
                if p is None:
                    p = images[slot] ** fields[slot]
                    if len(p.terms) == 1:
                        p = next(iter(p.terms.items()))
                    powers[key] = p
                if isinstance(p, MultiPoly):
                    term = p if term is None else term * p
                else:
                    kept += p[0]
                    c *= p[1]
                    if kept & _guard:
                        _checked(kept)
            if term is None:
                acc[kept] = acc.get(kept, 0) + c
            else:
                add_product(acc, term.terms, {kept: c})
        return MultiPoly(checked_terms(acc))

    def evaluate(self, point):
        """Evaluate at a numeric point (dict Indeterminate -> number); an
        indeterminate the point misses raises KeyError.  Returns an int or
        Fraction depending on the point values.
        """
        total = Fraction(0) if any(
            isinstance(x, Fraction) for x in point.values()) else 0
        for k, c in self.terms.items():
            term = c
            for v, e in _exps(k):
                term *= point[v] ** e
            total += term
        return total

    def _display_terms(self):
        """[(display key, packed monomial, coefficient)] in monomial
        order, each term decoded once."""
        rank_code = _rank_codes()
        rows = [(_display(k, rank_code), k, c)
                for k, c in self.terms.items()]
        rows.sort(key=itemgetter(0))
        return rows

    def sorted_terms(self):
        """[(Monomial, coefficient)] in monomial order."""
        return [(_wrap(k), c) for _, k, c in self._display_terms()]

    def __repr__(self):
        return to_text(self)

    def __bool__(self):
        return bool(self.terms)


# ---------------------------------------------------------------------------
# Canonical text form: `5*x1^2*w[3] + -1*a[0,2]`, terms in monomial order.

def _coeff_text(c):
    """Decimal digits of the coefficient c, exact at any length: past the
    interpreter's limit on int-to-str conversion (4,300 digits by default)
    they come through decimal, which has no such limit."""
    try:
        return str(c)
    except ValueError:
        return str(Decimal(c))


_COEFF_RE = re.compile(r"\s*[+-]?[0-9]+\s*")


def ascii_int(text):
    """The integer that `text` writes in ASCII decimal digits, with an
    optional sign and surrounding whitespace: int() alone would also take
    underscores and non-ASCII digits.  ValueError for any other text, and,
    as from int(), for more digits than the interpreter converts."""
    if not _COEFF_RE.fullmatch(text):
        raise ValueError("%r is not an integer in ASCII digits" % (text,))
    return int(text)


def _coeff(text):
    """ascii_int of a coefficient, at any length."""
    try:
        return ascii_int(text)
    except ValueError:
        if not _COEFF_RE.fullmatch(text):
            raise
        return int(Decimal(text))  # more digits than int() converts


def to_text(p):
    p = as_poly(p)
    if not p.terms:
        return "0"
    return " + ".join([_coeff_text(c) + "*" + _display_text(key) if key
                       else _coeff_text(c)
                       for key, _, c in p._display_terms()])


_VAR_RE = re.compile(
    r"([A-Za-z_][A-Za-z_0-9]*?)(?:\[([0-9]+(?:,[0-9]+)*)\])?"
    r"(?:\^([0-9]+))?")


class ParseError(ValueError):
    pass


def parse_factor(text):
    """(family, indices, exponent) of the factor text `name[i,j,...]^e`:
    indices () where it has no brackets, exponent None where it has no
    `^e`.  ParseError for any other text."""
    mt = _VAR_RE.fullmatch(text)
    if not mt:
        raise ParseError("bad factor %r" % text)
    family, idx, exp = mt.groups()
    try:
        indices = tuple(int(i) for i in idx.split(",")) if idx else ()
        e = int(exp) if exp else None
    except ValueError as exc:  # more digits than int() converts
        raise ParseError("bad factor %r: %s" % (text, exc)) from None
    return family, indices, e


class _FactorTexts(dict):
    """The Monomial of each factor text, parsed when first looked up."""

    def __missing__(self, fac):
        family, indices, e = parse_factor(fac.strip())
        m = self[fac] = Monomial(((Indeterminate(family, *indices),
                                   1 if e is None else e),))
        return m


def from_text(text):
    """Parse the canonical text form back into a MultiPoly, through
    sum_of_products: repeated monomials add up, and each is range-checked
    (ParseError) even where its coefficient is 0.  A factor text is parsed
    when a term first reaches it, after the factors before it are added."""
    text = text.strip()

    def rows():
        for term in text.split("+"):
            term = term.strip()
            if not term:
                raise ParseError("empty term in %r" % text)
            factors = term.split("*")
            try:
                coeff = _coeff(factors[0])
            except ValueError:
                raise ParseError("term %r must start with an integer "
                                 "coefficient" % term) from None
            yield 0, factors[1:], coeff

    try:
        return sum_of_products(rows(), _FactorTexts())
    except ExponentError as exc:
        raise ParseError(str(exc)) from None

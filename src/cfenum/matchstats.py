"""Perfect-matching statistics: parity-refined cycle-peak/valley record
classes, even/odd crossings and nestings, the master weight, the
Touchard-Riordan closed form, connected components, and weighted
enumeration over all matchings of [2n].

A matching is viewed both as a partition of [2n] into pairs and as a
fixed-point-free involution.
"""

from .mpoly import Indeterminate, Monomial, MultiPoly, monomial
from .permstats import lookup, weighted_sum


class NotAMatching(ValueError):
    """The pairs do not form a perfect matching of 1..2n."""


class InexactDivision(ArithmeticError):
    """Polynomial division left a remainder where none is possible."""


class Matching:
    """A perfect matching of [2n], stored as pairs (opener, closer)."""

    __slots__ = ("n", "pairs", "partner")

    def __init__(self, pairs, _trusted=False):
        pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
        n = len(pairs)
        partner = [0] * (2 * n + 1)
        for (i, j) in pairs:
            if not _trusted:
                if (i == j or not 1 <= i <= 2 * n or not 1 <= j <= 2 * n
                        or partner[i] or partner[j]):
                    raise NotAMatching(
                        "%r is not a perfect matching of 1..%d"
                        % (pairs, 2 * n))
            partner[i] = j
            partner[j] = i
        if not _trusted and any(partner[k] == 0 for k in range(1, 2 * n + 1)):
            raise NotAMatching("pairs do not cover 1..%d" % (2 * n,))
        self.n = n
        self.pairs = pairs
        self.partner = tuple(partner)

    def __call__(self, i):
        return self.partner[i]

    def __eq__(self, other):
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return "Matching(%r)" % ([list(p) for p in self.pairs],)

    def as_oneline(self):
        """One-line notation of the fixed-point-free involution."""
        return self.partner[1:]

    def as_blocks(self):
        return [list(p) for p in self.pairs]


def matching_from_pairs(pairs):
    return Matching(pairs)


class MatchStatTotals:
    """All whole-matching statistic totals."""

    __slots__ = ("n", "ecpar", "ocpar", "ecpnar", "ocpnar",
                 "ecvr", "ocvr", "ecvnr", "ocvnr",
                 "cr", "ne", "ecr", "ocr", "ene", "one",
                 "ecrc", "ocrc", "enec", "onec", "cc")

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def matching_stat_totals(m):
    """Compute every statistic total.

    Each pair's larger element is a cycle peak, classified by parity and
    antirecord status; the smaller is a cycle valley, classified by parity
    and record status.  A crossing/nesting i<j<k<l is even or odd
    according to the parity of j (ecr/ocr/ene/one); the variants
    ecrc/ocrc/enec/onec classify by the parity of k instead, which is the
    refinement that pairs with the cycle-peak classes.
    """
    n2 = 2 * m.n
    w = m.partner
    t = MatchStatTotals()
    t.n = m.n
    t.ecpar = t.ocpar = t.ecpnar = t.ocpnar = 0
    t.ecvr = t.ocvr = t.ecvnr = t.ocvnr = 0
    t.ecr = t.ocr = t.ene = t.one = 0
    t.ecrc = t.ocrc = t.enec = t.onec = 0
    prefix_max = 0
    suffix_min = [0] * (n2 + 2)
    suffix_min[n2 + 1] = n2 + 1
    for i in range(n2, 0, -1):
        suffix_min[i] = min(w[i], suffix_min[i + 1])
    pairs = m.pairs
    for i in range(1, n2 + 1):
        si = w[i]
        if si > i:
            # cycle valley (opener)
            is_rec = si > prefix_max
            even = i % 2 == 0
            if is_rec:
                if even:
                    t.ecvr += 1
                else:
                    t.ocvr += 1
            else:
                if even:
                    t.ecvnr += 1
                else:
                    t.ocvnr += 1
        else:
            # cycle peak (closer)
            is_arec = si < suffix_min[i + 1]
            even = i % 2 == 0
            if is_arec:
                if even:
                    t.ecpar += 1
                else:
                    t.ocpar += 1
            else:
                if even:
                    t.ecpnar += 1
                else:
                    t.ocpnar += 1
        prefix_max = max(prefix_max, si)
    # crossings a<c<b<d and nestings a<c<d<b over ordered arc pairs
    for ia in range(len(pairs)):
        a, b = pairs[ia]
        for ib in range(ia + 1, len(pairs)):
            c, d = pairs[ib]
            if c >= b:
                continue
            if b < d:
                # crossing a<c<b<d: opener c in second position, closer b
                if c % 2 == 0:
                    t.ecr += 1
                else:
                    t.ocr += 1
                if b % 2 == 0:
                    t.ecrc += 1
                else:
                    t.ocrc += 1
            else:
                # nesting a<c<d<b: opener c in second position, closer d
                if c % 2 == 0:
                    t.ene += 1
                else:
                    t.one += 1
                if d % 2 == 0:
                    t.enec += 1
                else:
                    t.onec += 1
    t.cr = t.ecr + t.ocr
    t.ne = t.ene + t.one
    # dividers of the involution
    cc = 0
    pmax = 0
    for i in range(1, n2 + 1):
        pmax = max(pmax, w[i])
        if pmax == i:
            cc += 1
    t.cc = cc
    return t


def matching_master_weight(m):
    """Product over openers of a[cr,ne] and over closers of b[qne]."""
    pairs = m.pairs
    exps = {}
    for (j, l) in pairs:
        cr = ne = qne_cl = 0
        for (a, b) in pairs:
            if a < j < b < l:
                cr += 1
            elif a < j and b > l:
                ne += 1
            if a < l < b:
                qne_cl += 1
        va = Indeterminate("a", cr, ne)
        exps[va] = exps.get(va, 0) + 1
        vb = Indeterminate("b", qne_cl)
        exps[vb] = exps.get(vb, 0) + 1
    return Monomial(exps)


def touchard_riordan(n):
    """The crossing-number generating polynomial over matchings of [2n],
    computed from the ballot-number alternating sum divided exactly by
    (1-p)^n."""
    from math import comb
    # numerator coefficients by p-power
    num = {}
    for k in range(n + 1):
        tnk = comb(2 * n, n + k) - comb(2 * n, n + k + 1)
        e = k * (k + 1) // 2
        num[e] = num.get(e, 0) + (-1) ** k * tnk
    deg = max(num) if num else 0
    coeffs = [num.get(e, 0) for e in range(deg + 1)]
    # divide n times by (1 - p): quotient coefficients are prefix sums
    for _ in range(n):
        out = []
        carry = 0
        for c in coeffs:
            carry += c
            out.append(carry)
        coeffs = out
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
    # verify exactness by multiplying back by (1-p)^n
    back = list(coeffs)
    for _ in range(n):
        nxt = [0] * (len(back) + 1)
        for k, c in enumerate(back):
            nxt[k] += c
            nxt[k + 1] -= c
        back = nxt
    while back and back[-1] == 0:
        back.pop()
    orig = [num.get(e, 0) for e in range(deg + 1)]
    while orig and orig[-1] == 0:
        orig.pop()
    if back != orig:
        raise InexactDivision("division by (1-p)^%d is not exact" % n)
    p = Indeterminate("p")
    total = MultiPoly({})
    for k, c in enumerate(coeffs):
        if c:
            total = total + MultiPoly({Monomial({p: k}): c})
    return total


# ---------------------------------------------------------------------------
# Named weight maps.  Each maps (m, totals) to a Monomial.

def _w_unit(m, t):
    return Monomial()


def _w_four_var_cp(m, t):
    return monomial([("x", t.ecpar), ("y", t.ocpar),
                     ("u", t.ecpnar), ("v", t.ocpnar)])


def _w_four_var_cv(m, t):
    return monomial([("x", t.ocvr), ("y", t.ecvr),
                     ("u", t.ocvnr), ("v", t.ecvnr)])


def _w_six_var(m, t):
    return monomial([("x", t.ecpar), ("y", t.ocpar),
                     ("u", t.ecpnar), ("v", t.ocpnar),
                     ("xb", t.ocvr + t.ocvnr), ("yb", t.ecvr + t.ecvnr)])


def _w_pq(m, t):
    return monomial([("x", t.ecpar), ("y", t.ocpar),
                     ("u", t.ecpnar), ("v", t.ocpnar),
                     ("pp", t.ocrc), ("pm", t.ecrc),
                     ("qp", t.onec), ("qm", t.enec)])


def _w_pq_cv(m, t):
    return monomial([("x", t.ocvr), ("y", t.ecvr),
                     ("u", t.ocvnr), ("v", t.ecvnr),
                     ("pp", t.ecr), ("pm", t.ocr),
                     ("qp", t.ene), ("qm", t.one)])


def _w_cr(m, t):
    return monomial([("p", t.cr)])


def _w_cr_ne(m, t):
    return monomial([("p", t.cr), ("q", t.ne)])


def _w_master(m, t):
    return matching_master_weight(m)


def _w_zeta_cc(m, t):
    return monomial([("zeta", t.cc)])


MATCH_WEIGHTS = {
    "unit": _w_unit,
    "four-var-cp": _w_four_var_cp,
    "four-var-cv": _w_four_var_cv,
    "six-var": _w_six_var,
    "pq": _w_pq,
    "pq-cv": _w_pq_cv,
    "cr": _w_cr,
    "cr-ne": _w_cr_ne,
    "master": _w_master,
    "zeta-cc": _w_zeta_cc,
}


# ---------------------------------------------------------------------------
# Enumeration

def iter_matchings(n):
    """All perfect matchings of [2n]: pair the smallest unmatched element
    with each larger unmatched element, recursively."""
    def rec(free):
        if not free:
            yield []
            return
        first = free[0]
        for idx in range(1, len(free)):
            rest = free[1:idx] + free[idx + 1:]
            for tail in rec(rest):
                yield [(first, free[idx])] + tail
    for plist in rec(list(range(1, 2 * n + 1))):
        yield Matching(plist, _trusted=True)


def _match_stats(m):
    return m, matching_stat_totals(m)


MATCH_FAMILIES = {
    "all": None,
    "indecomposable": lambda m, t: t.cc == 1,
}


def enumerate_matching_polynomial(n, family="all", weight="unit",
                                  with_cc_zeta=False):
    """Exact weighted sum over matchings of [2n].

    `weight` is a registered weight-map id or a callable
    (m, totals) -> Monomial/MultiPoly.  `family` is "all" or
    "indecomposable".  `with_cc_zeta` multiplies every weight by zeta^cc.
    """
    return weighted_sum(iter_matchings(n), _match_stats,
                        lookup(MATCH_WEIGHTS, weight),
                        lookup(MATCH_FAMILIES, family), with_cc_zeta)

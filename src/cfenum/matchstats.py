"""Perfect-matching statistics: parity-refined cycle-peak/valley record
classes, even/odd crossings and nestings, the master weight, the
Touchard-Riordan closed form, connected components, and weighted
enumeration over all matchings of [2n].

A matching is viewed both as a partition of [2n] into pairs and as a
fixed-point-free involution.
"""

from bisect import bisect
from collections import namedtuple
from functools import partial
from itertools import accumulate

from .mpoly import Indeterminate, Monomial, is_int, monomial, \
    sum_of_products
from .permstats import ObjectKind, factors, is_indecomposable, \
    is_one_to_n, lookup, unit_weight, walk_kernel, walk_tally, \
    zeta_cc_weight


class NotAMatching(ValueError):
    """The pairs do not form a perfect matching of 1..2n."""


class InexactDivision(ArithmeticError):
    """Polynomial division left a remainder where none is possible."""


class Matching:
    """A perfect matching of [2n], stored as the partner of each element
    (partner[0] is 0)."""

    __slots__ = ("n", "partner")

    def __init__(self, pairs):
        pairs = tuple(map(tuple, pairs))
        n = len(pairs)
        elements = [e for p in pairs for e in p]
        if not (all(len(p) == 2 for p in pairs) and is_one_to_n(elements)):
            if all(map(is_int, elements)):
                pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
            raise NotAMatching("%r is not a perfect matching of 1..%d"
                               % (pairs, 2 * n))
        partner = [0] * (2 * n + 1)
        for i, j in pairs:
            partner[i] = j
            partner[j] = i
        self.n = n
        self.partner = tuple(partner)

    @property
    def pairs(self):
        """The arcs (opener, closer), sorted."""
        return tuple((i, j) for i, j in enumerate(self.partner) if i < j)

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return self.partner == other.partner

    def __hash__(self):
        return hash(self.partner)

    def __repr__(self):
        return "Matching(%r)" % ([list(p) for p in self.pairs],)

    def as_blocks(self):
        return [list(p) for p in self.pairs]


ArcProfile = namedtuple("ArcProfile",
                        "opener_parity closer_parity cr ne qne")
ArcProfile.__doc__ = """Per-arc profile of an arc (j, l) of a matching:
the parities j % 2 and l % 2, cr = #{arcs (a,b) : a < j < b < l},
ne = #{arcs (a,b) : a < j, b > l} and qne = #{arcs (a,b) : a < l < b}."""


def _arc_profile(parities, cr, ne, qne):
    return ArcProfile(parities >> 1, parities & 1, cr, ne, qne)


class MatchStatTotals:
    """All whole-matching statistic totals.

    Each pair's larger element is a cycle peak, classified by parity and
    antirecord status; the smaller is a cycle valley, classified by parity
    and record status.  A crossing/nesting i<j<k<l is even or odd
    according to the parity of j (ecr/ocr/ene/one); the variants
    ecrc/ocrc/enec/onec classify by the parity of k instead, which is the
    refinement that pairs with the cycle-peak classes.
    """

    __slots__ = ("n", "ecpar", "ocpar", "ecpnar", "ocpnar",
                 "ecvr", "ocvr", "ecvnr", "ocvnr",
                 "cr", "ne", "ecr", "ocr", "ene", "one",
                 "ecrc", "ocrc", "enec", "onec", "cc")

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def _match_totals(profiles, cc):
    """Totals from the arc profiles (in any order) and cc.

    An arc (j, l) nested under no arc makes j a record and l an
    antirecord; otherwise neither is.  The arc is the second arc of cr
    crossings (classified by j) and the inner arc of ne nestings
    (classified by j, and by l for enec/onec); it is the first arc of
    qne - ne crossings, whose third element is l (ecrc/ocrc).
    """
    t = MatchStatTotals()
    t.n = len(profiles)
    # indexed by parity: 0 even, 1 odd
    cpar, cpnar, cvr, cvnr = [0, 0], [0, 0], [0, 0], [0, 0]
    crs, nes, crc, nec = [0, 0], [0, 0], [0, 0], [0, 0]
    for jp, lp, cr, ne, qne in profiles:
        if ne:
            cvnr[jp] += 1
            cpnar[lp] += 1
        else:
            cvr[jp] += 1
            cpar[lp] += 1
        crs[jp] += cr
        nes[jp] += ne
        crc[lp] += qne - ne
        nec[lp] += ne
    t.ecpar, t.ocpar = cpar
    t.ecpnar, t.ocpnar = cpnar
    t.ecvr, t.ocvr = cvr
    t.ecvnr, t.ocvnr = cvnr
    t.ecr, t.ocr = crs
    t.ene, t.one = nes
    t.ecrc, t.ocrc = crc
    t.enec, t.onec = nec
    t.cr = t.ecr + t.ocr
    t.ne = t.ene + t.one
    t.cc = cc
    return t


def matching_master_weight(profiles, totals=None):
    """Product over arcs (j, l) of a[cr,ne] for the opener j and b[qne]
    for the closer l."""
    return monomial([(v, 1) for p in profiles
                     for v in (("a", p.cr, p.ne), ("b", p.qne))])


def touchard_riordan(n):
    """The crossing-number generating polynomial over matchings of [2n],
    computed from the ballot-number alternating sum divided exactly by
    (1-p)^n."""
    from math import comb
    # the numerator: (-1)^k times a ballot number at p^(k(k+1)/2)
    coeffs = [0] * (n * (n + 1) // 2 + 1)
    for k in range(n + 1):
        coeffs[k * (k + 1) // 2] = (-1) ** k * (
            comb(2 * n, n + k) - comb(2 * n, n + k + 1))
    # divide n times by (1 - p): the prefix sums are quotient, remainder
    for _ in range(n):
        coeffs = list(accumulate(coeffs))
        if coeffs.pop():
            raise InexactDivision("division by (1-p)^%d is not exact" % n)
    p = Indeterminate("p")
    return sum_of_products(((0, (k,), c) for k, c in enumerate(coeffs)),
                           [Monomial({p: k}) for k in range(len(coeffs))])


# ---------------------------------------------------------------------------
# Named weight maps.  Each maps (profiles, totals) to a Monomial.

def _w_four_var_cp(profiles, t):
    return monomial([("x", t.ecpar), ("y", t.ocpar),
                     ("u", t.ecpnar), ("v", t.ocpnar)])


def _w_four_var_cv(profiles, t):
    return monomial([("x", t.ocvr), ("y", t.ecvr),
                     ("u", t.ocvnr), ("v", t.ecvnr)])


def _w_six_var(profiles, t):
    return monomial([("x", t.ecpar), ("y", t.ocpar),
                     ("u", t.ecpnar), ("v", t.ocpnar),
                     ("xb", t.ocvr + t.ocvnr), ("yb", t.ecvr + t.ecvnr)])


def _w_pq(profiles, t):
    return monomial([("x", t.ecpar), ("y", t.ocpar),
                     ("u", t.ecpnar), ("v", t.ocpnar),
                     ("pp", t.ocrc), ("pm", t.ecrc),
                     ("qp", t.onec), ("qm", t.enec)])


def _w_pq_cv(profiles, t):
    return monomial([("x", t.ocvr), ("y", t.ecvr),
                     ("u", t.ocvnr), ("v", t.ecvnr),
                     ("pp", t.ecr), ("pm", t.ocr),
                     ("qp", t.ene), ("qm", t.one)])


def _w_cr(profiles, t):
    return monomial([("p", t.cr)])


def _w_cr_ne(profiles, t):
    return monomial([("p", t.cr), ("q", t.ne)])


MATCH_WEIGHTS = {
    "unit": unit_weight,
    "four-var-cp": factors(_w_four_var_cp),
    "four-var-cv": factors(_w_four_var_cv),
    "six-var": factors(_w_six_var),
    "pq": factors(_w_pq),
    "pq-cv": factors(_w_pq_cv),
    "cr": factors(_w_cr),
    "cr-ne": factors(_w_cr_ne),
    "master": factors(matching_master_weight),
    "zeta-cc": zeta_cc_weight,
}


# ---------------------------------------------------------------------------
# Enumeration

def iter_matchings(n):
    """All perfect matchings of [2n], in the lexicographic order of their
    sorted pair lists: pair the smallest unmatched element with each
    larger unmatched element, recursively."""
    pairs = []

    def rec(free):
        if not free:
            yield Matching(pairs)
            return
        first = free[0]
        for idx in range(1, len(free)):
            pairs.append((first, free[idx]))
            yield from rec(free[1:idx] + free[idx + 1:])
            pairs.pop()
    return rec(list(range(1, 2 * n + 1)))


def _match_path(m):
    """The choices of _match_walk that grow m, one per position, as the
    step's (opening, ranks): (True, ()) to open an arc, or (False, (r,)) to
    close the open arc at rank r in opening order."""
    opens = []  # the openers of the open arcs, in opening order
    path = []
    for l in range(1, 2 * m.n + 1):
        j = m.partner[l]
        if j > l:
            opens.append(l)
            path.append((True, ()))
        else:
            r = opens.index(j)
            del opens[r]
            path.append((False, (r,)))
    return path


def _match_walk(n, leaf, path=None, prune=None):
    """The walk of `walk_tally` over the matchings of [2n], grown position
    by position.  A position opens an arc, if the arcs then open still fit
    in the positions left, or closes the open arc at rank r in opening
    order; on a path, position l makes the one choice path[l - 1] of
    _match_path.  The counts are (cc,), the positions after which no arc
    is open.  An arc opened at j while c arcs were open, and closed at l
    while `count` arcs (itself included) were open, has the record
    [2 * (j % 2) + l % 2, cr = c - r, ne = r, qne = count - 1]; the
    records are kept sorted as they are made.  When two arcs are open at
    position 2n - 1, both are closed there and at 2n in one step, with
    no recursion per leaf.  With a `prune`, a predicate on one record,
    the walk skips every closing whose record fails it."""
    record = bytes if path is None else list
    size = 2 * n
    arcs = []  # the open arcs in opening order: (2 * (j % 2), c)
    done = []  # the records of the closed arcs, sorted

    def step(l, cc):
        count = len(arcs)
        opening, ranks = (count < size - l, range(count)) if path is None \
            else path[l - 1]
        if count == 2 and l == size - 1:  # both closings forced; 2n is even
            for r in ranks:
                (p, c), (q, d) = arcs[r], arcs[1 - r]
                rec, last = record((p + 1, c - r, r, 1)), record((q, d, 0, 0))
                if prune is not None and not (prune(rec) and prune(last)):
                    continue
                i = bisect(done, rec)
                done.insert(i, rec)
                k = bisect(done, last)
                done.insert(k, last)
                leaf((cc + 1,), done)
                del done[k], done[i]
            return
        if opening:
            arcs.append((2 * (l % 2), count))
            step(l + 1, cc)
            arcs.pop()
        for r in ranks:
            arc = arcs[r]
            rec = record((arc[0] + l % 2, arc[1] - r, r, count - 1))
            if prune is not None and not prune(rec):
                continue
            del arcs[r]
            i = bisect(done, rec)
            done.insert(i, rec)
            if l < size:
                step(l + 1, cc + (count == 1))
            else:
                leaf((cc + 1,), done)
            del done[i]
            arcs.insert(r, arc)

    if n:
        step(1, 0)
    else:
        leaf((0,), done)


MATCH_FAMILIES = {
    "all": None,
    "indecomposable": is_indecomposable,
}


# cc reaches n, and every other field stays below it
MATCH = ObjectKind("match", iter_matchings, walk_tally(_match_walk),
                   walk_kernel(_match_walk, _match_path), 1, 4,
                   _arc_profile, _match_totals, MATCH_WEIGHTS,
                   partial(lookup, MATCH_FAMILIES), 255)


"""Set-partition statistics: opener/closer/insider/singleton classes,
per-element crossing/nesting and overlap/covering counts, exclusive and
block records, Wachs-White and intertwining statistics, master weights,
reversal, and weighted enumeration.

Elements are 1-based; the arc graph joins consecutive elements of a block.
"""

from collections import namedtuple

from .mpoly import ascii_int, is_int, monomial
from .permstats import ObjectKind, UnknownWeightMap, factors, \
    is_indecomposable, is_one_to_n, lookup, unit_weight, walk_kernel, \
    walk_tally, zeta_cc_weight


class NotAPartition(ValueError):
    """The blocks do not partition 1..n."""


class SetPartition:
    """A partition of [n] into disjoint nonempty blocks, stored sorted by
    their minimum."""

    __slots__ = ("n", "blocks")

    def __init__(self, blocks):
        blocks = [tuple(b) for b in blocks]
        elements = [e for b in blocks for e in b]
        n = len(elements)
        if not (all(blocks) and is_one_to_n(elements)):
            # name the fault of the block of least minimum (0 for an empty
            # block or one of non-ints)
            first = min(blocks, key=lambda b: min(b)
                        if b and all(map(is_int, b)) else 0)
            raise NotAPartition("blocks do not partition 1..%d" % n if first
                                else "empty block")
        self.n = n
        self.blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "SetPartition(%r)" % ([list(b) for b in self.blocks],)


def sp_reverse(pi):
    """Image of the partition under i -> n+1-i."""
    n = pi.n
    return SetPartition([[n + 1 - e for e in b] for b in pi.blocks])


SPIndexProfile = namedtuple(
    "SPIndexProfile", "element_class cr ne qne ov cov erec_flag brec_flag")
SPIndexProfile.__doc__ = """Per-element class, crossing/nesting/overlap/
covering counts, and record flags (record flags are None for closers and
singletons).

With the arc graph G (consecutive elements within a block):
  cr(j)  = #{i<j<k<l : (i,k) in G and (j,l) in G}
  ne(j)  = #{i<j<k<l : (i,l) in G and (j,k) in G}
  qne(j) = #{i<j<l   : (i,l) in G}
and with block spans:
  ov(j)  = #{B : j not in B, min B < j < max B < max of j's block}
  cov(j) = #{B : j not in B, min B < j and j < max of j's block < max B}

j is an exclusive record iff it is an opener or insider with ne(j)=0,
and a block record iff it is an opener or insider with cov(j)=0."""

_ELEMENT_CLASSES = ("opener", "closer", "insider", "singleton")


def _profile(cls, cr, ne, qne, ov, cov):
    name = _ELEMENT_CLASSES[cls]
    if name in ("opener", "insider"):
        return SPIndexProfile(name, cr, ne, qne, ov, cov, ne == 0, cov == 0)
    return SPIndexProfile(name, cr, ne, qne, ov, cov, None, None)


class SPStatTotals:
    """All whole-partition statistic totals."""

    __slots__ = ("n", "blocks", "m1", "mge2",
                 "crop", "crin", "neop", "nein", "cr", "ne", "psne",
                 "ov", "cov", "ovin", "covin", "pscov",
                 "erecop", "erecin", "nerecop", "nerecin", "erec",
                 "brecop", "brecin", "nbrecop", "nbrecin", "brec",
                 "lb", "ls", "lsprime", "rb", "rs",
                 "iota", "iota_prime", "cc")

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def _sp_totals(profiles, lb, ls, rb, rs, iota, cc):
    """Totals from the element profiles (in any order) and the counts of
    _sp_walk."""
    t = SPStatTotals()
    t.n = len(profiles)
    t.m1 = t.mge2 = 0
    t.crop = t.crin = t.neop = t.nein = t.psne = 0
    t.ov = t.cov = t.ovin = t.covin = 0
    t.erecop = t.erecin = t.nerecop = t.nerecin = 0
    t.brecop = t.brecin = t.nbrecop = t.nbrecin = 0
    for p in profiles:
        if p.element_class == "opener":
            t.mge2 += 1
            t.crop += p.cr
            t.neop += p.ne
            t.ov += p.ov
            t.cov += p.cov
            if p.erec_flag:
                t.erecop += 1
            else:
                t.nerecop += 1
            if p.brec_flag:
                t.brecop += 1
            else:
                t.nbrecop += 1
        elif p.element_class == "insider":
            t.crin += p.cr
            t.nein += p.ne
            t.ovin += p.ov
            t.covin += p.cov
            if p.erec_flag:
                t.erecin += 1
            else:
                t.nerecin += 1
            if p.brec_flag:
                t.brecin += 1
            else:
                t.nbrecin += 1
        elif p.element_class == "singleton":
            t.m1 += 1
            t.psne += p.qne
    t.blocks = t.m1 + t.mge2
    t.cr = t.crop + t.crin
    t.ne = t.neop + t.nein
    t.pscov = t.psne
    t.erec = t.erecop + t.erecin
    t.brec = t.brecop + t.brecin
    t.lb = lb
    t.ls = ls
    t.lsprime = ls - (t.blocks * (t.blocks - 1)) // 2
    t.rb = rb
    t.rs = rs
    t.iota = iota
    t.iota_prime = iota - (t.blocks * (t.blocks - 1)) // 2
    t.cc = cc
    return t


# ---------------------------------------------------------------------------
# Master weights

def _sp_master(variant):
    """The master weight of `variant`: a product over elements of a/b/d/e
    indeterminates.

    Closers always get b[qne] and singletons e[qne].  Openers get
    a[cr,ne] (variants 1 and 4) or a[ov,cov] (variants 2 and 3); insiders
    get d[cr,ne] (variants 1 and 3) or d[ov,cov] (variants 2 and 4).
    """
    op_ovcov = variant in (2, 3)
    in_ovcov = variant in (2, 4)

    def weight(profiles, totals):
        pairs = []
        for p in profiles:
            cls = p.element_class
            if cls == "opener":
                v = ("a", p.ov, p.cov) if op_ovcov else ("a", p.cr, p.ne)
            elif cls == "closer":
                v = ("b", p.qne)
            elif cls == "insider":
                v = ("d", p.ov, p.cov) if in_ovcov else ("d", p.cr, p.ne)
            else:
                v = ("e", p.qne)
            pairs.append((v, 1))
        return monomial(pairs)
    return factors(weight)


# ---------------------------------------------------------------------------
# Named weight maps.  Each maps (profiles, totals) to a Monomial.

def _w_block_count(profiles, t):
    return monomial([("x", t.blocks)])


def _w_three_var(profiles, t):
    # nerecop + nerecin is n - blocks - erec: one closer per block of 2+
    return monomial([("x", t.blocks), ("y", t.erec),
                     ("v", t.nerecop + t.nerecin)])


def _six_var_pairs(t):
    return [("x1", t.m1), ("x2", t.mge2),
            ("y1", t.erecin), ("y2", t.erecop),
            ("v1", t.nerecin), ("v2", t.nerecop)]


def _w_six_var(profiles, t):
    return monomial(_six_var_pairs(t))


def _w_pq_eleven(profiles, t):
    return monomial(_six_var_pairs(t)
                    + [("p1", t.crin), ("p2", t.crop),
                       ("q1", t.nein), ("q2", t.neop), ("r", t.psne)])


def _w_ovcov_eleven(profiles, t):
    return monomial([("x1", t.m1), ("x2", t.mge2),
                     ("y1", t.brecin), ("y2", t.brecop),
                     ("v1", t.nbrecin), ("v2", t.nbrecop),
                     ("p1", t.ovin), ("p2", t.ov),
                     ("q1", t.covin), ("q2", t.cov), ("r", t.pscov)])


def _w_mixed_three(profiles, t):
    # insiders by crossings/nestings/exclusive records,
    # openers by overlaps/coverings/block records
    return monomial([("x1", t.m1), ("x2", t.mge2),
                     ("y1", t.erecin), ("y2", t.brecop),
                     ("v1", t.nerecin), ("v2", t.nbrecop),
                     ("p1", t.crin), ("p2", t.ov),
                     ("q1", t.nein), ("q2", t.cov), ("r", t.psne)])


def _w_mixed_four(profiles, t):
    # openers by crossings/nestings/exclusive records,
    # insiders by overlaps/coverings/block records
    return monomial([("x1", t.m1), ("x2", t.mge2),
                     ("y1", t.brecin), ("y2", t.erecop),
                     ("v1", t.nbrecin), ("v2", t.nerecop),
                     ("p1", t.ovin), ("p2", t.crop),
                     ("q1", t.covin), ("q2", t.neop), ("r", t.psne)])


def _w_x_lb(profiles, t):
    return monomial([("x", t.blocks), ("q", t.lb)])


def _w_x_ls(profiles, t):
    return monomial([("x", t.blocks), ("q", t.ls)])


def _w_x_lsprime(profiles, t):
    return monomial([("x", t.blocks), ("q", t.lsprime)])


def _w_x_rb(profiles, t):
    return monomial([("x", t.blocks), ("q", t.rb)])


def _w_x_rs(profiles, t):
    return monomial([("x", t.blocks), ("q", t.rs)])


def _w_lb_ls(profiles, t):
    return monomial([("x", t.blocks), ("a", t.lb), ("b", t.ls)])


def _w_rs_rb(profiles, t):
    return monomial([("x", t.blocks), ("a", t.rs), ("b", t.rb)])


def _w_x_iota(profiles, t):
    return monomial([("x", t.blocks), ("q", t.iota)])


def _w_x_iota_prime(profiles, t):
    return monomial([("x", t.blocks), ("q", t.iota_prime)])


SP_WEIGHTS = {
    "unit": unit_weight,
    "block-count": factors(_w_block_count),
    "three-var": factors(_w_three_var),
    "six-var": factors(_w_six_var),
    "pq-eleven": factors(_w_pq_eleven),
    "ovcov-eleven": factors(_w_ovcov_eleven),
    "mixed-three": factors(_w_mixed_three),
    "mixed-four": factors(_w_mixed_four),
    "master1": _sp_master(1),
    "master2": _sp_master(2),
    "master3": _sp_master(3),
    "master4": _sp_master(4),
    "x-lb": factors(_w_x_lb),
    "x-ls": factors(_w_x_ls),
    "x-lsprime": _w_x_lsprime,  # ls - blocks(blocks - 1)/2 does not factor
    "x-rb": factors(_w_x_rb),
    "x-rs": factors(_w_x_rs),
    "lb-ls": factors(_w_lb_ls),
    "rs-rb": factors(_w_rs_rb),
    "x-iota": factors(_w_x_iota),
    "x-iota-prime": _w_x_iota_prime,  # nor iota - blocks(blocks - 1)/2
    "zeta-cc": zeta_cc_weight,
}


# ---------------------------------------------------------------------------
# Enumeration

def iter_set_partitions(n):
    """The partitions of [n] in the lexicographic order of their
    restricted-growth words: element j joins each block in the order of
    the blocks' minima, then starts a block of its own."""
    blocks = []

    def grow(j):
        if j > n:
            yield SetPartition(blocks)
            return
        for b in blocks:
            b.append(j)
            yield from grow(j + 1)
            b.pop()
        blocks.append([j])
        yield from grow(j + 1)
        blocks.pop()
    return grow(1)


def _sp_path(pi):
    """The choices of _sp_walk that grow pi, one per element, as the
    step's (single, opener, ranks, inside, close): a singleton, an opener,
    or an insider or the closer of the open block at rank r, ranks (r,)."""
    block_of = {e: b for b in pi.blocks for e in b}
    opens = []  # the open blocks, ordered by their last element
    path = []
    for j in range(1, pi.n + 1):
        b = block_of[j]
        if j == b[0]:
            path.append((len(b) == 1, len(b) > 1, (), False, False))
        else:
            r = opens.index(b)
            del opens[r]
            path.append((False, False, (r,), j != b[-1], j == b[-1]))
        if j != b[-1]:
            opens.append(b)
    return path


def _sp_walk(n, leaf, path=None, prune=None):
    """The walk of `walk_tally` over the partitions of [n], grown element
    by element.  Element j is a singleton, the opener of a new block, or
    an insider or the closer of the open block at rank r, the open blocks
    ordered by their last element; a placement is made only if the blocks
    then open still fit in the elements left.  On a path, j makes the one
    choice path[j - 1] of _sp_path.  Blocks are labelled 0, 1, ... in
    the order of their minima.

    The counts are (lb, ls, rb, rs, iota, cc), the Wachs-White,
    intertwining and component totals, which no element profile gives.
    A record is [class, cr, ne, qne, ov, cov], with the class an index
    into _ELEMENT_CLASSES; each is finished when its element's block gains
    its next element or closes, so the records come in closing order.

    qne(j) is the number of other open blocks.  When j joins the block
    whose last element is p, the open blocks with a smaller last element
    nest over the arc (p, j): ne(p) = r and cr(p) = qne(p) - r.  When the
    block closes, cov(e) of each of its openers and insiders e counts the
    blocks still open whose minimum is below e, and ov(e) = qne(e) -
    cov(e).  lb gains, at j joining a block, the blocks started after it;
    ls gains each element's label; a closing block adds to rb the earlier
    elements with a smaller label and to rs those with a larger one; iota
    gains, at j, the blocks whose last element comes after the last
    element of j's block (every block, if j starts one); cc counts the
    elements after which no block is open.

    With a `prune`, a predicate on one record, the walk skips a singleton
    whose record fails it, and a closer unless its record and those its
    block finishes with it all pass."""
    record = bytes if path is None else list
    opens = []  # (label, min, last, qne(last), class(last), pending) each
    done = []  # the records of the finished elements
    sizes = [0] * n  # elements placed so far, per label
    closed = [0] * (n + 1)  # closed[i]: blocks closed at elements <= i

    def step(j, started, lb, ls, rb, rs, iota, cc):
        if j > n:
            leaf((lb, ls, rb, rs, iota, cc), done)
            return
        count = len(opens)
        left = n - j
        before = closed[j - 1]
        if path is None:
            single = inside = count <= left
            opener, ranks, close = count < left, range(count), True
        else:
            single, opener, ranks, inside, close = path[j - 1]
        # a new block gets the label `started`
        if single:
            done.append(record((3, 0, 0, count, 0, 0)))
            if prune is None or prune(done[-1]):
                closed[j] = before + 1
                sizes[started] += 1
                step(j + 1, started + 1, lb, ls + started, rb + j - 1, rs,
                     iota + started, cc + (count == 0))
                sizes[started] -= 1
            done.pop()
        if opener:
            closed[j] = before
            sizes[started] += 1
            opens.append((started, j, j, count, 0, ()))
            step(j + 1, started + 1, lb, ls + started, rb, rs,
                 iota + started, cc)
            opens.pop()
            sizes[started] -= 1
        for r in ranks:
            block = opens.pop(r)
            label, first, p, qne, cls, pending = block
            pending += ((cls, qne - r, r, qne, p),)
            lb_j = lb + started - 1 - label
            iota_j = iota + count - 1 - r + before - closed[p]
            smaller = sum(sizes[:label])
            larger = j - 1 - smaller - sizes[label]
            sizes[label] += 1
            if inside:
                closed[j] = before
                opens.append((label, first, j, count - 1, 2, pending))
                step(j + 1, started, lb_j, ls + label, rb, rs, iota_j, cc)
                opens.pop()
            if close:
                closed[j] = before + 1
                mark = len(done)
                done.append(record((1, 0, 0, count - 1, 0, 0)))
                for e_cls, cr, ne, e_qne, e in pending:
                    cov = sum(1 for other in opens if other[1] < e)
                    done.append(record((e_cls, cr, ne, e_qne, e_qne - cov,
                                        cov)))
                if prune is None or all(map(prune, done[mark:])):
                    step(j + 1, started, lb_j, ls + label, rb + smaller,
                         rs + larger, iota_j, cc + (count == 1))
                del done[mark:]
            sizes[label] -= 1
            opens.insert(r, block)

    step(1, 0, 0, 0, 0, 0, 0, 0)


SP_FAMILIES = {
    "all": None,
    "indecomposable": is_indecomposable,
}


def _sp_family(family):
    """Family filter for an id in SP_FAMILIES or "blocks:k", with k in
    ASCII digits as str(k) writes it: one id per family."""
    if isinstance(family, str) and family.startswith("blocks:"):
        try:
            block_count = ascii_int(family[len("blocks:"):])
            if block_count < 0 or family != "blocks:%d" % block_count:
                raise ValueError(family)
        except ValueError:
            raise UnknownWeightMap(family) from None
        return lambda profiles, t: t.blocks == block_count
    return lookup(SP_FAMILIES, family)


# ls, rb and iota reach n(n-1)/2, which is 253 at n = 23
SETPART = ObjectKind("setpart", iter_set_partitions, walk_tally(_sp_walk),
                     walk_kernel(_sp_walk, _sp_path), 6, 6, _profile,
                     _sp_totals, SP_WEIGHTS, _sp_family, 23)


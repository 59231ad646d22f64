"""Set-partition statistics: opener/closer/insider/singleton classes,
per-element crossing/nesting and overlap/covering counts, exclusive and
block records, Wachs-White and intertwining statistics, master weights,
reversal, and weighted enumeration via restricted-growth words.

Elements are 1-based; the arc graph joins consecutive elements of a block.
"""

from collections import Counter, namedtuple

from .mpoly import monomial
from .permstats import ObjectKind, UnknownWeightMap, factors, \
    is_indecomposable, lookup, pack, unit_weight, zeta_cc_weight


class NotAPartition(ValueError):
    """The blocks do not partition 1..n."""


class SetPartition:
    """A partition of [n] into disjoint nonempty blocks.

    Blocks are stored sorted by their minimum; arcs join consecutive
    elements within each block.
    """

    __slots__ = ("n", "blocks", "arcs")

    def __init__(self, blocks, _trusted=False):
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks),
                              key=lambda b: b[0] if b else 0))
        n = sum(len(b) for b in blocks)
        if not _trusted:
            seen = set()
            for b in blocks:
                if not b:
                    raise NotAPartition("empty block")
                for e in b:
                    if not isinstance(e, int) or e < 1 or e > n or e in seen:
                        raise NotAPartition(
                            "blocks do not partition 1..%d" % n)
                    seen.add(e)
            if len(seen) != n:
                raise NotAPartition("blocks do not partition 1..%d" % n)
        arcs = []
        for b in blocks:
            for i in range(len(b) - 1):
                arcs.append((b[i], b[i + 1]))
        self.n = n
        self.blocks = blocks
        self.arcs = tuple(arcs)

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        return "SetPartition(%r)" % ([list(b) for b in self.blocks],)


def setpart_from_blocks(blocks):
    return SetPartition(blocks)


def sp_reverse(pi):
    """Image of the partition under i -> n+1-i."""
    n = pi.n
    return SetPartition([[n + 1 - e for e in b] for b in pi.blocks],
                        _trusted=True)


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


def _sp_kernel(pi):
    """(counts, records) of a partition.  counts is (lb, ls, rb, rs, iota,
    cc), the Wachs-White, intertwining and component totals, which no
    element profile gives (see sp_block_pair_counts).  records are the
    per-element profile records of sp_records."""
    return (*sp_block_pair_counts(pi.blocks), len(sp_dividers(pi))), \
        sp_records(pi)


def sp_records(pi):
    """The per-element profile records in element order, as small-int
    lists [class, cr, ne, qne, ov, cov] with the class an index into
    _ELEMENT_CLASSES."""
    n = pi.n
    arcs = pi.arcs
    spans = [(b[0], b[-1]) for b in pi.blocks]
    block_of = [0] * (n + 1)
    nxt = [0] * (n + 1)  # next element in the block, 0 if largest
    for bi, b in enumerate(pi.blocks):
        for i, e in enumerate(b):
            block_of[e] = bi
            if i + 1 < len(b):
                nxt[e] = b[i + 1]
    records = []
    for j in range(1, n + 1):
        b = pi.blocks[block_of[j]]
        if len(b) == 1:
            cls = 3
        elif j == b[0]:
            cls = 0
        elif j == b[-1]:
            cls = 1
        else:
            cls = 2
        cr = ne = qne = 0
        k = nxt[j]
        for (i, l) in arcs:
            if i < j < l:
                qne += 1
            if k:
                if i < j < l < k:
                    cr += 1
                elif i < j and l > k:
                    ne += 1
        ov = cov = 0
        mx = spans[block_of[j]][1]
        for bi, (lo, hi) in enumerate(spans):
            if bi == block_of[j]:
                continue
            if lo < j < hi < mx:
                ov += 1
            elif lo < j < mx < hi:
                cov += 1
        records.append([cls, cr, ne, qne, ov, cov])
    return records


def sp_block_pair_counts(bl):
    """(lb, ls, rb, rs, iota): the Wachs-White statistics and the
    intertwining number, over the ordered pairs of blocks (by minimum)."""
    lb = ls = rb = rs = iota = 0
    for i1 in range(len(bl)):
        for i2 in range(i1 + 1, len(bl)):
            b1, b2 = bl[i1], bl[i2]  # min b1 < min b2
            lb += sum(1 for k in b1 if k > b2[0])
            ls += len(b2)
            rb += sum(1 for k in b1 if k < b2[-1])
            rs += sum(1 for k in b2 if k < b1[-1])
            iota += _intertwining(b1, b2)
    return lb, ls, rb, rs, iota


def _intertwining(b1, b2):
    """The pairs (b,c) from the two blocks that are adjacent in the sorted
    union of the two blocks: the changes of block along a linear merge."""
    i = j = changes = 0
    side = b1[0] > b2[0]
    while i < len(b1) and j < len(b2):
        here = b1[i] > b2[j]
        if here:
            j += 1
        else:
            i += 1
        changes += here != side
        side = here
    # what is left comes from the block that is not exhausted
    return changes + (side != (j < len(b2)))


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
    _sp_kernel."""
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


def sp_dividers(pi):
    """Indices i such that [1,i] is a union of blocks."""
    block_max = [0] * (pi.n + 1)
    for b in pi.blocks:
        for e in b:
            block_max[e] = b[-1]
    out = []
    run = 0
    for i in range(1, pi.n + 1):
        run = max(run, block_max[i])
        if run == i:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# Master weights

def _sp_master(variant):
    op_ovcov = variant in (2, 3)
    in_ovcov = variant in (2, 4)

    def weight(profiles, totals=None):
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


_SP_MASTER = {variant: _sp_master(variant) for variant in (1, 2, 3, 4)}


def sp_master_weight(profiles, variant=1):
    """Product over elements of a/b/d/e indeterminates.

    Closers always get b[qne] and singletons e[qne].  Openers get
    a[cr,ne] (variants 1 and 4) or a[ov,cov] (variants 2 and 3); insiders
    get d[cr,ne] (variants 1 and 3) or d[ov,cov] (variants 2 and 4).
    """
    if variant not in (1, 2, 3, 4):
        raise ValueError("variant must be 1, 2, 3 or 4")
    return _SP_MASTER[variant](profiles)


# ---------------------------------------------------------------------------
# Named weight maps.  Each maps (profiles, totals) to a Monomial.

def _w_block_count(profiles, t):
    return monomial([("x", t.blocks)])


def _w_three_var(profiles, t):
    return monomial([("x", t.blocks), ("y", t.erec),
                     ("v", t.n - t.blocks - t.erec)])


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
    "three-var": _w_three_var,  # v^(n - blocks - erec) does not factor
    "six-var": factors(_w_six_var),
    "pq-eleven": factors(_w_pq_eleven),
    "ovcov-eleven": factors(_w_ovcov_eleven),
    "mixed-three": factors(_w_mixed_three),
    "mixed-four": factors(_w_mixed_four),
    "master1": _SP_MASTER[1],
    "master2": _SP_MASTER[2],
    "master3": _SP_MASTER[3],
    "master4": _SP_MASTER[4],
    "x-lb": factors(_w_x_lb),
    "x-ls": factors(_w_x_ls),
    "x-lsprime": _w_x_lsprime,  # nor does ls - blocks(blocks - 1)/2
    "x-rb": factors(_w_x_rb),
    "x-rs": factors(_w_x_rs),
    "lb-ls": factors(_w_lb_ls),
    "rs-rb": factors(_w_rs_rb),
    "x-iota": factors(_w_x_iota),
    "x-iota-prime": _w_x_iota_prime,  # nor iota - blocks(blocks - 1)/2
    "zeta-cc": zeta_cc_weight,
}


# ---------------------------------------------------------------------------
# Enumeration via restricted-growth words

def iter_rgs(n):
    """Restricted-growth words of length n in lexicographic order."""
    if n == 0:
        yield ()
        return
    w = [0] * n
    mx = [0] * n  # mx[i] = max(w[0..i])
    i = n - 1
    yield tuple(w)
    while True:
        # advance position i, carrying leftward
        i = n - 1
        while i > 0 and w[i] >= mx[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        w[i] += 1
        mx[i] = max(mx[i - 1], w[i])
        for j in range(i + 1, n):
            w[j] = 0
            mx[j] = mx[j - 1]
        yield tuple(w)


def setpart_from_rgs(word):
    """Partition whose block labels are the restricted-growth word."""
    blocks = {}
    for i, r in enumerate(word, start=1):
        blocks.setdefault(r, []).append(i)
    return SetPartition(blocks.values(), _trusted=True)


def iter_set_partitions(n):
    for word in iter_rgs(n):
        yield setpart_from_rgs(word)


def _sp_tally(n):
    """Signature histogram of the partitions of [n], grown element by
    element.  Element j is a singleton, the opener of a new block, or an
    insider or the closer of the open block at rank r, the open blocks
    ordered by their last element; a placement is made only if the blocks
    then open still fit in the elements left.  Blocks are labelled 0, 1,
    ... by their minima, as in the restricted-growth word.

    qne(j) is the number of other open blocks.  When j joins the block
    whose last element is p, the open blocks with a smaller last element
    nest over the arc (p, j): ne(p) = r and cr(p) = qne(p) - r.  When the
    block closes, cov(e) of each of its openers and insiders e counts the
    blocks still open whose minimum is below e, and ov(e) = qne(e) -
    cov(e).  The counts of _sp_kernel: lb gains, at j joining a block, the
    blocks started after it; ls gains each element's label; a closing block
    adds to rb the earlier elements with a smaller label and to rs those
    with a larger one; iota gains, at j, the blocks whose last element
    comes after the last element of j's block (every block, if j starts
    one); cc counts the elements after which no block is open."""
    hist = Counter()
    opens = []  # (label, min, last, qne(last), class(last), pending) each
    done = []  # the records of the finished elements, packed
    sizes = [0] * n  # elements placed so far, per label
    closed = [0] * (n + 1)  # closed[i]: blocks closed at elements <= i

    def step(j, started, lb, ls, rb, rs, iota, cc):
        if j > n:
            key = pack((lb, ls, rb, rs, iota, cc), done)
            hist[key] = hist.get(key, 0) + 1
            return
        count = len(opens)
        left = n - j
        before = closed[j - 1]
        # a new block gets the label `started`
        if count <= left:  # singleton
            closed[j] = before + 1
            sizes[started] += 1
            done.append(bytes((3, 0, 0, count, 0, 0)))
            step(j + 1, started + 1, lb, ls + started, rb + j - 1, rs,
                 iota + started, cc + (count == 0))
            done.pop()
            sizes[started] -= 1
        if count < left:  # opener
            closed[j] = before
            sizes[started] += 1
            opens.append((started, j, j, count, 0, ()))
            step(j + 1, started + 1, lb, ls + started, rb, rs,
                 iota + started, cc)
            opens.pop()
            sizes[started] -= 1
        for r in range(count):
            block = opens.pop(r)
            label, first, p, qne, cls, pending = block
            pending += ((cls, qne - r, r, qne, p),)
            lb_j = lb + started - 1 - label
            iota_j = iota + count - 1 - r + before - closed[p]
            smaller = sum(sizes[:label])
            larger = j - 1 - smaller - sizes[label]
            sizes[label] += 1
            if count <= left:  # insider
                closed[j] = before
                opens.append((label, first, j, count - 1, 2, pending))
                step(j + 1, started, lb_j, ls + label, rb, rs, iota_j, cc)
                opens.pop()
            # closer
            closed[j] = before + 1
            mark = len(done)
            done.append(bytes((1, 0, 0, count - 1, 0, 0)))
            for e_cls, cr, ne, e_qne, e in pending:
                cov = sum(1 for other in opens if other[1] < e)
                done.append(bytes((e_cls, cr, ne, e_qne, e_qne - cov, cov)))
            step(j + 1, started, lb_j, ls + label, rb + smaller, rs + larger,
                 iota_j, cc + (count == 1))
            del done[mark:]
            sizes[label] -= 1
            opens.insert(r, block)

    step(1, 0, 0, 0, 0, 0, 0, 0)
    return hist


SP_FAMILIES = {
    "all": None,
    "indecomposable": is_indecomposable,
}


def _sp_family(family):
    """Family filter for an id in SP_FAMILIES or "blocks:k"."""
    if isinstance(family, str) and family.startswith("blocks:"):
        try:
            block_count = int(family.split(":", 1)[1])
        except ValueError:
            raise UnknownWeightMap(family) from None
        return lambda profiles, t: t.blocks == block_count
    return lookup(SP_FAMILIES, family)


# ls, rb and iota reach n(n-1)/2, which is 253 at n = 23
SETPART = ObjectKind("setpart", iter_set_partitions, _sp_tally, _sp_kernel, 6,
                     6, _profile, _sp_totals, SP_WEIGHTS, _sp_family, 23)


"""Permutation statistics: record and cycle classifications, per-index
crossing/nesting counts, fixed-point levels, inversions, connected
components, master weights, and weighted enumeration over permutation
families.  Also the enumeration core that all three object types share:
a signature histogram per object set, laid out once, and weighted by each
map through the keys it is cut into.

A permutation is stored in one-line notation.  Indices are 1-based.
"""

from array import array
from collections import Counter, namedtuple
from functools import cached_property, partial
from itertools import chain, count, pairwise, permutations as _itperms, \
    repeat, starmap
from operator import itemgetter, mul, rshift, xor
import sys

from .mpoly import Monomial, is_int, monomial, sum_of_products


class NotABijection(ValueError):
    """The word is not a permutation of 1..n."""


class UnknownWeightMap(KeyError):
    """No weight map registered under that id."""


class SizeTooLarge(ValueError):
    """A field of the size's signatures would not fit in a byte."""


def is_one_to_n(elements):
    """Whether `elements` are the ints 1..len(elements), each once: the one
    element check of `Permutation`, `SetPartition` and `Matching`."""
    return all(map(is_int, elements)) \
        and sorted(elements) == list(range(1, len(elements) + 1))


def lookup(table, key):
    """The weight map or family filter registered under `key` in `table`.
    A callable `key` is returned as it is: a caller's own weight map."""
    if callable(key):
        return key
    try:
        return table[key]
    except KeyError:
        raise UnknownWeightMap(key) from None


ObjectKind = namedtuple(
    "ObjectKind",
    "name objects tally kernel ncounts width profile totals weights family "
    "max_n")
ObjectKind.__doc__ = """One object type as the enumeration core sees it.

`objects(n)` yields the objects of size n.  `tally(n)` returns the
signature histogram of all of them as a Counter, the same as `signature`
on each object of `objects(n)`: the objects are grown left to right,
objects with a common prefix share its work, and no object is built.
`tally(n, prune)` grows only the objects whose records all pass the
predicate `prune`: the walk skips each choice that finishes a failing
record.  `kernel(x)` runs the same walk down object x's choices alone
and returns (counts, records): the `ncounts` totals that no profile
gives, and the profile records, one per index, element or arc in the
order the walk keeps them, each a list of `width` ints.  `profile(*record)`
builds the profile a weight map reads, and `totals(profiles, *counts)`
the totals object, whose cc (connected components) `zeta_cc_weight`
reads.
`weights` maps weight-map ids to weight maps (profiles, totals) ->
Monomial, most of them marked by `factors`, and `family(key)` resolves a
family id to its filter (profiles, totals) -> bool, or None to keep every
object; a filter marked by `per_record` carries its `prune`.  `max_n`
is the largest size whose signature fields fit in bytes.
"""


def walk_tally(walk):
    """The `tally` of an object type whose walk is `walk`.

    `walk(n, leaf, path=None, prune=None)` grows every object of size n,
    or with a `path` only the object that makes those choices, and calls
    `leaf(counts, records)` once per object; the records are bytes in a
    full walk and lists of ints on a path, and the walk reuses the list.
    With a `prune`, a predicate on one record, the walk skips every choice
    that finishes a record failing it.  The tally's leaf packs each
    object's signature and counts it, and `tally(n, prune)` counts only
    the objects whose records all pass `prune`."""
    def tally(n, prune=None):
        hist = Counter()

        def leaf(counts, records):
            key = pack(counts, records)
            hist[key] = hist.get(key, 0) + 1
        walk(n, leaf, prune=prune)
        return hist
    return tally


def walk_kernel(walk, path):
    """The `kernel` of an object type whose walk is `walk`: object x's
    (counts, records) from the walk down `path(x)`, x's choices.  The walk
    recurses once per choice, so the run lifts the recursion limit by the
    path's length and restores it after."""
    def kernel(x):
        choices = path(x)
        out = []
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + len(choices))
        try:
            walk(x.n, lambda counts, records:
                 out.append((counts, list(records))), choices)
        finally:
            sys.setrecursionlimit(limit)
        return out[0]
    return kernel


def pack(counts, records):
    """Signature bytes: the records sorted, each record a bytes object of
    `width` fields, then the counts (every field is below 256 at sizes up
    to the kind's `max_n`).  With the records first, signatures sort by
    their records.  This is the one writer of the format, for `signature`
    and `walk_tally`; `decode` is the one reader."""
    return b"".join(sorted(records)) + bytes(counts)


def signature(kind, x):
    """Signature of object x: the compact hashable key that `histogram`
    tallies, packed from the kernel's counts and records."""
    counts, records = kind.kernel(x)
    return pack(counts, map(bytes, records))


def decode(kind, sig):
    """(profiles, totals) of a signature; the profiles come in record
    order, not index order."""
    cut = len(sig) - kind.ncounts
    fields = iter(sig[:cut])
    profiles = list(starmap(kind.profile, zip(*[fields] * kind.width)))
    return profiles, kind.totals(profiles, *sig[cut:])


def stat_totals(kind, x):
    """Every statistic total of object x, built from the kernel's records
    and counts without going through a signature, so no field limit
    applies."""
    counts, records = kind.kernel(x)
    return kind.totals(list(starmap(kind.profile, records)), *counts)


def histogram(kind, n, family="all", cache=None):
    """Signature histogram of the objects of size n in `family`: a Counter
    mapping each signature to the number of objects that have it.

    The "all" histogram is `kind.tally(n)`.  A family whose filter is
    marked by `per_record` (the permutation families "cycle_alternating"
    and "avoid321") is grown directly by `kind.tally(n, prune)`, and no
    "all" histogram is made for it; every other family's histogram is the
    "all" histogram restricted signature by signature.
    With a `cache` dict, every histogram is kept, in its `Layout`, under
    (kind.name, n, family) and later requests for that set read it.  Sizes
    above `kind.max_n` raise SizeTooLarge.
    """
    return _laid_out(kind, n, family, cache).hist


def _laid_out(kind, n, family, cache):
    """The Layout of `histogram`'s histogram: the cached one, or a new one
    (kept in `cache`, if there is one)."""
    if n > kind.max_n:
        raise SizeTooLarge("%s signatures hold sizes up to %d, not %d"
                           % (kind.name, kind.max_n, n))
    key = (kind.name, n, family)
    layout = None if cache is None else cache.get(key)
    if layout is None:
        keep = kind.family(family)
        prune = getattr(keep, "prune", None)
        if keep is None or prune is not None:
            hist = kind.tally(n, prune)
        else:
            hist = Counter({sig: count for sig, count
                            in histogram(kind, n, "all", cache).items()
                            if keep(*decode(kind, sig))})
        layout = Layout(kind, hist)
        if cache is not None:
            cache[key] = layout
    return layout


def factors(weight):
    """Mark the weight map `weight` as one that factors: its Monomial is
    the product of the map on each profile record alone (every count 0)
    and on each count alone (no records).  `Layout.weigh` then weighs
    each distinct record and count value once, straight from the
    signature bytes.  The mark, `weight.factors`, is the map's own memo:
    the Monomial of each key it has weighed, under (kind name, zeta, key),
    so the map runs once per distinct key for as long as it lives, and it
    must be pure.  Returns `weight`."""
    weight.factors = {}
    return weight


def per_record(keep, prune):
    """Mark the family filter `keep` as one that means "every record
    passes `prune`", a predicate on one record as the tally's walk builds
    it (the fields of one signature record).  `histogram` then grows the
    family with `kind.tally(n, prune)` instead of filtering the "all"
    histogram.  Returns `keep`."""
    keep.prune = prune
    return keep


Tails = namedtuple("Tails", "tails projected")
Tails.__doc__ = """The distinct count tails of a histogram (the `ncounts`
bytes that end a signature), in the order the histogram first has them,
and per tail the summed count of the signatures that end in it."""

Trie = namedtuple("Trie", "shared ends ids tallies")
Trie.__doc__ = """The record trie of a histogram.  The signatures of each
size, in sorted order (that is, in the order of their records), are its
rows.  Row r shares its first `shared[r]` records with the row before it;
`ids[ends[r - 1]:ends[r]]` (from 0 for the first row) are the ids of its
other records and then of its tail, and `tallies[r]` is its count.  A
tail's id is its index in `Tails.tails`, and a record's is the number of
tails plus its index in `Layout.records`."""


def _count_tails(kind, hist):
    """The Tails of `hist`."""
    start = kind.ncounts
    projected = {}
    for sig, tally in hist.items():
        tail = sig[-start:]
        projected[tail] = projected.get(tail, 0) + tally
    return Tails(list(projected), list(projected.values()))


def _distinct_records(kind, hist):
    """The distinct records of `hist`, sorted: one scan of every record
    position of every size."""
    start, width = kind.ncounts, kind.width
    records = set()
    for size in set(map(len, hist)):
        group = [sig for sig in hist if len(sig) == size]
        for i in range(0, size - start, width):
            records.update(map(itemgetter(slice(i, i + width)), group))
    return sorted(records)


def _record_trie(kind, hist, tails, records):
    """The Trie of `hist`, whose Tails are `tails` and whose distinct
    records are `records`."""
    start, width = kind.ncounts, kind.width
    tail_id = dict(zip(tails.tails, count()))
    record_id = dict(zip(records, count(len(tail_id))))
    shared_of, ends, ids, tallies = array("B"), array("I"), array("I"), []
    for size in sorted(set(map(len, hist))):
        cut = size - start
        sigs = sorted(sig for sig in hist if len(sig) == size)
        # the leading records that a row shares with the row before: the
        # record part of the XOR of the two, read as ints, has its top bit
        # past them; the first row shares none
        ints = map(int.from_bytes, sigs, repeat("big"))
        head = int.from_bytes(sigs[0], "big") ^ 1 << 8 * size - 1
        top = map(int.bit_length, map(rshift, starmap(
            xor, pairwise(chain([head], ints))), repeat(8 * start)))
        by_top = [(8 * cut - b) // (8 * width) for b in range(8 * cut + 1)]
        shared = array("B", map(by_top.__getitem__, top))
        slices = [slice(i, i + width) for i in range(0, cut, width)]
        for sig, first in zip(sigs, shared):
            ids.extend(map(record_id.__getitem__,
                           map(sig.__getitem__, slices[first:])))
            ids.append(tail_id[sig[cut:]])
            ends.append(len(ids))
        shared_of.extend(shared)
        tallies.extend(map(hist.__getitem__, sigs))
    return Trie(shared_of, ends, ids, tallies)


class Layout:
    """A signature histogram `hist` of `kind`, with the part of weighing
    it that no weight map changes, built lazily and kept for the
    histogram's life: its `tails` (a Tails) and its distinct `records`
    when a map marked by `factors` first weighs it, and its record `trie`
    (a Trie) when such a map first weighs some record other than 1."""

    def __init__(self, kind, hist):
        self.kind = kind
        self.hist = hist

    @cached_property
    def tails(self):
        return _count_tails(self.kind, self.hist)

    @cached_property
    def records(self):
        return _distinct_records(self.kind, self.hist)

    @cached_property
    def trie(self):
        return _record_trie(self.kind, self.hist, self.tails, self.records)

    def weigh(self, weight, zeta=False):
        """Exact weighted sum over the histogram: the sum of count times
        weight(profiles, totals), a Monomial, times zeta^cc with `zeta`.
        The one enumeration loop.

        Each signature is cut into keys, each distinct key weighed once,
        and the products are summed as packed ints in one pass.  Every key
        is the signature it stands for, weighed through `decode`.  A map
        that is not marked by `factors` has the whole signature as its one
        key.  A map marked by `factors` has as keys each of the
        signature's `width`-byte records followed by zero counts, and each
        of its count fields alone, with no records; it weighs each through
        its memo, and a tail weighs the product of its count fields.  When
        every distinct record weighs 1, the records are not keys: each
        tail is weighed once, times the summed count of its signatures.
        Else the rows of the trie are summed, each reusing the product of
        the records it shares with the row before.
        """
        kind, hist = self.kind, self.hist
        start = kind.ncounts
        memo = getattr(weight, "factors", None)

        def factor(sig):
            profiles, totals = decode(kind, sig)
            m = weight(profiles, totals)
            if not isinstance(m, Monomial):
                raise TypeError("weight map %s returned %r, not a Monomial"
                                % (getattr(weight, "__name__", weight), m))
            return m * zeta_cc_weight(profiles, totals) if zeta else m

        if memo is None:  # the whole signature is the one key
            return sum_of_products(((0, (i,), count) for i, count
                                    in enumerate(hist.values())),
                                   list(map(factor, hist)))

        def weighed(sig):
            m = memo.get((kind.name, zeta, sig))
            if m is None:
                m = memo[kind.name, zeta, sig] = factor(sig)
            return m

        one = Monomial()
        counts = self.tails
        # each tail weighs the product of its count fields
        tails = [one] * len(counts.tails)
        zeros = bytes(start)
        for i in range(start):
            column = list(map(itemgetter(i), counts.tails))
            by_value = {v: weighed(zeros[:i] + bytes((v,)) + zeros[i + 1:])
                        for v in set(column)}
            if any(m != one for m in by_value.values()):
                tails = list(map(mul, tails,
                                 map(by_value.__getitem__, column)))
        if all(weighed(record + zeros) == one for record in self.records):
            # the records are no keys: weigh each tail once, and a tail
            # that weighs 1 is no key either
            return sum_of_products(
                ((0, () if m == one else (i,), total) for i, (m, total)
                 in enumerate(zip(tails, counts.projected))), tails)
        trie = self.trie
        codes = tails + [weighed(record + zeros) for record in self.records]
        return sum_of_products(zip(trie.shared, map(
            trie.ids.__getitem__, map(slice, chain([0], trie.ends),
                                      trie.ends)), trie.tallies), codes)


@factors
def unit_weight(profiles, totals):
    """The weight map "unit" of every object type: each object counts 1."""
    return Monomial()


@factors
def zeta_cc_weight(profiles, totals):
    """The weight map "zeta-cc" of every object type: zeta^cc."""
    return monomial([("zeta", totals.cc)])


def enumerate_polynomial(kind, n, family="all", weight="unit", zeta=False,
                         cache=None):
    """Exact weighted sum over the objects of size n in `family`: the
    histogram of `histogram`, weighted by `Layout.weigh`.  `weight` is a
    weight-map id of `kind` or a callable (profiles, totals) -> Monomial,
    which `factors` may mark."""
    weight = lookup(kind.weights, weight)
    return _laid_out(kind, n, family, cache).weigh(weight, zeta)


class Permutation:
    """A permutation of [n] with cached inverse (both 1-based tuples)."""

    __slots__ = ("n", "oneline", "inv_oneline")

    def __init__(self, oneline):
        oneline = tuple(oneline)
        n = len(oneline)
        if not is_one_to_n(oneline):
            raise NotABijection("%r is not a permutation of 1..%d"
                                % (oneline, n))
        inv = [0] * n
        for i, s in enumerate(oneline, start=1):
            inv[s - 1] = i
        self.n = n
        self.oneline = oneline
        self.inv_oneline = tuple(inv)

    def __call__(self, i):
        return self.oneline[i - 1]

    def inverse_at(self, i):
        return self.inv_oneline[i - 1]

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.oneline == other.oneline

    def __hash__(self):
        return hash(self.oneline)

    def __repr__(self):
        return "Permutation(%r)" % (list(self.oneline),)


IndexProfile = namedtuple(
    "IndexProfile", "cycle_class record_class ucross unest lcross lnest lev "
    "pred_unest")
IndexProfile.__doc__ = """Per-index classification and crossing/nesting
counts.  Counts that do not apply to the cycle class are 0; lev is None
except at fixed points and pred_unest is None except at cycle double rises.

Cycle classes: a fixed point has sigma(i) = i; otherwise i is a cycle
valley (both neighbors in the cycle are larger), cycle peak (both
smaller), cycle double rise (sigma^-1(i) < i < sigma(i)) or cycle double
fall (sigma(i) < i < sigma^-1(i)).

Record classes: i is a record when sigma(j) < sigma(i) for all j < i and
an antirecord when sigma(j) > sigma(i) for all j > i; erec/earec are the
exclusive versions, rar is both, nrar neither.

Per-index crossings/nestings count quadruplets with the distinguished
index in second position (upper) or third position (lower):
  ucross(j) = #{i < j : j < sigma(i) < sigma(j)}
  unest(j)  = #{i < j : j < sigma(j) < sigma(i)}
  lcross(k) = #{l > k : sigma(k) < sigma(l) < k}
  lnest(k)  = #{l > k : sigma(l) < sigma(k) < k}
lev(i) = #{j < i : sigma(j) > i} for fixed points i, and pred_unest(i)
is unest(sigma^-1(i)) for cycle double rises i."""

_CYCLE_CLASSES = ("cval", "cpeak", "cdrise", "cdfall", "fix")
_RECORD_CLASSES = ("rar", "erec", "earec", "nrar")
_CVAL, _CPEAK, _CDRISE, _CDFALL, _FIX = range(5)
_NRAR = _RECORD_CLASSES.index("nrar")


def _profile(code, x, y, z):
    cc = _CYCLE_CLASSES[code >> 2]
    rc = _RECORD_CLASSES[code & 3]
    if cc == "cval":
        return IndexProfile(cc, rc, x, y, 0, 0, None, None)
    if cc == "cdrise":
        return IndexProfile(cc, rc, x, y, 0, 0, None, z)
    if cc == "fix":
        return IndexProfile(cc, rc, 0, 0, 0, 0, x, None)
    return IndexProfile(cc, rc, 0, 0, x, y, None, None)


_TEN_WAY = ("ereccval", "ereccdrise", "eareccpeak", "eareccdfall", "rar",
            "nrcpeak", "nrcval", "nrcdrise", "nrcdfall", "nrfix")


class PermStatTotals:
    """All whole-permutation statistic totals."""

    __slots__ = ("n", "cyc", "exc", "aexc", "wex", "fix",
                 "rec", "arec", "erec", "earec", "rar", "nrar",
                 "cval", "cpeak", "cdrise", "cdfall",
                 "ten_way", "refined",
                 "ucross", "unest", "lcross", "lnest",
                 "ujoin", "ljoin", "psnest",
                 "fix_by_level", "inv", "cc")

    def to_dict(self):
        d = {k: getattr(self, k) for k in
             ("n", "cyc", "exc", "aexc", "wex", "fix",
              "rec", "arec", "erec", "earec", "rar", "nrar",
              "cval", "cpeak", "cdrise", "cdfall",
              "ucross", "unest", "lcross", "lnest",
              "ujoin", "ljoin", "psnest", "inv", "cc")}
        d.update(self.ten_way)
        d.update(self.refined)
        d["fix_by_level"] = {str(k): v
                             for k, v in sorted(self.fix_by_level.items())}
        return d


def _perm_totals(profiles, cyc, inv, components):
    """Totals from the index profiles (in any order), cyc, inv and cc."""
    t = PermStatTotals()
    t.n = len(profiles)
    t.cyc = cyc
    t.inv = inv
    t.cc = components
    counts = {k: 0 for k in ("erec", "earec", "rar", "nrar",
                             "cval", "cpeak", "cdrise", "cdfall", "fix")}
    ten = {k: 0 for k in _TEN_WAY}
    refined = {k: 0 for k in ("ucrosscval", "ucrosscdrise",
                              "unestcval", "unestcdrise",
                              "lcrosscpeak", "lcrosscdfall",
                              "lnestcpeak", "lnestcdfall")}
    fix_by_level = {}
    psnest = 0
    for p in profiles:
        rc, cc = p.record_class, p.cycle_class
        counts[rc] += 1
        counts[cc] += 1
        if rc == "rar":
            ten["rar"] += 1
        elif rc == "nrar":
            ten["nrfix" if cc == "fix" else "nr" + cc] += 1
        elif rc == "erec":
            ten["erec" + cc] += 1
        else:
            ten["earec" + cc] += 1
        if cc in ("cval", "cdrise"):
            refined["ucross" + cc] += p.ucross
            refined["unest" + cc] += p.unest
        elif cc in ("cpeak", "cdfall"):
            refined["lcross" + cc] += p.lcross
            refined["lnest" + cc] += p.lnest
        else:
            fix_by_level[p.lev] = fix_by_level.get(p.lev, 0) + 1
            psnest += p.lev
    t.erec, t.earec, t.rar, t.nrar = (counts["erec"], counts["earec"],
                                      counts["rar"], counts["nrar"])
    t.rec = t.erec + t.rar
    t.arec = t.earec + t.rar
    t.cval, t.cpeak = counts["cval"], counts["cpeak"]
    t.cdrise, t.cdfall = counts["cdrise"], counts["cdfall"]
    t.fix = counts["fix"]
    t.exc = t.cval + t.cdrise
    t.aexc = t.cpeak + t.cdfall
    t.wex = t.exc + t.fix
    t.ten_way = ten
    t.refined = refined
    t.ucross = refined["ucrosscval"] + refined["ucrosscdrise"]
    t.unest = refined["unestcval"] + refined["unestcdrise"]
    t.lcross = refined["lcrosscpeak"] + refined["lcrosscdfall"]
    t.lnest = refined["lnestcpeak"] + refined["lnestcdfall"]
    t.ujoin = t.cdrise
    t.ljoin = t.cdfall
    t.psnest = psnest
    t.fix_by_level = fix_by_level
    return t


# ---------------------------------------------------------------------------
# Master weights

def _perm_master_indices(profiles, second):
    """The indeterminate of each index in the first or second master
    weight, as a family tuple for `monomial`."""
    for p in profiles:
        cc = p.cycle_class
        if cc == "cval":
            yield ("a", p.ucross + p.unest) if second \
                else ("a", p.ucross, p.unest)
        elif cc == "cdrise":
            yield ("d", p.ucross + p.unest, p.pred_unest) if second \
                else ("d", p.ucross, p.unest)
        elif cc == "fix":
            yield ("e", p.lev)
        else:
            yield ("b" if cc == "cpeak" else "c", p.lcross, p.lnest)


def perm_master_weight_first(profiles, totals=None):
    """Product over indices of a/b/c/d/e indeterminates: cycle valleys get
    a[ucross,unest], cycle peaks b[lcross,lnest], cycle double falls
    c[lcross,lnest], cycle double rises d[ucross,unest], fixed points
    e[lev]."""
    return monomial([(v, 1) for v in _perm_master_indices(profiles, False)])


def perm_master_weight_second(profiles, totals):
    """lam^cyc times the product where cycle valleys get the single-indexed
    a[ucross+unest], cycle double rises get d[ucross+unest, unest of the
    cycle predecessor], and b, c, e are as in the first master weight."""
    return monomial([(v, 1) for v in _perm_master_indices(profiles, True)]
                    + [("lam", totals.cyc)])


# ---------------------------------------------------------------------------
# Named weight maps.  Each maps (profiles, totals) to a Monomial.

def _w_four_var_arec(profiles, t):
    return monomial([("x", t.arec), ("y", t.erec),
                     ("u", t.n - t.exc - t.arec), ("v", t.exc - t.erec)])


def _w_four_var_cyc(profiles, t):
    return monomial([("x", t.cyc), ("y", t.erec),
                     ("u", t.n - t.exc - t.cyc), ("v", t.exc - t.erec)])


def _w_two_var(profiles, t):
    return monomial([("x", t.arec), ("y", t.erec)])


def _w_two_var_cyc(profiles, t):
    return monomial([("x", t.arec), ("y", t.erec), ("lam", t.cyc)])


def _w_two_var_inv(profiles, t):
    return monomial([("x", t.arec), ("y", t.erec), ("q", t.inv)])


def _w_inv_cyc(profiles, t):
    return monomial([("q", t.inv), ("lam", t.cyc)])


def _ten_var_pairs(t):
    ten = t.ten_way
    pairs = [("x1", ten["eareccpeak"]), ("x2", ten["eareccdfall"]),
             ("y1", ten["ereccval"]), ("y2", ten["ereccdrise"]),
             ("u1", ten["nrcpeak"]), ("u2", ten["nrcdfall"]),
             ("v1", ten["nrcval"]), ("v2", ten["nrcdrise"])]
    for lev, k in t.fix_by_level.items():
        pairs.append((("w", lev), k))
    return pairs


def _w_ten_var(profiles, t):
    return monomial(_ten_var_pairs(t))


def _w_ten_var_cyc(profiles, t):
    return monomial(_ten_var_pairs(t) + [("lam", t.cyc)])


def _pq_pairs(t):
    r = t.refined
    return [("pp1", r["ucrosscval"]), ("pp2", r["ucrosscdrise"]),
            ("pm1", r["lcrosscpeak"]), ("pm2", r["lcrosscdfall"]),
            ("qp1", r["unestcval"]), ("qp2", r["unestcdrise"]),
            ("qm1", r["lnestcpeak"]), ("qm2", r["lnestcdfall"]),
            ("s", t.psnest)]


def _w_pq_eleven(profiles, t):
    return monomial(_pq_pairs(t) + [("rp", t.ujoin), ("rm", t.ljoin)])


def _w_big(profiles, t):
    return monomial(_ten_var_pairs(t) + _pq_pairs(t))


def _w_big_cyc(profiles, t):
    return monomial(_ten_var_pairs(t) + _pq_pairs(t) + [("lam", t.cyc)])


def _w_eight_var_pq(profiles, t):
    return monomial([("x", t.arec), ("y", t.erec),
                     ("u", t.n - t.exc - t.arec), ("v", t.exc - t.erec),
                     ("pp", t.ucross), ("pm", t.lcross + t.ljoin),
                     ("qp", t.unest), ("qm", t.lnest + t.psnest)])


def _w_seven_var_cyc(profiles, t):
    return monomial([("x", t.earec), ("y", t.wex),
                     ("u", t.n - t.earec - t.wex),
                     ("pp", t.ucross + t.unest + t.cdrise + t.psnest),
                     ("pm", t.lcross), ("qm", t.lnest), ("lam", t.cyc)])


PERM_WEIGHTS = {
    "four-var-arec": factors(_w_four_var_arec),
    "four-var-cyc": _w_four_var_cyc,  # u^(n - exc - cyc) does not factor
    "two-var": factors(_w_two_var),
    "two-var-cyc": factors(_w_two_var_cyc),
    "two-var-inv": factors(_w_two_var_inv),
    "inv-cyc": factors(_w_inv_cyc),
    "ten-var": factors(_w_ten_var),
    "ten-var-cyc": factors(_w_ten_var_cyc),
    "pq-eleven": factors(_w_pq_eleven),
    "big": factors(_w_big),
    "big-cyc": factors(_w_big_cyc),
    "eight-var-pq": factors(_w_eight_var_pq),
    "seven-var-cyc": factors(_w_seven_var_cyc),
    "master1": factors(perm_master_weight_first),
    "master2": factors(perm_master_weight_second),
    "unit": unit_weight,
    "zeta-cc": zeta_cc_weight,
}


# ---------------------------------------------------------------------------
# Families and enumeration

def is_avoid321(profiles, totals):
    """No index is a neither-record-antirecord."""
    return totals.nrar == 0


def is_cycle_alternating(profiles, totals):
    return totals.cdrise == 0 and totals.cdfall == 0 and totals.fix == 0


def is_fpf_involution(profiles, totals):
    """Every cycle is a 2-cycle: no fixed points, and n = 2 cyc."""
    return totals.fix == 0 and 2 * totals.cyc == totals.n


def is_indecomposable(profiles, totals):
    return totals.cc == 1


# The record's class code is 4 * cycle class + record class (see
# _perm_walk); the differential test ties each prune to its filter.
PERM_FAMILIES = {
    "all": None,
    "avoid321": per_record(is_avoid321, lambda rec: rec[0] & 3 != _NRAR),
    "cycle_alternating": per_record(
        is_cycle_alternating, lambda rec: rec[0] >> 2 in (_CVAL, _CPEAK)),
    "fpf_involutions": is_fpf_involution,
    "indecomposable": is_indecomposable,
}


def iter_permutations(n):
    """S_n in the lexicographic order of the one-line words."""
    for word in _itperms(range(1, n + 1)):
        yield Permutation(word)


def _perm_walk(n, leaf, path=None, prune=None):
    """The walk of `walk_tally` over S_n, grown index by index: step i
    picks sigma(i) = v among the unused values, or path[i - 1] on a path,
    and `used` has bit u set for each value u of sigma(1..i-1).  Index i's
    record is final at step i, as the values after it are exactly the
    unused ones.  The counts are (cyc, inv, cc), and a record is [class
    code, x, y, z]: the class code is 4 * cycle class + record class
    (indices into _CYCLE_CLASSES and _RECORD_CLASSES); x, y are (ucross,
    unest) at cycle valleys and double rises, (lcross, lnest) at cycle
    peaks and double falls, (lev, 0) at fixed points; z is the unest of
    the cycle predecessor at double rises, else 0.

    i is a record when v exceeds the prefix maximum, and an antirecord
    when v is the smallest unused value.  The value i is used iff
    sigma^-1(i) < i, which splits the cycle valleys from the double rises
    and the cycle peaks from the double falls.  ucross and unest count
    used values in (i, v) and above v; lcross and lnest count unused
    values in (v, i) and below v; lev counts used values above i.  z is
    the unest stored at index sigma^-1(i).  inv gains the used values
    above v.  The edges i -> sigma(i) placed so far form paths, and
    head[t] is the first index of the path whose last index is t, tail[h]
    the last of the path whose first is h; the edge i -> v closes a cycle
    when v is the head of i's path, and else joins the two paths.  cc
    counts the steps after which the prefix maximum is i.

    With a `prune`, a predicate on one record, the walk skips every choice
    whose record fails it, so it grows only the permutations whose records
    all pass: a family marked by `per_record`."""
    record = bytes if path is None else list
    done = []  # the records of indices 1..i-1
    pos = [0] * (n + 1)  # pos[v] = sigma^-1(v), for used values v
    unest = [0] * (n + 1)
    head = list(range(n + 1))
    tail = list(range(n + 1))
    full = (1 << (n + 1)) - 2  # the values 1..n

    def step(i, used, pmax, cyc, inv, cc):
        if i > n:
            leaf((cyc, inv, cc), done)
            return
        below_i = (used & ((1 << i) - 1)).bit_count()
        above_i = (used >> (i + 1)).bit_count()
        i_used = used >> i & 1
        h = head[i]
        free = full & ~used if path is None else 1 << path[i - 1]
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            low = used & (bit - 1)
            # index into _RECORD_CLASSES: 1 if a smaller value is unused,
            # plus 2 if v is below the prefix maximum
            rc = (low != bit - 2) + 2 * (v < pmax)
            above_v = (used >> (v + 1)).bit_count()
            z = 0
            if v == i:
                cls, x, y = _FIX, above_i, 0
            elif v > i:
                cls = _CDRISE if i_used else _CVAL
                x, y = above_i - above_v, above_v
                if i_used:
                    z = unest[pos[i]]
                unest[i] = y
            else:
                below_v = low.bit_count()
                cls = _CPEAK if i_used else _CDFALL
                x, y = i - 1 - v - (below_i - below_v), v - 1 - below_v
            rec = record((4 * cls + rc, x, y, z))
            if prune is not None and not prune(rec):
                continue
            pos[v] = i
            done.append(rec)
            top = v if v > pmax else pmax
            t = tail[v]  # i when h == v, and then the join changes nothing
            head[t], tail[h] = h, t
            step(i + 1, used | bit, top, cyc + (h == v), inv + above_v,
                 cc + (top == i))
            head[t], tail[h] = v, i
            done.pop()

    step(1, 0, 0, 0, 0, 0)


# inv reaches n(n-1)/2, which is 253 at n = 23
PERM = ObjectKind("perm", iter_permutations,
                  walk_tally(_perm_walk),
                  walk_kernel(_perm_walk, lambda sigma: sigma.oneline), 3, 4,
                  _profile, _perm_totals, PERM_WEIGHTS,
                  partial(lookup, PERM_FAMILIES), 23)


"""Permutation statistics: record and cycle classifications, per-index
crossing/nesting counts, fixed-point levels, inversions, connected
components, master weights, and weighted enumeration over permutation
families.

A permutation is stored in one-line notation.  Indices are 1-based.
"""

from itertools import permutations as _itperms

from .mpoly import Indeterminate, Monomial, MultiPoly, as_poly, monomial


class NotABijection(ValueError):
    """The word is not a permutation of 1..n."""


class UnknownWeightMap(KeyError):
    """No weight map registered under that id."""


def lookup(table, key):
    """The weight map or family filter registered under `key` in `table`.
    A callable `key` is returned as it is: a caller's own weight map."""
    if callable(key):
        return key
    try:
        return table[key]
    except KeyError:
        raise UnknownWeightMap(key) from None


def weighted_sum(objects, stats, weight, keep=None, zeta=False):
    """Exact weighted sum over objects: the one enumeration loop.

    `stats(x)` returns the weight-map arguments of object x, ending with
    its statistic totals.  Objects for which `keep(*args)` is false are
    skipped (`keep=None` keeps all).  `weight(*args)` returns a Monomial or
    polynomial; with `zeta` it is multiplied by zeta^cc.
    """
    acc = {}
    zvar = Indeterminate("zeta")
    for x in objects:
        args = stats(x)
        if keep is not None and not keep(*args):
            continue
        wt = weight(*args)
        if zeta and args[-1].cc:
            wt = wt * Monomial({zvar: args[-1].cc})
        if isinstance(wt, Monomial):
            acc[wt] = acc.get(wt, 0) + 1
        else:
            for m, c in as_poly(wt).terms.items():
                acc[m] = acc.get(m, 0) + c
    return MultiPoly({m: c for m, c in acc.items() if c})


class Permutation:
    """A permutation of [n] with cached inverse (both 1-based tuples)."""

    __slots__ = ("n", "oneline", "inv_oneline")

    def __init__(self, oneline, _trusted=False):
        oneline = tuple(oneline)
        n = len(oneline)
        if not _trusted:
            if sorted(oneline) != list(range(1, n + 1)):
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

    def inverse(self):
        return Permutation(self.inv_oneline, _trusted=True)

    def __eq__(self, other):
        return self.oneline == other.oneline

    def __hash__(self):
        return hash(self.oneline)

    def __repr__(self):
        return "Permutation(%r)" % (list(self.oneline),)


def perm_from_oneline(word):
    return Permutation(word)


class IndexProfile:
    """Per-index classification and crossing/nesting counts."""

    __slots__ = ("index", "cycle_class", "record_class",
                 "ucross", "unest", "lcross", "lnest", "lev")

    def __init__(self, index, cycle_class, record_class,
                 ucross, unest, lcross, lnest, lev):
        self.index = index
        self.cycle_class = cycle_class
        self.record_class = record_class
        self.ucross = ucross
        self.unest = unest
        self.lcross = lcross
        self.lnest = lnest
        self.lev = lev

    def to_dict(self):
        d = {"index": self.index, "cycle_class": self.cycle_class,
             "record_class": self.record_class, "ucross": self.ucross,
             "unest": self.unest, "lcross": self.lcross,
             "lnest": self.lnest}
        if self.lev is not None:
            d["lev"] = self.lev
        return d


def perm_index_profile(sigma):
    """Full per-index profile of a permutation.

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
    and lev(i) = #{j < i : sigma(j) > i} for fixed points i.
    """
    n = sigma.n
    w = sigma.oneline
    inv = sigma.inv_oneline
    profiles = []
    prefix_max = 0
    # antirecord test: suffix minima
    suffix_min = [0] * (n + 2)
    suffix_min[n + 1] = n + 1
    for i in range(n, 0, -1):
        suffix_min[i] = min(w[i - 1], suffix_min[i + 1])
    for i in range(1, n + 1):
        si = w[i - 1]
        ii = inv[i - 1]
        is_rec = si > prefix_max
        prefix_max = max(prefix_max, si)
        is_arec = si < suffix_min[i + 1]
        if is_rec and is_arec:
            rc = "rar"
        elif is_rec:
            rc = "erec"
        elif is_arec:
            rc = "earec"
        else:
            rc = "nrar"
        if si == i:
            cc = "fix"
        elif ii > i and si > i:
            cc = "cval"
        elif ii < i and si < i:
            cc = "cpeak"
        elif ii < i < si:
            cc = "cdrise"
        else:
            cc = "cdfall"
        ucross = unest = lcross = lnest = 0
        lev = None
        if cc in ("cval", "cdrise"):
            for j in range(1, i):
                sj = w[j - 1]
                if i < sj < si:
                    ucross += 1
                elif sj > si:  # then sj > si > i
                    unest += 1
        elif cc in ("cpeak", "cdfall"):
            for l in range(i + 1, n + 1):
                sl = w[l - 1]
                if si < sl < i:
                    lcross += 1
                elif sl < si:  # then sl < si < i
                    lnest += 1
        else:
            lev = sum(1 for j in range(1, i) if w[j - 1] > i)
        profiles.append(IndexProfile(i, cc, rc, ucross, unest,
                                     lcross, lnest, lev))
    return profiles


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


def perm_stat_totals(sigma, profiles=None):
    """Compute every statistic total; consistent with perm_index_profile."""
    if profiles is None:
        profiles = perm_index_profile(sigma)
    n = sigma.n
    w = sigma.oneline
    t = PermStatTotals()
    t.n = n
    t.exc = sum(1 for i in range(1, n + 1) if w[i - 1] > i)
    t.aexc = sum(1 for i in range(1, n + 1) if w[i - 1] < i)
    t.fix = n - t.exc - t.aexc
    t.wex = t.exc + t.fix
    # cycles
    seen = [False] * (n + 1)
    cyc = 0
    for i in range(1, n + 1):
        if not seen[i]:
            cyc += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = w[j - 1]
    t.cyc = cyc
    counts = {k: 0 for k in ("erec", "earec", "rar", "nrar",
                             "cval", "cpeak", "cdrise", "cdfall")}
    ten = {k: 0 for k in _TEN_WAY}
    refined = {k: 0 for k in ("ucrosscval", "ucrosscdrise",
                              "unestcval", "unestcdrise",
                              "lcrosscpeak", "lcrosscdfall",
                              "lnestcpeak", "lnestcdfall")}
    fix_by_level = {}
    psnest = 0
    for p in profiles:
        counts[p.record_class] = counts.get(p.record_class, 0) + 1
        if p.cycle_class != "fix":
            counts[p.cycle_class] += 1
        rc, cc = p.record_class, p.cycle_class
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
    t.inv = sum(1 for i in range(n) for j in range(i + 1, n)
                if w[i] > w[j])
    # a divider is a prefix [1,i] mapped onto itself
    cc_count = 0
    pmax = 0
    for i in range(1, n + 1):
        pmax = max(pmax, w[i - 1])
        if pmax == i:
            cc_count += 1
    t.cc = cc_count
    return t


def perm_dividers(sigma):
    """Indices i such that sigma maps [1,i] onto itself."""
    out = []
    pmax = 0
    for i in range(1, sigma.n + 1):
        pmax = max(pmax, sigma.oneline[i - 1])
        if pmax == i:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# Master weights

def perm_master_weight_first(sigma, profiles=None):
    """Product over indices of a/b/c/d/e indeterminates: cycle valleys get
    a[ucross,unest], cycle peaks b[lcross,lnest], cycle double falls
    c[lcross,lnest], cycle double rises d[ucross,unest], fixed points
    e[lev]."""
    if profiles is None:
        profiles = perm_index_profile(sigma)
    exps = {}
    for p in profiles:
        cc = p.cycle_class
        if cc == "cval":
            v = Indeterminate("a", p.ucross, p.unest)
        elif cc == "cpeak":
            v = Indeterminate("b", p.lcross, p.lnest)
        elif cc == "cdfall":
            v = Indeterminate("c", p.lcross, p.lnest)
        elif cc == "cdrise":
            v = Indeterminate("d", p.ucross, p.unest)
        else:
            v = Indeterminate("e", p.lev)
        exps[v] = exps.get(v, 0) + 1
    return Monomial(exps)


def perm_master_weight_second(sigma, profiles=None, totals=None):
    """lam^cyc times the product where cycle valleys get the single-indexed
    a[ucross+unest], cycle double rises get d[ucross+unest, unest of the
    cycle predecessor], and b, c, e are as in the first master weight."""
    if profiles is None:
        profiles = perm_index_profile(sigma)
    if totals is None:
        totals = perm_stat_totals(sigma, profiles)
    exps = {}
    for p in profiles:
        cc = p.cycle_class
        if cc == "cval":
            v = Indeterminate("a", p.ucross + p.unest)
        elif cc == "cpeak":
            v = Indeterminate("b", p.lcross, p.lnest)
        elif cc == "cdfall":
            v = Indeterminate("c", p.lcross, p.lnest)
        elif cc == "cdrise":
            pred = profiles[sigma.inverse_at(p.index) - 1]
            v = Indeterminate("d", p.ucross + p.unest, pred.unest)
        else:
            v = Indeterminate("e", p.lev)
        exps[v] = exps.get(v, 0) + 1
    if totals.cyc:
        lam = Indeterminate("lam")
        exps[lam] = exps.get(lam, 0) + totals.cyc
    return Monomial(exps)


# ---------------------------------------------------------------------------
# Named weight maps.  Each maps (sigma, profiles, totals) to a Monomial.

def _w_four_var_arec(sigma, profiles, t):
    return monomial([("x", t.arec), ("y", t.erec),
                     ("u", t.n - t.exc - t.arec), ("v", t.exc - t.erec)])


def _w_four_var_cyc(sigma, profiles, t):
    return monomial([("x", t.cyc), ("y", t.erec),
                     ("u", t.n - t.exc - t.cyc), ("v", t.exc - t.erec)])


def _w_two_var(sigma, profiles, t):
    return monomial([("x", t.arec), ("y", t.erec)])


def _w_two_var_cyc(sigma, profiles, t):
    return monomial([("x", t.arec), ("y", t.erec), ("lam", t.cyc)])


def _w_two_var_inv(sigma, profiles, t):
    return monomial([("x", t.arec), ("y", t.erec), ("q", t.inv)])


def _w_inv_cyc(sigma, profiles, t):
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


def _w_ten_var(sigma, profiles, t):
    return monomial(_ten_var_pairs(t))


def _w_ten_var_cyc(sigma, profiles, t):
    return monomial(_ten_var_pairs(t) + [("lam", t.cyc)])


def _pq_pairs(t):
    r = t.refined
    return [("pp1", r["ucrosscval"]), ("pp2", r["ucrosscdrise"]),
            ("pm1", r["lcrosscpeak"]), ("pm2", r["lcrosscdfall"]),
            ("qp1", r["unestcval"]), ("qp2", r["unestcdrise"]),
            ("qm1", r["lnestcpeak"]), ("qm2", r["lnestcdfall"]),
            ("s", t.psnest)]


def _w_pq_eleven(sigma, profiles, t):
    return monomial(_pq_pairs(t) + [("rp", t.ujoin), ("rm", t.ljoin)])


def _w_big(sigma, profiles, t):
    return monomial(_ten_var_pairs(t) + _pq_pairs(t))


def _w_big_cyc(sigma, profiles, t):
    return monomial(_ten_var_pairs(t) + _pq_pairs(t) + [("lam", t.cyc)])


def _w_eight_var_pq(sigma, profiles, t):
    return monomial([("x", t.arec), ("y", t.erec),
                     ("u", t.n - t.exc - t.arec), ("v", t.exc - t.erec),
                     ("pp", t.ucross), ("pm", t.lcross + t.ljoin),
                     ("qp", t.unest), ("qm", t.lnest + t.psnest)])


def _w_seven_var_cyc(sigma, profiles, t):
    return monomial([("x", t.earec), ("y", t.wex),
                     ("u", t.n - t.earec - t.wex),
                     ("pp", t.ucross + t.unest + t.cdrise + t.psnest),
                     ("pm", t.lcross), ("qm", t.lnest), ("lam", t.cyc)])


def _w_master1(sigma, profiles, t):
    return perm_master_weight_first(sigma, profiles)


def _w_master2(sigma, profiles, t):
    return perm_master_weight_second(sigma, profiles, t)


def _w_unit(sigma, profiles, t):
    return Monomial()


def _w_zeta_cc(sigma, profiles, t):
    return monomial([("zeta", t.cc)])


PERM_WEIGHTS = {
    "four-var-arec": _w_four_var_arec,
    "four-var-cyc": _w_four_var_cyc,
    "two-var": _w_two_var,
    "two-var-cyc": _w_two_var_cyc,
    "two-var-inv": _w_two_var_inv,
    "inv-cyc": _w_inv_cyc,
    "ten-var": _w_ten_var,
    "ten-var-cyc": _w_ten_var_cyc,
    "pq-eleven": _w_pq_eleven,
    "big": _w_big,
    "big-cyc": _w_big_cyc,
    "eight-var-pq": _w_eight_var_pq,
    "seven-var-cyc": _w_seven_var_cyc,
    "master1": _w_master1,
    "master2": _w_master2,
    "unit": _w_unit,
    "zeta-cc": _w_zeta_cc,
}


# ---------------------------------------------------------------------------
# Families and enumeration

def is_avoid321(sigma, profiles, totals):
    """No index is a neither-record-antirecord."""
    return totals.nrar == 0


def is_cycle_alternating(sigma, profiles, totals):
    return totals.cdrise == 0 and totals.cdfall == 0 and totals.fix == 0


def is_fpf_involution(sigma, profiles, totals):
    return totals.fix == 0 and all(
        sigma.oneline[sigma.oneline[i] - 1] == i + 1
        for i in range(sigma.n))


def is_indecomposable(sigma, profiles, totals):
    return totals.cc == 1


PERM_FAMILIES = {
    "all": None,
    "avoid321": is_avoid321,
    "cycle_alternating": is_cycle_alternating,
    "fpf_involutions": is_fpf_involution,
    "indecomposable": is_indecomposable,
}


def iter_permutations(n):
    for word in _itperms(range(1, n + 1)):
        yield Permutation(word, _trusted=True)


def _perm_stats(sigma):
    profiles = perm_index_profile(sigma)
    return sigma, profiles, perm_stat_totals(sigma, profiles)


def enumerate_perm_polynomial(n, family="all", weight="unit",
                              with_cc_zeta=False):
    """Exact weighted sum over a family of permutations of [n].

    `weight` is a registered weight-map id or a callable
    (sigma, profiles, totals) -> Monomial/MultiPoly.  `with_cc_zeta`
    multiplies every weight by zeta^cc.
    """
    return weighted_sum(iter_permutations(n), _perm_stats,
                        lookup(PERM_WEIGHTS, weight),
                        lookup(PERM_FAMILIES, family), with_cc_zeta)

"""Reference enumeration: the per-object loop and the scalar statistic
kernels that the signature-histogram enumeration replaced.

Every object is classified on its own, with its own totals and its own
master weight, so this is slow but shares nothing with the signature
kernels, `decode` or `histogram`.  Tests compare the histogram path
against it at small n.  Weight maps that read only totals are the
library's own, called with this module's totals; the master weights, the
families and zeta^cc are computed here from the object.
"""

from types import SimpleNamespace

from cfenum.matchstats import MATCH_WEIGHTS, iter_matchings
from cfenum.mpoly import Indeterminate, Monomial, MultiPoly, as_poly
from cfenum.permstats import PERM_WEIGHTS, iter_permutations
from cfenum.setpartstats import SP_WEIGHTS, iter_set_partitions


def weighted_sum(objects, stats, weight, keep=None, zeta=False):
    """The per-object loop: `stats(x)` returns (x, profiles, totals);
    `weight` and `keep` take that triple."""
    acc = {}
    zvar = Indeterminate("zeta")
    for x in objects:
        args = stats(x)
        if keep is not None and not keep(*args):
            continue
        wt = weight(*args)
        if zeta and args[-1].cc:
            wt = wt * Monomial({zvar: args[-1].cc})
        for m, c in as_poly(wt).terms.items():
            acc[m] = acc.get(m, 0) + c
    return MultiPoly({m: c for m, c in acc.items() if c})


# ---------------------------------------------------------------------------
# Permutations

def perm_index_profile(sigma):
    """Per-index profiles of a permutation, in index order, each index
    classified on its own by the definitions of permstats.IndexProfile
    (without pred_unest)."""
    n = sigma.n
    w = sigma.oneline
    inv = sigma.inv_oneline
    profiles = []
    prefix_max = 0
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
                elif sj > si:
                    unest += 1
        elif cc in ("cpeak", "cdfall"):
            for l in range(i + 1, n + 1):
                sl = w[l - 1]
                if si < sl < i:
                    lcross += 1
                elif sl < si:
                    lnest += 1
        else:
            lev = sum(1 for j in range(1, i) if w[j - 1] > i)
        profiles.append(SimpleNamespace(
            index=i, cycle_class=cc, record_class=rc, ucross=ucross,
            unest=unest, lcross=lcross, lnest=lnest, lev=lev))
    return profiles


_TEN_WAY = ("ereccval", "ereccdrise", "eareccpeak", "eareccdfall", "rar",
            "nrcpeak", "nrcval", "nrcdrise", "nrcdfall", "nrfix")
_PERM_KEYS = ("n", "cyc", "exc", "aexc", "wex", "fix",
              "rec", "arec", "erec", "earec", "rar", "nrar",
              "cval", "cpeak", "cdrise", "cdfall",
              "ucross", "unest", "lcross", "lnest",
              "ujoin", "ljoin", "psnest", "inv", "cc")


def perm_to_dict(t):
    d = {k: getattr(t, k) for k in _PERM_KEYS}
    d.update(t.ten_way)
    d.update(t.refined)
    d["fix_by_level"] = {str(k): v for k, v in sorted(t.fix_by_level.items())}
    return d


def perm_stat_totals(sigma, profiles):
    n = sigma.n
    w = sigma.oneline
    t = SimpleNamespace()
    t.n = n
    t.exc = sum(1 for i in range(1, n + 1) if w[i - 1] > i)
    t.aexc = sum(1 for i in range(1, n + 1) if w[i - 1] < i)
    t.fix = n - t.exc - t.aexc
    t.wex = t.exc + t.fix
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
        counts[p.record_class] += 1
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
    cc_count = 0
    pmax = 0
    for i in range(1, n + 1):
        pmax = max(pmax, w[i - 1])
        if pmax == i:
            cc_count += 1
    t.cc = cc_count
    return t


def perm_stats(sigma):
    profiles = perm_index_profile(sigma)
    return sigma, profiles, perm_stat_totals(sigma, profiles)


def perm_master_weight_first(sigma, profiles, t):
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


def perm_master_weight_second(sigma, profiles, t):
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
    if t.cyc:
        lam = Indeterminate("lam")
        exps[lam] = exps.get(lam, 0) + t.cyc
    return Monomial(exps)


def _is_fpf_involution(sigma, profiles, t):
    return t.fix == 0 and all(sigma.oneline[sigma.oneline[i] - 1] == i + 1
                              for i in range(sigma.n))


PERM_FAMILIES = {
    "all": None,
    "avoid321": lambda sigma, profiles, t: t.nrar == 0,
    "cycle_alternating": lambda sigma, profiles, t:
        t.cdrise == 0 and t.cdfall == 0 and t.fix == 0,
    "fpf_involutions": _is_fpf_involution,
    "indecomposable": lambda sigma, profiles, t: t.cc == 1,
}


# ---------------------------------------------------------------------------
# Set partitions

def sp_arcs(pi):
    """The arc graph of a set partition: each element and the next element
    of its block."""
    return [(b[i], b[i + 1]) for b in pi.blocks for i in range(len(b) - 1)]


def sp_index_profile(pi):
    """Per-element profiles of a set partition, in element order, by the
    definitions of setpartstats.SPIndexProfile."""
    n = pi.n
    arcs = sp_arcs(pi)
    spans = [(b[0], b[-1]) for b in pi.blocks]
    block_of = [0] * (n + 1)
    nxt = [0] * (n + 1)
    for bi, b in enumerate(pi.blocks):
        for i, e in enumerate(b):
            block_of[e] = bi
            if i + 1 < len(b):
                nxt[e] = b[i + 1]
    profiles = []
    for j in range(1, n + 1):
        b = pi.blocks[block_of[j]]
        if len(b) == 1:
            cls = "singleton"
        elif j == b[0]:
            cls = "opener"
        elif j == b[-1]:
            cls = "closer"
        else:
            cls = "insider"
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
        if cls in ("opener", "insider"):
            erec = ne == 0
            brec = cov == 0
        else:
            erec = brec = None
        profiles.append(SimpleNamespace(
            index=j, element_class=cls, cr=cr, ne=ne, qne=qne, ov=ov,
            cov=cov, erec_flag=erec, brec_flag=brec))
    return profiles


_SP_KEYS = ("n", "blocks", "m1", "mge2",
            "crop", "crin", "neop", "nein", "cr", "ne", "psne",
            "ov", "cov", "ovin", "covin", "pscov",
            "erecop", "erecin", "nerecop", "nerecin", "erec",
            "brecop", "brecin", "nbrecop", "nbrecin", "brec",
            "lb", "ls", "lsprime", "rb", "rs",
            "iota", "iota_prime", "cc")


def sp_to_dict(t):
    return {k: getattr(t, k) for k in _SP_KEYS}


def sp_stat_totals(pi, profiles):
    t = SimpleNamespace()
    t.n = pi.n
    t.blocks = len(pi.blocks)
    t.m1 = sum(1 for b in pi.blocks if len(b) == 1)
    t.mge2 = t.blocks - t.m1
    t.crop = t.crin = t.neop = t.nein = t.psne = 0
    t.ov = t.cov = t.ovin = t.covin = 0
    t.erecop = t.erecin = t.nerecop = t.nerecin = 0
    t.brecop = t.brecin = t.nbrecop = t.nbrecin = 0
    for p in profiles:
        if p.element_class == "opener":
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
            t.psne += p.qne
    t.cr = t.crop + t.crin
    t.ne = t.neop + t.nein
    t.pscov = t.psne
    t.erec = t.erecop + t.erecin
    t.brec = t.brecop + t.brecin
    lb = ls = rb = rs = 0
    bl = pi.blocks
    for i1 in range(len(bl)):
        for i2 in range(i1 + 1, len(bl)):
            b1, b2 = bl[i1], bl[i2]
            lb += sum(1 for k in b1 if k > b2[0])
            ls += len(b2)
            rb += sum(1 for k in b1 if k < b2[-1])
            rs += sum(1 for k in b2 if k < b1[-1])
    t.lb = lb
    t.ls = ls
    t.lsprime = ls - (t.blocks * (t.blocks - 1)) // 2
    t.rb = rb
    t.rs = rs
    iota = 0
    for i1 in range(len(bl)):
        for i2 in range(i1 + 1, len(bl)):
            union = sorted([(e, 0) for e in bl[i1]]
                           + [(e, 1) for e in bl[i2]])
            iota += sum(1 for a, b in zip(union, union[1:])
                        if a[1] != b[1])
    t.iota = iota
    t.iota_prime = iota - (t.blocks * (t.blocks - 1)) // 2
    block_max = [0] * (pi.n + 1)
    for b in pi.blocks:
        for e in b:
            block_max[e] = b[-1]
    cc = run = 0
    for i in range(1, pi.n + 1):
        run = max(run, block_max[i])
        if run == i:
            cc += 1
    t.cc = cc
    return t


def sp_stats(pi):
    profiles = sp_index_profile(pi)
    return pi, profiles, sp_stat_totals(pi, profiles)


def sp_master_weight(variant):
    op_ovcov = variant in (2, 3)
    in_ovcov = variant in (2, 4)

    def weight(pi, profiles, t):
        exps = {}
        for p in profiles:
            cls = p.element_class
            if cls == "opener":
                v = (Indeterminate("a", p.ov, p.cov) if op_ovcov
                     else Indeterminate("a", p.cr, p.ne))
            elif cls == "closer":
                v = Indeterminate("b", p.qne)
            elif cls == "insider":
                v = (Indeterminate("d", p.ov, p.cov) if in_ovcov
                     else Indeterminate("d", p.cr, p.ne))
            else:
                v = Indeterminate("e", p.qne)
            exps[v] = exps.get(v, 0) + 1
        return Monomial(exps)
    return weight


SP_FAMILIES = {
    "all": None,
    "indecomposable": lambda pi, profiles, t: t.cc == 1,
}
for _k in range(7):
    SP_FAMILIES["blocks:%d" % _k] = \
        lambda pi, profiles, t, k=_k: t.blocks == k


# ---------------------------------------------------------------------------
# Matchings

_MATCH_KEYS = ("n", "ecpar", "ocpar", "ecpnar", "ocpnar",
               "ecvr", "ocvr", "ecvnr", "ocvnr",
               "cr", "ne", "ecr", "ocr", "ene", "one",
               "ecrc", "ocrc", "enec", "onec", "cc")


def match_to_dict(t):
    return {k: getattr(t, k) for k in _MATCH_KEYS}


def matching_stat_totals(m):
    n2 = 2 * m.n
    w = m.partner
    t = SimpleNamespace(n=m.n)
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
        even = i % 2 == 0
        if si > i:
            if si > prefix_max:
                if even:
                    t.ecvr += 1
                else:
                    t.ocvr += 1
            elif even:
                t.ecvnr += 1
            else:
                t.ocvnr += 1
        elif si < suffix_min[i + 1]:
            if even:
                t.ecpar += 1
            else:
                t.ocpar += 1
        elif even:
            t.ecpnar += 1
        else:
            t.ocpnar += 1
        prefix_max = max(prefix_max, si)
    for ia in range(len(pairs)):
        a, b = pairs[ia]
        for ib in range(ia + 1, len(pairs)):
            c, d = pairs[ib]
            if c >= b:
                continue
            if b < d:
                if c % 2 == 0:
                    t.ecr += 1
                else:
                    t.ocr += 1
                if b % 2 == 0:
                    t.ecrc += 1
                else:
                    t.ocrc += 1
            else:
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
    cc = 0
    pmax = 0
    for i in range(1, n2 + 1):
        pmax = max(pmax, w[i])
        if pmax == i:
            cc += 1
    t.cc = cc
    return t


def match_stats(m):
    return m, None, matching_stat_totals(m)


def matching_master_weight(m, profiles, t):
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


MATCH_FAMILIES = {
    "all": None,
    "indecomposable": lambda m, profiles, t: t.cc == 1,
}


# ---------------------------------------------------------------------------
# Per object type: objects, stats, totals as a dict, weights, families

def _weights(table, masters):
    """Oracle weight maps: the library's totals-only maps called with the
    oracle's totals (they must not read the profiles), and the oracle's
    own master weights."""
    out = {}
    for key, fn in table.items():
        out[key] = masters.get(key) or (
            lambda x, profiles, t, fn=fn: fn(None, t))
    return out


KINDS = {
    "perm": SimpleNamespace(
        objects=iter_permutations, stats=perm_stats, to_dict=perm_to_dict,
        weights=_weights(PERM_WEIGHTS, {
            "master1": perm_master_weight_first,
            "master2": perm_master_weight_second}),
        families=PERM_FAMILIES),
    "setpart": SimpleNamespace(
        objects=iter_set_partitions, stats=sp_stats, to_dict=sp_to_dict,
        weights=_weights(SP_WEIGHTS, {
            "master%d" % v: sp_master_weight(v) for v in (1, 2, 3, 4)}),
        families=SP_FAMILIES),
    "match": SimpleNamespace(
        objects=iter_matchings, stats=match_stats, to_dict=match_to_dict,
        weights=_weights(MATCH_WEIGHTS, {"master": matching_master_weight}),
        families=MATCH_FAMILIES),
}

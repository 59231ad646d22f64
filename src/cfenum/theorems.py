"""Registry binding each continued-fraction theorem, corollary, identity,
conjecture and non-polynomiality witness to its object family, weight map,
optional substitution, and displayed coefficient formulas, together with
verification drivers that compare exact enumeration against expansion of
the fraction, coefficient by coefficient.
"""

from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import comb, factorial
import random
import time

from .mpoly import as_poly, monomial, var
from .series import (expand_sfraction, expand_jfraction,
                     attach_component_weight, indecomposable_series,
                     jfraction_from_series,
                     TerminatedFraction, NonUnitConstantTerm)
from .permstats import PERM, decode, enumerate_polynomial, factors, \
    histogram, is_avoid321, signature, stat_totals
from .setpartstats import SETPART, SetPartition, sp_reverse
from .matchstats import MATCH, touchard_riordan


class UnknownTheorem(KeyError):
    """No theorem registered under that id."""


# ---------------------------------------------------------------------------
# Small exact helpers

def pqint(n, p, q):
    """The (p,q)-integer [n]_{p,q} = sum_{j=0}^{n-1} p^j q^{n-1-j}."""
    total = as_poly(0)
    p = as_poly(p)
    q = as_poly(q)
    for j in range(n):
        total = total + p ** j * q ** (n - 1 - j)
    return total


def qint(n, q):
    """[n]_q = 1 + q + ... + q^(n-1)."""
    return pqint(n, q, 1)


def _bell_numbers(m):
    out = [1]
    row = [1]
    for _ in range(m):
        row = list(accumulate([row[-1]] + row))
        out.append(row[0])
    return out


def _zigzag_numbers(m):
    """Euler zigzag numbers 1,1,1,2,5,16,61,... via the boustrophedon
    triangle; entries at even positions are the secant numbers."""
    zz = [1]
    row = [1]
    for n in range(1, m + 1):
        new = [0]
        for k in range(n):
            new.append(new[-1] + row[n - 1 - k])
        row = new
        zz.append(row[-1])
    return zz


def _secant(n):
    return _zigzag_numbers(2 * n)[2 * n]


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


def _double_factorial(n):
    out = 1
    for k in range(1, n + 1):
        out *= 2 * k - 1
    return out


def _stirling2(n):
    """Row S(n,0..n) of Stirling subset numbers."""
    table = [[1]]
    for m in range(1, n + 1):
        prev = table[-1]
        cur = [0] * (m + 1)
        for k in range(1, m + 1):
            cur[k] = (prev[k] * k if k <= m - 1 else 0) + prev[k - 1]
        table.append(cur)
    return table[n]


def _eulerian(n):
    """Row of Eulerian numbers <n,k> (k = number of excedances)."""
    row = [1]
    for m in range(1, n + 1):
        prev = row + [0]
        row = [0] * (m)
        row = [(k + 1) * (prev[k] if k < m else 0)
               + (m - k) * (prev[k - 1] if k >= 1 else 0)
               for k in range(m)]
    return row


# ---------------------------------------------------------------------------
# Shared indeterminates

X, Y, U, V = var("x"), var("y"), var("u"), var("v")
Q_, P_, R_, W_ = var("q"), var("p"), var("r"), var("w")
LAM, ZETA, CVAR = var("lam"), var("zeta"), var("c")
X1, X2, Y1, Y2 = var("x1"), var("x2"), var("y1"), var("y2")
U1, U2, V1, V2 = var("u1"), var("u2"), var("v1"), var("v2")
PP, PM, QP, QM = var("pp"), var("pm"), var("qp"), var("qm")
PP1, PP2, PM1, PM2 = var("pp1"), var("pp2"), var("pm1"), var("pm2")
QP1, QP2, QM1, QM2 = var("qp1"), var("qp2"), var("qm1"), var("qm2")
S_, RP, RM = var("s"), var("rp"), var("rm")
P1, P2, Q1, Q2 = var("p1"), var("p2"), var("q1"), var("q2")
A_, B_, C_, D_ = var("a"), var("b"), var("c"), var("d")
XB, YB = var("xb"), var("yb")


def _w(ell):
    return var("w", ell)


# custom weight maps used only by registry entries
def _w_inv_sixstat(profiles, t):
    return monomial([("a", t.cval), ("b", t.cdrise), ("c", t.cpeak),
                     ("d", t.cdfall), ("w", t.fix), ("q", t.inv)])


def _w_q_inv(profiles, t):
    return monomial([("q", t.inv)])


# ---------------------------------------------------------------------------
# Cached enumeration

_ENUM_CACHE = {}
KINDS = {"perm": PERM, "setpart": SETPART, "match": MATCH}


def _enum(obj, n, family="all", weight="unit", zeta=False):
    # _ENUM_CACHE keeps one signature histogram per (obj, n, family), with
    # its layout (permstats.Layout); the weight and zeta^cc are applied to
    # it on every request, each distinct key weighed once per weight map
    return enumerate_polynomial(KINDS[obj], n, family, weight, zeta,
                                _ENUM_CACHE)


def _holds_per_signature(obj, holds):
    """Identity checker n -> check for a predicate `holds(profiles,
    totals)`: it is tested once per distinct signature of the cached "all"
    histogram of size n.  On failure the check's detail is the first
    object of `objects(n)` whose signature fails: the histogram's own
    order is the order of its tally, not of `objects`."""
    def check(n):
        kind = KINDS[obj]
        failed = {sig for sig in histogram(kind, n, "all", _ENUM_CACHE)
                  if not holds(*decode(kind, sig))}
        if not failed:
            return {"n": n, "ok": True}
        return {"n": n, "ok": False,
                "detail": repr(next(x for x in kind.objects(n)
                                    if signature(kind, x) in failed))}
    return check


def _poly(obj, family="all", weight="unit", subst=None, zeta=False):
    """Enumeration-side polynomial callable n -> MultiPoly.

    A cycle-alternating permutation has even size, so that family's
    objects at n are those of [2n]."""
    size = 2 if family == "cycle_alternating" else 1

    def poly(n):
        p = _enum(obj, size * n, family, weight, zeta)
        if subst:
            p = p.substitute(subst)
        return p
    return poly


def _same(*sides):
    """Identity checker n -> check: every side, a callable n ->
    polynomial, equals the first at n."""
    def check(n):
        first, *rest = (side(n) for side in sides)
        checks = [_compared({"n": n}, first, other) for other in rest]
        return next((c for c in checks if not c["ok"]), checks[-1])
    return check


# ---------------------------------------------------------------------------
# Master-formula coefficient builders (for coherence checks)

def _star(f, m):
    """sum_{l=0}^{m} f(l, m-l); zero when m < 0."""
    total = as_poly(0)
    for ell in range(m + 1):
        total = total + as_poly(f(ell, m - ell))
    return total


def _pq_coeff(k, p, q, first, rest):
    """The paper's recurring (p,q) coefficient p^(k-1) first +
    q [k-1]_{p,q} rest, in closed form.  It is built from pqint alone: the
    coherence extras compare it with _star of _pq_master, so it must not
    be built from either."""
    return p ** (k - 1) * first + q * pqint(k - 1, p, q) * rest


def _pq_master(p, q, first, rest):
    """The master specialisation a(l, l') = p^l q^l' (first if l' = 0 else
    rest), whose _star at k - 1 is _pq_coeff(k, p, q, first, rest)."""
    return lambda l, lp: p ** l * q ** lp * (first if lp == 0 else rest)


def _perm_master1_cf(afun, bfun, cfun, dfun, efun):
    """(gamma, beta) of the first master J-fraction for permutations at
    the weights a(l, l') .. d(l, l') and e(l)."""
    def gamma(n):
        if n == 0:
            return as_poly(efun(0))
        return _star(cfun, n - 1) + _star(dfun, n - 1) + as_poly(efun(n))

    def beta(n):
        return _star(afun, n - 1) * _star(bfun, n - 1)

    return gamma, beta


def _sp_master_cf(afun, bfun, dfun, efun):
    """(gamma, beta) of the master J-fraction for set partitions at the
    weights a(l, l'), b(l), d(l, l') and e(l)."""
    def gamma(n):
        if n == 0:
            return as_poly(efun(0))
        return _star(dfun, n - 1) + as_poly(efun(n))

    def beta(n):
        return _star(afun, n - 1) * as_poly(bfun(n - 1))

    return gamma, beta


# ---------------------------------------------------------------------------
# Extra checks of a fraction entry.  Each builder returns a function
# (case, n_max, polys) -> list of checks, where polys[n] is the entry's
# enumeration polynomial at n = 0..n_max.

def _equal_at(label, fmt, indices, lhs, rhs):
    return [_compared({"check": ("%s: " + fmt) % (label, n)}, lhs(n), rhs(n))
            for n in indices]


# the coefficient indices that a coherence check compares (from 1 for
# alpha and beta)
_COHERENT = range(9)


def _s_coherence(label, derived):
    """alpha_1..alpha_8 of the entry equal `derived`."""
    def checks(case, n_max, polys):
        return _equal_at(label, "alpha_%d", _COHERENT[1:], derived,
                         case.alpha)
    return checks


def _j_coherence(label, dg, db):
    """gamma_0..gamma_8 and beta_1..beta_8 of the entry equal `dg` and
    `db`."""
    def checks(case, n_max, polys):
        return (_equal_at(label, "gamma_%d", _COHERENT, dg, case.gamma)
                + _equal_at(label, "beta_%d", _COHERENT[1:], db, case.beta))
    return checks


def _capped_cmp(label, other, cap, base=None):
    """`other` equals the entry's polynomial (or `base`) for n up to
    min(n_max, cap)."""
    def checks(case, n_max, polys):
        lhs = polys.__getitem__ if base is None else base
        return _equal_at(label, "n=%d", range(min(n_max, cap) + 1), lhs,
                         other)
    return checks


def _specialized(f, spec):
    """n -> f(n) with the substitution spec applied."""
    return lambda n: as_poly(f(n)).substitute(spec)


# ---------------------------------------------------------------------------
# Registry machinery

class TheoremCase:
    """One registered theorem/corollary/identity/conjecture/witness."""

    def __init__(self, tid, kind, description, n_max,
                 poly=None, alpha=None, gamma=None, beta=None,
                 series=None, extra=(), identity=None, witness=None):
        self.id = tid
        self.kind = kind
        self.description = description
        self.n_max = n_max
        self.poly = poly
        self.alpha = alpha
        self.gamma = gamma
        self.beta = beta
        self.series = series
        self.extra = extra
        self.identity = identity
        self.witness = witness


class VerificationReport:
    """Outcome of one verification run."""

    def __init__(self, theorem_id, kind, n_max, order, ok, checks,
                 first_discrepancy=None, wall_time=0.0, seed=None):
        self.theorem_id = theorem_id
        self.kind = kind
        self.n_max = n_max
        self.order = order
        self.ok = ok
        self.checks = checks
        self.first_discrepancy = first_discrepancy
        self.wall_time = wall_time
        self.seed = seed

    def to_dict(self):
        return {
            "id": self.theorem_id,
            "kind": self.kind,
            "n_max": self.n_max,
            "order": self.order,
            "ok": self.ok,
            "checks": self.checks,
            "first_discrepancy": self.first_discrepancy,
            "wall_time": round(self.wall_time, 6),
            "seed": self.seed,
        }


REGISTRY = {}


def _register(case):
    if case.id in REGISTRY:
        raise ValueError("duplicate theorem id %r" % (case.id,))
    REGISTRY[case.id] = case
    return case


# alternate spellings accepted by the lookup functions
ALIASES = {
    "sp.master.J1": "sp.masterJ1",
    "sp.master.J2": "sp.masterJ2",
    "sp.master.J3": "sp.masterJ3",
    "sp.master.J4": "sp.masterJ4",
    "sp.master.S": "sp.masterS",
}


def list_theorems():
    return sorted(REGISTRY)


def _get(tid):
    tid = ALIASES.get(tid, tid)
    try:
        return REGISTRY[tid]
    except KeyError:
        raise UnknownTheorem(tid) from None


def verify_theorem(tid, n_max=None, order=None, seed=0):
    """Verify one registry entry.  Its checks are, for an identity, its
    checker's check at each n; for a witness, its own checks at `seed`;
    for a fraction, one comparison of enumeration and expansion per n, then
    the entry's extra checks.  The first failing check is the report's
    first_discrepancy."""
    case = _get(tid)
    t0 = time.time()
    if case.kind == "Witness":
        checks = case.witness(seed)
    else:
        n_max = case.n_max if n_max is None else n_max
        if case.kind == "Identity":
            order = seed = None
            checks = [case.identity(n) for n in range(n_max + 1)]
        else:
            order = n_max if order is None else max(order, n_max)
            checks = _fraction_checks(case, n_max, order)
    first = next((c for c in checks if not c["ok"]), None)
    return VerificationReport(tid, case.kind, n_max, order, first is None,
                              checks, first, time.time() - t0, seed)


def _fraction_checks(case, n_max, order):
    coeffs = _expand(case, order)
    polys = [case.poly(n) for n in range(n_max + 1)]
    checks = [_compared({"n": n}, expected, got)
              for n, (expected, got) in enumerate(zip(polys, coeffs))]
    for extra in case.extra:
        checks.extend(extra(case, n_max, polys))
    return checks


def _compared(check, expected, got):
    """The one polynomial comparison: `check` ({"n": n} or {"check": text})
    with "ok" and, if the two differ, the first monomial where they do."""
    expected, got = as_poly(expected), as_poly(got)
    check["ok"] = expected == got
    if not check["ok"]:
        mon, _ = (expected - got).sorted_terms()[0]
        check["discrepancy"] = {"monomial": repr(mon),
                                "expected": expected.coeff_of(mon),
                                "got": got.coeff_of(mon)}
    return check


def _expand(case, order):
    """Taylor coefficients [t^0..t^order] of a fraction entry."""
    if case.series is not None:
        return case.series(order)
    if case.alpha is not None:
        return expand_sfraction(case.alpha, order)
    if case.gamma is not None:
        return expand_jfraction(case.gamma, case.beta, order)
    raise UnknownTheorem("%s is not a fraction entry" % (case.id,))


def expand_registered(tid, order):
    """Taylor coefficients [t^0..t^order] of a registered fraction."""
    return _expand(_get(tid), order)


def _alt(odd, even):
    """S-fraction coefficient function from odd/even formulas in k."""
    def alpha(m):
        k = (m + 1) // 2
        return odd(k) if m % 2 else even(k)
    return alpha


# ===========================================================================
# Classics (verified against independent integer-sequence oracles)

_register(TheoremCase(
    "perm.euler.factorial", "SFraction",
    "n! has the S-fraction with alpha_{2k-1} = alpha_{2k} = k.",
    8,
    poly=lambda n: factorial(n),
    alpha=lambda m: (m + 1) // 2,
    extra=(_capped_cmp("enumeration equals n!", _poly("perm"), 6),),
))

_register(TheoremCase(
    "perm.catalan.classic", "SFraction",
    "321-avoiding permutations are counted by Catalan numbers; alpha_n = 1.",
    8,
    poly=lambda n: _catalan(n),
    alpha=lambda m: 1,
    extra=(_capped_cmp("enumeration equals Catalan",
                       _poly("perm", family="avoid321"), 7),),
))

_register(TheoremCase(
    "perm.secant.classic", "SFraction",
    "Cycle-alternating permutations of [2n] are counted by secant numbers; "
    "alpha_n = n^2.",
    8,
    poly=lambda n: _secant(n),
    alpha=lambda m: m * m,
    extra=(_capped_cmp("enumeration equals E_{2n}",
                       _poly("perm", family="cycle_alternating"), 4),),
))

_register(TheoremCase(
    "sp.bell.classic", "SFraction",
    "Bell numbers: alpha_{2k-1} = 1, alpha_{2k} = k.",
    8,
    poly=lambda n: _bell_numbers(n)[n],
    alpha=_alt(lambda k: 1, lambda k: k),
    extra=(_capped_cmp("enumeration equals Bell", _poly("setpart"), 9),),
))

_register(TheoremCase(
    "match.doublefact.classic", "SFraction",
    "(2n-1)!! counts perfect matchings of [2n]; alpha_n = n.",
    8,
    poly=lambda n: _double_factorial(n),
    alpha=lambda m: m,
    extra=(_capped_cmp("enumeration equals (2n-1)!!", _poly("match"), 6),),
))


# ===========================================================================
# Permutations: four-variable S-fraction and its specializations

_fourvar_alpha = _alt(lambda k: X + (k - 1) * U, lambda k: Y + (k - 1) * V)

_register(TheoremCase(
    "perm.S.2var", "SFraction",
    "Record classification: sum over S_n of x^arec y^erec u^(non-record "
    "anti-excedance part) v^(non-record excedance part).",
    8,
    poly=_poly("perm", weight="four-var-arec"),
    alpha=_fourvar_alpha,
))

_register(TheoremCase(
    "perm.S.2var.cyc", "SFraction",
    "Cycle form: x^cyc replaces x^arec; same S-fraction coefficients.",
    8,
    poly=_poly("perm", weight="four-var-cyc"),
    alpha=_fourvar_alpha,
))


def _rising_product(n, first, step):
    total = as_poly(1)
    for j in range(n):
        total = total * (as_poly(first) + j * as_poly(step))
    return total


_register(TheoremCase(
    "perm.stirling.cycle", "SFraction",
    "Stirling cycle polynomials x(x+1)...(x+n-1).",
    8,
    poly=_poly("perm", weight="four-var-cyc", subst={"y": 1, "u": 1, "v": 1}),
    alpha=_alt(lambda k: X + (k - 1), lambda k: k),
    extra=(_capped_cmp("product formula",
                       lambda n: _rising_product(n, X, 1), 8),
           _capped_cmp("homogeneous product formula",
                       lambda n: _rising_product(n, X, Y), 8,
                       base=_poly("perm", weight="four-var-cyc",
                                  subst={"u": Y, "v": Y}))),
))


def _eulerian_poly(n):
    row = _eulerian(n)
    total = as_poly(0)
    for k, c in enumerate(row):
        total = total + c * as_poly(X) ** (n - k) * as_poly(Y) ** k
    return total


_register(TheoremCase(
    "perm.eulerian", "SFraction",
    "Homogenized Eulerian polynomials sum <n k> x^(n-k) y^k.",
    8,
    poly=_poly("perm", weight="four-var-arec", subst={"u": X, "v": Y}),
    alpha=_alt(lambda k: k * X, lambda k: k * Y),
    extra=(_capped_cmp("Eulerian-number oracle", _eulerian_poly, 8),),
))

_register(TheoremCase(
    "perm.cyc.exc", "SFraction",
    "Cycle and excedance statistics: sum x^cyc y^exc u^(n-exc-cyc).",
    8,
    poly=_poly("perm", weight="four-var-cyc", subst={"v": Y}),
    alpha=_alt(lambda k: X + (k - 1) * U, lambda k: k * Y),
))

_register(TheoremCase(
    "perm.dumont.kreweras", "SFraction",
    "Record statistics with a joint non-record variable: "
    "sum x^arec y^erec c^nrar.",
    8,
    poly=_poly("perm", weight="four-var-arec", subst={"u": CVAR, "v": CVAR}),
    alpha=_alt(lambda k: X + (k - 1) * CVAR, lambda k: Y + (k - 1) * CVAR),
))


def _narayana_poly(n):
    if n == 0:
        return as_poly(1)
    total = as_poly(0)
    for k in range(1, n + 1):
        c = comb(n, k) * comb(n, k - 1) // n
        total = total + c * as_poly(X) ** k * as_poly(Y) ** (n - k)
    return total


_register(TheoremCase(
    "perm.narayana", "SFraction",
    "Narayana polynomials over 321-avoiding permutations: "
    "sum x^arec y^erec; alpha alternates x, y.",
    8,
    poly=_poly("perm", family="avoid321", weight="two-var"),
    alpha=_alt(lambda k: X, lambda k: Y),
    extra=(_capped_cmp("Narayana closed form", _narayana_poly, 8),),
))


# ===========================================================================
# Permutations: J-fractions

def _perm_j1_gamma(n):
    if n == 0:
        return as_poly(_w(0))
    return (X2 + (n - 1) * U2) + (Y2 + (n - 1) * V2) + _w(n)


def _perm_j1_beta(n):
    return (X1 + (n - 1) * U1) * (Y1 + (n - 1) * V1)


_register(TheoremCase(
    "perm.J1", "JFraction",
    "Ten-variable record-and-cycle classification with fixed points "
    "refined by level.",
    7,
    poly=_poly("perm", weight="ten-var"),
    gamma=_perm_j1_gamma,
    beta=_perm_j1_beta,
    extra=(_j_coherence(
        "derived from first master J-fraction",
        *_perm_master1_cf(lambda l, lp: Y1 if lp == 0 else V1,
                          lambda l, lp: X1 if lp == 0 else U1,
                          lambda l, lp: X2 if lp == 0 else U2,
                          lambda l, lp: Y2 if lp == 0 else V2, _w)),),
))


def _conj_v2_gamma(n):
    if n == 0:
        return LAM * _w(0)
    return (X2 + (n - 1) * U2) + (Y2 + (n - 1) * V2) + LAM * _w(n)


def _conj_v2_beta(n):
    return (LAM + (n - 1)) * (X1 + (n - 1) * U1) * Y1


_register(TheoremCase(
    "conj.v2.full", "ConjectureForward",
    "Conjectured J-fraction for the ten-variable polynomial with "
    "lambda^cyc, specialized to v1 = y1.",
    7,
    poly=_poly("perm", weight="ten-var-cyc", subst={"v1": Y1}),
    gamma=_conj_v2_gamma,
    beta=_conj_v2_beta,
))

_register(TheoremCase(
    "perm.J2.weak", "JFraction",
    "Proven second J-fraction: v1 = y1 and v2 = y2, with lambda^cyc.",
    7,
    poly=_poly("perm", weight="ten-var-cyc", subst={"v1": Y1, "v2": Y2}),
    gamma=lambda n: LAM * _w(0) if n == 0 else
        (X2 + (n - 1) * U2) + n * Y2 + LAM * _w(n),
    beta=_conj_v2_beta,
))


def _perm_big_gamma(n):
    if n == 0:
        return as_poly(_w(0))
    return _pq_coeff(n, PM2, QM2, X2, U2) + _pq_coeff(n, PP2, QP2, Y2, V2) \
        + (S_ ** n) * _w(n)


def _perm_big_beta(n):
    return _pq_coeff(n, PM1, QM1, X1, U1) * _pq_coeff(n, PP1, QP1, Y1, V1)


_register(TheoremCase(
    "perm.pq.J.BIG", "JFraction",
    "Grand J-fraction: ten record/cycle variables plus eight "
    "crossing/nesting variables and s for pseudo-nesting levels.",
    7,
    poly=_poly("perm", weight="big"),
    gamma=_perm_big_gamma,
    beta=_perm_big_beta,
    extra=(_j_coherence(
        "derived from first master J-fraction",
        *_perm_master1_cf(
            _pq_master(PP1, QP1, Y1, V1), _pq_master(PM1, QM1, X1, U1),
            _pq_master(PM2, QM2, X2, U2), _pq_master(PP2, QP2, Y2, V2),
            lambda l: (S_ ** l) * _w(l))),),
))


def _perm_pq11_gamma(n):
    if n == 0:
        return as_poly(1)
    return pqint(n, PP2, QP2) * RP + pqint(n, PM2, QM2) * RM + S_ ** n


def _perm_pq11_beta(n):
    return pqint(n, PP1, QP1) * pqint(n, PM1, QM1)


_PQ11_FROM_BIG = {"x1": 1, "y1": 1, "u1": 1, "v1": 1,
                  "x2": RM, "u2": RM, "y2": RP, "v2": RP,
                  "w": lambda *idx: 1}


_register(TheoremCase(
    "perm.pq.crossnest.J", "JFraction",
    "Pure crossing/nesting statistics: eleven-variable J-fraction with "
    "(p,q)-integer coefficients.",
    7,
    poly=_poly("perm", weight="pq-eleven"),
    gamma=_perm_pq11_gamma,
    beta=_perm_pq11_beta,
    extra=(_j_coherence("specialization of the grand J-fraction",
                        _specialized(_perm_big_gamma, _PQ11_FROM_BIG),
                        _specialized(_perm_big_beta, _PQ11_FROM_BIG)),),
))

_PQ_S_SPEC = {"pp1": PP, "pp2": PP, "qp1": QP, "qp2": QP,
              "pm1": PM, "pm2": PM, "qm1": QM, "qm2": QM,
              "rp": 1, "rm": PM, "s": QM}

_register(TheoremCase(
    "perm.pq.crossnest.S", "SFraction",
    "S-fraction corollary of the crossing/nesting J-fraction: "
    "alpha_{2k-1} = [k]_{p-,q-}, alpha_{2k} = [k]_{p+,q+}.",
    7,
    poly=_poly("perm", weight="pq-eleven", subst=_PQ_S_SPEC),
    alpha=_alt(lambda k: pqint(k, PM, QM), lambda k: pqint(k, PP, QP)),
))

_eightvar_alpha = _alt(lambda k: _pq_coeff(k, PM, QM, X, U),
                       lambda k: _pq_coeff(k, PP, QP, Y, V))

_register(TheoremCase(
    "perm.pq.S.BIG1", "SFraction",
    "Eight-variable S-fraction: records with crossing/nesting refinements.",
    8,
    poly=_poly("perm", weight="eight-var-pq"),
    alpha=_eightvar_alpha,
))

_ZENG89_SPEC = {"x": X, "y": Q_ * Y, "u": 1, "v": Q_,
                "pp": Q_, "pm": Q_, "qp": Q_ ** 2, "qm": Q_ ** 2}

_zeng89_alpha = _alt(
    lambda k: (Q_ ** (k - 1)) * X + (Q_ ** k) * qint(k - 1, Q_),
    lambda k: (Q_ ** k) * Y + (Q_ ** (k + 1)) * qint(k - 1, Q_))


_register(TheoremCase(
    "perm.zeng89", "SFraction",
    "Inversion-weighted records: sum x^arec y^erec q^inv.",
    8,
    poly=_poly("perm", weight="two-var-inv"),
    alpha=_zeng89_alpha,
    extra=(_s_coherence("specialization of the eight-variable S-fraction",
                        _specialized(_eightvar_alpha, _ZENG89_SPEC)),),
))


# ===========================================================================
# Permutations: master fractions

# symbolic weights: a(l, l') is the indeterminate a[l,l'], e(l) is e[l]
_pm1_gamma, _pm1_beta = _perm_master1_cf(*(partial(var, f) for f in "abcde"))

_register(TheoremCase(
    "perm.masterJ1", "JFraction",
    "First master J-fraction: per-index weights a/b/c/d indexed by "
    "crossing and nesting counts, e by fixed-point level.",
    7,
    poly=_poly("perm", weight="master1"),
    gamma=_pm1_gamma,
    beta=_pm1_beta,
))

_master_y = _pq_master(PP, QP, Y, V)
_master_x = _pq_master(PM, QM, X, U)
_MASTERS1_SPEC = {
    "a": _master_y,
    "d": _master_y,
    "b": _master_x,
    "c": lambda l, lp: PM * _master_x(l, lp),
    "e": lambda l: as_poly(X) if l == 0 else (QM ** l) * U,
}

_register(TheoremCase(
    "perm.masterS1", "SFraction",
    "First master S-fraction realized with d = a; the substituted "
    "enumeration collapses to the eight-variable S-fraction.",
    7,
    poly=_poly("perm", weight="master1", subst=_MASTERS1_SPEC),
    alpha=_eightvar_alpha,
    extra=(_capped_cmp("equals the eight-variable enumeration",
                       _poly("perm", weight="eight-var-pq"), 7),),
))


def _perm_pqj2_gamma(n):
    if n == 0:
        return LAM * _w(0)
    return _pq_coeff(n, PM2, QM2, X2, U2) + n * (PP2 ** (n - 1)) * Y2 \
        + LAM * (S_ ** n) * _w(n)


def _perm_pqj2_beta(n):
    return (LAM + (n - 1)) * _pq_coeff(n, PM1, QM1, X1, U1) \
        * (PP1 ** (n - 1)) * Y1


_register(TheoremCase(
    "perm.pq.J2", "JFraction",
    "Second grand J-fraction with lambda^cyc, at v1=y1, v2=y2, "
    "q+1=p+1 and q+2=p+2.",
    7,
    poly=_poly("perm", weight="big-cyc",
               subst={"v1": Y1, "v2": Y2, "qp1": PP1, "qp2": PP2}),
    gamma=_perm_pqj2_gamma,
    beta=_perm_pqj2_beta,
))

_register(TheoremCase(
    "perm.pq.S2.cyc", "SFraction",
    "Second (p,q) S-fraction with lambda^cyc over seven statistics.",
    8,
    poly=_poly("perm", weight="seven-var-cyc"),
    alpha=_alt(lambda k: (LAM + (k - 1)) * (PP ** (k - 1)) * Y,
               lambda k: _pq_coeff(k, PM, QM, X, U)),
))


def _pm2_gamma(n):
    if n == 0:
        return LAM * var("e", 0)
    d_nat = as_poly(0)
    for ell in range(n):
        d_nat = d_nat + var("d", n - 1, ell)
    return _star(lambda l, lp: var("c", l, lp), n - 1) + d_nat \
        + LAM * var("e", n)


def _pm2_beta(n):
    return (LAM + (n - 1)) * var("a", n - 1) \
        * _star(lambda l, lp: var("b", l, lp), n - 1)


_register(TheoremCase(
    "perm.masterJ2", "JFraction",
    "Second master J-fraction with lambda^cyc; cycle valleys carry a "
    "single crossing+nesting index, double rises a second index from "
    "the cycle predecessor.",
    7,
    poly=_poly("perm", weight="master2"),
    gamma=_pm2_gamma,
    beta=_pm2_beta,
))

_MASTERS2_SPEC = {
    "c": lambda i, j: var("b", i, j),
    "d": lambda k, l: var("a", k + 1),
    "e": lambda l: var("a", l),
}

_register(TheoremCase(
    "perm.masterS2", "SFraction",
    "Second master S-fraction: c = b, d and e collapse onto a.",
    7,
    poly=_poly("perm", weight="master2", subst=_MASTERS2_SPEC),
    alpha=_alt(lambda k: (LAM + (k - 1)) * var("a", k - 1),
               lambda k: _star(lambda l, lp: var("b", l, lp), k - 1)),
))


# ===========================================================================
# Permutations: inversion-weighted J-fraction

_register(TheoremCase(
    "perm.inv.sixstat", "JFraction",
    "Weights a^cval b^cdrise c^cpeak d^cdfall w^fix q^inv.",
    7,
    poly=_poly("perm", weight=factors(_w_inv_sixstat)),
    gamma=lambda n: as_poly(W_) if n == 0 else
        (Q_ ** n) * qint(n, Q_) * (B_ + D_) + (Q_ ** (2 * n)) * W_,
    beta=lambda n: (Q_ ** (2 * n - 1)) * qint(n, Q_) ** 2 * A_ * C_,
))


# ===========================================================================
# Permutations: 321-avoiding

_register(TheoremCase(
    "perm.321.J", "JFraction",
    "321-avoiding permutations: nesting variables drop out.",
    7,
    poly=_poly("perm", family="avoid321", weight="big"),
    gamma=lambda n: as_poly(_w(0)) if n == 0 else
        (PM2 ** (n - 1)) * X2 + (PP2 ** (n - 1)) * Y2,
    beta=lambda n: (PM1 ** (n - 1)) * (PP1 ** (n - 1)) * X1 * Y1,
))

_register(TheoremCase(
    "perm.321.S", "SFraction",
    "321-avoiding S-fraction: alpha_{2k-1} = p-^(k-1) x, "
    "alpha_{2k} = p+^(k-1) y.",
    8,
    poly=_poly("perm", family="avoid321", weight="eight-var-pq"),
    alpha=_alt(lambda k: (PM ** (k - 1)) * X, lambda k: (PP ** (k - 1)) * Y),
))


# ===========================================================================
# Permutations: cycle-alternating (objects live in S_{2n})

_ca_alpha_1 = lambda m: (X1 + (m - 1) * U1) * (Y1 + (m - 1) * V1)

_register(TheoremCase(
    "perm.ca.S", "SFraction",
    "Cycle-alternating record statistics: "
    "alpha_n = [x1+(n-1)u1][y1+(n-1)v1].",
    4,
    poly=_poly("perm", family="cycle_alternating", weight="ten-var"),
    alpha=_ca_alpha_1,
))

_ca_pq_alpha = lambda m: \
    _pq_coeff(m, PM1, QM1, X1, U1) * _pq_coeff(m, PP1, QP1, Y1, V1)

_register(TheoremCase(
    "perm.ca.pq.S", "SFraction",
    "Cycle-alternating records with crossing/nesting refinements.",
    4,
    poly=_poly("perm", family="cycle_alternating", weight="big"),
    alpha=_ca_pq_alpha,
))

_register(TheoremCase(
    "perm.ca.masterS1", "SFraction",
    "First master S-fraction for cycle-alternating permutations: "
    "alpha_n = a*_{n-1} b*_{n-1}.",
    4,
    poly=_poly("perm", family="cycle_alternating", weight="master1"),
    alpha=lambda m: _star(lambda l, lp: var("a", l, lp), m - 1)
        * _star(lambda l, lp: var("b", l, lp), m - 1),
))

_register(TheoremCase(
    "perm.ca.S2", "SFraction",
    "Second cycle-alternating S-fraction with lambda^cyc (v1 = y1).",
    4,
    poly=_poly("perm", family="cycle_alternating", weight="ten-var-cyc",
               subst={"v1": Y1}),
    alpha=lambda m: (LAM + (m - 1)) * (X1 + (m - 1) * U1) * Y1,
))

_register(TheoremCase(
    "perm.ca.pq.S2", "SFraction",
    "Second cycle-alternating (p,q) S-fraction with lambda^cyc.",
    4,
    poly=_poly("perm", family="cycle_alternating", weight="big-cyc",
               subst={"v1": Y1, "qp1": PP1}),
    alpha=lambda m: (LAM + (m - 1)) * _pq_coeff(m, PM1, QM1, X1, U1)
        * (PP1 ** (m - 1)) * Y1,
))

_register(TheoremCase(
    "perm.ca.masterS2", "SFraction",
    "Second master S-fraction for cycle-alternating permutations: "
    "alpha_n = (lambda+n-1) a_{n-1} b*_{n-1}.",
    4,
    poly=_poly("perm", family="cycle_alternating", weight="master2"),
    alpha=lambda m: (LAM + (m - 1)) * var("a", m - 1)
        * _star(lambda l, lp: var("b", l, lp), m - 1),
))

_QSECANT_SPEC = {"x1": 1, "u1": 1, "y1": Q_, "v1": Q_,
                 "pp1": Q_, "pm1": Q_, "qp1": Q_ ** 2, "qm1": Q_ ** 2}

_qsecant_alpha = lambda m: (Q_ ** (2 * m - 1)) * qint(m, Q_) ** 2


_register(TheoremCase(
    "perm.ca.qsecant", "SFraction",
    "q-secant numbers: sum of q^inv over cycle-alternating permutations; "
    "alpha_n = q^(2n-1) [n]_q^2.",
    4,
    poly=_poly("perm", family="cycle_alternating", weight=factors(_w_q_inv)),
    alpha=_qsecant_alpha,
    extra=(_s_coherence("specialization of the cycle-alternating "
                        "(p,q) S-fraction",
                        _specialized(_ca_pq_alpha, _QSECANT_SPEC)),),
))


# ===========================================================================
# Permutations: connected components

_register(TheoremCase(
    "perm.cc.zeta", "SFraction",
    "Insert zeta^cc into the four-variable polynomial: multiply alpha_1 "
    "by zeta.",
    6,
    poly=_poly("perm", weight="four-var-arec", zeta=True),
    alpha=attach_component_weight(_fourvar_alpha, ZETA),
))

_register(TheoremCase(
    "perm.indecomposable", "SFraction",
    "Indecomposable permutations: generating function 1 - 1/f.",
    6,
    poly=_poly("perm", family="indecomposable", weight="four-var-arec"),
    series=lambda order: indecomposable_series(
        expand_sfraction(_fourvar_alpha, order)),
))


# ===========================================================================
# Permutations: non-polynomiality witnesses

def _random_fraction(rng):
    return Fraction(rng.choice([i for i in range(-9, 10) if i != 0]),
                    rng.randint(1, 5))


# the admissible points each witness checks
_WITNESS_POINTS = 20


def _witness_checks(seed, weights_id, names, admissible, gamma_formulas,
                    beta_formulas):
    rng = random.Random(seed)
    polys = [_enum("perm", n, "all", weights_id) for n in range(6)]
    vs = [var(nm) for nm in names]
    checks = []
    attempts = 0
    while len(checks) < _WITNESS_POINTS and attempts < 100000:
        attempts += 1
        vals = [_random_fraction(rng) for _ in names]
        if not admissible(*vals):
            continue
        point = dict(zip(vs, vals))
        coeffs = [Fraction(p.evaluate(point)) for p in polys]
        try:
            gammas, betas = jfraction_from_series(coeffs, 2)
        except (TerminatedFraction, NonUnitConstantTerm, ZeroDivisionError):
            continue
        exp_g = [f(*vals) for f in gamma_formulas]
        exp_b = [f(*vals) for f in beta_formulas]
        ok = gammas == exp_g and betas == exp_b
        checks.append({
            "check": "point %s" % (tuple(str(v) for v in vals),),
            "ok": ok})
    return checks


def _witness_cyc_nonpoly(seed):
    def admissible(x, y, lam):
        bad = (x in (-1, 0, 1) or y in (-1, 0, 1) or lam in (-1, 0, 1)
               or lam * y == -1 or lam * x == -1 or x + y == 0
               or x * y == -1 or lam + x + y + lam * x * y == 0)
        return not bad

    return _witness_checks(
        seed, "two-var-cyc", ("x", "y", "lam"), admissible,
        gamma_formulas=[
            lambda x, y, lam: lam * x,
            lambda x, y, lam: lam + x + y,
            lambda x, y, lam: ((x + y) * (3 + x * y)
                               + (2 + x + x * x + y + 4 * x * y + y * y)
                               * lam
                               + (1 + x * y) * lam ** 2)
            / (lam + x + y + lam * x * y)],
        beta_formulas=[
            lambda x, y, lam: lam * x * y,
            lambda x, y, lam: lam + x + y + lam * x * y])


def _witness_invcyc_nonpoly(seed):
    def admissible(q, lam):
        bad = (q in (-1, 0, 1) or lam in (-1, 0, 1)
               or lam + 2 * q + lam * q * q == 0)
        return not bad

    return _witness_checks(
        seed, "inv-cyc", ("q", "lam"), admissible,
        gamma_formulas=[
            lambda q, lam: lam,
            lambda q, lam: q * (2 + lam * q),
            lambda q, lam: q * q * (2 + 6 * lam * q + 6 * q ** 2
                                    + lam ** 2 * q ** 2 + 4 * lam * q ** 3
                                    + lam ** 2 * q ** 4)
            / (lam + 2 * q + lam * q * q)],
        beta_formulas=[
            lambda q, lam: lam * q,
            lambda q, lam: q ** 3 * (lam + 2 * q + lam * q * q)])


_register(TheoremCase(
    "perm.cyc.nonpoly", "Witness",
    "x^arec y^erec lambda^cyc has no polynomial J-fraction: gamma_2 is a "
    "rational function, checked at random admissible rational points.",
    None,
    witness=_witness_cyc_nonpoly,
))

_register(TheoremCase(
    "perm.invcyc.nonpoly", "Witness",
    "q^inv lambda^cyc has no polynomial J-fraction: gamma_2 is a rational "
    "function, checked at random admissible rational points.",
    None,
    witness=_witness_invcyc_nonpoly,
))


# ===========================================================================
# Set partitions

_register(TheoremCase(
    "sp.S", "SFraction",
    "Three-variable S-fraction: sum x^|pi| y^erec v^(n-|pi|-erec).",
    9,
    poly=_poly("setpart", weight="three-var"),
    alpha=_alt(lambda k: X, lambda k: Y + (k - 1) * V),
))


def _sp_j_gamma(n):
    if n == 0:
        return as_poly(X1)
    return X1 + Y1 + (n - 1) * V1


def _sp_j_beta(n):
    return X2 * (Y2 + (n - 1) * V2)


def _sp_pqj_gamma(n):
    if n == 0:
        return as_poly(X1)
    return (R_ ** n) * X1 + _pq_coeff(n, P1, Q1, Y1, V1)


def _sp_pqj_beta(n):
    return X2 * _pq_coeff(n, P2, Q2, Y2, V2)


_SP_J_FROM_PQ = {"p1": 1, "p2": 1, "q1": 1, "q2": 1, "r": 1}


_register(TheoremCase(
    "sp.J", "JFraction",
    "Six-variable J-fraction for singleton/opener/insider record classes.",
    9,
    poly=_poly("setpart", weight="six-var"),
    gamma=_sp_j_gamma,
    beta=_sp_j_beta,
    extra=(_j_coherence("specialization of the (p,q) J-fraction",
                        _specialized(_sp_pqj_gamma, _SP_J_FROM_PQ),
                        _specialized(_sp_pqj_beta, _SP_J_FROM_PQ)),),
))


_register(TheoremCase(
    "sp.pq.J", "JFraction",
    "Eleven-variable first (p,q) J-fraction for set partitions.",
    9,
    poly=_poly("setpart", weight="pq-eleven"),
    gamma=_sp_pqj_gamma,
    beta=_sp_pqj_beta,
    extra=(_j_coherence(
        "derived from the first master J-fraction",
        *_sp_master_cf(
            _pq_master(P2, Q2, Y2, V2),
            lambda l: X2,
            _pq_master(P1, Q1, Y1, V1),
            lambda l: (R_ ** l) * X1)),),
))

_SP_PQ_S_SPEC = {"x1": X, "x2": X, "y1": Y, "y2": Y, "v1": V, "v2": V,
                 "p1": P_, "p2": R_ * P_, "q1": Q_, "q2": R_ * Q_}

_register(TheoremCase(
    "sp.pq.S", "SFraction",
    "S-fraction corollary: alpha_{2k-1} = r^(k-1) x, "
    "alpha_{2k} = p^(k-1) y + q [k-1]_{p,q} v.",
    9,
    poly=_poly("setpart", weight="pq-eleven", subst=_SP_PQ_S_SPEC),
    alpha=_alt(lambda k: (R_ ** (k - 1)) * X,
               lambda k: _pq_coeff(k, P_, Q_, Y, V)),
))

_register(TheoremCase(
    "sp.B2.equal", "JFraction",
    "The overlap/covering polynomial B^(2) satisfies the same J-fraction "
    "as the crossing/nesting polynomial.",
    9,
    poly=_poly("setpart", weight="ovcov-eleven"),
    gamma=_sp_pqj_gamma,
    beta=_sp_pqj_beta,
))


_sp_four_equiv = _same(*(_poly("setpart", weight=w) for w in (
    "pq-eleven", "ovcov-eleven", "mixed-three", "mixed-four")))


_register(TheoremCase(
    "sp.four.equiv", "Identity",
    "Equality of the crossing/nesting, overlap/covering and both mixed "
    "eleven-variable polynomials.",
    9,
    identity=_sp_four_equiv,
))


_spm_gamma, _spm_beta = _sp_master_cf(*(partial(var, f) for f in "abde"))

for _variant in (1, 2, 3, 4):
    _register(TheoremCase(
        "sp.masterJ%d" % _variant, "JFraction",
        "Master J-fraction for set partitions, variant %d (openers and "
        "insiders indexed by crossings/nestings or overlaps/coverings)."
        % _variant,
        9,
        poly=_poly("setpart", weight="master%d" % _variant),
        gamma=_spm_gamma,
        beta=_spm_beta,
    ))

_SP_MASTERS_SPEC = {
    "d": lambda l, lp: var("a", l, lp),
    "e": lambda l: var("b", l),
}

_register(TheoremCase(
    "sp.masterS", "SFraction",
    "Master S-fraction for set partitions (d = a, e = b): "
    "alpha_{2k-1} = b_{k-1}, alpha_{2k} = a*_{k-1}.",
    9,
    poly=_poly("setpart", weight="master1", subst=_SP_MASTERS_SPEC),
    alpha=_alt(lambda k: var("b", k - 1),
               lambda k: _star(lambda l, lp: var("a", l, lp), k - 1)),
))

_zeng1_alpha = _alt(lambda k: (Q_ ** (k - 1)) * X, lambda k: qint(k, Q_))

_ZENG_INV_SPEC = {"x1": X, "x2": X, "y1": 1, "y2": 1, "v1": 1, "v2": 1,
                  "p1": 1, "p2": Q_, "q1": Q_, "q2": Q_ ** 2, "r": Q_}

_register(TheoremCase(
    "sp.zeng1", "SFraction",
    "q-Stirling generating polynomials sum x^|pi| q^lb: "
    "alpha_{2k-1} = q^(k-1) x, alpha_{2k} = [k]_q.",
    9,
    poly=_poly("setpart", weight="x-lb"),
    alpha=_zeng1_alpha,
    extra=(_capped_cmp(
        "independent route via the reversed rs statistic",
        _poly("setpart", weight="pq-eleven", subst=_ZENG_INV_SPEC), 9),),
))

_register(TheoremCase(
    "sp.zeng2", "SFraction",
    "Modified q-Stirling polynomials sum x^|pi| q^ls: "
    "alpha_{2k} contains a minus sign; pure verification target.",
    9,
    poly=_poly("setpart", weight="x-ls"),
    alpha=_alt(lambda k: (Q_ ** (2 * k - 2)) * X,
               lambda k: (1 + (Q_ ** (k - 1)) * (Q_ - 1) * X)
               * qint(k, Q_)),
))

_IOTA_SPEC = {"x1": X, "x2": X, "y1": 1, "y2": 1, "v1": 1, "v2": 1,
              "p1": Q_, "p2": Q_ ** 2, "q1": 1, "q2": Q_, "r": Q_}

_register(TheoremCase(
    "sp.iota.S", "SFraction",
    "Reduced intertwining statistic: sum x^|pi| q^iota' has the same "
    "S-fraction as the lb statistic.",
    9,
    poly=_poly("setpart", weight="x-iota-prime"),
    alpha=_zeng1_alpha,
    extra=(_capped_cmp(
        "equals the eleven-variable polynomial specialization",
        _poly("setpart", weight="pq-eleven", subst=_IOTA_SPEC), 9),),
))

_spS_alpha = _alt(lambda k: X, lambda k: Y + (k - 1) * V)

_register(TheoremCase(
    "sp.cc.zeta", "SFraction",
    "Insert zeta^cc into the three-variable polynomial: multiply alpha_1 "
    "by zeta.",
    8,
    poly=_poly("setpart", weight="three-var", zeta=True),
    alpha=attach_component_weight(_spS_alpha, ZETA),
))

_register(TheoremCase(
    "sp.indecomposable", "SFraction",
    "Indecomposable set partitions: generating function 1 - 1/f.",
    8,
    poly=_poly("setpart", family="indecomposable", weight="three-var"),
    series=lambda order: indecomposable_series(
        expand_sfraction(_spS_alpha, order)),
))


# ===========================================================================
# Perfect matchings

_match4_alpha = _alt(lambda k: X + (2 * k - 2) * U,
                     lambda k: Y + (2 * k - 1) * V)

_match_pq_alpha = lambda m: \
    _pq_coeff(m, PM, QM, X, U) if m % 2 else _pq_coeff(m, PP, QP, Y, V)

_MATCH4_FROM_PQ = {"pp": 1, "pm": 1, "qp": 1, "qm": 1}


_register(TheoremCase(
    "match.S.fourvar", "SFraction",
    "Four-variable S-fraction over matchings: even/odd cycle peaks split "
    "by antirecord status (equivalently valleys by record status).",
    7,
    poly=_poly("match", weight="four-var-cp"),
    alpha=_match4_alpha,
    extra=(_s_coherence("specialization of the (p,q) S-fraction",
                        _specialized(_match_pq_alpha, _MATCH4_FROM_PQ)),
           _capped_cmp("valley form equals peak form",
                       _poly("match", weight="four-var-cv"), 6)),
))

_register(TheoremCase(
    "match.S.sixvar", "SFraction",
    "Six-variable refinement with parity counts of cycle valleys.",
    7,
    poly=_poly("match", weight="six-var"),
    alpha=_alt(lambda k: (X + (2 * k - 2) * U) * XB,
               lambda k: (Y + (2 * k - 1) * V) * YB),
))


def _match_master_case(l, lp):
    if lp == 0:
        return (PM ** l) * X if l % 2 == 0 else (PP ** l) * Y
    if (l + lp) % 2 == 0:
        return (PM ** l) * (QM ** lp) * U
    return (PP ** l) * (QP ** lp) * V


_register(TheoremCase(
    "match.pq.S", "SFraction",
    "Eight-variable (p,q) S-fraction over matchings.",
    7,
    poly=_poly("match", weight="pq"),
    alpha=_match_pq_alpha,
    extra=(_s_coherence("derived from the master S-fraction",
                        lambda m: _star(_match_master_case, m - 1)),
           _capped_cmp("valley form equals peak form",
                       _poly("match", weight="pq-cv"), 5)),
))

_register(TheoremCase(
    "match.master.S", "SFraction",
    "Master S-fraction for matchings: alpha_n = a*_{n-1} b_{n-1}.",
    7,
    poly=_poly("match", weight="master"),
    alpha=lambda m: _star(lambda l, lp: var("a", l, lp), m - 1)
        * var("b", m - 1),
))

_register(TheoremCase(
    "match.crne.S", "SFraction",
    "Crossings and nestings jointly: alpha_n = [n]_{p,q}.",
    7,
    poly=_poly("match", weight="cr-ne"),
    alpha=lambda m: pqint(m, P_, Q_),
))


def _touchard_identity(n):
    tr = touchard_riordan(n)
    check = _compared({"n": n}, tr,
                      expand_sfraction(lambda m: qint(m, P_), n)[n])
    if check["ok"] and n <= 6:
        check = _compared({"n": n}, tr, _enum("match", n, "all", "cr"))
    return check


_register(TheoremCase(
    "match.touchard", "Identity",
    "Touchard-Riordan closed form for the crossing polynomial equals both "
    "the S-fraction with alpha_n = [n]_p and direct enumeration.",
    8,
    identity=_touchard_identity,
))


_MATCH_CC_TABLE = {
    0: [],
    1: [1],
    2: [2, 1],
    3: [10, 4, 1],
    4: [74, 24, 6, 1],
    5: [706, 188, 42, 8, 1],
    6: [8162, 1808, 350, 64, 10, 1],
    7: [110410, 20628, 3426, 568, 90, 12, 1],
    8: [1708394, 273064, 38886, 5696, 850, 120, 14, 1],
}

def _match_cc_table_identity(n):
    row = _MATCH_CC_TABLE.get(n)
    if row is None:
        return {"n": n, "ok": False, "detail": "no table row for n=%d" % n}
    expected = sum((c * ZETA ** k for k, c in enumerate(row, start=1)),
                   as_poly(int(n == 0)))
    check = _compared({"n": n}, expected, expand_sfraction(
        attach_component_weight(lambda m: m, ZETA), n)[n])
    if check["ok"] and n <= 6:
        check = _compared({"n": n}, expected,
                          _enum("match", n, "all", "zeta-cc"))
    return check


_register(TheoremCase(
    "match.cc.table", "Identity",
    "Connected-component table for matchings, checked against the "
    "zeta-modified S-fraction and direct enumeration.",
    8,
    identity=_match_cc_table_identity,
))

_register(TheoremCase(
    "match.cc.zeta", "SFraction",
    "Insert zeta^cc into the four-variable matching polynomial.",
    6,
    poly=_poly("match", weight="four-var-cp", zeta=True),
    alpha=attach_component_weight(_match4_alpha, ZETA),
))

_register(TheoremCase(
    "match.indecomposable", "SFraction",
    "Indecomposable matchings: generating function 1 - 1/f.",
    6,
    poly=_poly("match", family="indecomposable", weight="four-var-cp"),
    series=lambda order: indecomposable_series(
        expand_sfraction(_match4_alpha, order)),
))


# ===========================================================================
# Identities

def _inv_decomp(profiles, t):
    return t.inv == (t.exc + t.ucross + 2 * t.unest
                     + t.lcross + t.ljoin + 2 * t.lnest + 2 * t.psnest)


_register(TheoremCase(
    "inv.decomp", "Identity",
    "inv = exc + ucross + 2 unest + lcross + ljoin + 2 lnest + 2 psnest.",
    8,
    identity=_holds_per_signature("perm", _inv_decomp),
))


def _321_nonesting(profiles, t):
    return not is_avoid321(profiles, t) \
        or not (t.unest or t.lnest or t.psnest)


_register(TheoremCase(
    "avoid321.nonesting", "Identity",
    "A 321-avoiding permutation has no upper/lower nestings or "
    "pseudo-nestings.",
    8,
    identity=_holds_per_signature("perm", _321_nonesting),
))


def _crne_eq_ovcov(profiles, t):
    return (t.crop + t.neop == t.ov + t.cov
            and t.crin + t.nein == t.ovin + t.covin)


_register(TheoremCase(
    "crne.eq.ovcov", "Identity",
    "crop + neop = ov + cov and crin + nein = ovin + covin.",
    9,
    identity=_holds_per_signature("setpart", _crne_eq_ovcov),
))


def _crne_mod2(profiles, t):
    return not ((t.cr - t.ov) % 2
                or (t.crin + t.neop - t.cov) % 2
                or (t.crop + t.nein - t.ov - t.ovin - t.covin) % 2
                or (t.ne - t.cov - t.ovin - t.covin) % 2)


_register(TheoremCase(
    "crne.mod2", "Identity",
    "Crossing/nesting congruences modulo 2 with overlaps and coverings.",
    9,
    identity=_holds_per_signature("setpart", _crne_mod2),
))


def _id_rs_formula(n):
    # one kernel run per partition: rs, and the sum that the reversal of
    # the partition must match
    sides = {}
    for pi in SETPART.objects(n):
        t = stat_totals(SETPART, pi)
        sides[pi] = t.rs, t.ov + 2 * t.cov + t.covin + t.pscov
    for pi, (rs, _) in sides.items():
        if rs != sides[sp_reverse(pi)][1]:
            return {"n": n, "ok": False, "detail": "pi=%r" % (pi.blocks,)}
    return {"n": n, "ok": True}


_register(TheoremCase(
    "rs.formula", "Identity",
    "rs(pi) = ov + 2 cov + covin + pscov of the reversed partition.",
    9,
    identity=_id_rs_formula,
))


def _iota_formula(profiles, t):
    return (t.iota_prime == t.cr + t.ov + t.cov + t.pscov
            == t.crin + 2 * t.crop + t.neop + t.psne
            and t.iota == t.iota_prime + comb(t.blocks, 2))


_register(TheoremCase(
    "iota.formula", "Identity",
    "iota' = cr + ov + cov + pscov = crin + 2 crop + neop + psne.",
    9,
    identity=_holds_per_signature("setpart", _iota_formula),
))


def _id_fig9(n):
    pi = SetPartition([[1, 3, 6], [2, 4, 5]])
    t = stat_totals(SETPART, pi)
    return {"n": n, "ok": t.iota == 4 and t.iota_prime == 3}


_register(TheoremCase(
    "fig9.iota", "Identity",
    "Worked example: the partition {{1,3,6},{2,4,5}} has intertwining "
    "number 4.",
    0,
    identity=_id_fig9,
))


_register(TheoremCase(
    "ww.equidistribution", "Identity",
    "The pair (rs, rb) is jointly equidistributed with (lb, ls) on "
    "partitions with a fixed number of blocks.",
    8,
    identity=_same(_poly("setpart", weight="rs-rb"),
                   _poly("setpart", weight="lb-ls")),
))

_register(TheoremCase(
    "B.equals.B2B3B4", "Identity",
    "The four eleven-variable set-partition polynomials coincide.",
    9,
    identity=_sp_four_equiv,
))


def _dillon_sum(n):
    """sum_k S(n,k) (y-u)^(n-k) x (x+u) ... (x+(k-1)u)."""
    s2 = _stirling2(n)
    total = as_poly(0)
    for k in range(n + 1):
        term = as_poly(s2[k]) * (as_poly(Y) - U) ** (n - k)
        for j in range(k):
            term = term * (X + j * as_poly(U))
        total = total + term
    return total


_register(TheoremCase(
    "dillon", "Identity",
    "Cycle-excedance polynomial as a Stirling-number sum of rising "
    "factorials.",
    7,
    identity=_same(_poly("perm", weight="four-var-cyc", subst={"v": Y}),
                   _dillon_sum),
))


def _ordered_bell_sum(n):
    """sum_k k! S(n,k) (y-x)^(n-k) x^k."""
    s2 = _stirling2(n)
    total = as_poly(0)
    for k in range(n + 1):
        total = total + factorial(k) * s2[k] \
            * (as_poly(Y) - X) ** (n - k) * as_poly(X) ** k
    return total


_register(TheoremCase(
    "orderedbell", "Identity",
    "Homogenized Eulerian polynomial equals the ordered Bell expansion "
    "sum k! S(n,k) (y-x)^(n-k) x^k.",
    7,
    identity=_same(_eulerian_poly, _ordered_bell_sum),
))


_register(TheoremCase(
    "MP.identity", "Identity",
    "M_n(x,y,u,v) = P_n(x, y+v, 2u, 2v).",
    6,
    identity=_same(_poly("match", weight="four-var-cp"),
                   _poly("perm", weight="four-var-arec", subst={
                       "y": Y + V, "u": 2 * as_poly(U), "v": 2 * as_poly(V)})),
))


_register(TheoremCase(
    "MP.identity.pq", "Identity",
    "(p,q)-refined matching/permutation identity, checked after scaling "
    "u by q- to stay polynomial.",
    5,
    identity=_same(_poly("match", weight="pq", subst={"u": QM * U}),
                   _poly("perm", weight="eight-var-pq", subst={
                       "x": X, "y": PP * Y + QP * V,
                       "u": (as_poly(PM) + QM) * U,
                       "v": (as_poly(PP) + QP) * V, "pp": PP ** 2,
                       "pm": PM ** 2, "qp": QP ** 2, "qm": QM ** 2})),
))

"""Unit tests for the theorem registry and verification engine."""

import copy
from fractions import Fraction

import pytest

from cfenum import theorems
from cfenum.matchstats import MATCH_WEIGHTS
from cfenum.mpoly import monomial, var
from cfenum.permstats import PERM_WEIGHTS, enumerate_polynomial
from cfenum.series import expand_jfraction, expand_sfraction
from cfenum.setpartstats import SP_WEIGHTS
from cfenum.theorems import (ALIASES, KINDS, REGISTRY, UnknownTheorem,
                             expand_registered, list_theorems, pqint, qint,
                             verify_theorem, _poly)

from test_series import nested_jfraction, nested_sfraction

EXPECTED_IDS = {
    "perm.euler.factorial", "perm.catalan.classic", "perm.secant.classic",
    "sp.bell.classic", "match.doublefact.classic",
    "perm.S.2var", "perm.S.2var.cyc", "perm.stirling.cycle", "perm.eulerian",
    "perm.cyc.exc", "perm.dumont.kreweras", "perm.narayana",
    "perm.J1", "conj.v2.full", "perm.J2.weak",
    "perm.pq.crossnest.J", "perm.pq.crossnest.S",
    "perm.pq.J.BIG", "perm.pq.S.BIG1", "perm.zeng89",
    "perm.masterJ1", "perm.masterS1", "perm.pq.J2", "perm.pq.S2.cyc",
    "perm.masterJ2", "perm.masterS2", "perm.inv.sixstat",
    "perm.321.J", "perm.321.S",
    "perm.ca.S", "perm.ca.pq.S", "perm.ca.masterS1",
    "perm.ca.S2", "perm.ca.pq.S2", "perm.ca.masterS2", "perm.ca.qsecant",
    "perm.cc.zeta", "perm.indecomposable",
    "perm.cyc.nonpoly", "perm.invcyc.nonpoly",
    "sp.S", "sp.J", "sp.pq.J", "sp.pq.S", "sp.B2.equal",
    "sp.masterJ1", "sp.masterJ2", "sp.masterJ3", "sp.masterJ4", "sp.masterS",
    "sp.zeng1", "sp.zeng2", "sp.iota.S", "sp.cc.zeta", "sp.indecomposable",
    "match.S.fourvar", "match.S.sixvar", "match.pq.S", "match.master.S",
    "match.crne.S", "match.cc.zeta", "match.indecomposable",
}

EXPECTED_IDENTITIES = {
    "inv.decomp", "avoid321.nonesting", "crne.eq.ovcov", "crne.mod2",
    "rs.formula", "iota.formula", "fig9.iota", "ww.equidistribution",
    "B.equals.B2B3B4", "dillon", "orderedbell", "MP.identity",
    "MP.identity.pq", "sp.four.equiv", "match.touchard", "match.cc.table",
}


def test_registry_contents():
    ids = set(list_theorems())
    assert EXPECTED_IDS <= ids
    assert EXPECTED_IDENTITIES == {t for t, c in REGISTRY.items()
                                   if c.kind == "Identity"}
    assert ids == set(REGISTRY)
    assert len(ids) == len(EXPECTED_IDS) + len(EXPECTED_IDENTITIES)


def test_aliases():
    for alias, target in ALIASES.items():
        assert target in REGISTRY
    # dotted master ids resolve to the canonical inventory entries
    r = verify_theorem("sp.master.J1", n_max=4)
    assert r.ok and r.kind == "JFraction"


def test_unknown_ids():
    with pytest.raises(UnknownTheorem):
        verify_theorem("no.such.theorem")


def test_pq_integers():
    p, q = var("p"), var("q")
    assert pqint(0, p, q) == 0
    assert pqint(1, p, q) == 1
    assert pqint(3, p, q) == p ** 2 + p * q + q ** 2
    assert qint(4, q) == 1 + q + q ** 2 + q ** 3


def test_report_shape():
    r = verify_theorem("perm.euler.factorial", n_max=5)
    d = r.to_dict()
    assert d["ok"] is True and d["id"] == "perm.euler.factorial"
    assert d["n_max"] == 5 and d["first_discrepancy"] is None
    assert len(d["checks"]) >= 1 and d["wall_time"] >= 0
    assert all(e["ok"] for e in d["checks"])


@pytest.mark.parametrize("tid,n_max", [
    ("perm.euler.factorial", 5), ("perm.catalan.classic", 5),
    ("perm.secant.classic", 5), ("sp.bell.classic", 5),
    ("match.doublefact.classic", 5), ("perm.S.2var", 5),
    ("perm.eulerian", 5), ("perm.narayana", 5), ("perm.J1", 5),
    ("perm.masterJ1", 5), ("perm.masterS2", 5), ("perm.321.S", 5),
    ("perm.ca.S", 3),  # n counts pairs: size 2n
    ("perm.cc.zeta", 5), ("sp.S", 5), ("sp.J", 5), ("sp.masterJ1", 5),
    ("sp.masterS", 5), ("sp.zeng2", 5), ("sp.iota.S", 5),
    ("match.S.fourvar", 5), ("match.pq.S", 5), ("match.master.S", 5),
    ("match.cc.zeta", 5),
])
def test_spot_verifications(tid, n_max):
    r = verify_theorem(tid, n_max=n_max)
    assert r.ok, r.to_dict()


def test_witnesses():
    for tid in ("perm.cyc.nonpoly", "perm.invcyc.nonpoly"):
        r = verify_theorem(tid, seed=0)
        assert r.kind == "Witness" and r.ok
        assert len(r.checks) >= 20
    # witness checks are seed-dependent but stable per seed
    r1 = verify_theorem("perm.cyc.nonpoly", seed=7)
    r2 = verify_theorem("perm.cyc.nonpoly", seed=7)
    assert r1.ok and r1.checks == r2.checks


def test_identity_spot_checks():
    for tid in ("inv.decomp", "fig9.iota", "match.touchard",
                "crne.eq.ovcov", "MP.identity"):
        r = verify_theorem(tid, n_max=5)
        assert r.ok and r.kind == "Identity", (tid, r.to_dict())


def test_conjecture_forward():
    r = verify_theorem("conj.v2.full", n_max=6)
    assert r.ok and r.kind == "ConjectureForward"


def test_expand_registered():
    coeffs = expand_registered("perm.euler.factorial", 6)
    assert coeffs == [1, 1, 2, 6, 24, 120, 720]
    with pytest.raises(UnknownTheorem):
        expand_registered("inv.decomp", 3)  # identities have no fraction


def test_dp_expansion_matches_series_sfraction():
    x, u = var("x"), var("u")
    # the second alpha terminates: it is zero from height 3 on
    for alpha in (lambda n: x + (n - 1) * u,
                  lambda n: x + (n - 1) * u if n < 3 else 0):
        for order in range(9):
            assert expand_sfraction(alpha, order) \
                == nested_sfraction(alpha, order)


def test_dp_expansion_matches_series_jfraction():
    y, v = var("y"), var("v")
    beta = lambda n: n * v + n * n
    # the second gamma is zero at every odd height
    for gamma in (lambda n: (n + 1) * y,
                  lambda n: 0 if n % 2 else (n + 1) * y):
        for order in range(9):
            assert expand_jfraction(gamma, beta, order) \
                == nested_jfraction(gamma, beta, order)


def test_dp_expansion_matches_series_with_cancelling_weights():
    # multi-term weights with negative coefficients, so path weights
    # cancel inside the DP's sums; alpha, also as a gamma, cancels some
    # terms to exactly zero
    x, y = var("x"), var("y")
    beta = lambda n: y - x + n
    alpha = lambda n: x - y if n % 2 else y - x
    for order in range(9):
        for gamma in (lambda n: (x - y) * (n + 1) - 1, alpha):
            assert expand_jfraction(gamma, beta, order) \
                == nested_jfraction(gamma, beta, order)
        assert expand_sfraction(alpha, order) \
            == nested_sfraction(alpha, order)


def test_pq_closed_form_and_master_specialisation_are_independent(
        monkeypatch):
    # The coherence extras compare _star of the master specialisation
    # with the closed form; that proves something only while neither is
    # built from the other.
    p, q, x, u = (var(f) for f in ("p_ind", "q_ind", "x_ind", "u_ind"))
    ks = range(1, 7)
    master = theorems._pq_master(p, q, x, u)
    closed = [theorems._pq_coeff(k, p, q, x, u) for k in ks]
    assert closed == [theorems._star(master, k - 1) for k in ks]

    def refuse(*args):
        raise AssertionError("built from the other route")

    with monkeypatch.context() as m:
        m.setattr(theorems, "_star", refuse)
        m.setattr(theorems, "_pq_master", refuse)
        assert [theorems._pq_coeff(k, p, q, x, u) for k in ks] == closed
    with monkeypatch.context() as m:
        m.setattr(theorems, "pqint", refuse)
        assert [theorems._star(master, k - 1) for k in ks] == closed


def test_registry_expansions_match_nested_oracle():
    # Order 3 only: the nested oracle's intermediate products explode on
    # the master weights (at order 4 this loop takes 7 s on a 2-core VM,
    # 6 s of it on perm.ca.masterS1).  Criteria 02 and 03 check the high
    # orders against enumeration.
    cases = [c for c in REGISTRY.values()
             if c.alpha is not None or c.gamma is not None]
    assert len(cases) == 57
    for c in cases:
        if c.alpha is not None:
            want = nested_sfraction(c.alpha, 3)
        else:
            want = nested_jfraction(c.gamma, c.beta, 3)
        assert expand_registered(c.id, 3) == want, c.id


@pytest.mark.parametrize("obj, table, counts", [
    ("perm", PERM_WEIGHTS, [1, 1, 2, 6, 24, 120]),      # n!
    ("setpart", SP_WEIGHTS, [1, 1, 2, 5, 15, 52]),      # Bell numbers
    ("match", MATCH_WEIGHTS, [1, 1, 3, 15]),            # (2n-1)!!
])
def test_every_weight_map_counts_all_objects(obj, table, counts):
    for weight in table:
        for n, count in enumerate(counts):
            poly = enumerate_polynomial(KINDS[obj], n, "all", weight)
            # the value at all ones: the sum of the coefficients
            assert sum(poly.terms.values()) == count, (weight, n)


def test_enum_cache_keys_callable_weights_by_identity():
    x, y = var("x"), var("y")
    by_cycles = _poly("perm", weight=lambda profiles, t:
                      monomial([("x", t.cyc)]))
    by_excedances = _poly("perm", weight=lambda profiles, t:
                          monomial([("y", t.exc)]))
    assert by_cycles(3) == 2 * x + 3 * x ** 2 + x ** 3
    assert by_excedances(3) == 1 + 4 * y + y ** 2


def test_rs_formula_failure_names_partition(monkeypatch):
    # rs off by one for one partition of [3]: only n=3 fails, and the
    # detail names that partition
    real = theorems.SETPART.kernel

    def off_by_one(pi):
        counts, records = real(pi)
        if pi.blocks == ((1, 3), (2,)):
            counts = counts[:3] + (counts[3] + 1,) + counts[4:]
        return counts, records

    monkeypatch.setattr(theorems, "SETPART",
                        theorems.SETPART._replace(kernel=off_by_one))
    report = verify_theorem("rs.formula", n_max=4)
    assert [c["ok"] for c in report.checks] == [True] * 3 + [False, True]
    assert report.first_discrepancy == {"n": 3, "ok": False,
                                        "detail": "pi=((1, 3), (2,))"}


def test_rs_formula_needs_the_reversal(monkeypatch):
    # with the reversal replaced by the identity map the formula still
    # holds on the partitions of [n] for n <= 4, and first fails at n = 5
    monkeypatch.setattr(theorems, "sp_reverse", lambda pi: pi)
    report = verify_theorem("rs.formula", n_max=5)
    assert [c["ok"] for c in report.checks] == [True] * 5 + [False]


# the identities checked signature by signature, with their predicates
_PER_SIGNATURE = {
    "inv.decomp": ("perm", theorems._inv_decomp),
    "avoid321.nonesting": ("perm", theorems._321_nonesting),
    "crne.eq.ovcov": ("setpart", theorems._crne_eq_ovcov),
    "crne.mod2": ("setpart", theorems._crne_mod2),
    "iota.formula": ("setpart", theorems._iota_formula),
}


def test_per_signature_identities_are_listed():
    checkers = {tid for tid, case in REGISTRY.items()
                if getattr(case.identity, "__qualname__", "").startswith(
                    "_holds_per_signature.")}
    assert checkers == set(_PER_SIGNATURE)
    for tid, (obj, holds) in _PER_SIGNATURE.items():
        cells = [c.cell_contents for c in REGISTRY[tid].identity.__closure__]
        assert obj in cells and holds in cells, tid


@pytest.mark.parametrize("tid", sorted(_PER_SIGNATURE))
def test_every_per_signature_identity_can_fail(tid):
    # the entry holds, and its negated predicate fails on the empty object:
    # a checker that tested no signature would pass both
    obj, holds = _PER_SIGNATURE[tid]
    report = verify_theorem(tid, n_max=4)
    assert report.ok and report.kind == "Identity", report.to_dict()
    negated = theorems._holds_per_signature(
        obj, lambda profiles, t: not holds(profiles, t))
    assert negated(0) == {"n": 0, "ok": False,
                          "detail": repr(next(KINDS[obj].objects(0)))}


def _perturb(monkeypatch, tid, **fields):
    """Replace REGISTRY[tid] by a copy with the given fields."""
    case = copy.copy(REGISTRY[tid])
    for name, value in fields.items():
        setattr(case, name, value)
    monkeypatch.setitem(REGISTRY, tid, case)


def _plus_zz_at(f, k):
    zz = var("zz")
    return lambda n: f(n) + zz if n == k else f(n)


def test_perturbed_alpha_fails_first_at_its_coefficient(monkeypatch):
    # zz in alpha_3 first reaches the expansion at t^3, as q*x*y*zz
    _perturb(monkeypatch, "perm.zeng89",
             alpha=_plus_zz_at(REGISTRY["perm.zeng89"].alpha, 3))
    report = verify_theorem("perm.zeng89", n_max=5)
    assert not report.ok
    assert report.first_discrepancy == {
        "n": 3, "ok": False,
        "discrepancy": {"monomial": "q*x*y*zz", "expected": 0, "got": 1}}


def test_perturbed_beta_fails_its_coherence_check(monkeypatch):
    # beta_5 first reaches the expansion at t^10, so at n_max=4 only the
    # specialization check of the entry's own beta_5 can see it
    _perturb(monkeypatch, "sp.J",
             beta=_plus_zz_at(REGISTRY["sp.J"].beta, 5))
    report = verify_theorem("sp.J", n_max=4)
    failed = [c for c in report.checks if not c["ok"]]
    assert failed == [{"check": "specialization of the (p,q) J-fraction: "
                                "beta_5", "ok": False,
                       "discrepancy": {"monomial": "zz", "expected": 0,
                                       "got": 1}}]
    assert not report.ok and report.first_discrepancy == failed[0]


def test_perturbed_closed_form_extra_names_its_monomial(monkeypatch):
    # the entry's polynomial is n! itself, so only the extra that compares
    # it with the enumeration sees eps in the enumeration at n = 2
    real = theorems._enum
    eps = var("eps")

    def perturbed(obj, n, family="all", weight="unit", zeta=False):
        p = real(obj, n, family, weight, zeta)
        return p + eps if (obj, n) == ("perm", 2) else p

    monkeypatch.setattr(theorems, "_enum", perturbed)
    report = verify_theorem("perm.euler.factorial", n_max=4)
    assert not report.ok
    assert report.first_discrepancy == {
        "check": "enumeration equals n!: n=2", "ok": False,
        "discrepancy": {"monomial": "eps", "expected": 0, "got": 1}}


@pytest.mark.parametrize("side", ["closed form", "enumeration"])
def test_perturbed_touchard_side_names_its_monomial(monkeypatch, side):
    # eps at n = 3 on the closed form fails its comparison with the
    # S-fraction; on the enumeration, the comparison that follows it
    eps = var("eps")
    if side == "closed form":
        real = theorems.touchard_riordan
        monkeypatch.setattr(theorems, "touchard_riordan",
                            lambda n: real(n) + eps if n == 3 else real(n))
        expected, got = 1, 0
    else:
        real = theorems._enum
        monkeypatch.setattr(
            theorems, "_enum", lambda obj, n, *args: real(obj, n, *args)
            + eps if (obj, n) == ("match", 3) else real(obj, n, *args))
        expected, got = 0, 1
    report = verify_theorem("match.touchard", n_max=4)
    assert [c["ok"] for c in report.checks] == [True] * 3 + [False, True]
    assert report.first_discrepancy == {
        "n": 3, "ok": False,
        "discrepancy": {"monomial": "eps", "expected": expected,
                        "got": got}}


def test_witness_reports_its_first_failing_check(monkeypatch):
    real = REGISTRY["perm.cyc.nonpoly"].witness

    def fifth_fails(seed):
        checks = real(seed)
        checks[4] = dict(checks[4], ok=False)
        return checks

    _perturb(monkeypatch, "perm.cyc.nonpoly", witness=fifth_fails)
    report = verify_theorem("perm.cyc.nonpoly", seed=0)
    assert [c["ok"] for c in report.checks].index(False) == 4
    assert not report.ok and report.first_discrepancy == report.checks[4]
    assert report.n_max is None and report.order is None


def test_cycle_alternating_entries_reach_alpha_5(monkeypatch):
    # an explicit n_max of 5 (the 50,521 cycle-alternating permutations of
    # [10]) reaches alpha_5, one level deeper than the registry's n_max of
    # 4; the family is grown directly, so no "all" histogram is tallied
    monkeypatch.setattr(theorems, "_ENUM_CACHE", {})
    ids = [tid for tid in list_theorems() if tid.startswith("perm.ca.")]
    assert len(ids) == 7
    for tid in ids:
        assert REGISTRY[tid].n_max == 4
        report = verify_theorem(tid, n_max=5)
        assert report.ok and report.n_max == 5, report.to_dict()
    assert {key[1:] for key in theorems._ENUM_CACHE} \
        == {(n, "cycle_alternating") for n in range(0, 11, 2)}


# the (object, weight) sides of each identity checked by _same that has an
# enumeration side
_SAME_SIDES = {
    "sp.four.equiv": ("pq-eleven", "ovcov-eleven", "mixed-three",
                      "mixed-four"),
    "B.equals.B2B3B4": ("pq-eleven", "ovcov-eleven", "mixed-three",
                        "mixed-four"),
    "ww.equidistribution": ("rs-rb", "lb-ls"),
}


@pytest.mark.parametrize("tid,side", [
    (tid, ("setpart", weight)) for tid, weights in _SAME_SIDES.items()
    for weight in weights] + [
    ("dillon", ("perm", "four-var-cyc")),
    ("MP.identity", ("match", "four-var-cp")),
    ("MP.identity", ("perm", "four-var-arec")),
    ("MP.identity.pq", ("match", "pq")),
    ("MP.identity.pq", ("perm", "eight-var-pq"))])
def test_every_equality_identity_can_fail(monkeypatch, tid, side):
    # one side gains a fresh indeterminate, so the identity fails from
    # n = 0 on; a checker that compared a side with itself would not
    real = theorems._enum
    eps = var("eps")

    def perturbed(obj, n, family="all", weight="unit", zeta=False):
        p = real(obj, n, family, weight, zeta)
        return p + eps if (obj, weight) == side else p

    monkeypatch.setattr(theorems, "_enum", perturbed)
    report = verify_theorem(tid, n_max=3)
    assert not report.ok
    # eps is on the first side (expected) or on a later one (got)
    assert report.first_discrepancy in (
        {"n": 0, "ok": False, "discrepancy": {"monomial": "eps",
                                              "expected": e, "got": 1 - e}}
        for e in (0, 1))

"""Acceptance tests: the ten headline checks of the artifact.

Each test covers one numbered criterion and prints a single PASS line on
success (visible with pytest -s; under plain pytest the per-test
PASSED/FAILED line serves the same purpose).
"""

import time

from cfenum.matchstats import touchard_riordan
from cfenum.mpoly import Monomial, var
from cfenum.permstats import (PERM, enumerate_polynomial, iter_permutations,
                              stat_totals)
from cfenum.series import (attach_component_weight, expand_jfraction,
                           expand_sfraction, indecomposable_series)
from cfenum.theorems import _enum, list_theorems, verify_theorem

from test_paths import (check_biane_closer_lemma, check_biane_lemmas,
                        check_fz_lemmas, check_reversed_stats,
                        check_round_trips, check_sp_label_lemmas)


def _ok(report, label):
    assert report.ok, "%s failed: %r" % (label, report.to_dict())


def _passed(num, text):
    print("[PASS] criterion %d: %s" % (num, text))


def test_criterion_01_classic_sequences():
    """S-fractions reproduce the five classic sequences to order 8."""
    for tid in ("perm.euler.factorial", "sp.bell.classic",
                "perm.catalan.classic", "perm.secant.classic",
                "match.doublefact.classic"):
        report = verify_theorem(tid, order=8)
        _ok(report, tid)
        assert report.order >= 8
    _passed(1, "classic S-fractions match oracles and enumeration, order 8")


def test_criterion_02_master_theorems():
    for tid, n in (("perm.masterJ1", 7), ("perm.masterJ2", 7),
                   ("sp.masterJ1", 9), ("sp.masterJ2", 9),
                   ("sp.masterJ3", 9), ("sp.masterJ4", 9),
                   ("match.master.S", 7)):
        report = verify_theorem(tid, n_max=n)
        _ok(report, tid)
        assert report.n_max == n
    _passed(2, "master theorems exact at the required sizes")


def test_criterion_03_all_specializations():
    for tid in list_theorems():
        _ok(verify_theorem(tid), tid)
    _passed(3, "all %d registered entries pass at default n_max"
            % len(list_theorems()))


def test_criterion_04_conjecture_forward():
    t0 = time.time()
    report = verify_theorem("conj.v2.full", n_max=7)
    small_time = time.time() - t0
    _ok(report, "conjecture n<=7")
    assert small_time <= 60.0, "n<=7 took %.1fs (limit 60s)" % small_time
    _ok(verify_theorem("conj.v2.full", n_max=9), "conjecture n<=9")
    _passed(4, "conjecture holds through n=9; n<=7 in %.1fs" % small_time)


# Criteria 05 and 06 read the matchings of [2n], n <= 8, from the one
# cached signature histogram per n: one pass over the 2,027,025 matchings
# of [16] serves both weights.

def test_criterion_05_cc_table():
    report = verify_theorem("match.cc.table", n_max=8)
    _ok(report, "match.cc.table")
    assert report.kind == "Identity"
    z = var("zeta")
    row8 = _enum("match", 8, "all", "zeta-cc")
    got = [row8.coeff_of(Monomial({z: k})) for k in range(1, 9)]
    assert got == [1708394, 273064, 38886, 5696, 850, 120, 14, 1]
    assert sum(got) == 2027025
    _passed(5, "connected-component table exact through n=8")


def test_criterion_06_touchard_riordan():
    for n in range(9):
        assert touchard_riordan(n) == _enum("match", n, "all", "cr")
    _passed(6, "Touchard-Riordan closed form exact through n=8")


def test_criterion_07_identity_suite():
    sizes = {
        "inv.decomp": 8, "avoid321.nonesting": 8, "dillon": 7,
        "orderedbell": 7, "MP.identity": 6, "MP.identity.pq": 5,
        "crne.eq.ovcov": 9, "crne.mod2": 9, "rs.formula": 9,
        "iota.formula": 9, "ww.equidistribution": 8,
        "B.equals.B2B3B4": 9, "sp.four.equiv": 9, "fig9.iota": None,
    }
    for tid, n in sizes.items():
        report = verify_theorem(tid, n_max=n)
        _ok(report, tid)
        assert report.kind == "Identity", tid
    _passed(7, "identity suite exhaustive at the stated sizes")


def test_criterion_08_bijection_suite():
    check_round_trips(7)
    check_fz_lemmas(7)
    check_biane_lemmas(7)
    check_sp_label_lemmas(7)
    check_reversed_stats(7)
    check_biane_closer_lemma(6)
    _passed(8, "six bijections and all lemmas exact on S7/Pi7; "
            "Biane closer lemma at n<=6")


def test_criterion_09_witnesses():
    for tid in ("perm.cyc.nonpoly", "perm.invcyc.nonpoly"):
        report = verify_theorem(tid, seed=0)
        _ok(report, tid)
        assert len(report.checks) >= 20
    _passed(9, "rational gamma/beta witnesses at 20 admissible points each")


def test_criterion_10_cc_and_indecomposable():
    for tid in ("perm.cc.zeta", "perm.indecomposable", "sp.cc.zeta",
                "sp.indecomposable", "match.cc.zeta",
                "match.indecomposable"):
        _ok(verify_theorem(tid), tid)
    # attach_component_weight / indecomposable_series against direct
    # enumeration in the unweighted (counting) case
    # n! is the S-fraction alpha_n = ceil(n/2) and its contraction, the
    # J-fraction gamma_n = 2n+1, beta_n = n^2
    z = var("zeta")
    f = expand_sfraction(attach_component_weight(lambda n: (n + 1) // 2, z),
                         6)
    for n in range(7):
        assert f[n] == enumerate_polynomial(PERM, n, weight="zeta-cc")
    g = indecomposable_series(
        expand_jfraction(lambda n: 2 * n + 1, lambda n: n * n, 6))
    for n in range(1, 7):
        assert g[n] == sum(
            1 for sg in iter_permutations(n)
            if stat_totals(PERM, sg).cc == 1)
    _passed(10, "zeta^cc and indecomposable expansions match enumeration")

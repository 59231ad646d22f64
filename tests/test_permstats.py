"""Unit tests for permutation statistics and weighted enumeration."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cfenum.matchstats import MATCH, Matching, NotAMatching, _match_walk
from cfenum.mpoly import Monomial, MultiPoly, as_poly, var
from cfenum.permstats import (PERM, PERM_FAMILIES, NotABijection,
                              Permutation, UnknownWeightMap, decode,
                              enumerate_polynomial, histogram, is_avoid321,
                              iter_permutations, per_record,
                              perm_master_weight_first,
                              perm_master_weight_second, signature,
                              stat_totals)
from cfenum.setpartstats import SETPART, NotAPartition, SetPartition, \
    _sp_walk

from enum_oracle import perm_index_profile

FIG3 = Permutation([5, 6, 1, 4, 2, 7, 3])


def test_perm_from_oneline():
    assert Permutation([1]).n == 1
    assert FIG3.n == 7
    assert FIG3(1) == 5 and FIG3.inverse_at(5) == 1
    with pytest.raises(NotABijection):
        Permutation([1, 1])
    with pytest.raises(NotABijection):
        Permutation([2, 3])


@pytest.mark.parametrize("make, error, elements", [
    (Permutation, NotABijection, [True]),
    (Permutation, NotABijection, [2.0, 1]),
    (Permutation, NotABijection, [1, "a"]),
    (SetPartition, NotAPartition, [[True]]),
    (SetPartition, NotAPartition, [[1], ["a"]]),
    (SetPartition, NotAPartition, [[1], []]),
    (Matching, NotAMatching, [(True, 2)]),
    (Matching, NotAMatching, [(1, 2, 3)]),
    (Matching, NotAMatching, [(1,)]),
    (Matching, NotAMatching, [(1, "a")])])
def test_constructors_take_only_the_ints_1_to_n(make, error, elements):
    # a bool, a float or a str is not an element, and a matching's pairs
    # have two elements: each is the type's own error, never a TypeError
    # or an unpacking ValueError
    with pytest.raises(error):
        make(elements)


def test_inverse():
    assert FIG3.inv_oneline == (3, 5, 7, 4, 1, 2, 6)
    assert Permutation(FIG3.inv_oneline).inv_oneline == FIG3.oneline


def test_compare_with_other_types():
    assert FIG3 != 1 and not FIG3 == None  # noqa: E711
    assert FIG3 not in [None, 3, (5, 6, 1, 4, 2, 7, 3)]
    assert FIG3 in [None, Permutation([5, 6, 1, 4, 2, 7, 3])]


def test_index_profile_identity():
    for p in perm_index_profile(Permutation([1, 2, 3])):
        assert p.cycle_class == "fix"
        assert p.record_class == "rar"
        assert p.lev == 0


def test_index_profile_fig3():
    prof = perm_index_profile(FIG3)
    assert prof[1].ucross == 1 and prof[1].unest == 0
    assert prof[3].cycle_class == "fix" and prof[3].lev == 2
    assert prof[4].lcross == 1 and prof[4].lnest == 0


def test_index_profile_321():
    prof = perm_index_profile(Permutation([3, 2, 1]))
    assert prof[1].cycle_class == "fix" and prof[1].lev == 1
    assert prof[0].cycle_class == "cval" and prof[0].unest == 0
    assert prof[2].cycle_class == "cpeak" and prof[2].lnest == 0


def test_stat_totals_small():
    t = stat_totals(PERM, Permutation([1, 2, 3, 4]))
    assert (t.cyc, t.fix, t.cc, t.inv) == (4, 4, 4, 0)
    t = stat_totals(PERM, Permutation([2, 1]))
    assert (t.inv, t.cyc, t.exc, t.cc) == (1, 1, 1, 1)


def test_stat_totals_fig3():
    t = stat_totals(PERM, FIG3)
    assert (t.cyc, t.fix, t.exc, t.cc) == (2, 1, 3, 1)


def test_dividers_and_cc():
    assert stat_totals(PERM, Permutation([2, 1, 3, 5, 4])).cc == 3


def _stats(word):
    """(profiles, totals) of a permutation, through its signature."""
    return decode(PERM, signature(PERM, Permutation(word)))


def test_master_weight_first():
    a, b, c, d, e = (lambda *i: var("a", *i)), (lambda *i: var("b", *i)), \
        (lambda *i: var("c", *i)), (lambda *i: var("d", *i)), \
        (lambda *i: var("e", *i))
    assert perm_master_weight_first(*_stats([1, 2, 3])) \
        == Monomial({e(0): 3})
    assert perm_master_weight_first(*_stats([2, 1])) \
        == Monomial({a(0, 0): 1, b(0, 0): 1})
    assert perm_master_weight_first(*_stats(FIG3.oneline)) == Monomial({
        a(0, 0): 1, a(1, 0): 1, b(0, 0): 1, b(1, 0): 1,
        c(1, 0): 1, d(0, 0): 1, e(2): 1})


def test_master_weight_second():
    lam = var("lam")
    assert perm_master_weight_second(*_stats([1, 2])) \
        == Monomial({lam: 2, var("e", 0): 2})
    assert perm_master_weight_second(*_stats([2, 1])) \
        == Monomial({lam: 1, var("a", 0): 1, var("b", 0, 0): 1})
    assert perm_master_weight_second(*_stats(FIG3.oneline)) == Monomial({
        lam: 2, var("a", 0): 1, var("a", 1): 1, var("b", 0, 0): 1,
        var("b", 1, 0): 1, var("c", 1, 0): 1, var("d", 0, 0): 1,
        var("e", 2): 1})


def test_enumerate_four_var_s3():
    x, y, u, v = var("x"), var("y"), var("u"), var("v")
    p = enumerate_polynomial(PERM, 3, weight="four-var-arec")
    assert p == x ** 3 + 3 * x ** 2 * y + x * y ** 2 + x * y * u
    assert p.substitute({"x": 1, "y": 1, "u": 1, "v": 1}) == 6


def test_enumerate_avoid321_narayana():
    x, y = var("x"), var("y")
    p = enumerate_polynomial(PERM, 3, family="avoid321", weight="two-var")
    assert p == x ** 3 + 3 * x ** 2 * y + x * y ** 2


def test_enumerate_cycle_alternating_secant():
    p = enumerate_polynomial(PERM, 4, family="cycle_alternating")
    assert p == 5  # E_4


def test_record_pruned_families_equal_filtered():
    # each family marked by per_record is grown directly; it must equal
    # the "all" histogram filtered by the family's (profiles, totals)
    # filter, and it must leave no "all" histogram in the cache
    pruned = {f for f, keep in PERM_FAMILIES.items() if hasattr(keep, "prune")}
    assert pruned == {"avoid321", "cycle_alternating"}
    for n in range(9):
        every = histogram(PERM, n)
        for family in sorted(pruned):
            keep, cache = PERM_FAMILIES[family], {}
            assert histogram(PERM, n, family, cache) == Counter(
                {sig: count for sig, count in every.items()
                 if keep(*decode(PERM, sig))}), (family, n)
            assert list(cache) == [("perm", n, family)]


def test_unmarked_family_filters_the_all_histogram():
    cache = {}
    assert sum(histogram(PERM, 5, "indecomposable", cache).values()) == 71
    assert set(cache) == {("perm", 5, "all"), ("perm", 5, "indecomposable")}

    # a caller's own filter, marked by per_record, is grown directly
    def derangement(profiles, totals):
        return totals.fix == 0
    per_record(derangement,
               lambda rec: PERM.profile(*rec).cycle_class != "fix")
    cache = {}
    assert sum(histogram(PERM, 6, derangement, cache).values()) == 265
    assert list(cache) == [("perm", 6, derangement)]


def test_walks_prune_records():
    # each walk skips the choices that finish a failing record: its leaf
    # runs once per object whose records all pass, and the pruned tally
    # is the "all" histogram filtered record by record
    for kind, walk, n_max, prunes in (
            (SETPART, _sp_walk, 8, (lambda rec: rec[0] != 3,  # no singleton
                                    lambda rec: rec[1] == 0,  # no crossing
                                    lambda rec: rec[5] == 0)),  # no cover
            (MATCH, _match_walk, 6, (lambda rec: rec[1] == 0,  # no crossing
                                     lambda rec: rec[2] == 0,  # no nesting
                                     lambda rec: rec[0] != 3,  # odd-odd
                                     # an odd opener closed alone at an
                                     # even closer, as the forced closing
                                     # at 2n may be
                                     lambda rec: rec[3] or rec[0] != 2))):
        width = kind.width
        for prune in prunes:
            for n in range(n_max + 1):
                want = sum(all(map(prune, kind.kernel(x)[1]))
                           for x in kind.objects(n))
                calls = []
                walk(n, lambda counts, records: calls.append(n),
                     prune=prune)
                assert len(calls) == want, (kind.name, n)
                assert kind.tally(n, prune) == Counter(
                    {sig: count for sig, count in kind.tally(n).items()
                     if all(prune(sig[i:i + width]) for i
                            in range(0, len(sig) - kind.ncounts, width))})

    # a family marked by per_record is grown by the kind's pruned tally;
    # it equals the "all" histogram filtered by the family's own filter,
    # and it leaves no "all" histogram in the cache
    assert enumerate_polynomial(SETPART, 3, family=per_record(
        lambda profiles, totals: True, lambda rec: True)) == 5
    no_singleton = per_record(
        lambda profiles, totals: all(
            p.element_class != "singleton" for p in profiles),
        lambda rec: rec[0] != 3)
    noncrossing = per_record(
        lambda profiles, totals: all(p.cr == 0 for p in profiles),
        lambda rec: rec[1] == 0)
    for kind, family, n, size in ((SETPART, no_singleton, 6, 41),
                                  (MATCH, noncrossing, 4, 14)):
        keep, cache = kind.family(family), {}
        hist = histogram(kind, n, family, cache)
        assert sum(hist.values()) == size
        assert hist == Counter({sig: count for sig, count
                                in histogram(kind, n).items()
                                if keep(*decode(kind, sig))})
        assert list(cache) == [(kind.name, n, family)]


def test_enumerate_empty_and_errors():
    assert enumerate_polynomial(PERM, 0, weight="master1") == MultiPoly.one()
    with pytest.raises(UnknownWeightMap):
        enumerate_polynomial(PERM, 2, weight="no-such-weight")


def _all_perms(n):
    return list(iter_permutations(n))


def test_per_index_consistency_n5():
    for sigma in _all_perms(5):
        prof = perm_index_profile(sigma)
        t = stat_totals(PERM, sigma)
        assert t.ucross == sum(p.ucross for p in prof)
        assert t.unest == sum(p.unest for p in prof)
        assert t.lcross == sum(p.lcross for p in prof)
        assert t.lnest == sum(p.lnest for p in prof)
        assert t.psnest == sum(p.lev for p in prof
                               if p.cycle_class == "fix")
        assert t.ujoin == t.cdrise and t.ljoin == t.cdfall
        assert t.exc - t.erec >= 0
        assert t.n - t.exc - t.arec >= 0
        assert t.n - t.exc - t.cyc >= 0
        # Per-index restrictions on where crossings/nestings can sit.
        for p in prof:
            if p.cycle_class not in ("cval", "cdrise"):
                assert p.ucross == p.unest == 0
            if p.cycle_class not in ("cpeak", "cdfall"):
                assert p.lcross == p.lnest == 0
            if p.record_class == "rar":
                assert p.cycle_class == "fix"


def test_inverse_duality_n6():
    for n in range(7):
        for sigma in _all_perms(n):
            t = stat_totals(PERM, sigma)
            ti = stat_totals(PERM, Permutation(sigma.inv_oneline))
            assert t.ucross == ti.lcross
            assert t.unest == ti.lnest
            assert t.psnest == ti.psnest
            assert t.inv == ti.inv


def test_reversal_duality_n6():
    for sigma in _all_perms(6):
        n = sigma.n
        rev = Permutation(
            [n + 1 - sigma(n + 1 - i) for i in range(1, n + 1)])
        t, tr = stat_totals(PERM, sigma), stat_totals(PERM, rev)
        assert t.cpeak == tr.cval and t.cval == tr.cpeak
        assert t.cdrise == tr.cdfall and t.cdfall == tr.cdrise
        assert t.rec == tr.arec and t.arec == tr.rec
        assert t.fix_by_level == tr.fix_by_level


def test_inversion_identity_n6():
    for sigma in _all_perms(6):
        t = stat_totals(PERM, sigma)
        assert t.inv == (t.exc + t.ucross + 2 * t.unest + t.lcross
                         + t.ljoin + 2 * t.lnest + 2 * t.psnest)


def test_level_double_count_n6():
    for sigma in _all_perms(6):
        for i in range(1, 7):
            if sigma(i) == i:
                left = sum(1 for j in range(1, i) if sigma(j) > i)
                right = sum(1 for j in range(i + 1, 7) if sigma(j) < i)
                assert left == right


def test_avoid321_no_nestings_n6():
    for sigma in _all_perms(6):
        prof = perm_index_profile(sigma)
        t = stat_totals(PERM, sigma)
        if is_avoid321(prof, t):
            assert t.unest == t.lnest == t.psnest == 0
            # agrees with direct pattern scan
            w = sigma.oneline
            assert not any(w[i] > w[j] > w[k]
                           for i in range(6) for j in range(i + 1, 6)
                           for k in range(j + 1, 6))


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(1, 8))))
def test_ten_way_partition(word):
    t = stat_totals(PERM, Permutation(list(word)))
    assert sum(t.ten_way.values()) == t.n
    assert t.erec + t.earec + t.rar + t.nrar == t.n
    assert t.cval + t.cpeak + t.cdrise + t.cdfall + t.fix == t.n
    assert t.cval == t.cpeak


def test_to_dict_shape():
    d = stat_totals(PERM, FIG3).to_dict()
    assert d["cyc"] == 2 and d["exc"] == 3
    assert "ereccval" in d and "ucrosscval" in d
    assert d["fix_by_level"] == {"2": 1}

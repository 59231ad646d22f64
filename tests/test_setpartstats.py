"""Unit tests for set-partition statistics and weighted enumeration."""

import pytest

from cfenum.mpoly import Monomial, MultiPoly, as_poly, var
from cfenum.permstats import (UnknownWeightMap, enumerate_polynomial, lookup,
                              stat_totals)
from cfenum.setpartstats import (SETPART, SP_WEIGHTS, NotAPartition,
                                 SetPartition, iter_set_partitions,
                                 sp_reverse)

from enum_oracle import sp_arcs, sp_index_profile

FIG9 = SetPartition([[1, 3, 6], [2, 4, 5]])


def test_setpart_from_blocks():
    pi = SetPartition([[1], [2]])
    assert pi.n == 2 and pi.blocks == ((1,), (2,)) and sp_arcs(pi) == []
    assert set(sp_arcs(FIG9)) == {(1, 3), (3, 6), (2, 4), (4, 5)}
    with pytest.raises(NotAPartition):
        SetPartition([[1, 2], [2, 3]])
    with pytest.raises(NotAPartition):
        SetPartition([[1], []])
    with pytest.raises(NotAPartition):
        SetPartition([[1, 3]])


def test_compare_with_other_types():
    assert FIG9 != 1 and not FIG9 == None  # noqa: E711
    assert FIG9 not in [None, 3, FIG9.blocks]
    assert FIG9 in [None, SetPartition([[2, 4, 5], [1, 3, 6]])]


def test_index_profile_examples():
    prof = sp_index_profile(SetPartition([[1, 2]]))
    assert prof[0].element_class == "opener"
    assert (prof[0].cr, prof[0].ne, prof[0].qne) == (0, 0, 0)
    assert prof[0].erec_flag and prof[0].brec_flag
    assert prof[1].element_class == "closer" and prof[1].qne == 0

    prof = sp_index_profile(SetPartition([[1, 3], [2, 4]]))
    assert prof[1].element_class == "opener"
    assert (prof[1].cr, prof[1].ne) == (1, 0)

    prof = sp_index_profile(SetPartition([[1, 4], [2, 3]]))
    assert (prof[1].cr, prof[1].ne) == (0, 1)
    assert prof[2].element_class == "closer" and prof[2].qne == 1


def test_stat_totals_examples():
    t = stat_totals(SETPART, FIG9)
    assert t.iota == 4 and t.iota_prime == 3

    t = stat_totals(SETPART, SetPartition([[1], [2], [3]]))
    assert (t.cr, t.ne, t.ov, t.cov, t.cc, t.blocks) == (0, 0, 0, 0, 3, 3)

    t = stat_totals(SETPART, SetPartition([[1, 3], [2, 4]]))
    assert (t.cr, t.ne, t.ov, t.cov, t.cc) == (1, 0, 1, 0, 1)


def test_master_weight_examples():
    singles = SetPartition([[1], [2], [3]])
    for variant in (1, 2, 3, 4):
        assert SP_WEIGHTS["master%d" % variant](
            sp_index_profile(singles), None) == Monomial({var("e", 0): 3})
    crossing = SetPartition([[1, 3], [2, 4]])
    expected = Monomial({var("a", 0, 0): 1, var("a", 1, 0): 1,
                         var("b", 0): 1, var("b", 1): 1})
    profiles = sp_index_profile(crossing)
    assert SP_WEIGHTS["master1"](profiles, None) == expected
    assert SP_WEIGHTS["master2"](profiles, None) == expected
    with pytest.raises(UnknownWeightMap):
        lookup(SP_WEIGHTS, "master5")


def test_reverse():
    assert sp_reverse(SetPartition([[1], [2]])) \
        == SetPartition([[1], [2]])
    assert sp_reverse(SetPartition([[1, 2, 5], [3, 4]])) \
        == SetPartition([[1, 4, 5], [2, 3]])
    for n in range(9):
        for pi in iter_set_partitions(n):
            assert sp_reverse(sp_reverse(pi)) == pi


def test_rgs_enumeration():
    assert list(iter_set_partitions(0)) == [SetPartition([])]
    counts = [len(list(iter_set_partitions(n))) for n in range(7)]
    assert counts == [1, 1, 2, 5, 15, 52, 203]
    parts = list(iter_set_partitions(4))
    assert len(set(parts)) == 15


def test_enumerate_block_count():
    x = var("x")
    assert enumerate_polynomial(SETPART, 3, weight="block-count") \
        == x ** 3 + 3 * x ** 2 + x
    assert enumerate_polynomial(SETPART, 0) == MultiPoly.one()


def test_enumerate_qlb_stirling():
    q, x = var("q"), var("x")
    p = enumerate_polynomial(SETPART, 4, weight="x-lb")
    two_blocks = sum((c * as_poly(m * Monomial({q: 0}))
                      for m, c in p.sorted_terms()
                      if dict(m.exps).get(x) == 2), MultiPoly())
    expected = (3 + 3 * q + q * q) * x ** 2
    assert two_blocks == expected
    # also reachable through the blocks:k family filter
    p2 = enumerate_polynomial(SETPART, 4, family="blocks:2", weight="x-lb")
    assert p2 == expected


def test_dividers_and_cc():
    pi = SetPartition([[1, 3], [2], [4, 5]])
    assert stat_totals(SETPART, pi).cc == 2


def _totals(n):
    for pi in iter_set_partitions(n):
        yield sp_index_profile(pi), stat_totals(SETPART, pi)


def test_profile_invariants_n7():
    for n in range(8):
        for prof, t in _totals(n):
            for p in prof:
                if p.element_class in ("opener", "insider"):
                    assert p.qne == p.cr + p.ne == p.ov + p.cov
                    assert p.erec_flag == (p.ne == 0)
                    assert p.brec_flag == (p.cov == 0)
            assert t.psne == t.pscov
            assert t.crop + t.neop == t.ov + t.cov
            assert t.crin + t.nein == t.ovin + t.covin
            assert t.iota_prime == t.iota - t.blocks * (t.blocks - 1) // 2
            assert t.iota_prime >= 0
            assert t.m1 + t.mge2 == t.blocks
            assert t.erecop + t.nerecop == t.brecop + t.nbrecop
            assert t.erecin + t.nerecin == t.brecin + t.nbrecin
            # opener sums give the ov/cov totals
            assert t.ov == sum(p.ov for p in prof
                               if p.element_class == "opener")
            assert t.cov == sum(p.cov for p in prof
                                if p.element_class == "opener")


def test_mod2_lemma_n7():
    for n in range(8):
        for _, t in _totals(n):
            assert (t.crin + t.crop - t.ov) % 2 == 0
            assert (t.crin + t.neop - t.cov) % 2 == 0
            assert (t.ne - (t.cov + t.ovin + t.covin)) % 2 == 0


def test_rs_and_iota_propositions_n7():
    for n in range(8):
        for pi in iter_set_partitions(n):
            t = stat_totals(SETPART, pi)
            tr = stat_totals(SETPART, sp_reverse(pi))
            assert t.rs == tr.ov + 2 * tr.cov + tr.covin + tr.pscov
            assert t.iota_prime == t.cr + t.ov + t.cov + t.pscov
            assert t.iota_prime == t.crin + 2 * t.crop + t.neop + t.psne


def test_wachs_white_equidistribution_n7():
    for n in range(8):
        assert enumerate_polynomial(SETPART, n, weight="lb-ls") \
            == enumerate_polynomial(SETPART, n, weight="rs-rb")


def test_four_master_weights_agree_n7():
    for n in range(8):
        sums = [enumerate_polynomial(SETPART, n, weight="master%d" % v)
                for v in (1, 2, 3, 4)]
        assert sums[0] == sums[1] == sums[2] == sums[3]

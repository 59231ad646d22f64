"""Unit tests for perfect-matching statistics and Touchard-Riordan."""

import pytest

from cfenum.matchstats import (MATCH, Matching, NotAMatching, iter_matchings,
                               matching_master_weight,
                               touchard_riordan)
from cfenum.mpoly import Monomial, MultiPoly, as_poly, var
from cfenum.permstats import (PERM, decode, enumerate_polynomial, signature,
                              stat_totals)
from cfenum.series import expand_sfraction


def _pqint(n, p, q):
    return sum((as_poly(p) ** j * as_poly(q) ** (n - 1 - j)
                for j in range(n)), as_poly(0))


def test_matching_construction():
    m = Matching([(1, 3), (2, 4)])
    assert m.n == 2
    assert list(m.partner[1:]) == [3, 4, 1, 2]
    assert m.as_blocks() == [[1, 3], [2, 4]]
    with pytest.raises(NotAMatching):
        Matching([(1, 2), (2, 3)])
    with pytest.raises(NotAMatching):
        Matching([(1, 1)])
    with pytest.raises(NotAMatching):
        Matching([(1, 3)])


def test_compare_with_other_types():
    m = Matching([(1, 3), (2, 4)])
    assert m != 1 and not m == None  # noqa: E711
    assert m not in [None, 3, m.partner]
    assert m in [None, Matching([(2, 4), (1, 3)])]


def test_stat_totals_examples():
    t = stat_totals(MATCH, Matching([(1, 2)]))
    assert t.ecpar == 1 and t.ocvr == 1
    assert t.cr == t.ne == 0 and t.cc == 1

    t = stat_totals(MATCH, Matching([(1, 3), (2, 4)]))
    assert t.cr == 1 and t.ecr == 1 and t.ocr == 0

    t = stat_totals(MATCH, Matching([(1, 4), (2, 3)]))
    assert t.ne == 1 and t.ene == 1


def test_totals_partition_invariants():
    for n in range(1, 6):
        for m in iter_matchings(n):
            t = stat_totals(MATCH, m)
            assert t.ecpar + t.ocpar + t.ecpnar + t.ocpnar == n
            assert t.ecvr + t.ocvr + t.ecvnr + t.ocvnr == n
            assert t.cr == t.ecr + t.ocr
            assert t.ne == t.ene + t.one


def _master(pairs):
    return matching_master_weight(
        *decode(MATCH, signature(MATCH, Matching(pairs))))


def test_master_weight_examples():
    assert _master([(1, 2)]) \
        == Monomial({var("a", 0, 0): 1, var("b", 0): 1})
    assert _master([(1, 2), (3, 4)]) \
        == Monomial({var("a", 0, 0): 2, var("b", 0): 2})
    assert _master([(1, 3), (2, 4)]) \
        == Monomial({var("a", 0, 0): 1, var("a", 1, 0): 1,
                     var("b", 0): 1, var("b", 1): 1})


def test_matching_counts():
    for n in range(7):
        expect = 1
        for k in range(1, 2 * n, 2):
            expect *= k
        assert sum(1 for _ in iter_matchings(n)) == expect


def test_four_var_sfraction():
    x, y, u, v = var("x"), var("y"), var("u"), var("v")

    def alpha(n):
        k = (n + 1) // 2
        if n % 2 == 1:
            return x + (2 * k - 2) * u
        return y + (2 * k - 1) * v

    f = expand_sfraction(alpha, 6)
    for n in range(7):
        assert f[n] \
            == enumerate_polynomial(MATCH, n, weight="four-var-cp")
        assert f[n] \
            == enumerate_polynomial(MATCH, n, weight="four-var-cv")


def test_n1_four_var_is_x():
    assert enumerate_polynomial(MATCH, 1, weight="four-var-cp") \
        == as_poly(var("x"))


def test_six_var_sfraction():
    x, y, u, v, xb, yb = (var(s) for s in ("x", "y", "u", "v", "xb", "yb"))

    def alpha(n):
        k = (n + 1) // 2
        if n % 2 == 1:
            return (x + (2 * k - 2) * u) * xb
        return (y + (2 * k - 1) * v) * yb

    f = expand_sfraction(alpha, 5)
    for n in range(6):
        assert f[n] \
            == enumerate_polynomial(MATCH, n, weight="six-var")


def test_pq_sfraction():
    x, y, u, v = var("x"), var("y"), var("u"), var("v")
    pp, pm, qp, qm = var("pp"), var("pm"), var("qp"), var("qm")

    def alpha(n):
        k = (n + 1) // 2
        if n % 2 == 1:
            return (as_poly(pm) ** (2 * k - 2) * x
                    + qm * _pqint(2 * k - 2, pm, qm) * u)
        return (as_poly(pp) ** (2 * k - 1) * y
                + qp * _pqint(2 * k - 1, pp, qp) * v)

    f = expand_sfraction(alpha, 5)
    for n in range(6):
        assert f[n] == enumerate_polynomial(MATCH, n, weight="pq")
        assert f[n] == enumerate_polynomial(MATCH, n, weight="pq-cv")


def test_master_sfraction():
    def alpha(n):
        k = n - 1
        astar = sum((as_poly(var("a", l, k - l)) for l in range(k + 1)),
                    as_poly(0))
        return astar * var("b", k)

    f = expand_sfraction(alpha, 5)
    for n in range(6):
        assert f[n] == enumerate_polynomial(MATCH, n, weight="master")


def test_touchard_riordan():
    p = var("p")
    assert touchard_riordan(0) == MultiPoly.one()
    assert touchard_riordan(2) == 2 + p
    for n in range(7):
        assert touchard_riordan(n) \
            == enumerate_polynomial(MATCH, n, weight="cr")


def test_touchard_riordan_counts_all_matchings():
    # at p = 1 it is (2n-1)!!, the number of matchings of [2n], for n past
    # the sizes that the enumeration reaches
    count = 1
    for n in range(15):
        assert sum(touchard_riordan(n).terms.values()) == count, n
        count *= 2 * n + 1


def test_parity_lemma():
    for n in range(1, 7):
        for m in iter_matchings(n):
            for (j, l) in m.pairs:
                cr = ne = 0
                for (a, b) in m.pairs:
                    if a < j < b < l:
                        cr += 1
                    elif a < j and b > l:
                        ne += 1
                assert (j - 1 - cr - ne) % 2 == 0


def test_cc_distribution():
    z = var("zeta")
    assert enumerate_polynomial(MATCH, 3, weight="zeta-cc") \
        == 10 * z + 4 * z ** 2 + z ** 3
    assert enumerate_polynomial(MATCH, 4, weight="zeta-cc") \
        == 74 * z + 24 * z ** 2 + 6 * z ** 3 + z ** 4


def test_matching_to_perm_identity():
    u, v, y = var("u"), var("v"), var("y")
    for n in range(6):
        mn = enumerate_polynomial(MATCH, n, weight="four-var-cp")
        pn = enumerate_polynomial(PERM, n, weight="four-var-arec") \
            .substitute({"y": y + v, "u": 2 * u, "v": 2 * v})
        assert mn == pn

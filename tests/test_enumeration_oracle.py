"""Differential tests: the signature-histogram enumeration against the
per-object reference loop of enum_oracle, exhaustively at small n."""

import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial

import pytest

import cfenum
from cfenum import permstats, theorems
from cfenum.mpoly import ExponentError, as_poly, monomial, sum_of_products
from cfenum.permstats import (PERM, IndexProfile, Layout, decode,
                              enumerate_polynomial, factors, histogram,
                              iter_permutations, signature, stat_totals)
from cfenum.matchstats import MATCH, iter_matchings
from cfenum.setpartstats import SETPART, SPIndexProfile, iter_set_partitions
from cfenum.theorems import KINDS

import enum_oracle

N_MAX = {"perm": 6, "setpart": 6, "match": 5}


def _with_kernel(kind, kernel):
    """`kind` with another kernel, tallied object by object through it; a
    prune keeps the objects whose kernel records all pass it."""
    mutant = kind._replace(kernel=kernel)

    def tally(n, prune=None):
        return Counter(signature(mutant, x) for x in mutant.objects(n)
                       if prune is None or all(map(prune, kernel(x)[1])))
    return mutant._replace(tally=tally)


def _mismatches(obj, kind, weights=None):
    """(weight, family, zeta, n) for which the histogram path over `kind`
    and the oracle disagree, over every weight id, family, zeta and
    n <= N_MAX."""
    oracle = enum_oracle.KINDS[obj]
    cache = {}
    bad = []
    for n in range(N_MAX[obj] + 1):
        stats = [oracle.stats(x) for x in oracle.objects(n)]
        for weight in weights or oracle.weights:
            for family, keep in oracle.families.items():
                for zeta in (False, True):
                    want = enum_oracle.weighted_sum(
                        stats, lambda args: args, oracle.weights[weight],
                        keep, zeta)
                    got = enumerate_polynomial(kind, n, family, weight, zeta,
                                               cache)
                    if got != want:
                        bad.append((weight, family, zeta, n))
    return bad


@pytest.mark.parametrize("obj", ["perm", "setpart", "match"])
def test_histogram_matches_oracle(obj):
    assert _mismatches(obj, KINDS[obj]) == []


def test_record_weight_range_checked_per_record():
    # x^20000 per record: the second record of any partition of [2] or
    # [4] passes the limit; over [4], a check of the whole product alone
    # would find x^80000 already wrapped into the next field
    @factors
    def huge(profiles, totals):
        return monomial([("x", 20000 * len(profiles))])
    for n in (2, 4):
        with pytest.raises(ExponentError, match="exponent 40000 of x"):
            enumerate_polynomial(SETPART, n, weight=huge)
    # the same overflow inside a prefix of two records that the next row
    # reuses, and in rows whose count is 0
    sigs = sorted(histogram(SETPART, 4))
    head = 2 * SETPART.width
    a, b = next((a, b) for a, b in zip(sigs, sigs[1:])
                if a[:head] == b[:head])
    for hist in (Counter({a: 1, b: 1}), Counter(dict.fromkeys(sigs, 0))):
        with pytest.raises(ExponentError, match="exponent 40000 of x"):
            Layout(SETPART, hist).weigh(huge)


def _fresh(weight):
    """`weight` under a new function marked by `factors`: an empty memo."""
    return factors(lambda profiles, totals: weight(profiles, totals))


def test_memo_keeps_kinds_and_zeta_apart():
    # "unit" and "zeta-cc" are one function each for all three kinds, so
    # one memo serves every kind and both zeta settings; weighed in two
    # interleaved orders, each sum must still equal the oracle's
    want = {}
    for obj in ("perm", "setpart", "match"):
        oracle = enum_oracle.KINDS[obj]
        for n in range(N_MAX[obj] + 1):
            stats = [oracle.stats(x) for x in oracle.objects(n)]
            for wid in ("unit", "zeta-cc"):
                for zeta in (False, True):
                    want[obj, n, wid, zeta] = enum_oracle.weighted_sum(
                        stats, lambda args: args, oracle.weights[wid], None,
                        zeta)
    orders = [sorted(want), sorted(want, key=lambda k: (-k[1], k[3], k[0]))]
    for order in orders:
        weights = {wid: _fresh(KINDS["perm"].weights[wid])
                   for wid in ("unit", "zeta-cc")}
        cache = {}
        for obj, n, wid, zeta in order:
            got = enumerate_polynomial(KINDS[obj], n, "all", weights[wid],
                                       zeta, cache)
            assert got == want[obj, n, wid, zeta], (obj, n, wid, zeta)


@pytest.mark.parametrize("obj", ["perm", "setpart", "match"])
def test_cached_layout_weighs_as_uncached(obj):
    # two histograms in one cache, each weighed by every map of its kind,
    # in forward and reversed map order, against a layout built per call
    kind = KINDS[obj]
    sizes = (N_MAX[obj], N_MAX[obj] - 1)
    for wids in (list(kind.weights), list(kind.weights)[::-1]):
        weights = {wid: _fresh(w) if hasattr(w, "factors") else w
                   for wid, w in kind.weights.items()}
        cache = {}
        for wid in wids:
            for n in sizes:
                for zeta in (False, True):
                    got = enumerate_polynomial(kind, n, "all", weights[wid],
                                               zeta, cache)
                    assert got == Layout(kind, kind.tally(n)).weigh(
                        kind.weights[wid], zeta), (wid, n, zeta)


def test_cached_overflow_raises_again():
    # the second weighing reads the memo and the cached layout, and still
    # checks the range after every addition
    calls = []

    @factors
    def huge(profiles, totals):
        calls.append(len(profiles))
        return monomial([("x", 20000 * len(profiles))])
    cache = {}
    for weighing in (1, 2):
        with pytest.raises(ExponentError, match="exponent 40000 of x"):
            enumerate_polynomial(SETPART, 4, weight=huge, cache=cache)
        if weighing == 1:
            weighed = len(calls)
    assert weighed and len(calls) == weighed


def test_layout_is_built_once(monkeypatch):
    # each cached histogram has its tails and its records found once and
    # its trie built once, and never a trie for a map under which every
    # record weighs 1
    built = Counter()

    def spy(name):
        build = getattr(permstats, name)

        def counted(kind, hist, *args):
            # the cache keeps every histogram, so no id is reused
            built[name, kind.name, id(hist)] += 1
            return build(kind, hist, *args)
        monkeypatch.setattr(permstats, name, counted)
    spy("_count_tails")
    spy("_distinct_records")
    spy("_record_trie")
    cache = {}
    for obj in ("perm", "setpart", "match"):
        kind = KINDS[obj]
        for n in range(N_MAX[obj] + 1):
            for wid in ("unit", "zeta-cc"):
                for zeta in (False, True):
                    enumerate_polynomial(kind, n, "all", wid, zeta, cache)
    assert built and set(built.values()) == {1}
    assert {name for name, _, _ in built} \
        == {"_count_tails", "_distinct_records"}
    for obj in ("perm", "setpart", "match"):
        kind = KINDS[obj]
        for n in range(N_MAX[obj] + 1):
            for wid in kind.weights:
                enumerate_polynomial(kind, n, "all", wid, False, cache)
    assert set(built.values()) == {1}
    assert {(name, obj) for name, obj, _ in built} == {
        (name, obj)
        for name in ("_count_tails", "_distinct_records", "_record_trie")
        for obj in ("perm", "setpart", "match")}


@pytest.mark.parametrize("obj", ["perm", "setpart", "match"])
def test_weighted_sum_ignores_histogram_order(obj):
    # the sum visits the signatures in its own order, so the histogram's
    # order does not matter; a histogram of two sizes weighs as the sum of
    # each size alone
    kind, n = KINDS[obj], N_MAX[obj]
    hist, smaller = histogram(kind, n), histogram(kind, n - 1)
    items = list(hist.items())
    random.Random(n).shuffle(items)
    mixed = list(hist.items()) + list(smaller.items())
    random.Random(-n).shuffle(mixed)
    orders = [Counter(dict(order)) for order in (
        items, sorted(items), sorted(items, reverse=True))]
    for wid, weight in kind.weights.items():
        for zeta in (False, True):
            want = Layout(kind, hist).weigh(weight, zeta)
            for order in orders:
                assert Layout(kind, order).weigh(weight, zeta) == want, wid
            assert Layout(kind, Counter(dict(mixed))).weigh(weight, zeta) \
                == want + Layout(kind, smaller).weigh(weight, zeta), wid


@pytest.mark.parametrize("obj", ["perm", "setpart", "match"])
def test_records_that_weigh_1_are_not_keys(obj, monkeypatch):
    # under "unit" and "zeta-cc" every record weighs 1: the histogram is
    # projected onto its counts, so the product loop sees only count-field
    # keys, and the sum still equals the oracle's
    keys = []

    def spy(rows, factor):
        rows = list(rows)
        keys.extend(key for _, row, _ in rows for key in row)
        return sum_of_products(rows, factor)
    monkeypatch.setattr(permstats, "sum_of_products", spy)
    kind, oracle = KINDS[obj], enum_oracle.KINDS[obj]
    for wid in ("unit", "zeta-cc"):
        calls = []

        @factors
        def counted(profiles, totals, weight=kind.weights[wid]):
            calls.append(len(profiles))
            return weight(profiles, totals)
        for n in range(N_MAX[obj] + 1):
            stats = [oracle.stats(x) for x in oracle.objects(n)]
            for zeta in (False, True):
                del keys[:]
                want = enum_oracle.weighted_sum(
                    stats, lambda args: args, oracle.weights[wid], None, zeta)
                assert enumerate_polynomial(kind, n, "all", counted, zeta) \
                    == want, (wid, n, zeta)
                assert all(isinstance(key, int) for key in keys)
                # cc is the one count field that weighs, from n = 1 on
                assert bool(keys) == (n > 0 and (zeta or wid == "zeta-cc"))
        # the map saw single records (to find that they weigh 1) and
        # counts alone, never a whole signature
        assert calls and set(calls) == {0, 1}


_UNMARKED = {"perm": {"four-var-cyc"},
             "setpart": {"x-lsprime", "x-iota-prime"},
             "match": set()}


@pytest.mark.parametrize("obj", ["perm", "setpart", "match"])
def test_factoring_weights_match_whole_signature(obj):
    # every map marked by `factors`, weighted record by record and count
    # by count, against the same map unmarked, weighted per signature
    kind = KINDS[obj]
    weights = dict(kind.weights)
    if obj == "perm":
        weights.update(inv_sixstat=theorems._w_inv_sixstat,
                       q_inv=theorems._w_q_inv)
    assert {wid for wid, w in weights.items()
            if not hasattr(w, "factors")} == _UNMARKED[obj]
    for n in range(N_MAX[obj] + 1):
        hist = histogram(kind, n)
        for wid, weight in weights.items():
            if wid in _UNMARKED[obj]:
                continue
            whole = partial(_call, weight)
            for zeta in (False, True):
                assert Layout(kind, hist).weigh(weight, zeta) \
                    == Layout(kind, hist).weigh(whole, zeta), (wid, n, zeta)


def _call(weight, profiles, totals):
    return weight(profiles, totals)


def test_weight_map_must_return_a_monomial():
    def poly_weight(profiles, totals):
        return as_poly(1)

    @factors
    def marked_poly_weight(profiles, totals):
        return as_poly(1)
    for weight in (poly_weight, marked_poly_weight):
        with pytest.raises(TypeError, match=weight.__name__):
            enumerate_polynomial(MATCH, 2, weight=weight)


@pytest.mark.parametrize("kind, n_max, sizes", [
    (SETPART, 8, [1, 1, 2, 5, 15, 52, 203, 877, 4140]),  # Bell numbers
    (MATCH, 6, [1, 1, 3, 15, 105, 945, 10395]),  # (2n-1)!!
    (PERM, 7, [1, 1, 2, 6, 24, 120, 720, 5040])])  # n!
def test_tally_matches_per_object(kind, n_max, sizes):
    # the fused tally against the kernel run on every object, every key
    # and every count
    for n in range(n_max + 1):
        hist = kind.tally(n)
        assert hist == Counter(signature(kind, x) for x in kind.objects(n)), n
        assert sum(hist.values()) == sizes[n]


def test_enumeration_side_imports_no_fraction_side():
    # the enumeration stays an oracle for the fractions only while it never
    # reaches the path DP, the series or the registry
    code = ("import sys, cfenum.permstats, cfenum.setpartstats, "
            "cfenum.matchstats; print(' '.join(sorted(sys.modules)))")
    src = os.path.dirname(os.path.dirname(cfenum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "cfenum.permstats" in out
    for name in ("cfenum.paths", "cfenum.series", "cfenum.theorems"):
        assert name not in out


@pytest.mark.parametrize("obj", ["perm", "setpart", "match"])
def test_signature_totals_match_oracle(obj):
    oracle = enum_oracle.KINDS[obj]
    kind = KINDS[obj]
    for n in range(N_MAX[obj] + 1):
        for x in oracle.objects(n):
            want = oracle.to_dict(oracle.stats(x)[2])
            assert stat_totals(kind, x).to_dict() == want, x
            assert decode(kind, signature(kind, x))[1].to_dict() == want, x


@pytest.mark.parametrize("obj, profiles, fields", [
    ("perm", enum_oracle.perm_index_profile, IndexProfile._fields[:-1]),
    ("setpart", enum_oracle.sp_index_profile, SPIndexProfile._fields)])
def test_kernel_profiles_match_oracle(obj, profiles, fields):
    # every field that the oracle defines: all but the perm pred_unest;
    # n = 7 reaches the worked examples and per-element invariants that
    # test_permstats and test_setpartstats check on the oracle.  The
    # set-partition kernel finishes its records in closing order, so each
    # object's profiles are compared as sorted lists.
    kind = KINDS[obj]
    for n in range(8):
        for x in enum_oracle.KINDS[obj].objects(n):
            got = [kind.profile(*r) for r in kind.kernel(x)[1]]
            assert sorted([getattr(p, k) for k in fields] for p in got) \
                == sorted([getattr(p, k) for k in fields]
                          for p in profiles(x)), x


def test_mutated_signature_is_caught():
    # zero the cycle predecessor's unest, the last field of each record
    def without_pred_unest(sigma):
        counts, records = PERM.kernel(sigma)
        return counts, [record[:3] + [0] for record in records]

    mutant = _with_kernel(PERM, without_pred_unest)
    bad = _mismatches("perm", mutant, ["master2", "four-var-arec"])
    assert bad
    assert {weight for weight, _, _, _ in bad} == {"master2"}


def test_one_kernel_pass_per_object_set(monkeypatch):
    calls = []

    def counted(n, prune=None):
        calls.append(n)
        return SETPART.tally(n, prune)

    monkeypatch.setitem(KINDS, "setpart", SETPART._replace(tally=counted))
    monkeypatch.setattr(theorems, "_ENUM_CACHE", {})
    for tid in ("sp.masterJ1", "sp.masterJ2", "sp.masterJ3", "sp.masterJ4"):
        assert theorems.verify_theorem(tid, n_max=6).ok, tid
    assert calls == list(range(7))  # one tally per n
    # a new weight, family or zeta for a cached set runs no tally
    del calls[:]
    for n in range(7):
        theorems._enum("setpart", n, "all", "x-lb")
        theorems._enum("setpart", n, "indecomposable", "three-var", True)
    assert calls == []


def _inv_decomp_with_inv(monkeypatch, shift):
    """inv.decomp at n <= 4 on a fresh cache, with a perm kernel whose inv
    is moved by shift(inv)."""
    def kernel(sigma):
        (cyc, inv, cc), records = PERM.kernel(sigma)
        return (cyc, inv + shift(inv), cc), records

    monkeypatch.setitem(KINDS, "perm", _with_kernel(PERM, kernel))
    monkeypatch.setattr(theorems, "_ENUM_CACHE", {})
    return theorems.verify_theorem("inv.decomp", n_max=4)


def test_inv_off_by_one_fails_inv_decomp(monkeypatch):
    assert _inv_decomp_with_inv(monkeypatch, lambda inv: 0).ok
    report = _inv_decomp_with_inv(monkeypatch, lambda inv: 1)
    assert not report.ok
    assert [c["ok"] for c in report.checks] == [False] * 5
    # off by one at odd inv only: the detail is the first failing object
    report = _inv_decomp_with_inv(monkeypatch, lambda inv: inv % 2)
    assert [c["ok"] for c in report.checks] == [True, True] + [False] * 3
    assert report.first_discrepancy["detail"] == "Permutation([2, 1])"
    assert report.checks[3]["detail"] == "Permutation([1, 3, 2])"


@pytest.mark.parametrize("holds", [
    lambda profiles, t: not theorems._crne_eq_ovcov(profiles, t),
    lambda profiles, t: not theorems._iota_formula(profiles, t),
    lambda profiles, t: t.cr == 0])
def test_identity_detail_is_first_failing_object(monkeypatch, holds):
    # the tally lists signatures in its own order; the detail is still the
    # first failing object in SETPART.objects order
    monkeypatch.setattr(theorems, "_ENUM_CACHE", {})
    want = next(x for x in SETPART.objects(5)
                if not holds(*decode(SETPART, signature(SETPART, x))))
    assert theorems._holds_per_signature("setpart", holds)(5) \
        == {"n": 5, "ok": False, "detail": repr(want)}


def _rgs(pi):
    """The restricted-growth word of pi: each element's block, the blocks
    numbered 0, 1, ... by their minima."""
    label = {e: i for i, b in enumerate(pi.blocks) for e in b}
    return tuple(label[e] for e in range(1, pi.n + 1))


@pytest.mark.parametrize("objects, sizes, key", [
    (iter_permutations, [1, 1, 2, 6, 24, 120, 720, 5040],
     lambda sigma: sigma.oneline),
    (iter_set_partitions, [1, 1, 2, 5, 15, 52, 203, 877, 4140], _rgs),
    (iter_matchings, [1, 1, 3, 15, 105, 945, 10395], lambda m: m.pairs)])
def test_generators_are_lexicographic(objects, sizes, key):
    # the identity checkers report the first failing object in this order;
    # strictly increasing keys mean distinct objects, in order
    for n, size in enumerate(sizes):
        keys = [key(x) for x in objects(n)]
        assert len(keys) == size
        assert all(a < b for a, b in zip(keys, keys[1:]))

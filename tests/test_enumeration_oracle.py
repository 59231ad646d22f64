"""Differential tests: the signature-histogram enumeration against the
per-object reference loop of enum_oracle, exhaustively at small n."""

import pytest

from cfenum import theorems
from cfenum.matchstats import MATCH, matching_stat_totals
from cfenum.permstats import PERM, enumerate_polynomial, perm_stat_totals
from cfenum.setpartstats import SETPART, sp_stat_totals

import enum_oracle

N_MAX = {"perm": 6, "setpart": 6, "match": 5}
LIBRARY = {"perm": (PERM, perm_stat_totals),
           "setpart": (SETPART, sp_stat_totals),
           "match": (MATCH, matching_stat_totals)}


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
    assert _mismatches(obj, LIBRARY[obj][0]) == []


@pytest.mark.parametrize("obj", ["perm", "setpart", "match"])
def test_signature_totals_match_oracle(obj):
    oracle = enum_oracle.KINDS[obj]
    kind, stat_totals = LIBRARY[obj]
    for n in range(N_MAX[obj] + 1):
        for x in oracle.objects(n):
            want = oracle.to_dict(oracle.stats(x)[2])
            assert stat_totals(x).to_dict() == want, x
            assert kind.decode(kind.signature(x))[1].to_dict() == want, x


def test_mutated_signature_is_caught():
    # zero the cycle predecessor's unest, the last byte of each record
    def without_pred_unest(sigma):
        sig = bytearray(PERM.signature(sigma))
        sig[6::4] = bytes(len(sig[6::4]))
        return bytes(sig)

    mutant = PERM._replace(signature=without_pred_unest)
    bad = _mismatches("perm", mutant, ["master2", "four-var-arec"])
    assert bad
    assert {weight for weight, _, _, _ in bad} == {"master2"}


def test_one_kernel_pass_per_object_set(monkeypatch):
    calls = []

    def counted(pi):
        calls.append(pi)
        return SETPART.signature(pi)

    import cfenum.setpartstats as setpartstats
    monkeypatch.setattr(setpartstats, "SETPART",
                        SETPART._replace(signature=counted))
    monkeypatch.setattr(theorems, "_ENUM_CACHE", {})
    for tid in ("sp.masterJ1", "sp.masterJ2", "sp.masterJ3", "sp.masterJ4"):
        assert theorems.verify_theorem(tid, n_max=6).ok, tid
    assert len(calls) == sum([1, 1, 2, 5, 15, 52, 203])  # Bell(0..6)
    # a new weight, family or zeta for a cached set runs no kernel
    del calls[:]
    for n in range(7):
        theorems._enum("setpart", n, "all", "x-lb")
        theorems._enum("setpart", n, "indecomposable", "three-var", True)
    assert calls == []

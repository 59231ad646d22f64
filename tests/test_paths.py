"""Unit tests for labeled Motzkin paths and the six bijections."""

from itertools import product
import json

import pytest
from hypothesis import given, settings, strategies as st

from cfenum.mpoly import Indeterminate, as_poly
from cfenum.paths import (BIJECTIONS, ColoredStep, InvalidPath,
                          LabeledMotzkinPath, PF_FZ, PossibilityFunction,
                          TypeMismatch, decode, encode, path_from_json,
                          path_to_json_obj, path_validate)
from cfenum.permstats import (PERM, Permutation, enumerate_polynomial,
                              iter_permutations, stat_totals)
from cfenum.series import expand_jfraction
from cfenum.setpartstats import SetPartition, iter_set_partitions, sp_reverse

from enum_oracle import perm_index_profile, sp_arcs, sp_index_profile

FIG3 = Permutation([5, 6, 1, 4, 2, 7, 3])
PERM_BIJECTIONS = ("FZ", "Biane")
SP_BIJECTIONS = ("KZ", "Flajolet", "Hybrid3", "Hybrid4")


# ---------------------------------------------------------------------------
# Oracle of the set-partition label lemmas: statistics read off the arcs and
# blocks directly, with the distinguished index in third position.

def sp_reversed_index_stats(pi):
    """Per-index reversed crossing/nesting/overlap/covering statistics.

    Returns a dict index -> dict with keys crt, net, ovt, covt where
    crt(k) counts quadruplets i<j<k<l with arcs (i,k),(j,l);
    net(k) counts i<j<k<l with arcs (i,l),(j,k);
    ovt(k) counts blocks B' with min B(k) < min B' < k < max B';
    covt(k) counts blocks B' with min B' < min B(k) < k < max B'.
    """
    arcs = sp_arcs(pi)
    block_of = {}
    for b in pi.blocks:
        for j in b:
            block_of[j] = b
    out = {}
    for k in range(1, pi.n + 1):
        crt = net = 0
        for (i, kk) in arcs:
            if kk != k:
                continue
            for (j, l) in arcs:
                if i < j < k < l:
                    crt += 1
        for (j, kk) in arcs:
            if kk != k:
                continue
            for (i, l) in arcs:
                if i < j and l > k:
                    net += 1
        b = block_of[k]
        ovt = covt = 0
        for bp in pi.blocks:
            if bp is b or len(bp) == 0:
                continue
            if bp[0] < k < bp[-1]:
                if b[0] < bp[0]:
                    ovt += 1
                else:
                    covt += 1
        out[k] = {"crt": crt, "net": net, "ovt": ovt, "covt": covt}
    return out


# ---------------------------------------------------------------------------
# Sized exhaustive checks, shared with the acceptance suite.

def check_round_trips(n_max):
    for n in range(n_max + 1):
        for sg in iter_permutations(n):
            for bj in PERM_BIJECTIONS:
                q = encode(sg, bj)
                assert path_validate(q, BIJECTIONS[bj].pf)
                assert decode(q, bj) == sg
        for pp in iter_set_partitions(n):
            for bj in SP_BIJECTIONS:
                q = encode(pp, bj)
                assert path_validate(q, BIJECTIONS[bj].pf)
                assert decode(q, bj) == pp


def check_fz_lemmas(n_max):
    for n in range(1, n_max + 1):
        for sg in iter_permutations(n):
            p = encode(sg, "FZ")
            h = p.heights()
            profs = perm_index_profile(sg)
            for i in range(1, n + 1):
                assert h[i - 1] == sum(
                    1 for j in range(1, i) if sg(j) >= i)
                assert h[i - 1] == sum(
                    1 for j in range(1, i) if sg.inverse_at(j) >= i)
                pr = profs[i - 1]
                xi = p.labels[i - 1][0]
                if pr.cycle_class == "cval":
                    assert h[i - 1] + 1 - xi == pr.ucross
                    assert xi - 1 == pr.unest
                elif pr.cycle_class == "cdrise":
                    assert h[i - 1] - xi == pr.ucross
                    assert xi - 1 == pr.unest
                elif pr.cycle_class in ("cpeak", "cdfall"):
                    assert h[i - 1] - xi == pr.lcross
                    assert xi - 1 == pr.lnest
            t = stat_totals(PERM, sg)
            inv = sum(h[i - 1] + p.labels[i - 1][0] - 1
                      for i in range(1, n + 1)) \
                + sum(h[i - 1] for i in range(1, n + 1)
                      if profs[i - 1].cycle_class == "fix")
            assert inv == t.inv
            # inverse permutation: same path with level colors 1,2 swapped
            p2 = encode(Permutation(sg.inv_oneline), "FZ")
            for s1, s2 in zip(p.steps, p2.steps):
                if s1.kind == "L" and s1.color in (1, 2):
                    assert s2.kind == "L" and s2.color == 3 - s1.color
                else:
                    assert s1 == s2


def check_biane_lemmas(n_max):
    for n in range(1, n_max + 1):
        for sg in iter_permutations(n):
            p = encode(sg, "Biane")
            h = p.heights()
            profs = perm_index_profile(sg)
            for i in range(1, n + 1):
                pr = profs[i - 1]
                x1, x2 = p.labels[i - 1]
                if pr.cycle_class in ("cpeak", "cdfall"):
                    assert h[i - 1] - x2 == pr.lcross
                    assert x2 - 1 == pr.lnest
                if pr.cycle_class in ("cval", "cdrise"):
                    assert h[i] - 1 == pr.ucross + pr.unest
                if pr.cycle_class in ("cpeak", "cdrise"):
                    j = sg.inverse_at(i)
                    assert x1 - 1 == profs[j - 1].unest
                if pr.cycle_class == "fix":
                    assert h[i - 1] == h[i] == pr.lev
            t = stat_totals(PERM, sg)
            inv = sum(h[i - 1] + p.labels[i - 1][0] + p.labels[i - 1][1] - 2
                      for i in range(1, n + 1)) \
                + sum(h[i - 1] for i in range(1, n + 1)
                      if profs[i - 1].cycle_class == "fix")
            assert inv == t.inv


def check_biane_closer_lemma(n_max):
    # For each fall step at height k and each first label, exactly one
    # second label makes that index the maximum of its cycle.
    for n in range(1, n_max + 1):
        for sg in iter_permutations(n):
            p = encode(sg, "Biane")
            h = p.heights()
            for i in range(1, n + 1):
                if p.steps[i - 1].kind != "F":
                    continue
                k = h[i - 1]
                for x1 in range(1, k + 1):
                    closers = 0
                    for x2 in range(1, k + 1):
                        labels = list(p.labels)
                        labels[i - 1] = (x1, x2)
                        sg2 = decode(
                            LabeledMotzkinPath(p.steps, labels), "Biane")
                        j = sg2(i)
                        is_max = True
                        while j != i:
                            if j > i:
                                is_max = False
                            j = sg2(j)
                        closers += 1 if is_max else 0
                    assert closers == 1


def check_sp_label_lemmas(n_max):
    for n in range(1, n_max + 1):
        for pp in iter_set_partitions(n):
            rev = sp_reversed_index_stats(pp)
            profs = dict(enumerate(sp_index_profile(pp), start=1))
            for bj in SP_BIJECTIONS:
                p = encode(pp, bj)
                h = p.heights()
                ins_mode, clo_mode = BIJECTIONS[bj].orders
                for i in range(1, n + 1):
                    cls = profs[i].element_class
                    xi = p.labels[i - 1][0]
                    if cls in ("opener", "singleton"):
                        assert profs[i].qne == h[i - 1]
                    else:
                        mode = clo_mode if cls == "closer" else ins_mode
                        if mode == "last":
                            assert rev[i]["crt"] == h[i - 1] - xi
                            assert rev[i]["net"] == xi - 1
                        else:
                            assert rev[i]["ovt"] == h[i - 1] - xi
                            assert rev[i]["covt"] == xi - 1


def check_reversed_stats(n_max):
    for n in range(1, n_max + 1):
        for pp in iter_set_partitions(n):
            rev = sp_reversed_index_stats(pp)
            rprofs = dict(enumerate(sp_index_profile(sp_reverse(pp)),
                                    start=1))
            profs = dict(enumerate(sp_index_profile(pp), start=1))
            for k in range(1, n + 1):
                if profs[k].element_class not in ("insider", "closer"):
                    continue
                pr = rprofs[n + 1 - k]
                assert rev[k]["crt"] == pr.cr and rev[k]["net"] == pr.ne
                assert rev[k]["ovt"] == pr.ov and rev[k]["covt"] == pr.cov


# ---------------------------------------------------------------------------
# Unit tests.

def test_fz_example():
    p = encode(FIG3, "FZ")
    assert [(s.kind, s.color) for s in p.steps] == \
        [("R", 1), ("R", 1), ("L", 1), ("L", 3), ("F", 1), ("L", 2),
         ("F", 1)]
    assert list(p.heights()) == [0, 1, 2, 2, 2, 1, 1, 0]
    assert all(l == (1,) for l in p.labels)
    assert decode(p, "FZ") == FIG3
    assert path_validate(p, PF_FZ)


def test_empty_path():
    e = LabeledMotzkinPath([], [])
    assert path_validate(e, PF_FZ)
    assert decode(e, "FZ").n == 0
    assert decode(e, "KZ").n == 0


def test_kz_single_block():
    p = encode(SetPartition([(1, 2)]), "KZ")
    assert [(s.kind, s.color) for s in p.steps] == [("R", 1), ("F", 1)]
    assert p.labels == ((1,), (1,))


def test_invalid_path():
    bad = LabeledMotzkinPath([ColoredStep("F")], [1])
    assert not path_validate(bad, PF_FZ)
    with pytest.raises(InvalidPath):
        decode(bad, "FZ")


@pytest.mark.parametrize("kind, color", [("L", 2.5), ("L", True),
                                         ("R", "x")])
def test_step_color_is_an_int(kind, color):
    with pytest.raises(ValueError, match="step color"):
        ColoredStep(kind, color)


@pytest.mark.parametrize("label", [True, 1.0, (1, True), ("a",)])
def test_path_labels_are_ints(label):
    with pytest.raises(ValueError, match="step label"):
        LabeledMotzkinPath([ColoredStep("L", 1)], [label])


def test_compare_with_other_types():
    rise = ColoredStep("R")
    assert rise != None and not rise == None  # noqa: E711
    assert rise not in [None, "R", 1] and rise in [None, ColoredStep("R")]
    path = LabeledMotzkinPath([], [])
    assert path != [] and path not in [None, (), []]
    assert path in [None, LabeledMotzkinPath([], [])]


def test_type_mismatch():
    with pytest.raises(TypeMismatch):
        encode(FIG3, "KZ")
    with pytest.raises(TypeMismatch):
        encode(SetPartition([(1, 2)]), "FZ")


def test_round_trips_exhaustive():
    check_round_trips(5)


@st.composite
def _set_partitions(draw, n_max=12):
    """A set partition of [n], n <= n_max, read off a restricted growth
    word: element i joins one of the blocks so far or opens a new one."""
    blocks = []
    for i in range(1, draw(st.integers(0, n_max)) + 1):
        b = draw(st.integers(0, len(blocks)))
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(i)
    return SetPartition(blocks)


_RANDOM_OBJECTS = {
    Permutation: st.integers(0, 12).flatmap(
        lambda n: st.permutations(range(1, n + 1))).map(Permutation),
    SetPartition: _set_partitions(),
}


@pytest.mark.parametrize("bijection", sorted(BIJECTIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trips_random_up_to_12(bijection, data):
    # past the sizes check_round_trips can visit exhaustively
    bij = BIJECTIONS[bijection]
    x = data.draw(_RANDOM_OBJECTS[bij.takes])
    q = encode(x, bijection)
    assert path_validate(q, bij.pf)
    assert decode(q, bijection) == x


def test_fz_height_and_label_lemmas():
    check_fz_lemmas(6)


def test_biane_lemmas():
    check_biane_lemmas(6)


def test_biane_closer_lemma():
    check_biane_closer_lemma(5)


def test_sp_label_lemmas():
    check_sp_label_lemmas(6)


def test_reversed_stats_against_reversal_map():
    check_reversed_stats(6)


def _step_sum(pf, step_weights, kind, color, height):
    """Sum of step_weights(kind, color, height, label) over every label the
    possibility function allows for one step starting at height."""
    bounds = pf.bound(ColoredStep(kind, color), height)
    bounds = bounds if isinstance(bounds, tuple) else (bounds,)
    total = as_poly(0)
    for label in product(*(range(1, b + 1) for b in bounds)):
        arg = label[0] if len(label) == 1 else label
        total = total + step_weights(kind, color, height, arg)
    return total


def _weighted_path_sums(pf, step_weights, order):
    """Weighted labelled Motzkin paths of length 0..order, as the
    J-fraction with gamma(h) = all level steps at height h and
    beta(h) = rise(h-1) * fall(h)."""
    def gamma(h):
        return sum((_step_sum(pf, step_weights, "L", c, h)
                    for c in range(1, len(pf.levels) + 1)), as_poly(0))

    def beta(h):
        return _step_sum(pf, step_weights, "R", 1, h - 1) \
            * _step_sum(pf, step_weights, "F", 1, h)

    return expand_jfraction(gamma, beta, order)


def test_weighted_path_sum_motzkin():
    pf = PossibilityFunction(lambda k: 1, lambda k: 1, (lambda k: 1,))
    unit = lambda kind, color, height, label: as_poly(1)
    assert _weighted_path_sums(pf, unit, 4) \
        == [as_poly(c) for c in (1, 1, 2, 4, 9)]


def test_weighted_path_sum_matches_master_enumeration():
    def fz_weights(kind, color, height, label):
        k, xi = height, label
        if kind == "R":
            return as_poly(Indeterminate("a", k + 1 - xi, xi - 1))
        if kind == "F":
            return as_poly(Indeterminate("b", k - xi, xi - 1))
        if color == 1:
            return as_poly(Indeterminate("c", k - xi, xi - 1))
        if color == 2:
            return as_poly(Indeterminate("d", k - xi, xi - 1))
        return as_poly(Indeterminate("e", k))

    sums = _weighted_path_sums(PF_FZ, fz_weights, 4)
    for n in range(5):
        assert sums[n] == enumerate_polynomial(PERM, n, weight="master1")


def test_json_round_trip():
    p = encode(FIG3, "Biane")
    assert path_from_json(json.dumps(path_to_json_obj(p))) == p
    p = encode(SetPartition([(1, 3, 6), (2, 4, 5)]), "Hybrid3")
    assert path_from_json(json.dumps(path_to_json_obj(p))) == p

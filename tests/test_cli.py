"""Unit tests for the command-line interface."""

import hashlib
import json

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from cfenum.cli import main
from cfenum.mpoly import as_poly, from_text
from cfenum.paths import BIJECTIONS
from cfenum.permstats import PERM, PERM_WEIGHTS, enumerate_polynomial


@pytest.fixture
def runner():
    return CliRunner()


def _run(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def test_version(runner):
    res = _run(runner, ["--version"])
    assert res.exit_code == 0 and "0.1.0" in res.output


def test_verify_json_report(runner):
    res = _run(runner, ["verify", "perm.euler.factorial", "--n", "5"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["ok"] is True
    assert report["theorem_id"] == "perm.euler.factorial"
    assert report["n_max"] == 5
    assert report["seed"] == 0
    assert "artifact_version" in report and "order" in report


def test_verify_byte_stable(runner):
    a = _run(runner, ["verify", "perm.catalan.classic", "--n", "5"]).output
    b = _run(runner, ["verify", "perm.catalan.classic", "--n", "5"]).output
    # wall_time varies between runs; everything else must be identical
    da, db = json.loads(a), json.loads(b)
    da["wall_time"] = db["wall_time"] = None
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_verify_unknown_id(runner):
    res = _run(runner, ["verify", "no.such.id"])
    assert res.exit_code == 2
    assert "error:" in res.output


def test_verify_text_format(runner):
    res = _run(runner, ["verify", "perm.euler.factorial", "--n", "4",
                        "--format", "text"])
    assert res.exit_code == 0
    assert any(line.startswith("ok\t") for line in res.output.splitlines())


def test_verify_witness_seeded(runner):
    res = _run(runner, ["verify", "perm.invcyc.nonpoly", "--seed", "3"])
    assert res.exit_code == 0
    assert json.loads(res.output)["seed"] == 3


def test_conjecture(runner):
    res = _run(runner, ["conjecture", "--n", "6"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["ok"] is True and report["kind"] == "ConjectureForward"


def test_expand(runner):
    res = _run(runner, ["expand", "--theorem", "perm.euler.factorial",
                        "--order", "5"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["coefficients"] == ["1", "1", "2", "6", "24", "120"]
    assert report["order"] == 5

    res = _run(runner, ["expand", "--theorem", "perm.euler.factorial",
                        "--order", "-1"])
    assert res.exit_code == 2


# (entry, order, sha256 of the coefficient texts joined by newlines),
# recorded from the expansion by MultiPoly products (commit 76f7e77)
EXPAND_DIGESTS = (
    ("perm.masterJ1", 6,
     "30dbea0b2d269a8c7cbc44ce021c56f1335845e2d8c7e0d49b027a9232b289da"),
    ("sp.masterJ1", 7,
     "99c9efe156e736a811a5676b51c48773d0b1a52e1eaca0cd908e9d36d2de382d"),
    ("match.master.S", 5,
     "2f9667422c44bc0fcb724b94e1ad9557a72ee2a40238f306a1521f4e494eecbc"),
    ("match.pq.S", 7,
     "44cfa587e49423f849b913b7797a8b43d4dbd75109793f758d4a1bafbaed183f"),
)


@pytest.mark.parametrize("tid, order, digest", EXPAND_DIGESTS)
def test_expand_symbolic_output_is_pinned(runner, tid, order, digest):
    res = _run(runner, ["expand", "--theorem", tid, "--order", str(order)])
    assert res.exit_code == 0
    coeffs = json.loads(res.output)["coefficients"]
    assert len(coeffs) == order + 1
    assert hashlib.sha256("\n".join(coeffs).encode()).hexdigest() == digest


def test_enumerate(runner):
    res = _run(runner, ["enumerate", "--object", "perm", "--n", "3",
                        "--weight", "four-var-arec"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["polynomial"] == "1*u*x*y + 1*x*y^2 + 3*x^2*y + 1*x^3"

    res = _run(runner, ["enumerate", "--object", "match", "--n", "2",
                        "--zeta"])
    assert json.loads(res.output)["polynomial"] == "2*zeta + 1*zeta^2"

    res = _run(runner, ["enumerate", "--object", "perm", "--n", "2",
                        "--weight", "bogus"])
    assert res.exit_code == 2


@pytest.mark.parametrize("obj, n, limit", [
    ("perm", 24, 23), ("setpart", 24, 23), ("match", 300, 255)])
def test_enumerate_size_above_signature_limit(runner, obj, n, limit):
    # a field of the signature would not fit in a byte: exit 2 at once,
    # before any object is visited
    res = _run(runner, ["enumerate", "--object", obj, "--n", str(n)])
    assert res.exit_code == 2
    assert "sizes up to %d, not %d" % (limit, n) in res.output


def test_enumerate_with_substitution(runner, tmp_path):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"x": "1", "y": "1*q", "u": "1", "v": "1"}))
    res = _run(runner, ["enumerate", "--object", "perm", "--n", "3",
                        "--weight", "four-var-arec",
                        "--subst", str(sub)])
    assert res.exit_code == 0
    # Eulerian distribution at n=3: 1 + 4q + q^2
    assert json.loads(res.output)["polynomial"] == "1 + 4*q + 1*q^2"


def test_substitution_errors(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2]")
    res = _run(runner, ["enumerate", "--object", "perm", "--n", "2",
                        "--subst", str(bad)])
    assert res.exit_code == 2
    bad.write_text(json.dumps({"x": "1 +* 2"}))
    res = _run(runner, ["enumerate", "--object", "perm", "--n", "2",
                        "--subst", str(bad)])
    assert res.exit_code == 2
    # an index of more digits than int() converts
    bad.write_text(json.dumps({"w[3,%s]" % ("1" * 4400): "2"}))
    res = _run(runner, ["enumerate", "--object", "perm", "--n", "2",
                        "--weight", "ten-var", "--subst", str(bad)])
    assert res.exit_code == 2
    assert res.output.startswith("error: bad substitution key 'w[3,111")
    assert "Traceback" not in res.output
    # ASCII digits only: int() alone reads underscores and other digits
    for subst, message in (
            ({"x[\u0663]": "2"}, "bad substitution key"),
            ({"x^\u0663": "2"}, "bad substitution key"),
            ({"x": "5_000"}, "bad substitution value for 'x'"),
            ({"x": "\u0663*y"}, "bad substitution value for 'x'"),
            # the key is the whole factor text, a final newline included
            ({"x\n": "2"}, "bad substitution key")):
        bad.write_text(json.dumps(subst))
        res = _run(runner, ["enumerate", "--object", "perm", "--n", "2",
                            "--weight", "two-var", "--subst", str(bad)])
        assert res.exit_code == 2, subst
        assert res.output.startswith("error: " + message), res.output
        assert "Traceback" not in res.output


def test_enumerate_coefficients_above_4300_digits(runner, tmp_path):
    # y^2 makes coefficients of 6,001 digits, past the interpreter's
    # default limit on int-to-str conversion
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"y": "1" + "0" * 3000}))
    res = _run(runner, ["enumerate", "--object", "perm", "--n", "3",
                        "--weight", "two-var", "--subst", str(sub)])
    assert res.exit_code == 0
    got = from_text(json.loads(res.output)["polynomial"])
    assert got == enumerate_polynomial(PERM, 3, weight="two-var").substitute(
        {"y": as_poly(10 ** 3000)})


@pytest.mark.parametrize("value, message", [
    ("1*x^40000", "bad substitution value for 'x': exponent 40000 of x"),
    ("1*x^20000*x^20000", "exponent 40000 of x"),
    ("1*y^20000", "substitution gives an exponent 40000 of y"),
])
def test_substitution_exponent_above_limit(runner, tmp_path, value, message):
    # y^20000 is in range, but the weight's y^2 makes it y^40000
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({value[2]: value}))
    res = _run(runner, ["enumerate", "--object", "perm", "--n", "3",
                        "--weight", "two-var", "--subst", str(sub)])
    assert res.exit_code == 2
    assert message in res.output and "outside 0..32767" in res.output
    assert "Traceback" not in res.output


def test_substitution_zero_coefficient_term(runner, tmp_path):
    # a 0*z term adds nothing: the same bytes as {"x": "1*y"}
    sub = tmp_path / "sub.json"
    outputs = []
    for value in ("1*y + 0*z", "1*y"):
        sub.write_text(json.dumps({"x": value}))
        res = _run(runner, ["enumerate", "--object", "perm", "--n", "2",
                            "--weight", "two-var", "--subst", str(sub)])
        assert res.exit_code == 0
        outputs.append(res.output)
    assert outputs[0] == outputs[1]


def test_substitution_bool_value_rejected(runner, tmp_path):
    # JSON true is not the integer 1
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"x": True, "y": 2}))
    res = _run(runner, ["enumerate", "--object", "perm", "--n", "3",
                        "--weight", "two-var", "--subst", str(sub)])
    assert res.exit_code == 2
    assert res.output.startswith("error: bad substitution value for 'x'")
    assert "Traceback" not in res.output


def test_stats_perm(runner):
    res = _run(runner, ["stats", "--object", "perm", "--oneline", "2,1"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["stats"]["inv"] == 1 and report["stats"]["cyc"] == 1

    res = _run(runner, ["stats", "--object", "perm", "--oneline", "1,1"])
    assert res.exit_code == 2


def test_stats_setpart_and_match(runner):
    res = _run(runner, ["stats", "--object", "setpart",
                        "--blocks", "1,3,6;2,4,5"])
    assert res.exit_code == 0
    assert json.loads(res.output)["stats"]["iota"] == 4

    res = _run(runner, ["stats", "--object", "match", "--pairs", "1-3,2-4"])
    assert res.exit_code == 0
    assert json.loads(res.output)["stats"]["cr"] == 1

    res = _run(runner, ["stats", "--object", "match"])
    assert res.exit_code == 2


@pytest.mark.parametrize("obj, option, value, stat, total", [
    # the reversal of [24]: inv = C(24, 2)
    ("perm", "--oneline", ",".join(map(str, range(24, 0, -1))), "inv", 276),
    # 24 singletons: ls = C(24, 2)
    ("setpart", "--blocks", ";".join(map(str, range(1, 25))), "ls", 276),
    # 257 nested arcs: ne = C(257, 2)
    ("match", "--pairs", ",".join("%d-%d" % (i, 515 - i)
                                  for i in range(1, 258)), "ne", 32896),
    # objects deeper than the default recursion limit of 1,000
    ("perm", "--oneline", ",".join(map(str, range(1100, 0, -1))), "inv",
     604450),
    ("setpart", "--blocks", ";".join(map(str, range(1, 1101))), "ls",
     604450),
    ("match", "--pairs", ",".join("%d-%d" % (i, 1201 - i)
                                  for i in range(1, 601)), "ne", 179700),
], ids=["perm", "setpart", "match", "perm-deep", "setpart-deep",
        "match-deep"])
def test_stats_totals_above_255(runner, obj, option, value, stat, total):
    res = _run(runner, ["stats", "--object", obj, option, value])
    assert res.exit_code == 0
    assert json.loads(res.output)["stats"][stat] == total


def test_encode_decode_round_trip(runner, tmp_path):
    res = _run(runner, ["encode", "--bijection", "fz",
                        "--oneline", "5,6,1,4,2,7,3"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["bijection"] == "FZ"
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(report["path"]))

    res = _run(runner, ["decode", "--bijection", "FZ",
                        "--path", str(path_file)])
    assert res.exit_code == 0
    assert json.loads(res.output)["oneline"] == [5, 6, 1, 4, 2, 7, 3]


def test_decode_from_stdin(runner):
    res = _run(runner, ["encode", "--bijection", "kz", "--blocks", "1,2"])
    path_json = json.dumps(json.loads(res.output)["path"])
    res = _run(runner, ["decode", "--bijection", "KZ", "--path", "-"],
               input=path_json)
    assert res.exit_code == 0
    assert json.loads(res.output)["blocks"] == [[1, 2]]


@pytest.mark.parametrize("text", [
    '{"steps": 5}',
    '[1, 2]',
    '{"steps": [{"kind": "L", "color": "a", "label": [1]}]}',
    '{"steps": [{"kind": "R", "label": 5}]}',
    '{"steps": [{"kind": "R", "label": ["a"]}]}',
    '{"steps": [{"kind": "L", "color": 2.5, "label": [1]}]}',
    '{"steps": [{"kind": "L", "color": 1, "label": [1.0]}]}',
], ids=["steps-not-list", "not-object", "color-not-int", "label-not-list",
        "label-not-ints", "color-fractional", "label-float"])
def test_decode_malformed_path(runner, text):
    res = _run(runner, ["decode", "--bijection", "FZ", "--path", "-"],
               input=text)
    assert res.exit_code == 2
    assert "error: cannot read path:" in res.output
    assert "Traceback" not in res.output


def test_encode_errors(runner):
    res = _run(runner, ["encode", "--bijection", "nope", "--oneline", "1"])
    assert res.exit_code == 2
    res = _run(runner, ["encode", "--bijection", "fz", "--blocks", "1,2"])
    assert res.exit_code == 2


def test_negative_n_or_order_is_usage_error(runner):
    for args in (["verify", "perm.euler.factorial", "--n", "-1"],
                 ["verify", "perm.euler.factorial", "--order", "-1"],
                 ["conjecture", "--n", "-2"],
                 ["conjecture", "--order", "-1"],
                 ["enumerate", "--object", "perm", "--n", "-1"]):
        res = _run(runner, args)
        assert res.exit_code == 2, args
        assert "is not in the range" in res.output
        assert '"ok"' not in res.output


def test_verify_all_negative_budget_is_usage_error(runner):
    res = _run(runner, ["verify-all", "--budget", "-1"])
    assert res.exit_code == 2
    assert "is not in the range" in res.output
    assert '"ok"' not in res.output


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
def test_verify_all_non_finite_budget_is_usage_error(runner, budget):
    res = _run(runner, ["verify-all", "--budget", budget])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert '"ok"' not in res.output


def test_verify_all_skipped_entries_are_not_ok(runner):
    res = _run(runner, ["verify-all", "--budget", "0"])
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert report["ok"] is False
    assert len(report["results"]) == 78
    assert all(r["skipped"] for r in report["results"])


def test_enumerate_malformed_block_family(runner):
    res = _run(runner, ["enumerate", "--object", "setpart", "--n", "3",
                        "--family", "blocks:abc"])
    assert res.exit_code == 2
    assert "error: unknown weight or family" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args, message", [
    (["stats", "--object", "perm", "--oneline", "\u0662,\u0661"],
     "error: bad one-line permutation"),
    (["stats", "--object", "perm", "--oneline", "0_1"],
     "error: bad one-line permutation"),
    (["stats", "--object", "setpart", "--blocks", "1,\u0662"],
     "error: bad block list"),
    (["stats", "--object", "match", "--pairs", "\u0661-\u0662"],
     "error: bad pair list"),
    (["encode", "--bijection", "FZ", "--oneline", "\u0661"],
     "error: bad one-line permutation"),
    (["enumerate", "--object", "setpart", "--n", "3",
      "--family", "blocks:\u0662"], "error: unknown weight or family"),
    (["enumerate", "--object", "setpart", "--n", "3",
      "--family", "blocks:-1"], "error: unknown weight or family"),
    (["enumerate", "--object", "setpart", "--n", "3",
      "--family", "blocks: 2"], "error: unknown weight or family"),
    (["enumerate", "--object", "setpart", "--n", "3",
      "--family", "blocks:02"], "error: unknown weight or family"),
    (["enumerate", "--object", "perm", "--n", "1_0"],
     "'1_0' is not a valid integer range"),
    (["enumerate", "--object", "perm", "--n", "\u0663"],
     "is not a valid integer range"),
    (["expand", "--theorem", "sp.bell.classic", "--order", "1_0"],
     "'1_0' is not a valid integer range"),
    (["verify", "perm.euler.factorial", "--n", "2", "--seed", "1_0"],
     "'1_0' is not a valid integer."),
])
def test_integers_are_ascii_digits(runner, args, message):
    # int() alone would read underscores and non-ASCII digits
    res = _run(runner, args)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert "Traceback" not in res.output


def test_integers_keep_spaces_and_seed_keeps_its_sign(runner):
    res = _run(runner, ["stats", "--object", "perm", "--oneline", " 2, 1 "])
    assert res.exit_code == 0 and json.loads(res.output)["oneline"] == [2, 1]
    res = _run(runner, ["enumerate", "--object", "setpart", "--n", " 3 ",
                        "--family", "blocks:2"])
    assert res.exit_code == 0
    assert json.loads(res.output)["polynomial"] == "3"
    res = _run(runner, ["verify", "perm.euler.factorial", "--n", "2",
                        "--seed", "-3"])
    assert res.exit_code == 0 and json.loads(res.output)["seed"] == -3


def test_enumerate_internal_error_is_not_usage_error(runner, monkeypatch):
    def broken(profiles, totals):
        raise RuntimeError("internal fault")

    monkeypatch.setitem(PERM_WEIGHTS, "unit", broken)
    res = runner.invoke(main, ["enumerate", "--object", "perm", "--n", "2"])
    assert res.exit_code != 2
    assert isinstance(res.exception, RuntimeError)


# ---------------------------------------------------------------------------
# Random input text exits 0 or 2, never with a traceback.

def _exits_cleanly(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 2), (args, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        (args, res.exc_info)
    assert "Traceback" not in res.output


def _joined(sep, parts, max_size=12):
    return st.lists(parts, max_size=max_size).map(sep.join)


def _blocks_text(labels):
    """The blocks of [n] that put element i in block labels[i - 1]."""
    blocks = {}
    for i, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(str(i))
    return ";".join(",".join(b) for b in blocks.values())


def _pairs_text(word):
    return ",".join("%d-%d" % tuple(word[i:i + 2])
                    for i in range(0, len(word), 2))


# digits and signs of other scripts too: int() reads "\u0661" as 1
_NOISE = st.text(alphabet="0123456789,;-+*^[] xyz\t\n\u0661\u2212\u00e9",
                 max_size=16)
_NUMBER = st.integers(-2, 14).map(str) \
    | st.sampled_from(["", " 3", "+1", "x", "9" * 4400])
_ONELINE = st.integers(0, 10).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(
        lambda w: ",".join(map(str, w))) \
    | _joined(",", _NUMBER) | _NOISE
_BLOCKS = st.lists(st.integers(0, 3), max_size=10).map(_blocks_text) \
    | _joined(";", _joined(",", _NUMBER, 4), 4) | _NOISE
_PAIRS = st.integers(0, 6).flatmap(
    lambda n: st.permutations(range(1, 2 * n + 1))).map(_pairs_text) \
    | _joined(",", st.tuples(_NUMBER, _NUMBER).map("-".join)) | _NOISE
_STATS_INPUT = {"--oneline": ("perm", _ONELINE),
                "--blocks": ("setpart", _BLOCKS),
                "--pairs": ("match", _PAIRS)}


@settings(max_examples=120, deadline=None)
@given(option=st.sampled_from(sorted(_STATS_INPUT)), data=st.data())
def test_stats_random_text_exits_cleanly(option, data):
    obj, text = _STATS_INPUT[option]
    _exits_cleanly(["stats", "--object", obj,
                    "%s=%s" % (option, data.draw(text))])


@settings(max_examples=120, deadline=None)
@given(bijection=st.sampled_from(sorted(BIJECTIONS)),
       option=st.sampled_from(["--oneline", "--blocks"]), data=st.data())
def test_encode_random_text_exits_cleanly(bijection, option, data):
    text = data.draw(_ONELINE if option == "--oneline" else _BLOCKS)
    _exits_cleanly(["encode", "--bijection", bijection,
                    "%s=%s" % (option, text)])


# term lists in the canonical text form, zero coefficients included, and
# terms with a malformed coefficient, factor or exponent
_TERM = st.tuples(
    st.integers(-3, 3).map(str),
    st.lists(st.tuples(
        st.sampled_from(["x", "y", "z", "q", "w[3]", "a[0,2]"]),
        st.sampled_from(["", "^0", "^2", "^20000"])).map("".join),
        max_size=3)).map(lambda t: "*".join([t[0], *t[1]]))
_BAD_TERM = st.tuples(
    st.sampled_from(["", "x", "+4", "9" * 4400, "1"]),
    st.sampled_from(["", "*w[1", "*2x", "*x^40000", "*x^x", "*x^"])).map(
        "".join)
_POLY_TEXT = _joined(" + ", _TERM, 4) | _joined(" + ", _TERM | _BAD_TERM, 4) \
    | _NOISE


@pytest.fixture(scope="module")
def subst_file(tmp_path_factory):
    return tmp_path_factory.mktemp("subst") / "sub.json"


@settings(max_examples=150, deadline=None)
@example(subst={"x": "1*y + 0*z"})
@given(subst=st.dictionaries(
    st.sampled_from(["x", "y", "z", "w[3]", "x[1]", "1x"]), _POLY_TEXT,
    max_size=3))
def test_substitution_random_values_exit_cleanly(subst_file, subst):
    subst_file.write_text(json.dumps(subst))
    _exits_cleanly(["enumerate", "--object", "perm", "--n", "3",
                    "--weight", "two-var", "--subst", str(subst_file)])

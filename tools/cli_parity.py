"""Compare the command-line output of a base revision with the working
tree's, byte for byte.

    python3 tools/cli_parity.py --base REV

Run from the root of the source tree.  The base revision is exported with
`git archive` into a temporary directory, as tools/bench_json.py does; the
change is the working tree.  Each tree runs `cfenum.cli.main` through
click's CliRunner in one interpreter of its own, over this matrix, built
from that tree's registry and weight tables:

- `verify` on every registry id, and `verify-all`;
- `expand --order <n_max>` on every registry id (an entry that is not a
  fraction exits 2 on both sides);
- `enumerate` for every weight x family x `--zeta`, at perm and setpart
  n <= 5 and match n <= 3;
- a few `stats` runs, in both formats;
- `encode` of every object of size <= 5 under each bijection, and
  `decode` of each path that comes out;
- `--help` of the group and of each command;
- the id, kind, description and n_max of each registry entry;
- malformed input, which exits 2 with a message: `stats` of bad objects,
  `enumerate` of unknown weights and families and of sizes past a
  signature's field (perm and setpart only: a matching of [48] would be
  enumerated), `verify` and `expand` of unknown ids, `expand` of an
  identity, and `decode` of malformed paths;
- `enumerate --subst` of small enumerations with each file of
  `_SUBST_FILES`: valid values (repeated and cancelling monomials, an
  indexed key, a 5,000-digit coefficient) and malformed ones (an exponent
  past the range before a bad factor or an empty term, a bare factor, a
  key with `^e`, a file that is not a JSON object, a missing file).  The
  files are written once, to one directory that both trees read, so the
  paths in the messages agree.

`wall_time` and `total_wall_time` are masked.  The script prints each
argument list whose exit code, stdout or stderr differs (or that only one
tree runs), and exits 1 if any does, 0 if none does.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

# "wall_time": 0.12 in a JSON report, wall_time<TAB>0.12 in a text one
WALL = re.compile(r'("(?:total_)?wall_time": |^(?:total_)?wall_time\t)'
                  r'[-+0-9.eE]+', re.M)


def _enumerate_runs():
    from cfenum.matchstats import MATCH_FAMILIES, MATCH_WEIGHTS
    from cfenum.permstats import PERM_FAMILIES, PERM_WEIGHTS
    from cfenum.setpartstats import SP_FAMILIES, SP_WEIGHTS
    tables = (("perm", 5, PERM_WEIGHTS, list(PERM_FAMILIES)),
              ("setpart", 5, SP_WEIGHTS, list(SP_FAMILIES) + ["blocks:2"]),
              ("match", 3, MATCH_WEIGHTS, list(MATCH_FAMILIES)))
    for obj, n_max, weights, families in tables:
        for weight in weights:
            for family in families:
                for zeta in ([], ["--zeta"]):
                    for n in range(n_max + 1):
                        yield ["enumerate", "--object", obj, "--n", str(n),
                               "--family", family, "--weight", weight,
                               *zeta]


def _encodings():
    """(bijection, object option, text) for every object of size <= 5."""
    from cfenum.paths import BIJECTIONS
    from cfenum.permstats import Permutation, iter_permutations
    from cfenum.setpartstats import iter_set_partitions
    for name in sorted(BIJECTIONS):
        if BIJECTIONS[name].takes is Permutation:
            for n in range(6):
                for sigma in iter_permutations(n):
                    yield name, "--oneline", ",".join(map(str, sigma.oneline))
        else:
            for n in range(6):
                for pi in iter_set_partitions(n):
                    yield name, "--blocks", ";".join(
                        ",".join(map(str, b)) for b in pi.blocks)


# (object, option, text) of objects that `stats` must refuse
_BAD_OBJECTS = [("perm", "--oneline", t) for t in (
    "1,1", "2,3", "1,3", "x", "\u0662,\u0661")] + [
    ("setpart", "--blocks", t) for t in (
        "1,2;2", "1;3", "1;,", "0;,", ",;0", "-1;,", "1;1,a",
        "\u0661;\u0662")] + [
    ("match", "--pairs", t) for t in (
        "1-2,2-3", "1-3", "2-1,1-3", "1-1", "1-2-3", "1", "1-a",
        "\u0661-\u0662")]

# path texts that `decode` must refuse
_BAD_PATHS = [
    '{"steps": 5}',
    '[1, 2]',
    '{"steps": [{"kind": "L", "color": "a", "label": [1]}]}',
    '{"steps": [{"kind": "R", "label": 5}]}',
    '{"steps": [{"kind": "R", "label": ["a"]}]}',
    '{"steps": [{"kind": "L", "color": 1.5, "label": [1]}]}',
    '{"steps": [{"kind": "L", "color": 1, "label": [1.5]}]}',
]


# substitution files by name: their JSON text, or None for a missing file
_SUBST_FILES = {
    "repeated.json": '{"x": "2*q*q + 3*q^2", "y": "1*q + -1*q"}',
    "indexed.json": '{"w[3]": "2*q", "w[0]": "1*q^2 + -1", "u": "3*w[3]"}',
    "long.json": '{"x": "%s*q + 1"}' % ("7" * 5000),
    "overflow-then-bad.json": '{"x": "1*x^20000*x^20000*!"}',
    "overflow-then-empty.json": '{"x": "1*x^20000*x^20000 + "}',
    "bare.json": '{"x": "x"}',
    "too-high.json": '{"x": "1*x^40000"}',
    "image-too-high.json": '{"x": "1*q^20000"}',
    "key-power.json": '{"x^2": "1"}',
    "list.json": '[1, 2]',
    "missing.json": None,
}


def _write_subst_files(directory):
    """Write each file of _SUBST_FILES that is not missing to
    `directory`."""
    for name, text in _SUBST_FILES.items():
        if text is not None:
            with open(os.path.join(directory, name), "w") as fh:
                fh.write(text)


def _subst_runs(directory):
    for name in _SUBST_FILES:
        for weight in ("four-var-arec", "ten-var"):
            yield ["enumerate", "--object", "perm", "--n", "3", "--weight",
                   weight, "--subst", os.path.join(directory, name)]


def _malformed_runs():
    for obj, option, text in _BAD_OBJECTS:
        yield ["stats", "--object", obj, option, text], None
    for obj, family, weight, n in (
            ("perm", "all", "nope", "3"), ("perm", "nope", "unit", "3"),
            ("setpart", "blocks:-1", "unit", "3"),
            ("perm", "all", "unit", "24"), ("setpart", "all", "unit", "24")):
        yield ["enumerate", "--object", obj, "--n", n, "--family", family,
               "--weight", weight], None
    yield ["verify", "no.such.entry"], None
    yield ["expand", "--theorem", "no.such.entry"], None
    yield ["expand", "--theorem", "inv.decomp"], None
    for text in _BAD_PATHS:
        yield ["decode", "--bijection", "FZ", "--path", "-"], text


def run_tree(subst_dir):
    """Every run of the matrix in this interpreter's cfenum, as
    {json of the argument list: [exit code, stdout, stderr]}; the
    substitution files are in `subst_dir`."""
    from click.testing import CliRunner
    from cfenum import theorems as thm
    from cfenum.cli import main

    runner = CliRunner()
    results = {}

    def run(args, stdin=None):
        res = runner.invoke(main, args, input=stdin)
        if res.exception is not None \
                and not isinstance(res.exception, SystemExit):
            err = "%s%s: %s" % (res.stderr, type(res.exception).__name__,
                                res.exception)
        else:
            err = res.stderr
        results[json.dumps(args + ([stdin] if stdin else []))] = [
            res.exit_code, WALL.sub(r"\1*", res.stdout), err]
        return res

    run(["--help"])
    for command in sorted(main.commands):
        run([command, "--help"])
    for tid in thm.list_theorems():
        case = thm.REGISTRY[tid]
        results[json.dumps(["REGISTRY", tid])] = [
            0, json.dumps([case.kind, case.description, case.n_max]), ""]
        run(["verify", tid])
        run(["expand", "--theorem", tid, "--order", str(case.n_max)])
    run(["verify-all"])
    run(["verify-all", "--format", "text"])
    for args in _enumerate_runs():
        run(args)
    for obj, option, text in (("perm", "--oneline", "3,1,2"),
                              ("perm", "--oneline", "2,1,4,3"),
                              ("setpart", "--blocks", "1,3,6;2,4,5"),
                              ("setpart", "--blocks", "1;2;3"),
                              ("match", "--pairs", "1-3,2-4"),
                              ("match", "--pairs", "1-4,2-3,5-6")):
        for fmt in ("json", "text"):
            run(["stats", "--object", obj, option, text, "--format", fmt])
    for name, option, text in _encodings():
        res = run(["encode", "--bijection", name, option, text])
        if res.exit_code == 0:
            path = json.dumps(json.loads(res.stdout)["path"])
            run(["decode", "--bijection", name, "--path", "-"], stdin=path)
    for args, stdin in _malformed_runs():
        run(args, stdin)
    for args in _subst_runs(subst_dir):
        run(args)
    return results


def tree_results(tree, subst_dir):
    """Start run_tree in a fresh interpreter on `tree`'s source."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--run", subst_dir],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--base", help="base git revision")
    group.add_argument("--run", metavar="SUBST_DIR",
                       help="run the matrix here, with the substitution "
                       "files in SUBST_DIR, and print it as JSON")
    args = ap.parse_args()
    if args.run:
        json.dump(run_tree(args.run), sys.stdout)
        return
    with tempfile.TemporaryDirectory() as base, \
            tempfile.TemporaryDirectory() as subst_dir:
        archive = subprocess.run(["git", "archive", args.base],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        _write_subst_files(subst_dir)
        procs = {"base": tree_results(base, subst_dir),
                 "change": tree_results(os.getcwd(), subst_dir)}
        results = {}
        for side, proc in procs.items():
            out, err = proc.communicate()
            if proc.returncode != 0:
                raise SystemExit("%s tree exited %d: %s"
                                 % (side, proc.returncode, err[-2000:]))
            results[side] = json.loads(out)
    old, new = results["base"], results["change"]
    differ = sorted(k for k in old.keys() | new.keys()
                    if old.get(k) != new.get(k))
    for key in differ:
        print("differs: %s" % key)
        for side, runs in (("base", old), ("change", new)):
            if key not in runs:
                print("  %s: not run" % side)
            else:
                code, out, err = runs[key]
                print("  %s: exit %d, stdout %r, stderr %r"
                      % (side, code, out[:300], err[:300]))
    print("%d argument lists, %d differ" % (len(old.keys() | new.keys()),
                                           len(differ)))
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()

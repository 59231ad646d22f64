"""Write a BENCH_<n>.json: the bench/run.py medians of a base revision and
of the working tree, from alternating pairs, with two Tier-1 runs per tree
(wall time and eight slowest tests each) and the src/cfenum line counts,
in all (src_cfenum_lines) and per module (src_cfenum_module_lines).

    python3 tools/bench_json.py --base REV --seed SEED --out BENCH_6.json

Run from the root of the source tree on an otherwise idle machine.  The
base revision is exported with `git archive` into a temporary directory,
and the change is copied the same way: the working tree's tracked files
(`git ls-files`, so stage new files first), as they are on disk, into a
second temporary directory.  Neither copy has bytecode or untracked
files, so a `__pycache__` left in the working tree cannot make the
change's `setup_s` or `peak_rss_mb` read better.  Pair i of the ten runs
every workload of bench/run.py on both trees with seed SEED+i, the base
first in even pairs and the change first in odd ones.  Choose a SEED
whose ten seeds were not used while writing the change.  Tier-1 runs
twice on each tree, in the order base, change, change, base, so that a
drift of the machine's speed during the runs weighs on both trees
alike.  Each run uses pytest's --durations=8; tier1.runs (the change)
and tier1_base.runs (the base) hold both runs of a tree, and
tier1.slowest and tier1_base.slowest each slow test's minimum over the
runs that list it.  The script exits 1, after writing the file, when a
Tier-1 run of the change has failures or errors; a red base Tier-1 is
only recorded.

Per workload, better_pairs counts for each metric the pairs in which the
change reads lower (ties count for neither side; every metric is lower-is-
better), and median_gap_exceeds_base_iqr is true where the two medians
differ by more than the base's q3 - q1.  A gain is claimed only where the
change wins nine pairs in ten and the gap exceeds the base's spread.
unresolved is true for a metric whose base spread, (q3 - q1) / median,
exceeds the metric's bound in BENCHMARK.json: there the runs cannot tell
a change within the bound from noise, so the metric is neither better nor
worse.
wall_s_change_faster_pairs repeats better_pairs["wall_s"], the key that
BENCH_6..13.json carry.
"""

import argparse
import datetime
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 10
WORKLOADS = ("master-verify", "registry-sweep", "expand-master")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "--durations=8"]
# a --durations line: "17.52s call     tests/test_x.py::test_y"
DURATION = re.compile(r"^(\d+\.\d+)s (\w+) +(\S+)$", re.M)


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def copy_tracked(dest):
    """Copy each tracked file of the working tree, as it is on disk, into
    `dest`; a tracked file deleted from the tree is left out."""
    for path in git("ls-files", "-z").split("\0"):
        if os.path.isfile(path):
            os.makedirs(os.path.join(dest, os.path.dirname(path)),
                        exist_ok=True)
            shutil.copy2(path, os.path.join(dest, path))


def module_lines(tree):
    """The line count of each module of src/cfenum, by file name."""
    src = os.path.join(tree, "src", "cfenum")
    counts = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                counts[name] = sum(1 for _ in f)
    return counts


def bench_run(tree, workload, seed):
    """The metrics of one `bench/run.py` run in `tree`, and its failures."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed)], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench/run.py %s in %s exited %d: %s" % (
            workload, tree, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {k: result["metrics"][k]["value"] for k in METRICS}
    row["failed"] = result["failed"]
    return row


def summary(rows):
    out = {}
    for k in METRICS:
        values = [r[k] for r in rows]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[k] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    out["failed"] = sum(r["failed"] for r in rows)
    return out


def bounds():
    """The bound of each end-to-end metric, from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def compare(base_rows, change_rows, bound):
    """One workload's entry: both summaries, the pairs the change wins per
    metric, whether each median gap exceeds the base's spread, and whether
    the base's relative spread exceeds the metric's bound."""
    base, change = summary(base_rows), summary(change_rows)
    better = {k: sum(c[k] < b[k] for b, c in zip(base_rows, change_rows))
              for k in METRICS}
    return {"base": base, "change": change,
            "wall_s_change_faster_pairs": better["wall_s"],
            "better_pairs": better,
            "median_gap_exceeds_base_iqr": {
                k: abs(change[k]["median"] - base[k]["median"])
                > base[k]["q3"] - base[k]["q1"] for k in METRICS},
            "unresolved": {
                k: base[k]["q3"] - base[k]["q1"]
                > bound[k] * base[k]["median"] for k in METRICS},
            "runs": {"base": base_rows, "change": change_rows}}


def tier1(tree):
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.monotonic()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True,
                          text=True)
    wall = time.monotonic() - t0
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (\w+)", last)}
    slowest = [{"test": test if phase == "call" else
                "%s (%s)" % (test, phase), "seconds": float(seconds)}
               for seconds, phase, test in DURATION.findall(proc.stdout)]
    return {"command": "PYTHONPATH=src python -m pytest -q "
                       "--continue-on-collection-errors --durations=8",
            "wall_s": wall, "summary": last,
            "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0),
            # pytest says "1 error" but "2 errors"
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "slowest": slowest}


def tier1_summary(runs):
    """Both Tier-1 runs of one tree, and each slow test's minimum over the
    runs that list it, slowest first."""
    best = {}
    for run in runs:
        for row in run["slowest"]:
            seconds, listed = best.get(row["test"], (row["seconds"], 0))
            best[row["test"]] = (min(seconds, row["seconds"]), listed + 1)
    return {"runs": runs,
            "slowest": [{"test": test, "seconds": seconds, "runs": listed}
                        for test, (seconds, listed) in sorted(
                            best.items(), key=lambda item: -item[1][0])]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="base git revision")
    ap.add_argument("--seed", type=int, required=True,
                    help="first of the ten seeds, one per pair")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bound = bounds()
    with tempfile.TemporaryDirectory() as base, \
            tempfile.TemporaryDirectory() as change:
        archive = subprocess.run(["git", "archive", args.base],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        copy_tracked(change)
        rows = {w: {"base": [], "change": []} for w in WORKLOADS}
        for i in range(PAIRS):
            order = [("base", base), ("change", change)]
            if i % 2:
                order.reverse()
            for w in WORKLOADS:
                for side, tree in order:
                    row = bench_run(tree, w, args.seed + i)
                    rows[w][side].append(row)
                    print("pair %d %s %s %s" % (i, w, side, row), flush=True)
        modules = {"base": module_lines(base),
                   "change": module_lines(change)}
        runs = {"base": [], "change": []}
        for side, tree in (("base", base), ("change", change),
                           ("change", change), ("base", base)):
            runs[side].append(tier1(tree))
    report = {
        "stamp": {"python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)),
                  "git_sha": git("rev-parse", "HEAD"),
                  "base_sha": git("rev-parse", args.base),
                  "change": "tracked files of the working tree over "
                            "git_sha",
                  "date": datetime.datetime.now(
                      datetime.timezone.utc).isoformat(timespec="seconds")},
        "settings": {"pairs": PAIRS,
                     "seeds": [args.seed + i for i in range(PAIRS)],
                     "bench": "python3 bench/run.py --workload W --seed S"},
        "src_cfenum_lines": {side: sum(counts.values())
                             for side, counts in modules.items()},
        "src_cfenum_module_lines": modules,
        "workloads": {},
    }
    for w in WORKLOADS:
        report["workloads"][w] = compare(rows[w]["base"], rows[w]["change"],
                                         bound)
    report["tier1_base"] = tier1_summary(runs["base"])
    report["tier1"] = tier1_summary(runs["change"])
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    if any(run["failed"] or run["errors"] for run in runs["change"]):
        sys.exit(1)


if __name__ == "__main__":
    main()

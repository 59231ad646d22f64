"""cfenum benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all        # every workload, one table

Run from the root of a source tree; cfenum is imported from ./src.  Each
job runs in a fresh single-threaded interpreter (bench/job.py), so the
import, the registry build and a cold enumeration cache are paid on every
job, as every CLI user pays them.

--trace 0: times set-up in separate interpreters, then runs jobs back to
  back while another fits in --seconds (at least one), and reports the
  medians of setup_s, wall_s and peak_rss_mb.
--trace 1: runs one untraced and one traced job and reports the traced
  job's per-layer metrics and the tracing overhead (traced wall_s minus
  untraced wall_s).  The trace is written under .bench_out/.

Every item of every job is checked; a failed check, an exception, or two
jobs of one run whose results differ is counted in `failed`.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
JOB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "job.py")
WORKLOADS = ("master-verify", "registry-sweep", "expand-master")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A job could not run or returned no result."""


def child(workload, seed, *extra):
    """Run job.py in a fresh interpreter; return its result with setup_s."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    cmd = [sys.executable, JOB, "--root", ROOT, "--workload", workload,
           "--seed", str(seed), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %d s"
                         % (workload, CHILD_TIMEOUT_S)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("job %s exited %d: %s" % (
            workload, proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - spawned
    return result


def stamp(workload, seed):
    src = os.path.join(ROOT, "src", "cfenum")
    lines = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    lines += sum(1 for _ in f)
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "src_cfenum_lines": lines}


def git_sha():
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tally(jobs):
    """(attempted, failed, failure labels) over every check of the jobs.

    Each job's items and checks count once; each job after the first also
    counts one check that its item fingerprints equal the first job's.
    """
    attempted = failed = 0
    bad = []
    first = [r[:1] + r[2:] for r in jobs[0]["results"]]
    for i, job in enumerate(jobs):
        for label, ok, fp in job["results"]:
            attempted += 1
            if not ok:
                failed += 1
                bad.append("%s -> %s" % (label, fp))
        for label, ok in job["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                bad.append(label)
        if i:
            attempted += 1
            if [r[:1] + r[2:] for r in job["results"]] != first:
                failed += 1
                bad.append("job %d results differ from job 0" % i)
    return attempted, failed, bad


def measure(workload, seed, seconds, trace):
    """Run one benchmark run; return (jobs, metrics)."""
    child(workload, seed, "--setup-only")  # untimed: fills __pycache__
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "trace-%s-seed%d.json" % (workload, seed))
        plain = child(workload, seed)
        traced = child(workload, seed, "--trace", path)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in sorted(traced["layers"].items())}
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
        if traced["absent"]:
            print("absent hooks: %s" % ", ".join(traced["absent"]))
        print("trace written to %s" % os.path.relpath(path, ROOT))
        return [plain, traced], metrics
    setups = [child(workload, seed, "--setup-only")["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    jobs = []
    start = time.monotonic()
    while True:
        jobs.append(child(workload, seed))
        elapsed = time.monotonic() - start
        if elapsed * (len(jobs) + 1) / len(jobs) > seconds:
            break
    setups += [j["setup_s"] for j in jobs]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j["rss_kb"] / 1024 for j in jobs),
    }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    return jobs, {k: {"value": v, "unit": units[k]}
                  for k, v in metrics.items()}


def bench(workload, seed, seconds, trace):
    print("stamp %s" % json.dumps(stamp(workload, seed), sort_keys=True))
    jobs, metrics = measure(workload, seed, seconds, trace)
    attempted, failed, bad = tally(jobs)
    for line in bad:
        print("FAILED %s: %s" % (workload, line), file=sys.stderr)
    print("%s jobs %d" % (workload, len(jobs)))
    for name, m in metrics.items():
        print("%s %s %.6g %s" % (workload, name, m["value"], m["unit"]))
    print("%s fail_ratio %.6g 1 (%d of %d checks)"
          % (workload, failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cfenum", "__init__.py")):
        print("error: no src/cfenum under %s; run from the source root"
              % ROOT, file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            bench(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

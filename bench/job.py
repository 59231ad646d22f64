"""One benchmark job, run in a fresh single-threaded interpreter.

    python3 bench/job.py --root DIR --workload NAME --seed N
                         [--trace FILE] [--setup-only]

Imports ``cfenum.cli`` and ``cfenum.theorems`` from ``DIR/src`` (the
registry is built then), runs the workload's fixed list of calls, checks
every result, and prints one JSON line: the monotonic time at which the
imports were done, the job's wall time and peak RSS, one fingerprint per
item and the list of checks.  With ``--trace`` it installs the tracer
after the imports and writes the trace to FILE.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time


def _import_cfenum(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cfenum.cli  # noqa: F401  (what every CLI user imports)
    import cfenum.theorems
    where = os.path.dirname(os.path.abspath(cfenum.__file__))
    if where != os.path.join(os.path.abspath(src), "cfenum"):
        raise SystemExit("cfenum imported from %s, not %s" % (where, src))
    return cfenum.theorems


# master-verify: acceptance criterion 02, (entry, n_max)
MASTER_VERIFY = (("perm.masterJ1", 7), ("perm.masterJ2", 7),
                 ("sp.masterJ1", 9), ("sp.masterJ2", 9),
                 ("sp.masterJ3", 9), ("sp.masterJ4", 9),
                 ("match.master.S", 7))

# registry-sweep: every entry at min(default n_max, SWEEP_CAP)
REGISTRY_SIZE = 78
SWEEP_CAP = 6

# expand-master: (entry, order, total terms, sha256 of the coefficient
# texts joined by newlines), recorded from the original implementation
EXPAND_MASTER = (
    ("perm.masterJ1", 9, 65961,
     "f36aad0eed0527a7f3c4830623b4de50ed1f2b4374ebb062b73d0c4b6a4caa40"),
    ("sp.masterJ1", 10, 14887,
     "68454eae0d50e7fc7594d7dda8583119e2daf84fb1b22bcca482dabb9797ad15"),
    ("match.master.S", 7, 27486,
     "38a60e62219aed87f63a2783870c26a31450c0f7bdd37f2fbf47291ba3d6aa7c"),
    ("match.indecomposable", 8, 295,
     "7590dde7aee342a8df3b6811717a710d55b4d89006689ca2a4899c856bbe4de7"),
    ("sp.indecomposable", 9, 93,
     "5af6cab9265072a9b89eb6dd297ad89e9e70008c79ce01510f9c95efa5a3c338"),
)


def _report_fingerprint(report):
    d = report.to_dict()
    d.pop("wall_time", None)
    return hashlib.sha256(
        json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


def _verify_item(thm, tid, n_max, seed, exact_n):
    report = thm.verify_theorem(tid, n_max=n_max, seed=seed)
    ok = bool(report.ok) and (not exact_n or report.n_max == n_max)
    return ok, _report_fingerprint(report)


def _expand_item(thm, tid, order, terms, digest):
    from cfenum import mpoly
    coeffs = thm.expand_registered(tid, order)
    polys = [mpoly.as_poly(c) for c in coeffs]
    texts = [mpoly.to_text(p) for p in polys]
    got_terms = sum(len(p.terms) for p in polys)
    got_digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    ok = got_terms == terms and got_digest == digest
    return ok, "%d:%s" % (got_terms, got_digest[:16])


def items(workload, thm, seed):
    """The job's calls, as (label, thunk returning (ok, fingerprint))."""
    if workload == "master-verify":
        return [(tid, lambda tid=tid, n=n: _verify_item(thm, tid, n, seed,
                                                        True))
                for tid, n in MASTER_VERIFY]
    if workload == "registry-sweep":
        ids = list(thm.list_theorems())
        random.Random(seed).shuffle(ids)
        out = []
        for tid in ids:
            default = thm.REGISTRY[tid].n_max
            n = None if default is None else min(default, SWEEP_CAP)
            out.append((tid, lambda tid=tid, n=n: _verify_item(
                thm, tid, n, seed, False)))
        return out
    if workload == "expand-master":
        return [("%s@%d" % (tid, order),
                 lambda tid=tid, o=order, t=t, d=d: _expand_item(
                     thm, tid, o, t, d))
                for tid, order, t, d in EXPAND_MASTER]
    raise SystemExit("unknown workload %r" % (workload,))


def _cold_caches(thm):
    """Check that the enumeration cache starts empty; None if it is gone."""
    cache = getattr(thm, "_ENUM_CACHE", None)
    return None if cache is None else not cache


def run(workload, thm, seed):
    checks = []
    cold = _cold_caches(thm)
    if cold is not None:
        checks.append(["cold _ENUM_CACHE", cold])
    todo = items(workload, thm, seed)
    results = []
    t0 = time.perf_counter()
    for label, thunk in todo:
        try:
            ok, fp = thunk()
        except Exception as exc:  # counted as a failed check, never fatal
            ok, fp = False, "error: %s: %s" % (type(exc).__name__, exc)
        results.append([label, ok, fp])
    wall = time.perf_counter() - t0
    if workload == "registry-sweep":
        visited = sorted(r[0] for r in results)
        checks.append(["visited all %d registry entries" % REGISTRY_SIZE,
                       len(visited) == REGISTRY_SIZE
                       and visited == sorted(thm.list_theorems())])
    return wall, results, checks


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    thm = _import_cfenum(args.root)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wall, results, checks = run(args.workload, thm, args.seed)
    out = {"setup_done": setup_done, "wall_s": wall,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "results": results, "checks": checks}
    if tracer is not None:
        out["layers"] = {k: list(v) for k, v in tracer.metrics(wall).items()}
        out["absent"] = tracer.absent
        with open(args.trace, "w") as f:
            json.dump(dict(tracer.report(), workload=args.workload,
                           seed=args.seed, wall_s=wall), f)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

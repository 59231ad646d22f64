"""Command-line front end: verification, expansion, enumeration,
statistics, path encoding/decoding, machine-readable reports.

All reports are emitted as byte-stable JSON (sorted keys, fixed
indentation) embedding the artifact version, the theorem id, the n range,
the truncation order, and the seed.  Exit codes: 0 success, 1
verification failure, 2 usage or I/O error.
"""

import json
import math
import sys
import time

import click

from . import __version__
from .mpoly import ExponentError, Indeterminate, ParseError, as_poly, \
    ascii_int, from_text, parse_factor, to_text
from .permstats import Permutation, NotABijection, SizeTooLarge, \
    UnknownWeightMap, enumerate_polynomial, stat_totals
from .setpartstats import NotAPartition, SetPartition
from .matchstats import Matching, NotAMatching
from . import paths as pathmod
from . import theorems as thm


def _report_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(report, fmt):
    if fmt == "json":
        click.echo(_report_json(report), nl=False)
    else:
        for k in sorted(report):
            click.echo("%s\t%s" % (k, json.dumps(report[k], sort_keys=True)))


def _fail_usage(message):
    click.echo("error: %s" % message, err=True)
    sys.exit(2)


def _stamp(report, theorem_id=None, n_max=None, order=None, seed=None):
    report["artifact_version"] = __version__
    report["theorem_id"] = theorem_id
    report["n_max"] = n_max
    report["order"] = order
    report["seed"] = seed
    return report


def load_substitution(path):
    """Read a JSON substitution file: keys are indeterminate texts
    (e.g. "w[3]") or family names (e.g. "v1"); values are polynomial
    texts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail_usage("cannot read substitution file %s: %s" % (path, exc))
    if not isinstance(data, dict):
        _fail_usage("substitution file must be a JSON object")
    subst = {}
    for key, val in data.items():
        try:
            family, indices, exp = parse_factor(key)
        except ParseError:
            family = None
        if family is None or exp is not None:
            _fail_usage("bad substitution key %r" % (key,))
        try:
            poly = from_text(val) if isinstance(val, str) else as_poly(val)
        except (ParseError, TypeError) as exc:
            _fail_usage("bad substitution value for %r: %s" % (key, exc))
        subst[Indeterminate(family, *indices) if indices else family] = poly
    return subst


def _parse_oneline(text):
    try:
        word = [ascii_int(t) for t in text.split(",") if t.strip() != ""]
        return Permutation(word)
    except (ValueError, NotABijection) as exc:
        _fail_usage("bad one-line permutation %r: %s" % (text, exc))


def _parse_blocks(text):
    try:
        blocks = [[ascii_int(t) for t in blk.split(",") if t.strip() != ""]
                  for blk in text.split(";") if blk.strip() != ""]
        return SetPartition(blocks)
    except (ValueError, NotAPartition) as exc:
        _fail_usage("bad block list %r: %s" % (text, exc))


def _parse_pairs(text):
    try:
        pairs = []
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            a, b = tok.split("-")
            pairs.append((ascii_int(a), ascii_int(b)))
        return Matching(pairs)
    except (ValueError, NotAMatching) as exc:
        _fail_usage("bad pair list %r: %s" % (text, exc))


def _object_payload(x):
    """The object part of a stats or decode report."""
    if isinstance(x, Permutation):
        return {"object": "perm", "oneline": list(x.oneline)}
    if isinstance(x, Matching):
        return {"object": "match", "pairs": x.as_blocks()}
    return {"object": "setpart", "blocks": [list(b) for b in x.blocks]}


class _AsciiDigits:
    """Mixin for a click integer type: the text goes through ascii_int, so
    underscores and non-ASCII digits are malformed, with click's message."""

    def convert(self, value, param, ctx):
        try:
            value = ascii_int(value) if isinstance(value, str) else value
        except ValueError:
            self.fail("%r is not a valid %s." % (value, self.name), param, ctx)
        return super().convert(value, param, ctx)


class _Count(_AsciiDigits, click.IntRange):
    pass


class _Int(_AsciiDigits, click.types.IntParamType):
    pass


_COUNT = _Count(min=0)
_FMT = click.option("--format", "fmt", type=click.Choice(["json", "text"]),
                    default="json", help="Output format.")


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact continued-fraction enumeration toolkit."""


# ---------------------------------------------------------------------------
# verify / verify-all / conjecture

def _emit_verification(report, fmt):
    """Emit a verification report, stamped with its own id, n_max, order
    and seed, and exit 0 if it holds, 1 if not."""
    _emit(_stamp(report.to_dict(), theorem_id=report.theorem_id,
                 n_max=report.n_max, order=report.order, seed=report.seed),
          fmt)
    sys.exit(0 if report.ok else 1)


@main.command()
@click.argument("theorem_id")
@click.option("--n", type=_COUNT, default=None,
              help="Largest n to check.")
@click.option("--order", type=_COUNT, default=None,
              help="Truncation order.")
@click.option("--seed", type=_Int(), default=0, help="Seed for witnesses.")
@_FMT
def verify(theorem_id, n, order, seed, fmt):
    """Verify one registered theorem, corollary, identity, or witness."""
    try:
        report = thm.verify_theorem(theorem_id, n_max=n, order=order,
                                    seed=seed)
    except thm.UnknownTheorem:
        _fail_usage("unknown theorem id %r (see list in README or "
                    "`verify-all` output)" % (theorem_id,))
    _emit_verification(report, fmt)


def _finite(ctx, param, value):
    # nan and inf pass FloatRange but are not valid in the JSON report
    if not math.isfinite(value):
        raise click.BadParameter("%r is not a finite number" % (value,))
    return value


@main.command("verify-all")
@click.option("--budget", type=click.FloatRange(min=0), default=600.0,
              callback=_finite,
              help="Wall-time budget in seconds; entries reached after it "
                   "runs out are skipped and the run is not ok.")
@click.option("--seed", type=_Int(), default=0, help="Seed for witnesses.")
@_FMT
def verify_all(budget, seed, fmt):
    """Verify every registered entry at its default n_max."""
    t0 = time.time()
    results = []
    all_ok = True
    for tid in thm.list_theorems():
        if time.time() - t0 >= budget:
            results.append({"id": tid, "skipped": True})
            all_ok = False
            continue
        report = thm.verify_theorem(tid, seed=seed)
        all_ok = all_ok and report.ok
        results.append({"id": tid, "ok": report.ok,
                        "n_max": report.n_max,
                        "wall_time": round(report.wall_time, 6),
                        "first_discrepancy": report.first_discrepancy})
    out = _stamp({"results": results, "ok": all_ok,
                  "budget": budget,
                  "total_wall_time": round(time.time() - t0, 6)},
                 theorem_id="ALL", seed=seed)
    _emit(out, fmt)
    sys.exit(0 if all_ok else 1)


@main.command()
@click.option("--n", type=_COUNT, default=None,
              help="Largest n to check.")
@click.option("--order", type=_COUNT, default=None,
              help="Truncation order.")
@_FMT
def conjecture(n, order, fmt):
    """Forward-check the conjectured second J-fraction."""
    _emit_verification(
        thm.verify_theorem("conj.v2.full", n_max=n, order=order), fmt)


# ---------------------------------------------------------------------------
# expand / enumerate / stats

@main.command()
@click.option("--theorem", "theorem_id", required=True,
              help="Registered fraction id.")
@click.option("--order", type=_COUNT, default=8,
              help="Truncation order.")
@_FMT
def expand(theorem_id, order, fmt):
    """Expand a registered continued fraction to a truncation order."""
    try:
        coeffs = thm.expand_registered(theorem_id, order)
    except thm.UnknownTheorem as exc:
        _fail_usage("cannot expand: %s" % exc)
    out = _stamp({"coefficients": [to_text(as_poly(c)) for c in coeffs]},
                 theorem_id=theorem_id, order=order)
    _emit(out, fmt)


@main.command()
@click.option("--object", "obj", required=True,
              type=click.Choice(sorted(thm.KINDS)))
@click.option("--n", type=_COUNT, required=True,
              help="Object size (pairs for matchings).")
@click.option("--family", default="all", help="Object family.")
@click.option("--weight", default="unit", help="Registered weight map id.")
@click.option("--subst", "subst_path", default=None,
              help="JSON substitution file.")
@click.option("--zeta", is_flag=True,
              help="Multiply each weight by zeta^cc.")
@_FMT
def enumerate(obj, n, family, weight, subst_path, zeta, fmt):
    """Exact weighted enumeration as a polynomial."""
    subst = load_substitution(subst_path) if subst_path else None
    try:
        poly = enumerate_polynomial(thm.KINDS[obj], n, family, weight, zeta)
    except UnknownWeightMap as exc:
        _fail_usage("unknown weight or family: %s" % exc)
    except SizeTooLarge as exc:
        _fail_usage("cannot enumerate: %s" % exc)
    if subst:
        try:
            poly = poly.substitute(subst)
        except ExponentError as exc:
            _fail_usage("substitution gives an %s" % exc)
    out = _stamp({"object": obj, "n": n, "family": family,
                  "weight": weight, "zeta": zeta,
                  "polynomial": to_text(poly)}, n_max=n)
    _emit(out, fmt)


@main.command()
@click.option("--object", "obj", required=True,
              type=click.Choice(list(thm.KINDS)))
@click.option("--oneline", default=None,
              help="Permutation in one-line notation, e.g. 2,1.")
@click.option("--blocks", default=None,
              help="Set partition blocks, e.g. 1,3,6;2,4,5.")
@click.option("--pairs", default=None,
              help="Matching pairs, e.g. 1-3,2-4.")
@_FMT
def stats(obj, oneline, blocks, pairs, fmt):
    """All statistic totals of one combinatorial object."""
    if obj == "perm":
        if oneline is None:
            _fail_usage("--object perm requires --oneline")
        x = _parse_oneline(oneline)
    elif obj == "setpart":
        if blocks is None:
            _fail_usage("--object setpart requires --blocks")
        x = _parse_blocks(blocks)
    else:
        if pairs is None:
            _fail_usage("--object match requires --pairs")
        x = _parse_pairs(pairs)
    payload = _object_payload(x)
    payload["stats"] = stat_totals(thm.KINDS[obj], x).to_dict()
    _emit(_stamp(payload), fmt)


# ---------------------------------------------------------------------------
# encode / decode

def _lookup_bijection(name):
    """The registered spelling of a bijection name, in any letter case."""
    for canon in pathmod.BIJECTIONS:
        if canon.lower() == name.lower():
            return canon
    _fail_usage("unknown bijection %r (choose from %s)"
                % (name, ", ".join(sorted(pathmod.BIJECTIONS))))


@main.command()
@click.option("--bijection", required=True,
              help="FZ, Biane, KZ, Flajolet, Hybrid3, or Hybrid4.")
@click.option("--oneline", default=None,
              help="Permutation in one-line notation (FZ, Biane).")
@click.option("--blocks", default=None,
              help="Set partition blocks (KZ, Flajolet, Hybrid3, Hybrid4).")
@_FMT
def encode(bijection, oneline, blocks, fmt):
    """Encode an object as a labeled Motzkin path."""
    canon = _lookup_bijection(bijection)
    if pathmod.BIJECTIONS[canon].takes is Permutation:
        if oneline is None:
            _fail_usage("%s requires --oneline" % canon)
        obj = _parse_oneline(oneline)
    else:
        if blocks is None:
            _fail_usage("%s requires --blocks" % canon)
        obj = _parse_blocks(blocks)
    out = _stamp({"bijection": canon, "path": pathmod.path_to_json_obj(
        pathmod.encode(obj, canon))})
    _emit(out, fmt)


@main.command()
@click.option("--bijection", required=True,
              help="FZ, Biane, KZ, Flajolet, Hybrid3, or Hybrid4.")
@click.option("--path", "path_file", required=True,
              help="Path JSON file, or - for standard input.")
@_FMT
def decode(bijection, path_file, fmt):
    """Decode a labeled Motzkin path back to its object."""
    canon = _lookup_bijection(bijection)
    try:
        if path_file == "-":
            text = sys.stdin.read()
        else:
            with open(path_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        path = pathmod.path_from_json(text)
    except (OSError, ValueError, KeyError) as exc:
        _fail_usage("cannot read path: %s" % exc)
    try:
        obj = pathmod.decode(path, canon)
    except (pathmod.TypeMismatch, pathmod.InvalidPath) as exc:
        _fail_usage(str(exc))
    payload = _object_payload(obj)
    payload["bijection"] = canon
    _emit(_stamp(payload), fmt)


if __name__ == "__main__":
    main()

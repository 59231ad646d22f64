"""In-memory tracer for the traced benchmark run.

The tracer wraps public functions of the cfenum modules from outside: it
rebinds the module attribute, every other module-level binding of the
same function object (``from .x import f`` copies), and every entry of a
module-level dict that holds it (``theorems._ENUMERATORS``,
``cli._ENUMERATORS``, the ``*_WEIGHTS`` tables).  Nothing under ``src/``
changes.  A hook whose target is missing is listed in ``absent`` and
otherwise ignored.

Every hooked call is a frame on one stack.  For each hook group the
tracer keeps the call count, the inclusive time of outermost calls (a
group nested in itself counts once) and the self time (duration minus the
time of hooked calls nested inside).  For each layer (the group prefix
before the dot) it keeps the time of the layer's outermost frames.
Coarse stage calls (``verify``, ``identity``, ``enumerate``, ``expand``,
``compare``) are also recorded as spans: name, start, end, parent span,
detail.  Everything stays in memory until ``report()``.
"""

from collections import Counter
import functools
import importlib
import sys
from time import perf_counter

# hook kinds
TIME = "time"      # timed call
GEN = "gen"        # generator; each next() is timed, each item counted
COUNT = "count"    # call counted only
WEIGHT = "weight"  # dict of weight maps: every entry is timed
ENUM = "enum"      # enumeration pass: timed, recorded as an enumerate span
SPAN = "span"      # timed and recorded as a span

LAYERS = ("permstats", "setpartstats", "matchstats")

# (group, module, attribute path, kind, span name or None)
HOOKS = (
    ("permstats.gen", "cfenum.permstats", "iter_permutations", GEN, None),
    ("permstats.kernel", "cfenum.permstats", "perm_index_profile", TIME,
     None),
    ("permstats.kernel", "cfenum.permstats", "perm_stat_totals", TIME, None),
    ("permstats.weight", "cfenum.permstats", "PERM_WEIGHTS", WEIGHT, None),
    ("permstats.weight", "cfenum.permstats", "perm_master_weight_first",
     TIME, None),
    ("permstats.weight", "cfenum.permstats", "perm_master_weight_second",
     TIME, None),
    ("permstats.enumerate", "cfenum.permstats", "enumerate_perm_polynomial",
     ENUM, "enumerate"),
    ("setpartstats.gen", "cfenum.setpartstats", "iter_set_partitions", GEN,
     None),
    ("setpartstats.kernel", "cfenum.setpartstats", "sp_index_profile", TIME,
     None),
    ("setpartstats.kernel", "cfenum.setpartstats", "sp_stat_totals", TIME,
     None),
    ("setpartstats.weight", "cfenum.setpartstats", "SP_WEIGHTS", WEIGHT,
     None),
    ("setpartstats.weight", "cfenum.setpartstats", "sp_master_weight", TIME,
     None),
    ("setpartstats.enumerate", "cfenum.setpartstats",
     "enumerate_sp_polynomial", ENUM, "enumerate"),
    ("matchstats.gen", "cfenum.matchstats", "iter_matchings", GEN, None),
    ("matchstats.kernel", "cfenum.matchstats", "matching_stat_totals", TIME,
     None),
    ("matchstats.weight", "cfenum.matchstats", "MATCH_WEIGHTS", WEIGHT,
     None),
    ("matchstats.weight", "cfenum.matchstats", "matching_master_weight",
     TIME, None),
    ("matchstats.enumerate", "cfenum.matchstats",
     "enumerate_matching_polynomial", ENUM, "enumerate"),
    ("theorems.verify", "cfenum.theorems", "verify_theorem", SPAN, "verify"),
    ("theorems.identity", "cfenum.theorems", "check_identity", SPAN,
     "identity"),
    ("theorems.enum_request", "cfenum.theorems", "_enum", TIME, None),
    ("theorems.compare", "cfenum.mpoly", "MultiPoly.__eq__", SPAN,
     "compare"),
    ("series.expand", "cfenum.theorems", "_jfraction_coeffs", SPAN, "expand"),
    ("series.expand", "cfenum.theorems", "_sfraction_coeffs", SPAN, "expand"),
    ("series.expand", "cfenum.series", "expand_sfraction", SPAN, "expand"),
    ("series.expand", "cfenum.series", "expand_jfraction", SPAN, "expand"),
    ("series.reciprocal", "cfenum.series", "PowerSeries.reciprocal", TIME,
     None),
    ("mpoly.mul", "cfenum.mpoly", "MultiPoly.__mul__", TIME, None),
    ("mpoly.add", "cfenum.mpoly", "MultiPoly.__add__", TIME, None),
    ("mpoly.to_text", "cfenum.mpoly", "to_text", TIME, None),
    ("mpoly.substitute", "cfenum.mpoly", "MultiPoly.substitute", TIME, None),
    ("mpoly.monomial_new", "cfenum.mpoly", "Monomial.__init__", COUNT, None),
)


def _terms(result):
    """Largest term count among the polynomials of an expansion result."""
    coeffs = getattr(result, "coeffs", result)
    return max((len(getattr(c, "terms", ())) for c in coeffs), default=0)


# per-group counters: index into a group's stats list
CALLS, INCL, SELF, DEPTH, ITEMS = range(5)


def _leave(stack, st, ls, dt):
    """Close the innermost frame of group stats st in layer stats ls."""
    child = stack.pop()
    if stack:
        stack[-1] += dt
    st[CALLS] += 1
    st[SELF] += dt - child
    st[DEPTH] -= 1
    if not st[DEPTH]:
        st[INCL] += dt
    ls[0] -= 1
    if not ls[0]:
        ls[1] += dt


class Tracer:
    def __init__(self):
        # group -> [calls, inclusive s of outermost calls, self s, depth,
        #           items yielded]; layer -> [depth, s of outermost frames]
        self.groups = {}
        self.layers = {}
        self.stack = []       # open frames: seconds of hooked calls inside
        self.span_stack = []  # open recorded span ids
        self.spans = []       # [name, start, end, parent id, detail]
        self.passes = []      # (layer, n, seconds, objects, terms)
        self.max_terms = 0
        self.misses = 0       # enumeration passes started inside _enum
        self.installed = []
        self.absent = []

    def _stats(self, group):
        st = self.groups.setdefault(group, [0, 0.0, 0.0, 0, 0])
        return st, self.layers.setdefault(group.split(".")[0], [0, 0.0])

    def _get(self, group, field):
        return self.groups.get(group, [0, 0.0, 0.0, 0, 0])[field]

    # -- wrappers -----------------------------------------------------------

    def _timed(self, group, fn, span=None):
        st, ls = self._stats(group)
        stack = self.stack

        if span is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                st[DEPTH] += 1
                ls[0] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    _leave(stack, st, ls, perf_counter() - t0)
            return wrapper

        spans, span_stack = self.spans, self.span_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            st[DEPTH] += 1
            ls[0] += 1
            spans.append([span, None, None,
                          span_stack[-1] if span_stack else None,
                          _detail(fn, args, kwargs)])
            span_stack.append(len(spans) - 1)
            t0 = spans[-1][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _leave(stack, st, ls, end - t0)
                spans[span_stack.pop()][2] = end
            if span == "expand":
                self.max_terms = max(self.max_terms, _terms(result))
            return result
        return wrapper

    def _enum(self, group, fn):
        layer = group.split(".")[0]
        timed = self._timed(group, fn, span="enumerate")
        weight_group = layer + ".weight"
        gen, _ = self._stats(layer + ".gen")
        request, _ = self._stats("theorems.enum_request")

        @functools.wraps(fn)
        def wrapper(n, *args, **kwargs):
            # enumerate_*(n, family, weight, ...): time a callable weight
            if len(args) > 1 and callable(args[1]):
                args = (args[0], self._timed(weight_group, args[1])) + args[2:]
            elif callable(kwargs.get("weight")):
                kwargs["weight"] = self._timed(weight_group, kwargs["weight"])
            if request[DEPTH]:
                self.misses += 1
            before = gen[ITEMS]
            t0 = perf_counter()
            result = timed(n, *args, **kwargs)
            self.passes.append((layer, n, perf_counter() - t0,
                                gen[ITEMS] - before,
                                len(getattr(result, "terms", ()))))
            return result
        return wrapper

    def _gen(self, group, fn):
        st, ls = self._stats(group)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                st[DEPTH] += 1
                ls[0] += 1
                t0 = perf_counter()
                try:
                    obj = next(it)
                except StopIteration:
                    return
                finally:
                    _leave(stack, st, ls, perf_counter() - t0)
                st[ITEMS] += 1
                yield obj
        return wrapper

    def _counted(self, group, fn):
        st, _ = self._stats(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st[CALLS] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Install every hook; return the list of absent targets."""
        for group, modname, path, kind, span in HOOKS:
            label = "%s:%s" % (modname, path)
            try:
                owner = importlib.import_module(modname)
                *head, name = path.split(".")
                for part in head:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            if kind == WEIGHT:
                if not isinstance(original, dict):
                    self.absent.append(label)
                    continue
                for key, fn in list(original.items()):
                    original[key] = self._wrap(group, fn, TIME, None)
            else:
                wrapper = self._wrap(group, original, kind, span)
                self._rebind(owner, name, original, wrapper)
            self.installed.append(label)
        return self.absent

    def _wrap(self, group, fn, kind, span):
        if kind == GEN:
            return self._gen(group, fn)
        if kind == COUNT:
            return self._counted(group, fn)
        if kind == ENUM:
            return self._enum(group, fn)
        return self._timed(group, fn, span)

    def _rebind(self, owner, name, original, wrapper):
        if isinstance(owner, type):
            for attr, val in list(vars(owner).items()):
                if val is original:
                    setattr(owner, attr, wrapper)
            return
        setattr(owner, name, wrapper)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("cfenum"):
                continue
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is original:
                    ns[key] = wrapper
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is original:
                            val[k] = wrapper

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of the traced job (traced wall time given)."""
        g = self._get
        out = {}
        for layer in LAYERS:
            objects = g(layer + ".gen", ITEMS)
            kernel = g(layer + ".kernel", INCL)
            enum_objects = sum(p[3] for p in self.passes if p[0] == layer)
            enum_terms = sum(p[4] for p in self.passes if p[0] == layer)
            out.update({
                layer + ".objects": (objects, "count"),
                layer + ".gen_s": (g(layer + ".gen", INCL), "s"),
                layer + ".kernel_s": (kernel, "s"),
                layer + ".kernel_us_per_object":
                    (1e6 * kernel / objects if objects else 0.0, "us"),
                layer + ".weight_s": (g(layer + ".weight", INCL), "s"),
                layer + ".enumerate_s": (g(layer + ".enumerate", INCL), "s"),
                layer + ".accumulate_s":
                    (g(layer + ".enumerate", SELF), "s"),
                layer + ".terms_per_object":
                    (enum_terms / enum_objects if enum_objects else 0.0, "1"),
                layer + ".share": (self._layer_share(layer, wall_s), "1"),
            })
        requests = g("theorems.enum_request", CALLS)
        passes = sum(g(layer + ".enumerate", CALLS) for layer in LAYERS)
        out.update({
            "theorems.verify_s": (g("theorems.verify", INCL), "s"),
            "theorems.enum_requests": (requests, "count"),
            "theorems.enum_passes": (passes, "count"),
            "theorems.enum_cache_hit_ratio":
                (1.0 - self.misses / requests if requests else 0.0, "1"),
            "theorems.compare_s": (g("theorems.compare", INCL), "s"),
            "theorems.identity_s": (g("theorems.identity", INCL), "s"),
            "series.expand_s": (g("series.expand", INCL), "s"),
            "series.expand_calls": (g("series.expand", CALLS), "count"),
            "series.max_terms": (self.max_terms, "count"),
            "series.reciprocal_s": (g("series.reciprocal", INCL), "s"),
            "series.share": (self._layer_share("series", wall_s), "1"),
            "mpoly.monomial_new": (g("mpoly.monomial_new", CALLS), "count"),
            "mpoly.mul_calls": (g("mpoly.mul", CALLS), "count"),
            "mpoly.mul_s": (g("mpoly.mul", INCL), "s"),
            "mpoly.mul_share": (_share(g("mpoly.mul", INCL), wall_s), "1"),
            "mpoly.add_calls": (g("mpoly.add", CALLS), "count"),
            "mpoly.add_s": (g("mpoly.add", INCL), "s"),
            "mpoly.to_text_s": (g("mpoly.to_text", INCL), "s"),
            "mpoly.substitute_s": (g("mpoly.substitute", INCL), "s"),
            "mpoly.share": (self._layer_share("mpoly", wall_s), "1"),
            "enumerate.multiweight_share":
                (_share(self._multiweight_s(), wall_s), "1"),
            "trace.spans": (len(self.spans), "count"),
            "trace.hooks_absent": (len(self.absent), "count"),
        })
        return out

    def _layer_share(self, layer, wall_s):
        return _share(self.layers.get(layer, [0, 0.0])[1], wall_s)

    def _multiweight_s(self):
        """Seconds of enumeration passes over an object set (object type,
        size) that the job enumerates more than once."""
        seen = Counter((p[0], p[1]) for p in self.passes)
        return sum(p[2] for p in self.passes if seen[(p[0], p[1])] > 1)

    def report(self):
        """Everything recorded, for the trace file."""
        return {
            "installed": self.installed,
            "absent": self.absent,
            "groups": {name: {"calls": st[CALLS], "inclusive_s": st[INCL],
                              "self_s": st[SELF], "items": st[ITEMS]}
                       for name, st in sorted(self.groups.items())},
            "layers": {name: ls[1] for name, ls in sorted(self.layers.items())},
            "passes": [{"layer": p[0], "n": p[1], "seconds": p[2],
                        "objects": p[3], "terms": p[4]}
                       for p in self.passes],
            "spans": [{"name": s[0], "start": s[1], "end": s[2],
                       "parent": s[3], "detail": s[4]} for s in self.spans],
        }


def _share(part, whole):
    return part / whole if whole > 0 else 0.0


def _detail(fn, args, kwargs):
    """Short text naming the call, for span records."""
    name = getattr(fn, "__name__", "?")
    shown = [repr(a) for a in args if isinstance(a, (int, str))]
    shown += ["%s=%r" % (k, v) for k, v in sorted(kwargs.items())
              if isinstance(v, (int, str, bool))]
    return "%s(%s)" % (name, ", ".join(shown))

"""
Tracing from outside the package: every public function of every hilbfock
module, and a few named methods, is replaced by a wrapper that records a
span (name, start, end, parent span, request) and bumps the counters the
per-layer metrics need.  Spans stay in memory until `dump`.

A function is rebound in every module namespace that holds it, because
`from .series import product_expand` copies the binding, and in module-level
dicts such as the CLI's command table.  Hot scalar dunders
(GaussianRational arithmetic, Fraction) and small accessors get no span;
their work shows in the computed counts and in their callers' self time.
"""

import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("partitions", "series", "surfaces", "goettsche", "heisenberg",
          "linalg", "adhm", "stratification", "selfcheck", "cli")

METHODS = {
    "series": {"CoeffPoly": ("__mul__", "__rmul__", "specialize"),
               "QTSeries": ("__mul__", "__rmul__", "truncate", "specialize"),
               "FactorFamily": ("factor_series",)},
    "surfaces": {"SurfaceModel": ("__hash__", "__eq__")},
    "heisenberg": {"Create": ("apply",), "Annihilate": ("apply",),
                   "Central": ("apply",)},
    "adhm": {"MatrixTriple": ("conjugate_by",),
             "SupportCycle": ("power_sum",)},
    "stratification": {"StalkTable": ("poincare",)},
}


def _term_products(counts, args, out):
    self, other = args
    width = len(other.terms) if hasattr(other, "terms") else 1
    counts["series.coeffpoly_mul.term_products"] += len(self.terms) * width


def _apply_terms(counts, args, out):
    counts["heisenberg.apply.terms_out"] += len(out.terms)


def _mat_mul_products(counts, args, out):
    a, b = args
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    col_nnz = [0] * k
    for row in a:
        for j, x in enumerate(row):
            if not x.is_zero():
                col_nnz[j] += 1
    useful = sum(c * sum(1 for y in row if not y.is_zero())
                 for c, row in zip(col_nnz, b))
    counts["linalg.mat_mul.scalar_mults"] += n * k * m
    counts["linalg.mat_mul.useful_mults"] += useful


def _divisors(counts, args, out):
    counts["linalg.root_candidates"] += len(out)


def _splittings(counts, args, out):
    counts["partitions.splittings.tuples"] += len(out)


COUNTERS = {
    "series.CoeffPoly.__mul__": _term_products,
    "series.CoeffPoly.__rmul__": _term_products,
    "heisenberg.Create.apply": _apply_terms,
    "heisenberg.Annihilate.apply": _apply_terms,
    "heisenberg.Central.apply": _apply_terms,
    "linalg.mat_mul": _mat_mul_products,
    "linalg.gaussian_integer_divisors": _divisors,
    "partitions.splittings": _splittings,
}


class Tracer:
    """Span recorder.  `install` patches the package in this process."""

    def __init__(self):
        self.names = []
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request_of = array("l")
        self.stack = []
        self.request = 0
        self.counts = Counter()
        self.cached = {}

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        counts = self.counts
        stack = self.stack
        name_of, start, end = self.name_of, self.start, self.end
        parent, request_of = self.parent, self.request_of
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            request_of.append(tracer.request)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, out)
            return out

        return traced

    def install(self):
        modules = {layer: importlib.import_module("hilbfock." + layer)
                   for layer in LAYERS}
        namespaces = [importlib.import_module("hilbfock"),
                      *modules.values()]
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info"):
                    self.cached[layer + "." + attr] = obj
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    replace[id(obj)] = self.wrap(layer + "." + attr, obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(
                        "%s.%s.%s" % (layer, cls_name, meth), fn))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replace:
                    setattr(ns, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in replace:
                            obj[key] = replace[id(val)]

    def dump(self, path, extra_counts=None):
        counts = dict(self.counts)
        counts.update(extra_counts or {})
        caches = {name: fn.cache_info()._asdict()
                  for name, fn in self.cached.items()}
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [list(self.name_of), list(self.start),
                                 list(self.end), list(self.parent),
                                 list(self.request_of)],
                       "counts": counts, "caches": caches}, fh)


# ---------------------------------------------------------------------------
# aggregation into the per-layer metrics of BENCHMARK.json

CALL_COUNTS = {
    "series.coeffpoly_mul.calls": ("series.CoeffPoly.__mul__",
                                   "series.CoeffPoly.__rmul__"),
    "series.qtseries_mul.calls": ("series.QTSeries.__mul__",
                                  "series.QTSeries.__rmul__"),
    "series.product_expand.calls": ("series.product_expand",),
    "surfaces.model_hash.calls": ("surfaces.SurfaceModel.__hash__",),
    "partitions.partitions_of.calls": ("partitions.partitions_of",),
    "heisenberg.apply.calls": ("heisenberg.Create.apply",
                               "heisenberg.Annihilate.apply",
                               "heisenberg.Central.apply"),
    "heisenberg.graded_character.calls": ("heisenberg.graded_character",),
    "stratification.stalk_table.calls": ("stratification.stalk_table",),
    "linalg.mat_mul.calls": ("linalg.mat_mul",),
    "linalg.char_poly.calls": ("linalg.char_poly",),
    "adhm.support_cycle.calls": ("adhm.support_cycle",),
    "adhm.trace_invariant.calls": ("adhm.trace_invariant",),
    "adhm.trace_table.calls": ("adhm.trace_table",),
}

SUMMED_COUNTS = ("series.coeffpoly_mul.term_products",
                 "heisenberg.apply.terms_out", "linalg.mat_mul.scalar_mults",
                 "linalg.root_candidates", "partitions.splittings.tuples",
                 "cli.emit.bytes")


def summarize(dumps):
    """
    Per-layer totals over the span dumps of one pass: self time (span time
    minus the time its child spans cover), call counts, computed counts and
    cache hit ratios.  Returns {metric: value}.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    by_name = {}
    counts = {}
    hits = {layer: 0 for layer in LAYERS}
    lookups = {layer: 0 for layer in LAYERS}
    for dump in dumps:
        names = dump["names"]
        name_of, start, end, parent, _ = dump["spans"]
        child_time = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child_time[p] += end[i] - start[i]
        for i, nid in enumerate(name_of):
            name = names[nid]
            layer = name.split(".", 1)[0]
            self_s[layer] += end[i] - start[i] - child_time[i]
            calls[layer] += 1
            by_name[name] = by_name.get(name, 0) + 1
        for key, val in dump["counts"].items():
            counts[key] = counts.get(key, 0) + val
        for name, info in dump["caches"].items():
            layer = name.split(".", 1)[0]
            hits[layer] += info["hits"]
            lookups[layer] += info["hits"] + info["misses"]
    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = self_s[layer]
        out[layer + ".calls"] = calls[layer]
    for metric, names in CALL_COUNTS.items():
        out[metric] = sum(by_name.get(n, 0) for n in names)
    for metric in SUMMED_COUNTS:
        out[metric] = counts.get(metric, 0)
    mults = out["linalg.mat_mul.scalar_mults"]
    out["linalg.mat_mul.nonzero_frac"] = (
        counts.get("linalg.mat_mul.useful_mults", 0) / mults if mults else 0.0)
    out["goettsche.cache_lookups"] = lookups["goettsche"]
    for layer in ("goettsche", "partitions"):
        out[layer + ".cache_hit_ratio"] = (
            hits[layer] / lookups[layer] if lookups[layer] else 0.0)
    return out

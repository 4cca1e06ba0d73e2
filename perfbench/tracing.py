"""Per-layer tracing of planalg from outside the package.

``Tracer.install`` replaces planalg's public functions and methods with
timing wrappers, in the defining module and everywhere they were
imported by name, so no file under ``src/`` changes.  Each wrapper
keeps, per metric name, the call count, the inclusive time of its
outermost calls and its self time (span minus the time covered by
wrapped children).  Calls outside ``AGGREGATE_ONLY`` also record one
span ``(id, parent id, op id, name, start, end)``; the hot arithmetic
leaves keep aggregates only.  Everything stays in memory until
``dump``.
"""

import functools
import itertools
import json
import sys
import time

#: metric name -> (module, dotted attribute); each becomes .calls/.s/.self_s.
TARGETS = {
    "laurent.mul": ("laurent", "Laurent.__mul__"),
    "laurent.add": ("laurent", "Laurent.__add__"),
    "laurent.parse": ("laurent", "Laurent.parse"),
    "table_algebra.mul": ("table_algebra", "TableAlgebra.mul"),
    "diagram.stack_matchings": ("diagram", "stack_matchings"),
    "diagram.from_text": ("diagram", "LabeledDiagram.from_text"),
    "planar.diagram_product": ("planar", "diagram_product"),
    "planar.element_mul": ("planar", "Element.__mul__"),
    "planar.element_add": ("planar", "Element.__add__"),
    "planar.trace": ("planar", "Element.trace"),
    "planar.to_text": ("planar", "Element.to_text"),
    "tabular.datum_build": ("tabular", "datum_build"),
    "tabular.axioms_check": ("tabular", "TabularDatum.axioms_check"),
    "tabular.product": ("tabular", "TabularDatum.product"),
    "tabular.form_basis": ("tabular", "TabularDatum.form_basis"),
    "coxeter.coxeter_group": ("coxeter", "coxeter_group"),
    "coxeter.wc_classify": ("coxeter", "wc_classify"),
    "hecke.bar_t": ("hecke", "Hecke.bar_t"),
    "hecke.cprime_unit": ("hecke", "Hecke.cprime_unit"),
    "hecke.ic_solve": ("hecke", "ic_solve"),
    "hecke.mul": ("hecke", "Hecke.mul"),
    "hecke.to_cprime": ("hecke", "Hecke.to_cprime"),
    "tl.tl": ("tl", "tl"),
    "tl.mul": ("tl", "TL.mul"),
    "tl.t_mul": ("tl", "TL.t_mul"),
    "tl.bar": ("tl", "TL.bar"),
    "tl.to_canonical": ("tl", "TL.to_canonical"),
    "embed.rho_build": ("embed", "rho_build"),
    "embed.t_image": ("embed", "DiagramEmbedding.t_image"),
    "embed.rho": ("embed", "DiagramEmbedding.rho"),
    "embed.rho_verify_bijection": ("embed", "rho_verify_bijection"),
}

AGGREGATE_ONLY = {"laurent.mul", "laurent.add", "table_algebra.mul"}

#: The module-level lru_caches whose end-of-run cache_info is recorded.
LRU_CACHES = {
    "coxeter_group": ("coxeter", "coxeter_group"),
    "wc_classify": ("coxeter", "wc_classify"),
    "hecke": ("hecke", "hecke"),
    "tl": ("tl", "tl"),
    "matchings": ("diagram", "matchings"),
    "half_arcs": ("diagram", "half_arcs"),
    "stack_matchings": ("diagram", "stack_matchings"),
    "closure_loops": ("planar", "closure_loops"),
}

SPAN_CAP = 200_000


def _resolve(modname, dotted):
    """The function behind a planalg attribute (unwrapping classmethods)."""
    owner = sys.modules[f"planalg.{modname}"]
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return getattr(raw, "__func__", raw)


def lru_caches():
    """cache_info() of every listed lru_cache, as plain dicts."""
    out = {}
    for name, (modname, attr) in LRU_CACHES.items():
        fn = _resolve(modname, attr)
        while not hasattr(fn, "cache_info"):  # under a tracing wrapper
            fn = fn.__wrapped__
        out[name] = fn.cache_info()._asdict()
    return out


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive s, self s, depth]
        self.edges = {}  # (parent name, child name) -> calls
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.op = "build"
        self._ids = itertools.count(1)

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, edges, spans = self.stack, self.edges, self.spans
        keep_spans = name not in AGGREGATE_ONLY
        ids, clock = self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # [seconds covered by wrapped children, span id, metric name]
            frame = [0.0, next(ids) if keep_spans else (parent[1] if parent else 0),
                     name]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                stat[0] += 1
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += dt
                stat[2] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                    key = (parent[2], name)
                    edges[key] = edges.get(key, 0) + 1
                if keep_spans:
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[1], parent[1] if parent else 0,
                                      self.op, name, start, end))
                    else:
                        self.dropped += 1

        return wrapper

    def install(self):
        """Replace every target, wherever planalg holds a reference."""
        import planalg  # noqa: F401 - the modules must be loaded

        wrappers = {}  # id(original) -> wrapper
        for name, (modname, dotted) in TARGETS.items():
            func = _resolve(modname, dotted)
            wrappers[id(func)] = self.wrap(name, func)
        modules = [m for k, m in sys.modules.items()
                   if k == "planalg" or k.startswith("planalg.")]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, key, wrappers[id(value)])
                elif isinstance(value, type) and value.__module__.startswith("planalg"):
                    for attr, raw in list(vars(value).items()):
                        new = wrappers.get(id(getattr(raw, "__func__", raw)))
                        if new is not None:
                            if isinstance(raw, classmethod):
                                new = classmethod(new)
                            setattr(value, attr, new)

    def metrics(self):
        """Flat per-layer numbers: <name>.calls, .s and .self_s."""
        out = {}
        for name, (calls, incl, self_s, _) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        caches = lru_caches()
        sm = caches["stack_matchings"]
        looked = sm["hits"] + sm["misses"]
        out["diagram.stack_matchings.hit_ratio"] = sm["hits"] / looked if looked else 0.0
        products = self.stats["planar.diagram_product"][0]
        stacked = self.edges.get(("planar.diagram_product", "diagram.stack_matchings"), 0)
        out["planar.diagram_product.miss_ratio"] = stacked / products if products else 0.0
        return out

    def dump(self, path, record):
        """Write metrics, caller edges, cache_info and spans as JSON."""
        spans_by_op = {}
        for span in self.spans:
            spans_by_op.setdefault(str(span[2]), []).append(
                [span[0], span[1], span[3], span[4], span[5]])
        data = {
            "record": record,
            "metrics": self.metrics(),
            "edges": {f"{p} -> {c}": n for (p, c), n in sorted(self.edges.items())},
            "lru_caches": lru_caches(),
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans_dropped": self.dropped,
            "spans": spans_by_op,
        }
        path.write_text(json.dumps(data))

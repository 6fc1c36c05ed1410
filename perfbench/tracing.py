"""Layer trace installed from outside the program.

Each traced function is replaced by a wrapper in every ``toricroots`` module
namespace (and class) that holds it under some name, so calls through
``from .roots import positive_roots`` are caught as well as calls through
``roots.positive_roots``.  A wrapper records the call count and the self
time, which is the span's wall time minus the wall time of the traced spans
it encloses, plus a work count taken from the result where one is named.
"""

from __future__ import annotations

import importlib
import sys
import time

#: Traced functions by module; ``Class.method`` names a method.
TRACED = {
    "cli": ("main",),
    "fan": ("bilateralize",),
    "roots": ("canonical_reorder", "column_preorder", "demazure_roots", "positive_roots"),
    "groups": (
        "enumerate_open_orbit_subgroups", "series_report", "root_graph", "center",
        "umax_shape", "uss_shape", "variety_type",
    ),
    "liealg": ("bracket",),
    "coxaction": (
        "verify_all", "verify_conjugation", "first_order_commutator_matches_bracket",
        "matrix_embedding_check", "compose",
    ),
    "poly": ("Poly.substitute", "Poly.__mul__", "Poly.__add__", "Poly.__init__"),
    "surfaces": ("sequence_to_rays", "surface_report", "enumerate_smooth_surfaces"),
}

#: Work counts: metric suffix and how to read it off a call's result.
WORK = {
    "roots.demazure_roots": ("roots", lambda r: len(r.roots)),
    "groups.enumerate_open_orbit_subgroups": ("subgroups", lambda r: r.count),
    "groups.root_graph": ("arrows", lambda r: len(r.arrows)),
    "coxaction.verify_all": ("cases", lambda r: sum(c.cases for c in r)),
    "surfaces.enumerate_smooth_surfaces": ("sequences", len),
}


def metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for module, names in TRACED.items():
        for name in names:
            key = f"{module}.{name}"
            out += [(f"{key}.self_s", "s"), (f"{key}.calls", "count")]
            if key in WORK:
                out.append((f"{key}.{WORK[key][0]}", "count"))
            if key == "cli.main":
                out.append(("cli.main.stdout_bytes", "bytes"))
    return out


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, self seconds, work]
        self.enclosed = [0.0]  # traced time inside each open span

    def wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0])
        enclosed = self.enclosed
        count = WORK.get(key, (None, None))[1]
        clock = time.perf_counter
        is_main = key == "cli.main"

        def traced(*args, **kwargs):
            if is_main:
                before = sys.stdout.tell()
            enclosed.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = enclosed.pop()
                enclosed[-1] += span
                stat[0] += 1
                stat[1] += span - inner
            if count is not None:
                stat[2] += count(result)
            elif is_main:
                # the CLI prints ASCII-escaped JSON, so characters are bytes
                stat[2] += sys.stdout.tell() - before
            return result

        return traced

    def totals(self):
        out = {}
        for key, (calls, self_s, work) in self.stats.items():
            out[f"{key}.self_s"] = self_s
            out[f"{key}.calls"] = calls
            if key in WORK:
                out[f"{key}.{WORK[key][0]}"] = work
            if key == "cli.main":
                out["cli.main.stdout_bytes"] = work
        return out


def _rebind(namespaces, original, wrapper):
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, wrapper)


def install():
    """Wrap every traced function of the imported program; returns the
    tracer that holds the totals."""
    loaded = {name: importlib.import_module(f"toricroots.{name}") for name in TRACED}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "toricroots"]
    tracer = Tracer()
    for module_name, names in TRACED.items():
        module = loaded[module_name]
        for name in names:
            key = f"{module_name}.{name}"
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                _rebind([cls], original, tracer.wrap(key, original))
            else:
                original = getattr(module, name)
                _rebind(modules, original, tracer.wrap(key, original))
    return tracer

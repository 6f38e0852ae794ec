"""Span tracer for the traced benchmark run.

The tracer wraps the functions listed in ``spec.TRACED_FUNCTIONS`` at every
module of the ``wiretap_regions`` package that binds them, plus
``scipy.optimize.linprog`` (every LP call site imports it at call time, and a
module that binds it at import time is patched as well).  Each call records a
span: op index, name, start, end and parent span.  ``cli.main`` is the root
span of each op.  A function's self time is its span time minus the time of
its wrapped children.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import spec

PACKAGE = "wiretap_regions"


class TraceError(RuntimeError):
    """A module or function the trace must wrap is missing."""


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


def _arg(fn, name):
    """Reader for argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def read(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)
    return read


def _extras(prefix, fn):
    """Counter update for one wrapped function: f(counts, key, args, kwargs, result)."""
    if prefix == "polytope_fm.vertices":
        def f(c, key, a, k, r):
            n = r.vertices.shape[0]
            c[key + ".empty"] += n == 0
            c[key + ".vertices_out"] += n
    elif prefix == "polytope_fm.fm_eliminate":
        def f(c, key, a, k, r):
            c[key + ".rows_out"] += len(r.ineqs)
    elif prefix == "info_core.mutual_information":
        table = _arg(fn, "t")

        def f(c, key, a, k, r):
            c[key + ".cells"] += table(a, k).probs.size
    elif prefix == "fm_script.match_systems":
        def f(c, key, a, k, r):
            c[key + ".extras"] += len(r.extras)
    elif prefix == "regions_discrete.hull_of":
        points = _arg(fn, "points")

        def f(c, key, a, k, r):
            c[key + ".points_in"] += len(points(a, k))
            c[key + ".points_out"] += len(r)
    elif prefix in ("fisher_lab.mixture_entropy", "fisher_lab.mixture_fisher"):
        grid = _arg(fn, "n")

        def f(c, key, a, k, r):
            c[key + ".grid_points"] += grid(a, k)
    elif prefix == "io_files.region_csv_text":
        def f(c, key, a, k, r):
            c[key + ".bytes"] += len(r.encode())
    else:
        f = None
    return f


def _lp_key(parent) -> str:
    name = parent[1].rsplit(".", 1)[-1] if parent is not None else ""
    return "lp." + (name if name in spec.LP_PARENTS else "other")


class Tracer:
    def __init__(self):
        self.spans: list = []          # (op, name, start, end, parent index)
        self.op = None                 # index of the op being traced
        self.bindings: dict[str, list[str]] = {}
        self._stack: list = []         # [span index, name, child seconds]
        self._patches: list = []       # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        """Start a new pass: zero the aggregates, keep the spans."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    def _wrap(self, name, fn, key_of, extra):
        stack, spans, tracer = self._stack, self.spans, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(None)
            frame = [idx, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                key = key_of(parent)
                tracer.calls[key] += 1
                tracer.self_s[key] += (t1 - t0) - frame[2]
                if parent is not None:
                    parent[2] += t1 - t0
                spans[idx] = (tracer.op, name, t0, t1, parent[0] if parent else None)
            if extra is not None:
                extra(tracer.counts, key, args, kwargs, result)
            return result

        return wrapper

    def _patch_everywhere(self, modules, original, wrapper) -> list[str]:
        sites = []
        for mname, module in modules.items():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    sites.append(_short(mname) if mname.startswith(PACKAGE) else mname)
        return sorted(sites)

    def install(self) -> None:
        import scipy.optimize

        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        for prefix, module, attr in spec.TRACED_FUNCTIONS:
            owner = modules.get(f"{PACKAGE}.{module}")
            if owner is None:
                raise TraceError(f"module {PACKAGE}.{module} is not loaded")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(prefix, original, lambda p, k=prefix: k,
                                              _extras(prefix, original)))
                self.bindings[prefix] = [f"{module}.{cls_name}"]
                continue
            original = getattr(owner, attr, None)
            if original is None:
                raise TraceError(f"{PACKAGE}.{module}.{attr} does not exist")
            wrapper = self._wrap(prefix, original, lambda p, k=prefix: k,
                                 _extras(prefix, original))
            self.bindings[prefix] = self._patch_everywhere(modules, original, wrapper)
        original = scipy.optimize.linprog
        modules["scipy.optimize"] = scipy.optimize
        wrapper = self._wrap("scipy.optimize.linprog", original, _lp_key, _lp_vars)
        self.bindings["scipy.optimize.linprog"] = self._patch_everywhere(
            modules, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass since the last ``reset``."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        m: dict[str, float] = {}
        for parent in spec.LP_PARENTS + ("other",):
            m[f"lp.{parent}.calls"] = calls[f"lp.{parent}"]
            m[f"lp.{parent}.self_s"] = self_s[f"lp.{parent}"]
        n = calls["lp.dominance_slack"]
        m["lp.dominance_slack.vars_mean"] = counts["lp.dominance_slack.vars"] / n if n else 0.0
        for prefix, _, _ in spec.TRACED_FUNCTIONS:
            m[f"{prefix}.calls"] = calls[prefix]
            m[f"{prefix}.self_s"] = self_s[prefix]
        v = "polytope_fm.vertices"
        m[f"{v}.empty_ratio"] = counts[f"{v}.empty"] / calls[v] if calls[v] else 0.0
        mi = "info_core.mutual_information"
        m[f"{mi}.computed_bytes"] = counts[f"{mi}.cells"] * 8
        for prefix, extra in spec.EXTRA_COUNTERS.items():
            for suffix, _, _ in extra:
                m.setdefault(f"{prefix}.{suffix}", counts[f"{prefix}.{suffix}"])
        extras = counts["fm_script.match_systems.extras"]
        m["fm_script.lps_per_extra"] = calls["lp.support_value"] / extras if extras else 0.0
        for name, unit, _ in spec.per_layer_metrics():
            if unit in ("count", "B") and name in m and not name.endswith("_mean"):
                m[name] = int(m[name])
        return m

    def write_spans(self, path: str) -> int:
        """Write every span as one JSON list per line; returns the span count."""
        base = min((s[2] for s in self.spans if s is not None), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                op, name, t0, t1, parent = s
                fh.write(json.dumps([i, op, name, round(t0 - base, 9),
                                     round(t1 - base, 9), parent]) + "\n")
        return len(self.spans)


def _lp_vars(counts, key, args, kwargs, result):
    c = kwargs["c"] if "c" in kwargs else args[0]
    counts[key + ".vars"] += len(c)

"""Span tracing of lgtree's public functions, from outside the library.

``Tracer.patch()`` replaces each function in ``TRACED`` with a timing
wrapper everywhere lgtree holds a reference to it: in its defining module,
in every other ``lgtree`` module that imported it by name (for example
``lgtree.info.joint_covariance`` or ``lgtree.synthesis.block_mi_mixture``)
and, for methods, on the class.  ``Tracer.restore()`` puts the originals
back, so untraced rounds run the library unmodified.

A span is (name, start, end, parent); spans stay in memory in flat arrays
and are written out once, at the end of the run.  Self time is a span's
duration minus the durations of its direct children.  Counters are recorded
at the same boundaries and attached to the span that produced them.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute or Class.method, span name)
TRACED = (
    ("lgtree.trees", "joint_covariance", "trees.joint_covariance"),
    ("lgtree.trees", "load_tree", "trees.load_tree"),
    ("lgtree.signs", "enumerate_equivalent_trees", "signs.enumerate_equivalent_trees"),
    ("lgtree.signs", "verify_equivalence", "signs.verify_equivalence"),
    ("lgtree.signs", "sign_class_report", "signs.sign_class_report"),
    ("lgtree.info", "mixture_mi_profile", "info.mixture_mi_profile"),
    ("lgtree.info", "optimize_pi", "info.optimize_pi"),
    ("lgtree.info", "block_mi_mixture", "info.block_mi_mixture"),
    ("lgtree.info", "mi_sign_marginal", "info.mi_sign_marginal"),
    ("lgtree.info", "mi_direct", "info.mi_direct"),
    ("lgtree.info", "mi_closed_form", "info.mi_closed_form"),
    ("lgtree.synthesis", "LayerCodebook.gaussian_codeword", "synthesis.gaussian_codeword"),
    ("lgtree.synthesis", "synthesize", "synthesis.synthesize"),
    ("lgtree.synthesis", "estimate_divergence", "synthesis.estimate_divergence"),
    ("lgtree.synthesis", "rate_region_check", "synthesis.rate_region_check"),
    ("lgtree.synthesis", "frontier_rates", "synthesis.frontier_rates"),
    ("lgtree.synthesis", "build_codebooks", "synthesis.build_codebooks"),
    ("lgtree.synthesis", "verify_encoding_constraints", "synthesis.verify_encoding_constraints"),
    ("lgtree.cli", "main", "cli.main"),
)

# Monte Carlo estimators whose ``samples`` argument feeds info.samples_per_s.
ESTIMATORS = ("info.mixture_mi_profile", "info.block_mi_mixture", "info.mi_sign_marginal")


def _result_count(name, result):
    if name == "signs.enumerate_equivalent_trees":
        return "signs.variants", len(result)
    if name == "info.optimize_pi":
        return "info.grid_points", len(result[1])
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: list[tuple[int, str, float]] = []   # (span, counter, value)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; used for the per-round root spans."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in ESTIMATORS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if signature is not None:
                samples = signature.bind(*args, **kwargs).arguments["samples"]
                self.counters.append((idx, "samples", float(samples)))
            counted = _result_count(name, result)
            if counted is not None:
                self.counters.append((idx, counted[0], float(counted[1])))
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "lgtree" or key.startswith("lgtree."))]
        for module_name, attr, span_name in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(span_name, original), original)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper, original)

    def _set(self, obj, key, wrapper, original):
        setattr(obj, key, wrapper)
        self._patched.append((obj, key, original))

    def restore(self):
        while self._patched:
            obj, key, original = self._patched.pop()
            setattr(obj, key, original)

    # -- analysis ------------------------------------------------------------

    def _roots(self) -> list[int]:
        roots = []
        for i, p in enumerate(self.parent):
            roots.append(i if p < 0 else roots[p])
        return roots

    def per_root(self) -> dict[int, dict[str, float]]:
        """Per root span: calls, self time and inclusive time per span name,
        plus every counter, keyed ``<name>.calls``, ``<name>.self_s``,
        ``<name>.total_s`` and ``<counter>``."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        roots = self._roots()
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            agg = out[roots[i]]
            agg[name + ".calls"] += 1
            agg[name + ".self_s"] += dur - child_time[i]
            agg[name + ".total_s"] += dur
        for idx, key, value in self.counters:
            out[roots[idx]][key] += value
        return out

    def per_layer(self, metric_names) -> dict[str, float]:
        """Median over root spans of each named per-layer metric."""
        rounds = list(self.per_root().values())
        values = {}
        for metric in metric_names:
            if metric == "info.samples_per_s":
                per = []
                for agg in rounds:
                    busy = sum(agg.get(e + ".total_s", 0.0) for e in ESTIMATORS)
                    per.append(agg.get("samples", 0.0) / busy if busy > 0 else 0.0)
            else:
                per = [agg.get(metric, 0.0) for agg in rounds]
            values[metric] = statistics.median(per) if per else 0.0
        return values

    def dump(self, path):
        doc = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

"""Per-layer spans recorded from outside the library.

Each layer is one linkgraph module.  ``Tracer.install`` replaces every
public function a layer module defines, and the Multigraph methods that do
real work, by a wrapper that records a span; the wrapper is put in place of
the name in every linkgraph module that imported it, so calls made inside
the library are seen too.  Nothing under ``src/`` is edited.  A call to a
generator function records one span whose time is the sum of its steps, and
counts the items it yields.

Spans are kept in memory (flat arrays) while the workload runs and are
written out at the end.  A span's self time is its duration minus the
durations of the spans it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "linkgraph"
LAYERS = (
    "cli", "search", "canon", "links", "construct",
    "partition", "incidence", "multigraph", "formats",
)
MULTIGRAPH_METHODS = (
    "__init__", "add_edge", "delete_edge", "induced_on", "relabel",
    "drop_isolated", "disjoint_union", "components", "component_of",
    "is_connected", "is_acyclic", "is_tree", "multiplicity",
    "has_parallel_edges", "degrees", "max_degree",
)
# Function groups reported on their own: (metric prefix, layer, names).
GROUPS = (
    ("links.count", "links", ("count_arcs_by_length", "count_links")),
    ("links.enum", "links", (
        "iter_arcs", "iter_paths", "enumerate_links", "enumerate_paths",
        "enumerate_arcs", "count_paths",
    )),
    ("construct.project", "construct", ("project_link",)),
    ("multigraph.build", "multigraph", ("Multigraph.__init__",)),
)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = []  # "layer.function"
        self.name_layer = []
        self._patches = []
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.span_self = array("d")
        self.name_items = []
        self._stack = []  # [span index, child time, layer index, entered at]
        self._layer_depth = [0] * len(LAYERS)
        self.layer_incl = [0.0] * len(LAYERS)

    # -- installation --------------------------------------------------

    def install(self):
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        importers = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer_id, layer in enumerate(LAYERS):
            mod = modules[layer]
            for attr, fn in sorted(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}", layer_id)
                for importer in importers:
                    for name, value in list(vars(importer).items()):
                        if value is fn:
                            self._patch(importer, name, wrapper)
        cls = modules["multigraph"].Multigraph
        layer_id = LAYERS.index("multigraph")
        for attr in MULTIGRAPH_METHODS:
            fn = cls.__dict__[attr]
            self._patch(cls, attr, self._wrap(fn, f"multigraph.Multigraph.{attr}", layer_id))

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, fn, name, layer_id):
        name_id = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer_id)
        self.name_items.append(0)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                return tracer._generator(fn(*args, **kwargs), name_id, layer_id)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer._enter(tracer._open(name_id), layer_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()
        return wrapper

    # -- recording -----------------------------------------------------

    def _open(self, name_id):
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_dur.append(0.0)
        self.span_self.append(0.0)
        return index

    def _enter(self, index, layer_id):
        self._layer_depth[layer_id] += 1
        self._stack.append([index, 0.0, layer_id, time.perf_counter()])

    def _exit(self):
        end = time.perf_counter()
        index, child, layer_id, entered = self._stack.pop()
        duration = end - entered
        self.span_dur[index] += duration
        self.span_self[index] += duration - child
        self._layer_depth[layer_id] -= 1
        if not self._layer_depth[layer_id]:
            self.layer_incl[layer_id] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def _generator(self, steps, name_id, layer_id):
        index = self._open(name_id)
        while True:
            self._enter(index, layer_id)
            try:
                item = next(steps)
            except StopIteration:
                return
            finally:
                self._exit()
            self.name_items[name_id] += 1
            yield item

    # -- results -------------------------------------------------------

    def summary(self):
        """Per-layer calls, inclusive time (outermost spans of the layer)
        and self time; per-function totals; the function groups."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl = [0.0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_s[name_id] += self.span_self[i]
            parent = self.span_parent[i]
            if parent < 0 or self.span_name[parent] != name_id:
                incl[name_id] += self.span_dur[i]
        layers = {
            layer: {"calls": 0, "s": self.layer_incl[k], "self_s": 0.0}
            for k, layer in enumerate(LAYERS)
        }
        functions = {}
        for name_id, name in enumerate(self.names):
            if not calls[name_id]:
                continue
            entry = layers[LAYERS[self.name_layer[name_id]]]
            entry["calls"] += calls[name_id]
            entry["self_s"] += self_s[name_id]
            functions[name] = {
                "calls": calls[name_id],
                "s": incl[name_id],
                "self_s": self_s[name_id],
                "items": self.name_items[name_id],
            }
        groups = {}
        for prefix, layer, members in GROUPS:
            wanted = {f"{layer}.{m}" for m in members}
            groups[prefix] = self._group(wanted)
        canon = LAYERS.index("canon")
        longest = 0.0
        for i, name_id in enumerate(self.span_name):
            if self.name_layer[name_id] == canon:
                parent = self.span_parent[i]
                if parent < 0 or self.name_layer[self.span_name[parent]] != canon:
                    longest = max(longest, self.span_dur[i])
        return {
            "layers": layers,
            "functions": functions,
            "groups": groups,
            "canon_max_s": longest,
            "spans": len(self.span_name),
        }

    def _group(self, wanted):
        """Calls, outermost-span time and yielded items of a set of functions."""
        ids = {k for k, name in enumerate(self.names) if name in wanted}
        calls = 0
        seconds = 0.0
        for i, name_id in enumerate(self.span_name):
            if name_id not in ids:
                continue
            calls += 1
            parent = self.span_parent[i]
            while parent >= 0 and self.span_name[parent] not in ids:
                parent = self.span_parent[parent]
            if parent < 0:
                seconds += self.span_dur[i]
        items = sum(self.name_items[k] for k in ids)
        return {"calls": calls, "s": seconds, "items": items}

    def write_spans(self, path):
        """Spans as JSON lines: id, parent id, function, start, duration, self."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_name[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_dur[i]:.9f}\t"
                    f"{self.span_self[i]:.9f}\n"
                )


"""Spans around calls into each weylkit layer, recorded from outside the
package by patching every namespace that binds a wrapped function.

A span is (name, start, end, parent span, op id).  Spans stay in memory, in
flat arrays, until the run ends; `write` then stores them and `summary`
reduces them to per-function call counts and self times.  A span's self time
is its duration minus the time covered by its child spans.
"""

import importlib
import json
import sys
from array import array
from time import perf_counter

from layers import CACHE_KEYS, RAISE_COUNTED, functions


class Tracer:
    def __init__(self):
        self.names = []  # span name id -> metric name
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.current_op = -1
        self._stack = []
        self.keys = {name: set() for name in CACHE_KEYS}
        self.raised = 0
        self._patches = []  # (namespace, attribute, original raw value)

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        key_fn = CACHE_KEYS.get(name)
        keys = self.keys.get(name)
        counted = ()  # exception types whose raises are counted; () matches none
        if name == RAISE_COUNTED[0]:
            counted = getattr(sys.modules[fn.__module__], RAISE_COUNTED[1])

        def traced(*args, **kwargs):
            if key_fn is not None:
                keys.add(key_fn(*args, **kwargs))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except counted:
                self.raised += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every function of the layer table in every weylkit module
        that binds it, including names imported with `from ... import`."""
        for layer, qual, name in functions():
            module = importlib.import_module(f"weylkit.{layer}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, qual)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("weylkit"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def restore(self):
        for target, attr, raw in reversed(self._patches):
            setattr(target, attr, raw)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-layer metrics: calls and self time per function, self time
        per layer, distinct keys of the cache candidates, counted raises."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        by_name = {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}
        metrics = {}
        for layer, _, name in functions():
            c, s = by_name.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = c
            metrics[f"{name}.self_s"] = s
            metrics[f"{layer}.self_s"] = metrics.get(f"{layer}.self_s", 0.0) + s
        for name, keys in self.keys.items():
            c = metrics[f"{name}.calls"]
            metrics[f"{name}.distinct"] = len(keys)
            metrics[f"{name}.useful_ratio"] = len(keys) / c if c else 0.0
        metrics[f"{RAISE_COUNTED[0]}.raised"] = self.raised
        return metrics

    def write(self, path):
        """Store the spans as raw arrays after a one-line JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name_id", "i"], ["start", "d"], ["end", "d"],
                       ["parent", "q"], ["op", "i"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)

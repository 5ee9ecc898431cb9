"""Traced run: spans around every public function of each `ldp` module.

`Tracer` wraps, for the duration of a `with` block, each public function,
method, static method and property getter defined in the layer modules, and
rebinds the wrapper in every `ldp` namespace that holds the original (such
as `discrepancy`, which imports `is_negative_definite` from `graphs` by
name). Leaving the block puts every original back.

A span's self time is its duration minus the time covered by the spans it
caused. Spans are aggregated per name as they close: call count and total
self time. Operator methods (`__add__` and the like) are not wrapped, so
field arithmetic counts toward the polynomial code that calls it.
"""

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "linalg",
    "graphs",
    "discrepancy",
    "picard",
    "feasibility",
    "fields",
    "poly",
    "pencil",
    "verify",
    "cli",
)

# Spans whose distinct inputs are counted, by the hash of a key naming an
# input (hashes keep the large matrices themselves out of memory).
DISTINCT_KEYS = {
    "linalg.int_det": lambda m: hash(tuple(map(tuple, m))),
    "discrepancy.discrepancies": lambda g: hash((g.vertices, g.edges)),
}


def _members(ldp):
    """(span name, owner, attribute, raw attribute, function) to wrap."""
    for layer in LAYERS:
        mod = getattr(ldp, layer)
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", mod, attr, obj, obj
            elif inspect.isclass(obj):
                for name, raw in vars(obj).items():
                    if name.startswith("_"):
                        continue
                    fn = raw.fget if isinstance(raw, property) else raw
                    fn = getattr(fn, "__func__", fn)  # staticmethod, classmethod
                    if inspect.isfunction(fn):
                        yield f"{layer}.{attr}.{name}", obj, name, raw, fn


def _rewrap(raw, wrapper):
    """The class attribute that puts `wrapper` where `raw` held a function."""
    if isinstance(raw, property):
        return property(wrapper, raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, (staticmethod, classmethod)):
        return type(raw)(wrapper)
    return wrapper


class Tracer:
    def __init__(self, ldp):
        self.ldp = ldp
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.distinct = {name: set() for name in DISTINCT_KEYS}
        self._stack = []  # per open span: time covered by its children
        self._patches = []  # (owner, attribute, original raw attribute)

    def wrap(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        key = DISTINCT_KEYS.get(name)
        seen = self.distinct.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                seen.add(key(*args, **kwargs))
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                calls[name] += 1
                self_s[name] += took - frame[0]

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        members = list(_members(self.ldp))
        wrappers = {}
        try:
            for name, owner, attr, raw, fn in members:
                wrapper = self.wrap(name, fn)
                if inspect.ismodule(owner):
                    wrappers[id(fn)] = wrapper
                else:
                    self._patch(owner, attr, _rewrap(raw, wrapper))
            namespaces = [self.ldp] + [getattr(self.ldp, layer) for layer in LAYERS]
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if id(obj) in wrappers and inspect.isfunction(obj):
                        self._patch(ns, attr, wrappers[id(obj)])
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def metrics(self, timed, counted):
        """Per-layer metrics: each layer's calls and self time, calls and self
        time of the `timed` spans, calls of the `counted` ones, and the
        distinct-input ratios."""
        out = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names)
            out[f"{layer}.self_s"] = sum(self.self_s[n] for n in names)
        for name in timed:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in counted:
            out[f"{name}.calls"] = self.calls[name]
        dets = self.calls["linalg.int_det"]
        out["linalg.int_det.distinct_ratio"] = (
            len(self.distinct["linalg.int_det"]) / dets if dets else 0.0
        )
        graphs_seen = len(self.distinct["discrepancy.discrepancies"])
        calls = self.calls["discrepancy.discrepancies"]
        out["discrepancy.distinct_graphs"] = graphs_seen
        out["discrepancy.reuse_ratio"] = 1 - graphs_seen / calls if calls else 0.0
        return out

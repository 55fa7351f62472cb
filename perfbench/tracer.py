"""In-memory span tracer around the public functions of the pelletbounds modules.

``Tracer.install`` replaces every public function of each traced module, and
the ``__init__`` of each public class, wherever a traced module binds it.
``bounds`` binds ``linalg.norm`` by ``from .linalg import norm``, and the
package namespace re-exports most names, so calls made inside the package
are recorded as well as calls made by the benchmark.  ``uninstall`` puts the
originals back.

Each call records one span: name, parent span, unit id, start, end, whether
it raised, an outcome flag and a work amount.  Spans stay in memory until
the caller writes them out; ``summarize`` turns a list of spans into
per-name call counts, self time (span time minus the time of its child
spans), failures, outcome hits and work.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import time

LAYERS = ("linalg", "matpoly", "rootloc", "bounds", "embed", "oracle", "experiments", "cli")


class Tracer:
    """Records spans for wrapped callables.

    ``outcomes`` maps a span name to a predicate on the return value (its
    hits are counted), ``work`` maps a span name to a function of the call
    arguments that returns an amount of work.  ``clock`` is replaceable so
    the self-time arithmetic can be tested with scripted times.
    """

    def __init__(self, clock=time.perf_counter, outcomes=None, work=None):
        self.clock = clock
        self.outcomes = outcomes or {}
        self.work = work or {}
        self.spans = []
        self.unit = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        outcome = self.outcomes.get(name)
        work = self.work.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot so a parent precedes its children
            parent = stack[-1] if stack else -1
            stack.append(idx)
            amount = work(*args, **kwargs) if work else 0
            failed, result = True, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                hit = not failed and outcome is not None and bool(outcome(result))
                spans[idx] = (name, parent, self.unit, start, end, failed, hit, amount)

        return traced

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self, package):
        """Wrap the public callables of ``package.<layer>`` for each of LAYERS."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif (inspect.isclass(obj) and "__init__" in vars(obj)
                      and not issubclass(obj, (BaseException, enum.Enum))):
                    self._patch(obj, "__init__", self.wrap(f"{layer}.{attr}", vars(obj)["__init__"]))
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)


def summarize(spans) -> dict:
    """Per-name {calls, self_s, failed, hits, work} over completed spans."""
    child = [0.0] * len(spans)
    for _, parent, _, start, end, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, _, _, start, end, failed, hit, amount) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0, "hits": 0, "work": 0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child[i]
        s["failed"] += failed
        s["hits"] += hit
        s["work"] += amount
    return stats

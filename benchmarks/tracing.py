"""Spans and counters recorded around the program's public functions.

The program itself carries no tracing.  ``install`` wraps every public
function of each ``vslice`` module and rebinds the wrapper wherever a caller
looks the name up (``invert_john.dual_radon`` as well as
``xform.dual_radon``), so nested calls between modules are seen too.  Spans
are kept in memory and written out when the run ends.  A span's self time is
its duration minus the durations of the wrapped spans nested directly in it;
nested spans never overlap, since the program runs on one Python thread.
"""

import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter store.

    Records only while ``active``; the benchmark switches it on for set-up
    and for each timed operation, and off for its own checks.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.op = None  # label of the timed operation in progress
        self.spans = []  # [name, start, end, parent index or -1, op]
        self._open = []
        self.counts = defaultdict(float)  # (op, counter name) -> total

    def wrap(self, name, fn, count=None):
        """Wrapper of fn recording a span `name`; `count(args, kwargs, result)`
        may return {counter: increment} to add to the counters."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, self.clock(), None, parent, self.op])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = self.clock()
            self.counts[(self.op, name + "_calls")] += 1
            if count is not None:
                self.add(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, count):
        """Wrapper of fn that only adds to counters (no span, no clock reads)."""

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.add(count(args, kwargs, result))
            return result

        counted.__wrapped__ = fn
        return counted

    def add(self, increments):
        for key, value in increments.items():
            self.counts[(self.op, key)] += value

    def self_times(self):
        """Self time of every recorded span, in recording order."""
        nested = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                nested[parent] += end - start
        return [(end - start) - nested[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def dump(self):
        """JSON-ready copy of the spans and counters."""
        own = self.self_times()
        return {
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4], "self": o}
                for s, o in zip(self.spans, own)
            ],
            "counts": [
                {"op": op, "name": key, "value": value} for (op, key), value in self.counts.items()
            ],
        }


def _is_public_function(obj, module_name):
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module_name
        and not getattr(obj, "__name__", "_").startswith("_")
    )


def install(tracer, modules, namespaces, counters=None, counter_only=None):
    """Wrap the public functions of `modules` and rebind each wrapper wherever
    a module in `namespaces` refers to the original.

    `counters` maps "module.function" to a count callback for that span;
    `counter_only` maps (module, attribute) to a count callback for a foreign
    callable looked up in that module, wrapped without a span.
    Returns a function that restores the original bindings.
    """
    counters = counters or {}
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if _is_public_function(obj, mod.__name__):
                name = "%s.%s" % (short, attr)
                wrappers[id(obj)] = (obj, tracer.wrap(name, obj, counters.get(name)))
    restore = []
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                restore.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    for (mod, attr), count in (counter_only or {}).items():
        original = getattr(mod, attr)
        restore.append((mod, attr, original))
        setattr(mod, attr, tracer.counter(original, count))

    def uninstall():
        for mod, attr, obj in reversed(restore):
            setattr(mod, attr, obj)

    return uninstall

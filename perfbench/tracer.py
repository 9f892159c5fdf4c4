"""Outside-in per-layer tracer: wraps the layers' public methods.

Nothing in ``repro`` is edited. :meth:`Tracer.install` replaces, on the
classes and modules listed in :data:`CLASS_LAYERS` and
:data:`FUNCTION_LAYERS`, each public function with a timing wrapper,
and :meth:`Tracer.uninstall` puts the originals back.

Safety rules the wrapping follows:

* Only functions found in a concrete class's *own* ``__dict__`` are
  wrapped. Inherited methods are left alone, so the ``Prefetcher`` base
  no-ops keep their identity, and the executor's hook elision (it
  compares ``type(p).on_demand_access is Prefetcher.on_demand_access``)
  binds exactly the hooks it binds untraced.
* Properties, static/class methods, dunders and ``_private`` helpers
  are not wrapped: a layer's private helpers run inside its public
  spans anyway.
* Wrappers return what the original returns and re-raise what it
  raises; generator functions are wrapped per resumption, so time spent
  inside a streaming backend is its own and not its consumer's.

Accounting: each wrapped call is a span. A span's *self* time is its
duration minus the time of spans nested in it, and is credited to its
layer. The sum of all layers' self time over an interval, plus the
time spent outside any span (reported as "unattributed"), is the wall
time of the interval.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict

#: (module, class, layer, {method: layer override}) — the classes whose
#: own public methods are wrapped.
CLASS_LAYERS = (
    ("repro.sim.soc", "System", "sim.npu", {}),
    ("repro.sim.memory.hierarchy", "MemorySystem", "sim.memory", {}),
    ("repro.prefetch.base", "PrefetchPort", "prefetch.port", {}),
    ("repro.prefetch.stream", "StreamPrefetcher", "prefetch", {}),
    ("repro.prefetch.imp", "IndirectMemoryPrefetcher", "prefetch", {}),
    ("repro.prefetch.dvr", "DecoupledVectorRunahead", "prefetch", {}),
    ("repro.core.nvr", "NVRPrefetcher", "core.nvr", {}),
    (
        "repro.runner.cache",
        "ResultCache",
        "runner.cache",
        {"get": "runner.cache.get", "put": "runner.cache.put"},
    ),
    ("repro.runner.pool", "SweepRunner", "runner", {}),
    ("repro.session", "Session", "runner", {}),
    ("repro.runner.queue", "QueueBackend", "runner.queue.backend", {}),
    ("repro.client", "SweepClient", "server.client", {}),
)

#: (module, function, layer) — module-level entry points, replaced as
#: module attributes. Each is looked up through its module's globals at
#: call time by its callers (``_workload_for`` calls
#: ``pool.build_workload``; ``LocalPoolBackend`` and ``_process_unit``
#: import ``pool.execute_spec`` when they run; ``run_queue_worker``
#: calls ``worker._process_unit``), so the replacement is what runs.
FUNCTION_LAYERS = (
    ("repro.runner.pool", "build_workload", "workloads.build"),
    ("repro.runner.pool", "execute_spec", "runner.execute"),
    ("repro.runner.worker", "_process_unit", "runner.queue.unit"),
)

def _run_label(args, kwargs, result) -> str:
    """Which mechanism a ``System.run`` call simulated ("base" = perfect)."""
    if kwargs.get("perfect", args[1] if len(args) > 1 else False):
        return "base"
    if result is None:
        return "error"
    return result.mode if result.mechanism == "none" else result.mechanism


#: Spans whose inclusive time and count are also kept per label:
#: "layer:method" -> callable(args, kwargs, result) naming the label.
#: ``_process_unit`` returns the error text of a failed unit, None if
#: it succeeded; ``ResultCache.get`` returns None on a miss.
LABELLED = {
    "sim.npu:run": _run_label,
    "runner.execute:execute_spec": lambda args, kwargs, result: "all",
    "runner.queue.unit:_process_unit": (
        lambda args, kwargs, result: "ok" if result is None else "failed"
    ),
    "runner.cache.get:get": (
        lambda args, kwargs, result: "miss" if result is None else "hit"
    ),
}


class Tracer:
    """Per-layer self time, call counts, and labelled inclusive times.

    State lives on the instance; :meth:`install` patches the listed
    classes and modules process-wide until :meth:`uninstall`.
    """

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        # Per thread, stack[-1] accumulates the time of the innermost
        # open span's children; stack[0] collects top-level spans.
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, layer: str, method: str):
        local = self._local
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns
        key = f"{layer}:{method}"

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                calls[key] += 1
                try:
                    stack = local.stack
                except AttributeError:
                    stack = local.stack = [0]
                try:
                    while True:
                        stack.append(0)
                        t0 = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            dt = clock() - t0
                            self_ns[layer] += dt - stack.pop()
                            stack[-1] += dt
                        yield item
                finally:
                    gen.close()

            return gen_wrapper

        label_of = LABELLED.get(key)
        if label_of is None:

            def wrapper(*args, **kwargs):
                try:
                    stack = local.stack
                except AttributeError:
                    stack = local.stack = [0]
                stack.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self_ns[layer] += dt - stack.pop()
                    stack[-1] += dt
                    calls[key] += 1

            return wrapper

        inclusive_ns = self.inclusive_ns

        def labelled_wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = [0]
            stack.append(0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                self_ns[layer] += dt - stack.pop()
                stack[-1] += dt
                calls[key] += 1
                label = f"{key}:{label_of(args, kwargs, result)}"
                calls[label] += 1
                inclusive_ns[label] += dt

        return labelled_wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> "Tracer":
        """Wrap every listed layer method; returns ``self``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, layer, overrides in CLASS_LAYERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(attr):
                    continue
                self._patch(cls, name, self._wrap(attr, overrides.get(name, layer), name))
        for module_name, func_name, layer in FUNCTION_LAYERS:
            module = importlib.import_module(module_name)
            self._patch(module, func_name, self._wrap(getattr(module, func_name), layer, func_name))
        return self

    def uninstall(self) -> None:
        """Restore every original; safe to call twice."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-JSON copy of the totals (for files and merging)."""
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "inclusive_ns": dict(self.inclusive_ns),
        }


def merge(snapshots) -> dict:
    """Sum several :meth:`Tracer.snapshot` documents key by key."""
    total: dict = {"self_ns": {}, "calls": {}, "inclusive_ns": {}}
    for snap in snapshots:
        for group, values in snap.items():
            bucket = total.setdefault(group, {})
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0) + value
    return total

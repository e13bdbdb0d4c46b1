"""Span tracer for the benchmark's traced pass.

The tracer replaces public methods of the ``repro`` package's classes with
timing wrappers, at class level, for the duration of one pass.  Every call
is one span: the wrapper records its duration, subtracts the time of the
spans nested inside it, and charges the remainder to the span's name as
*self time*.  Spans nest through a single stack, so re-entrant calls
(``issue_prefetch`` -> ``send_fast`` -> ...) and recursion split correctly.

Per name the tracer keeps

* ``calls``   -- completed spans,
* ``self_s``  -- span time minus the time of nested traced spans,
* ``total_s`` -- inclusive time of the outermost span of that name only, so
  a re-entrant name is not counted twice.

Two rules keep the wrapped program on its usual code path:

* only methods a class defines itself are wrapped (the memory hierarchy's
  inert-prefetcher gate and ``System._run``'s choice of core loop compare
  ``PrefetcherBase.on_access`` and ``InOrderCore.run_until_memory_access``
  by identity, and neither is ever wrapped);
* wrappers are installed before any ``System`` is built, because cores and
  the memory system capture bound methods at construction.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class SpanStat:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


#: ``(observed args, result, start, end)`` -> None; runs after the span.
Observer = Callable[[tuple, object, float, float], None]


class Tracer:
    """Span arithmetic plus install/uninstall of class-level wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.stats: Dict[str, SpanStat] = {}
        # One accumulator per open span: time of its finished children.
        self._stack: List[List[float]] = []
        self._installed: List[Tuple[type, str, object]] = []

    def stat(self, name: str) -> SpanStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStat()
        return stat

    def wrap(self, name: str, func: Callable,
             observe: Optional[Observer] = None) -> Callable:
        """``func`` timed as a span called ``name``."""
        stat = self.stat(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            stat.depth += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - children[0]
                if not stat.depth:
                    stat.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(args, result, start, start + elapsed)
            return result

        return traced

    def install(self, cls: type, attr: str, name: str,
                observe: Optional[Observer] = None) -> None:
        """Wrap ``cls.attr``; the class must define ``attr`` itself."""
        original = cls.__dict__.get(attr)
        if not callable(original):
            raise TypeError(f"{cls.__name__} does not define a method "
                            f"{attr!r} of its own")
        setattr(cls, attr, self.wrap(name, original, observe))
        self._installed.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    @contextmanager
    def installed(self, layers: "Layers") -> Iterator["Tracer"]:
        """Wrap every method ``layers`` names for the ``with`` body."""
        try:
            for cls, attr, name, observe in layers.targets():
                self.install(cls, attr, name, observe)
            yield self
        finally:
            self.uninstall()

    def self_total(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())


# ----------------------------------------------------------------------
# The package's layers and the public methods timed in each
# ----------------------------------------------------------------------
#: (module, class, method, span name).  Several methods may share a span
#: name, which then sums them (the ``memory.Cache`` layer is its
#: ``access_fast`` plus its ``fill_fast``).
METHODS = (
    ("repro.sim.system", "System", "__init__", "sim.System.init"),
    ("repro.sim.system", "System", "run", "sim.System.run"),
    ("repro.memory.hierarchy", "MemorySystem", "access_fast",
     "memory.MemorySystem.access_fast"),
    ("repro.memory.hierarchy", "MemorySystem", "issue_prefetch",
     "memory.MemorySystem.issue_prefetch"),
    ("repro.memory.cache", "Cache", "access_fast", "memory.Cache"),
    ("repro.memory.cache", "Cache", "fill_fast", "memory.Cache"),
    ("repro.memory.coherence", "Directory", "read_fast", "memory.Directory"),
    ("repro.memory.coherence", "Directory", "write", "memory.Directory"),
    ("repro.memory.coherence", "Directory", "evict", "memory.Directory"),
    ("repro.memory.dram", "SimpleDram", "access", "memory.dram"),
    ("repro.memory.dram", "BankedDram", "access", "memory.dram"),
    ("repro.noc.mesh", "MeshNoC", "send_fast", "noc.MeshNoC.send_fast"),
    ("repro.core.imp", "IMP", "on_access", "prefetchers.IMP.on_access"),
    ("repro.core.imp", "IMP", "on_eviction", "prefetchers.IMP.on_eviction"),
    ("repro.prefetchers.stream", "StreamPrefetcher", "on_access",
     "prefetchers.StreamPrefetcher.on_access"),
    ("repro.prefetchers.ghb", "GHBPrefetcher", "on_access",
     "prefetchers.GHBPrefetcher.on_access"),
    ("repro.mem_image", "MemoryImage", "read_value", "mem_image.read_value"),
    ("repro.experiments.sweep", "SweepEngine", "run",
     "experiments.SweepEngine.run"),
    ("repro.experiments.sweep", "ResultCache", "get",
     "experiments.ResultCache.get"),
    ("repro.experiments.sweep", "ResultCache", "put",
     "experiments.ResultCache.put"),
    ("repro.experiments.sweep", "SweepJournal", "record_ok",
     "experiments.SweepJournal.record_ok"),
    ("repro.experiments.backends", "SerialBackend", "execute",
     "experiments.backend.execute"),
    ("repro.experiments.backends", "ProcessBackend", "execute",
     "experiments.backend.execute"),
    ("repro.experiments.backends", "ServiceBackend", "execute",
     "experiments.backend.execute"),
    ("repro.service.client", "ServiceClient", "submit",
     "service.ServiceClient.submit"),
    ("repro.service.client", "ServiceClient", "job",
     "service.ServiceClient.job"),
)


class ServiceWatch:
    """Client-side view of the service layer, fed by the submit/job spans:
    per job, the time from its first submission until ``done`` is seen."""

    def __init__(self) -> None:
        self.submitted: Dict[str, float] = {}
        self.done: Dict[str, float] = {}
        self.http_429 = 0

    @staticmethod
    def _data(result) -> Dict:
        envelope = result[1]
        data = envelope.get("data") if envelope.get("ok") else None
        return data if isinstance(data, dict) else {}

    def on_submit(self, args, result, start, end) -> None:
        if result[0] == 429:
            self.http_429 += 1
            return
        data = self._data(result)
        job_id = data.get("id")
        if job_id:
            self.submitted.setdefault(job_id, start)
            if data.get("status") == "done":
                self.done.setdefault(job_id, end)

    def on_job(self, args, result, start, end) -> None:
        if self._data(result).get("status") == "done":
            self.done.setdefault(args[1], end)

    def latencies(self) -> List[float]:
        return sorted(self.done[job] - self.submitted[job]
                      for job in self.done if job in self.submitted)


class Layers:
    """Resolves :data:`METHODS` and every concrete ``Workload.build``
    against the imported package."""

    def __init__(self, service: Optional[ServiceWatch] = None) -> None:
        self.service = service

    def targets(self) -> List[Tuple[type, str, str, Optional[Observer]]]:
        observers = {}
        if self.service is not None:
            observers = {"service.ServiceClient.submit":
                         self.service.on_submit,
                         "service.ServiceClient.job": self.service.on_job}
        found = []
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            found.append((cls, attr, name, observers.get(name)))
        for cls in workload_classes():
            found.append((cls, "build", "workloads.build", None))
        return found


def workload_classes() -> List[type]:
    """Every loaded ``Workload`` subclass that defines ``build`` itself."""
    importlib.import_module("repro.workloads")
    base = importlib.import_module("repro.workloads.base").Workload
    seen, pending, found = set(), [base], []
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                pending.append(sub)
                if "build" in sub.__dict__:
                    found.append(sub)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))

"""Self-tests of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py        (about 15 s)

Covers the span tracer (nested and re-entrant spans, self times that sum
to no more than the traced wall, wrappers that leave fingerprints
unchanged), the fingerprint checker, and the stored expectations.
"""

from __future__ import annotations

import json
import sys
import time
import unittest

import passes
import simpass
from passes import ROOT, SCENARIOS, Checker, fingerprint_digest, \
    load_expected
from spans import Layers, ServiceWatch, Tracer

passes.hermetic_environ()


class FakeClock:
    """Advances one tick per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class Toy:
    def outer(self, depth):
        return self.inner(depth) + 1

    def inner(self, depth):
        if depth:
            return self.inner(depth - 1) + self.leaf()
        return self.leaf()

    def leaf(self):
        return 1


class SpanArithmetic(unittest.TestCase):
    def trace_toy(self, depth):
        tracer = Tracer(clock=FakeClock())
        for name in ("outer", "inner", "leaf"):
            tracer.install(Toy, name, name)
        try:
            result = Toy().outer(depth)
        finally:
            tracer.uninstall()
        return tracer, result

    def test_nested(self):
        # outer(0) -> inner(0) -> leaf(): six clock readings, 1 tick apart.
        tracer, result = self.trace_toy(0)
        self.assertEqual(result, 2)
        stats = tracer.stats
        self.assertEqual(stats["leaf"].self_s, 1.0)
        self.assertEqual(stats["inner"].self_s, 2.0)      # 3 - leaf's 1
        self.assertEqual(stats["outer"].self_s, 2.0)      # 5 - inner's 3
        self.assertEqual(stats["outer"].total_s, 5.0)
        self.assertEqual(tracer.self_total(), stats["outer"].total_s)

    def test_reentrant(self):
        # inner re-enters itself twice; its inclusive time counts once.
        tracer, _ = self.trace_toy(2)
        stats = tracer.stats
        self.assertEqual(stats["inner"].calls, 3)
        self.assertEqual(stats["leaf"].calls, 3)
        self.assertLess(stats["inner"].total_s, stats["outer"].total_s)
        self.assertEqual(stats["inner"].total_s,
                         stats["outer"].total_s - stats["outer"].self_s)
        self.assertAlmostEqual(tracer.self_total(), stats["outer"].total_s)
        for stat in stats.values():
            self.assertGreaterEqual(stat.self_s, 0.0)

    def test_exception_closes_span(self):
        tracer = Tracer(clock=FakeClock())

        def boom():
            raise ValueError("boom")

        wrapped = tracer.wrap("boom", boom)
        with self.assertRaises(ValueError):
            wrapped()
        self.assertEqual(tracer.stats["boom"].calls, 1)
        self.assertEqual(tracer._stack, [])

    def test_only_own_methods(self):
        from repro.prefetchers.base import PrefetcherBase
        from repro.prefetchers.null import NullPrefetcher

        tracer = Tracer()
        with self.assertRaises(TypeError):
            tracer.install(NullPrefetcher, "on_eviction", "x")
        base = PrefetcherBase.on_access
        with tracer.installed(Layers()):
            self.assertIs(PrefetcherBase.on_access, base)
        self.assertEqual(tracer._installed, [])


class TracedSimulation(unittest.TestCase):
    """One sim-indirect row, traced and untraced."""

    def test_traced_row(self):
        label, system = simpass.prepare(1)[0]
        untraced = system.run().stats.fingerprint()
        tracer = Tracer()
        with tracer.installed(Layers()):
            start = time.perf_counter()
            _, system = simpass.prepare(1)[0]
            traced = system.run().stats.fingerprint()
            wall = time.perf_counter() - start
        self.assertEqual(traced, untraced)
        self.assertEqual(traced, load_expected("sim-indirect", 1)[label])
        stats = tracer.stats
        run = stats["sim.System.run"]
        self.assertEqual(run.calls, 1)
        # Every span of the run nests inside System.run, so the self
        # times of the run's spans add up to its inclusive time.
        inside = sum(stat.self_s for name, stat in stats.items()
                     if name not in ("workloads.build", "sim.System.init"))
        self.assertAlmostEqual(inside, run.total_s, delta=1e-6)
        self.assertLessEqual(tracer.self_total(), wall)
        prefetch = stats["memory.MemorySystem.issue_prefetch"]
        send = stats["noc.MeshNoC.send_fast"]
        self.assertGreater(prefetch.calls, 0)
        self.assertGreater(send.calls, prefetch.calls)
        self.assertLess(prefetch.self_s, prefetch.total_s)


class Checks(unittest.TestCase):
    fp = {"runtime_cycles": 10, "instructions": 4}

    def test_mismatch_counts(self):
        checker = Checker({"a": self.fp, "b": fingerprint_digest(self.fp)})
        checker.check("first", {"a": self.fp, "b": self.fp})
        self.assertTrue(checker.ok())
        checker.check("second", {"a": self.fp,
                                 "b": dict(self.fp, runtime_cycles=11)})
        self.assertEqual((checker.attempted, checker.failed), (4, 1))
        checker.check("third", {"a": self.fp})
        self.assertEqual(checker.failed, 2)
        self.assertFalse(checker.ok())

    def test_set_comparison(self):
        checker = Checker({"x": self.fp, "y": self.fp})
        checker.check("pass", {"digest": self.fp}, by_label=False)
        self.assertTrue(checker.ok())

    def test_service_watch(self):
        watch = ServiceWatch()
        watch.on_submit(({},), (429, {"ok": False}, {}), 0.0, 0.1)
        watch.on_submit(({},), (202, {"ok": True, "data": {
            "id": "j1", "status": "queued"}}, {}), 1.0, 1.1)
        watch.on_submit(({},), (200, {"ok": True, "data": {
            "id": "j2", "status": "done"}}, {}), 2.0, 2.5)
        watch.on_job((None, "j1"), (200, {"ok": True, "data": {
            "status": "done"}}, {}), 4.0, 4.0)
        self.assertEqual(watch.http_429, 1)
        self.assertEqual(watch.latencies(), [0.5, 3.0])


class Expectations(unittest.TestCase):
    def test_corpus_seed1_is_shipped_siblings(self):
        expected = load_expected("corpus-sweep", 1)
        for path in SCENARIOS.glob("*.fingerprint.json"):
            with open(path) as handle:
                shipped = json.load(handle)["fingerprint"]
            self.assertEqual(
                expected[path.name[:-len(".fingerprint.json")]], shipped)

    def test_sim_indirect_seed1_matches_bench5(self):
        path = ROOT / "BENCH_5.json"
        if not path.exists():
            self.skipTest("no BENCH_5.json in this checkout")
        with open(path) as handle:
            rows = json.load(handle)["scenarios"]
        expected = load_expected("sim-indirect", 1)
        for label in ("spmv/imp", "pagerank/imp"):
            self.assertEqual(expected[label], rows[label]["fingerprint"])

    def test_paper_seed1_complete(self):
        expected = load_expected("paper-sweep", 1)
        self.assertEqual(len(expected), 98)
        self.assertGreater(passes.imp_speedup(expected), 1.0)


if __name__ == "__main__":
    sys.exit(unittest.main())

"""The rule that lets the in-order core handle L1 hits itself.

``MemorySystem.l1_hit_binding`` hands a core what it needs to replay
``access_fast``'s L1-hit path when the L1 is power-of-two and
non-sectored, carries at most one attachment, and memory is not ideal.
These tests pin what a prefetcher observes under that rule with a
counting stub: hits at the L1 reach L1 attachments only, every L1
attachment sees every L1 hit in attach order, and the core's own hit
handling is indistinguishable from going through ``access_fast``.
"""

import pytest

import repro.sim.system as system_module
from repro.memory.hierarchy import MemorySystem
from repro.prefetchers.base import PrefetcherBase, PrefetchRequest
from repro.sim.config import (
    CacheConfig,
    HierarchyConfig,
    LevelConfig,
    PrefetcherAttach,
    SystemConfig,
)
from repro.sim.system import System
from repro.workloads.synthetic import IndirectStreamWorkload

CORES = 4


class CountingStub(PrefetcherBase):
    """Logs every access it observes as ``(name, core, pc, addr, hit,
    now)`` and asks for the next line each time."""

    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log

    def on_access(self, ctx):
        self.log.append((self.name, ctx.core_id, ctx.pc, ctx.addr, ctx.hit,
                         ctx.now))
        return [PrefetchRequest(addr=(ctx.addr | 63) + 1)]


def config_with(*attach, levels=None, **overrides) -> SystemConfig:
    levels = levels or (
        LevelConfig(name="l1", size_bytes=4 * 1024, associativity=4),
        LevelConfig(name="l2", size_bytes=16 * 1024, associativity=8,
                    hit_latency=4),
        LevelConfig(name="l3", size_bytes=32 * 1024, associativity=8,
                    scope="shared", hit_latency=8),
    )
    return SystemConfig(n_cores=CORES,
                        l1d=CacheConfig(size_bytes=4 * 1024, associativity=4),
                        l2_total_mb_at_1core=0.0625,
                        hierarchy=HierarchyConfig(levels=levels,
                                                  attach=attach),
                        **overrides)


def stub_system(config: SystemConfig, log: list) -> MemorySystem:
    """A memory system whose every attachment is a CountingStub named
    after its registry name (``None`` for the inherited one)."""
    return MemorySystem(
        config, prefetcher_factory=lambda core: CountingStub(None, log),
        named_prefetcher_factory=lambda name: (
            lambda core: CountingStub(name, log)))


def workload_traces():
    build = IndirectStreamWorkload(n_indices=512, n_data=2048,
                                   seed=3).cached_build(CORES)
    return build.traces, build.mem_image


def run_system(config: SystemConfig, log: list, memory_class=MemorySystem,
               monkeypatch=None):
    """Run the workload with stubs at every attachment; ``memory_class``
    replaces MemorySystem inside System."""
    if monkeypatch is not None:
        monkeypatch.setattr(system_module, "MemorySystem", memory_class)
    traces, mem_image = workload_traces()
    system = System(config, traces, mem_image,
                    prefetcher=lambda core: CountingStub(None, log))
    return system, system.run()


def test_l2_only_attachment_sees_no_l1_hits():
    log = []
    memsys = stub_system(config_with(PrefetcherAttach(level="l2")), log)
    assert memsys.l1_hit_binding(0).prefetcher is None
    latency, l1_hit = memsys.access_fast(0, 0x400, 0x1000, 8, False, 0.0)[:2]
    assert not l1_hit and [entry[4] for entry in log] == [False]
    # The L1 hit reaches no attachment; its prefetch request was for the
    # next line, so that one misses the L1 and hits the L2 attachment.
    assert memsys.access_fast(0, 0x400, 0x1000, 8, False, 100.0)[1]
    assert len(log) == 1
    assert not memsys.access_fast(0, 0x400, 0x1040, 8, False, 200.0)[1]
    assert [entry[4] for entry in log] == [False, True]


def test_l2_only_attachment_sees_exactly_the_l1_miss_stream():
    log = []
    system, result = run_system(config_with(PrefetcherAttach(level="l2")),
                                log)
    for core in range(CORES):
        stats = result.stats.cores[core]
        seen = [entry for entry in log if entry[1] == core]
        assert stats.l1_hits > 0
        assert len(seen) == stats.l1_misses
        assert sum(entry[4] for entry in seen) == stats.l2_hits


def test_two_l1_attachments_see_every_l1_hit_in_attach_order():
    log = []
    config = config_with(PrefetcherAttach(level="l1", prefetcher="stream"),
                         PrefetcherAttach(level="l1", prefetcher="ghb"))
    memsys = stub_system(config, log)
    assert memsys.l1_hit_binding(0) is None
    for now, addr in enumerate((0x1000, 0x1000, 0x1008, 0x1040, 0x1000)):
        memsys.access_fast(0, 0x400, addr, 8, False, 10.0 * now)
    names = [entry[0] for entry in log]
    assert names == ["stream", "ghb"] * 5
    assert [entry[4] for entry in log[::2]] == [False, True, True, True,
                                                True]
    assert log[::2] == [("stream",) + entry[1:] for entry in log[1::2]]


def test_two_l1_attachments_in_a_run(monkeypatch):
    log = []
    config = config_with(PrefetcherAttach(level="l1", prefetcher="stream"),
                         PrefetcherAttach(level="l1", prefetcher="ghb"))
    # Named attachments resolve to stubs too.
    monkeypatch.setattr(system_module, "make_prefetcher_factory",
                        lambda spec, *args, **kwargs: (
                            spec if callable(spec)
                            else lambda core: CountingStub(spec, log)))
    system, result = run_system(config, log)
    assert all(core._l1 is None for core in system.cores)
    accesses = sum(core.mem_accesses for core in result.stats.cores)
    hits = sum(core.l1_hits for core in result.stats.cores)
    assert len(log) == 2 * accesses
    assert [entry[0] for entry in log] == ["stream", "ghb"] * accesses
    assert sum(entry[4] for entry in log[::2]) == hits > 0


def per_core(log: list, core: int) -> list:
    return [entry for entry in log if entry[1] == core]


class NoCoreL1Hits(MemorySystem):
    """Routes every access through access_fast."""

    def l1_hit_binding(self, core_id):
        return None


@pytest.mark.parametrize("levels", ["classic", "three-level"])
def test_core_hit_handling_matches_access_fast(monkeypatch, levels):
    """With one L1 attachment the core handles L1 hits itself; forcing
    them through access_fast must give identical per-access observations
    (the stub sees every access with its time) and statistics."""
    if levels == "classic":
        config = SystemConfig(
            n_cores=CORES,
            l1d=CacheConfig(size_bytes=4 * 1024, associativity=4),
            l2_total_mb_at_1core=0.0625)
    else:
        config = config_with(PrefetcherAttach(level="l1"),
                             PrefetcherAttach(level="l2"))
    logs = ([], [])
    core_hits, _ = run_system(config, logs[0])
    assert all(core._l1 is not None for core in core_hits.cores)
    memsys_hits, _ = run_system(config, logs[1], NoCoreL1Hits, monkeypatch)
    assert all(core._l1 is None for core in memsys_hits.cores)
    # Prefetcher state is per-core, so the core may show its hits to the
    # prefetcher ahead of other cores' earlier accesses: compare per core.
    for core in range(CORES):
        assert per_core(logs[0], core) == per_core(logs[1], core)
    assert any(entry[4] for entry in logs[0])
    assert core_hits.stats.to_dict() == memsys_hits.stats.to_dict()


def test_rule_excludes_sectored_and_ideal_l1s():
    single = (PrefetcherAttach(level="l1"),)
    assert config_with(*single).hierarchy is not None
    assert MemorySystem(config_with(*single)).l1_hit_binding(0) is not None
    partial = config_with(*single, partial_noc=True)
    assert MemorySystem(partial).l1_hit_binding(0) is None
    ideal = config_with(*single, ideal_memory=True)
    assert MemorySystem(ideal).l1_hit_binding(0) is None
    odd_sets = (LevelConfig(name="l1", size_bytes=3 * 4 * 64,
                            associativity=4),
                LevelConfig(name="l2", size_bytes=32 * 1024,
                            associativity=8, scope="shared"))
    assert MemorySystem(config_with(*single, levels=odd_sets)
                        ).l1_hit_binding(0) is None

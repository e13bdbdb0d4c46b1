"""Randomized equivalence of the hierarchy walk against captured digests.

Every hierarchy shape — the implicit ``hierarchy=None`` classic shape
included — runs through one memory-hierarchy walk, so comparing the
classic shape against its explicit spelling would compare that walk with
itself.  These tests instead pin the walk to digests captured from the
classic inlined walk that predates the merge, stored in
``tests/data/hierarchy_digests.json``:

* ``stream/...`` entries hash every ``access_fast`` outcome (and the final
  statistics) of a randomized demand stream driven through the classic
  shape — three geometries, four prefetchers; the classic shape spelled
  as an explicit hierarchy must hash the same;
* ``run/...`` entries hash the full statistics of workload runs on
  explicit shapes no other golden covers: two prefetchers attached at the
  L1, the classic geometry spelled explicitly under partial accessing,
  and IMP attached at a private L2 with nothing at the L1;
* an attach list that names the prefetcher explicitly, and the legacy
  ``prefetch_level`` spelling, must reproduce the same simulations.

Regenerate (only when a simulation change is intended) with::

    PYTHONPATH=src python tests/memory/test_attach_equivalence.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments.configs import experiment_config
from repro.memory.hierarchy import MemorySystem
from repro.prefetchers.factory import make_prefetcher_factory
from repro.sim.config import (
    CacheConfig,
    HierarchyConfig,
    LevelConfig,
    PrefetcherAttach,
    SystemConfig,
)
from repro.sim.system import run_workload
from repro.workloads import PagerankWorkload
from repro.workloads.synthetic import IndirectStreamWorkload

DIGESTS_PATH = (Path(__file__).resolve().parents[1] / "data"
                / "hierarchy_digests.json")

#: (l1 bytes, l1 assoc, total-L2 MB at 1 core, cores) — three distinct
#: geometries, including a single-core chip and a direct-mapped-ish L1.
GEOMETRIES = (
    (4 * 1024, 4, 0.0625, 4),
    (8 * 1024, 2, 0.125, 1),
    (16 * 1024, 4, 0.03125, 4),
)

STREAM_PREFETCHERS = ("none", "stream", "ghb", "imp")

#: Three-level chain (private L1 + private L2 + shared L3) of the
#: IMP-at-L2 shapes.
THREE_LEVELS = (
    LevelConfig(name="l1", size_bytes=4 * 1024, associativity=4),
    LevelConfig(name="l2", size_bytes=16 * 1024, associativity=8,
                hit_latency=4),
    LevelConfig(name="l3", size_bytes=32 * 1024, associativity=8,
                scope="shared", hit_latency=8),
)


def classic_config(l1_bytes, l1_assoc, l2_mb, cores) -> SystemConfig:
    return SystemConfig(n_cores=cores,
                        l1d=CacheConfig(size_bytes=l1_bytes,
                                        associativity=l1_assoc),
                        l2_total_mb_at_1core=l2_mb)


def explicit_hierarchy(config: SystemConfig, *prefetchers) -> HierarchyConfig:
    """The classic shape spelled as an explicit hierarchy, with one L1
    attachment per entry of ``prefetchers`` (``None`` inherits the mode's
    prefetcher; the default is one inheriting attachment)."""
    resolved = config.resolved_hierarchy()
    return HierarchyConfig(
        levels=resolved.levels,
        attach=tuple(PrefetcherAttach(level="l1", prefetcher=name)
                     for name in (prefetchers or (None,))))


def random_stream(seed: int, cores: int, length: int = 3000):
    """A reproducible mixed demand stream (reads/writes, several PCs)."""
    rng = random.Random(seed)
    stream = []
    now = 0.0
    for _ in range(length):
        stream.append((rng.randrange(cores),
                       0x400 + (rng.randrange(48) << 3),
                       rng.randrange(0, 1 << 21),
                       rng.choice((4, 8, 64)),
                       rng.random() < 0.3,
                       now))
        now += rng.choice((1.0, 2.0, 3.0, 7.0))
    return stream


def drive(system: MemorySystem, stream):
    """Feed the stream through access_fast, collecting every outcome as
    ``(latency, l1_hit, l2_hit, covered, late)`` with float latencies (the
    hot path returns a reused scratch list, and an int latency equals its
    float)."""
    outcomes = []
    for core, pc, addr, size, is_write, now in stream:
        latency, l1_hit, l2_hit, covered, late = system.access_fast(
            core, pc, addr, size, is_write, now)
        outcomes.append((float(latency), bool(l1_hit), bool(l2_hit),
                         bool(covered), float(late)))
    return outcomes


def sha256_of(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True)
                          .encode()).hexdigest()


def stream_key(geometry, prefetcher: str) -> str:
    l1_bytes, l1_assoc, l2_mb, cores = geometry
    return f"stream/l1-{l1_bytes}x{l1_assoc}/l2-{l2_mb}/c{cores}/{prefetcher}"


def stream_digest(config: SystemConfig, geometry, prefetcher: str) -> str:
    """Digest of one randomized stream's outcomes and final statistics."""
    seed = 1000 * GEOMETRIES.index(geometry) \
        + STREAM_PREFETCHERS.index(prefetcher)
    system = MemorySystem(config, prefetcher_factory=make_prefetcher_factory(
        prefetcher))
    outcomes = drive(system, random_stream(seed, config.n_cores))
    return sha256_of([outcomes, system.stats.to_dict()])


def _workload(name: str):
    if name == "pagerank":
        return PagerankWorkload(n_vertices=2048, seed=1)
    return IndirectStreamWorkload(n_indices=2048, n_data=8192, seed=3)


def _l1_stream_imp(config):
    return explicit_hierarchy(config, "stream", "imp")


def _classic_explicit(config):
    return explicit_hierarchy(config)


def _imp_l2_only(config):
    return HierarchyConfig(levels=THREE_LEVELS,
                           attach=(PrefetcherAttach(level="l2"),))


#: name -> (mode, hierarchy builder) of the explicit-shape run goldens.
#: Stream + IMP at the L1 runs under partial accessing: without it IMP's
#: own stream engine covers every line the stream prefetcher fetches, and
#: the run would equal the single-attach one.
RUN_SHAPES = {
    "l1-stream+imp-partial": ("imp_partial_noc_dram", _l1_stream_imp),
    "classic-explicit-partial": ("imp_partial_noc_dram", _classic_explicit),
    "imp-l2-only": ("imp", _imp_l2_only),
    "imp-l2-only-partial": ("imp_partial_noc_dram", _imp_l2_only),
}
RUN_WORKLOADS = ("indirect_stream", "pagerank")


def run_digest(shape: str, workload: str) -> str:
    mode, build_hierarchy = RUN_SHAPES[shape]
    config, prefetcher, imp_config, _ = experiment_config(mode, 4)
    config = config.with_hierarchy(build_hierarchy(config))
    result = run_workload(_workload(workload), config,
                          prefetcher=prefetcher, imp_config=imp_config)
    return sha256_of(result.stats.to_dict())


def compute_digests() -> Dict[str, str]:
    digests = {}
    for geometry in GEOMETRIES:
        for prefetcher in STREAM_PREFETCHERS:
            digests[stream_key(geometry, prefetcher)] = stream_digest(
                classic_config(*geometry), geometry, prefetcher)
    for shape in RUN_SHAPES:
        for workload in RUN_WORKLOADS:
            digests[f"run/{shape}/{workload}"] = run_digest(shape, workload)
    return digests


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(
        [stream_key(g, p) for g in GEOMETRIES for p in STREAM_PREFETCHERS]
        + [f"run/{s}/{w}" for s in RUN_SHAPES for w in RUN_WORKLOADS])


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("prefetcher", STREAM_PREFETCHERS)
def test_random_streams_match_golden(golden, geometry, prefetcher):
    """The classic shape, implicit and spelled explicitly, reproduces the
    captured per-access outcomes and statistics of randomized streams."""
    base = classic_config(*geometry)
    expected = golden[stream_key(geometry, prefetcher)]
    assert stream_digest(base, geometry, prefetcher) == expected
    explicit = base.with_hierarchy(explicit_hierarchy(base))
    assert stream_digest(explicit, geometry, prefetcher) == expected


@pytest.mark.parametrize("shape", sorted(RUN_SHAPES))
@pytest.mark.parametrize("workload", RUN_WORKLOADS)
def test_explicit_shape_runs_match_golden(golden, shape, workload):
    assert run_digest(shape, workload) == golden[f"run/{shape}/{workload}"]


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_named_attach_matches_inherited_prefetcher(geometry):
    """Naming the prefetcher in the attach list (explicitly resolved
    factory) reproduces the run whose attachment inherits the mode's
    prefetcher, on full workload runs — for every stock prefetcher."""
    base = classic_config(*geometry)
    for prefetcher in ("none", "stream", "imp"):
        inherited = run_workload(
            IndirectStreamWorkload(n_indices=512, n_data=2048, seed=3),
            base, prefetcher=prefetcher)
        # The mode-level spec is inert ("none"): the attach entry names
        # the prefetcher, exercising the named-factory resolution.
        attached = run_workload(
            IndirectStreamWorkload(n_indices=512, n_data=2048, seed=3),
            base.with_hierarchy(explicit_hierarchy(base, prefetcher)),
            prefetcher="none")
        assert inherited.stats.to_dict() == attached.stats.to_dict(), \
            f"named-attach divergence: {prefetcher} @ {geometry}"


def test_legacy_prefetch_level_spelling_is_identical():
    """``prefetch_level: l2`` and ``attach: [{level: l2}]`` are one
    configuration: equal configs, equal digests, equal simulations."""
    legacy = HierarchyConfig(prefetch_level="l2", levels=THREE_LEVELS)
    explicit = HierarchyConfig(attach=({"level": "l2"},), levels=THREE_LEVELS)
    assert legacy == explicit
    config = classic_config(4 * 1024, 4, 0.0625, 4)
    runs = [run_workload(
        IndirectStreamWorkload(n_indices=512, n_data=2048, seed=3),
        config.with_hierarchy(hierarchy), prefetcher="imp")
        for hierarchy in (legacy, explicit)]
    assert runs[0].stats.to_dict() == runs[1].stats.to_dict()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    DIGESTS_PATH.write_text(json.dumps(compute_digests(), indent=1,
                                       sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")

"""The full memory system: private per-core cache levels, a distributed
shared last level, directory coherence, mesh NoC and DRAM, plus the
prefetchers attached to the levels.

This is the component the cores talk to.  For every demand reference it
returns the access latency, performing along the way all the side effects a
real hierarchy would have: cache fills and evictions, directory updates,
NoC messages (with contention) and DRAM requests (with bandwidth limits).
Prefetch requests walk the same path but do not stall the core.

Idealised configurations of Section 5.4 are supported directly:

* ``ideal_memory`` — every access costs one L1 hit and moves no traffic,
* ``perfect_prefetch`` — every miss behaves as if a magic prefetcher issued
  the fill ``perfect_prefetch_lead`` cycles earlier; latency is hidden unless
  the NoC/DRAM are so congested that even that lead time is not enough,
  which is exactly what makes *PerfPref* fall behind *Ideal* at high core
  counts in the paper (Section 2.2).

Every system is built from ``SystemConfig.resolved_hierarchy()`` (a
:class:`~repro.sim.config.HierarchyConfig`): a chain of private per-core
levels (arbitrarily deep; levels past the third account into dynamic
``lN_*`` counters) under one shared, distributed last level, with zero or
more prefetchers attachable per level (``HierarchyConfig.attach``).  The
classic Table 1 shape (``hierarchy=None``: private L1s under a shared L2,
the mode's prefetcher at each L1) is simply the two-level chain.  A
private-level attachment is per-core and observes the access stream
reaching its level; a shared-level attachment is per-slice — each slice of
the distributed last level carries its own prefetcher instance observing
the demand fetches that arrive at that slice, and its prefetches fill the
slice from DRAM (their NoC/DRAM traffic and slice capacity are their
cost; they complete after the demand they trained on, so they never
shorten that demand's latency).  Attachment points may name a registered
prefetcher explicitly (hybrid stream@L1 + IMP@L2) or inherit the
experiment mode's choice.

Every shape runs through one walk, :meth:`MemorySystem.access_fast`; its
speed comes from choices made at construction: each level's caches and
attachment banks are bound into flat tuples, the loop over outer private
levels is empty on a one-private-level chain, and
:meth:`MemorySystem.l1_hit_binding` decides whether the in-order core may
handle L1 hits itself (see :mod:`repro.sim.core_model`).  Cores call
:meth:`MemorySystem.access_fast` with plain scalars (no :class:`MemRef` is
built per dynamic reference); the object-based :meth:`MemorySystem.access`
remains as a thin wrapper.  One :class:`AccessContext` per memory system
is reused across prefetcher notifications, and prefetchers that can never
issue anything (the ``NullPrefetcher`` baseline) skip the notification
machinery entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, NamedTuple, Optional

from repro.mem_image import MemoryImage
from repro.memory.cache import Cache, full_mask
from repro.memory.coherence import Directory
from repro.memory.dram import make_dram
from repro.noc.mesh import MeshNoC
from repro.prefetchers.base import AccessContext, PrefetcherBase, PrefetchRequest
from repro.prefetchers.factory import make_prefetcher_factory
from repro.prefetchers.null import NullPrefetcher
from repro.sim.config import SystemConfig
from repro.sim.stats import CoreStats, SystemStats, TrafficStats
from repro.sim.trace import MemRef


#: Size in bytes of a coherence/request header message on the NoC.
CONTROL_MESSAGE_BYTES = 8


class _Attach:
    """One resolved prefetcher attachment: a bank of prefetcher instances
    (per core for private levels, per slice for the shared level), the
    caches its prefetches fill and the function that issues them, plus the
    precomputed notification gates the access walk consults."""

    __slots__ = ("level_index", "prefetchers", "caches", "issue",
                 "notify_enabled", "notify_hits", "has_on_fill",
                 "has_on_eviction", "skip_resident")

    def __init__(self, level_index: int, prefetchers: List[PrefetcherBase],
                 caches, issue) -> None:
        self.level_index = level_index
        self.prefetchers = prefetchers
        #: Target cache per owner (core or slice) of this bank.
        self.caches = caches
        #: ``(memory_system, owner, request, now, level_index) ->
        #: completion time``: a plain function, so the bank holds no
        #: reference back to its memory system (a cycle would keep every
        #: finished system alive until a full garbage collection).
        self.issue = issue
        # on_fill is a chaining hook no stock prefetcher implements,
        # on_eviction only feeds IMP's granularity predictor,
        # notify_enabled skips the whole AccessContext path for the "none"
        # baseline, and notify_hits lets miss-stream-only prefetchers
        # (``observes_hits`` False, e.g. the classic GHB) skip hits.
        self.notify_enabled = [not _prefetcher_is_inert(p)
                               for p in prefetchers]
        self.notify_hits = [enabled and getattr(p, "observes_hits", True)
                            for enabled, p in zip(self.notify_enabled,
                                                  prefetchers)]
        self.has_on_fill = [type(p).on_fill is not PrefetcherBase.on_fill
                            for p in prefetchers]
        self.has_on_eviction = [
            type(p).on_eviction is not PrefetcherBase.on_eviction
            and getattr(p, "observes_evictions", True)
            for p in prefetchers]
        # A request whose full line is already resident in a non-sectored,
        # power-of-two target is a no-op the issue loop skips without a
        # call — unless an on_fill hook must observe every request.
        probe = not caches[0].sector_size and caches[0]._tag_shift is not None
        self.skip_resident = [probe and not on_fill
                              for on_fill in self.has_on_fill]


class L1HitBinding(NamedTuple):
    """What an in-order core needs to handle its own L1 hits (see
    :meth:`MemorySystem.l1_hit_binding`)."""

    cache: Cache
    hit_latency: int
    #: The L1 attachment's prefetcher when it observes hits, else None.
    prefetcher: Optional[PrefetcherBase]
    ctx: AccessContext
    #: ``(core_id, requests, now)``: issues the prefetcher's requests.
    issue_requests: Optional[Callable]
    #: Requests for lines already resident in the L1 are no-ops.
    skip_resident: bool


@dataclass
class AccessOutcome:
    """What happened for one demand access."""

    latency: float
    l1_hit: bool
    l2_hit: bool = False
    covered_by_prefetch: bool = False
    late_prefetch_cycles: float = 0.0


PrefetcherFactory = Callable[[int], PrefetcherBase]


def _prefetcher_is_inert(prefetcher: PrefetcherBase) -> bool:
    """True when ``on_access`` can never produce work (no-prefetch baselines)."""
    if isinstance(prefetcher, NullPrefetcher):
        return True
    return type(prefetcher).on_access is PrefetcherBase.on_access


class MemorySystem:
    """Cache hierarchy + interconnect + DRAM for the whole chip."""

    __slots__ = ("config", "mem_image", "stats", "traffic", "noc", "dram",
                 "_mc_tiles", "_num_mcs", "l1", "l2", "directories",
                 "prefetchers", "line_size", "_line_shift", "_line_mask",
                 "_cores_pow2_mask", "_hit_latency", "_l2_hit_latency",
                 "_plain_hit", "_ret", "_ctx", "_ideal", "_issue_lead",
                 "_private_caches", "_private_latencies", "_outer_levels",
                 "_pf_level", "_outermost_private", "_shared_pos",
                 "_attaches", "_l1_attaches", "_evict_observers",
                 "_shared_attaches", "_core_l1_hits")

    def __init__(self, config: SystemConfig, mem_image: Optional[MemoryImage] = None,
                 prefetcher_factory: Optional[PrefetcherFactory] = None,
                 stats: Optional[SystemStats] = None,
                 named_prefetcher_factory=None) -> None:
        self.config = config
        self.mem_image = mem_image or MemoryImage()
        n = config.n_cores
        self.stats = stats or SystemStats(
            cores=[CoreStats(core_id=i) for i in range(n)])
        if len(self.stats.cores) != n:
            raise ValueError("stats must have one CoreStats per core")
        self.traffic: TrafficStats = self.stats.traffic
        self.noc = MeshNoC(n, config.noc, traffic=self.traffic)
        self.dram = make_dram(config.dram, config.num_memory_controllers,
                              traffic=self.traffic)
        self._mc_tiles = config.memory_controller_tiles()
        self._num_mcs = len(self._mc_tiles)
        factory = prefetcher_factory or (lambda core_id: PrefetcherBase())
        if named_prefetcher_factory is None:
            # Attach entries that name a prefetcher explicitly resolve
            # through the registry against this system's memory image
            # (System passes a resolver that also shares its IMP config).
            named_prefetcher_factory = (
                lambda name: make_prefetcher_factory(name, self.mem_image))
        # A chain of private levels under one shared, distributed last
        # level (see HierarchyConfig); the classic shape is the chain
        # private L1 -> shared L2.
        hierarchy = config.resolved_hierarchy()
        partial_accessing = config.partial_noc or config.partial_dram
        privates = hierarchy.private_levels
        shared = hierarchy.shared_level
        private_attaches = hierarchy.private_attaches
        #: Level index of the *primary* attachment (the innermost private
        #: attach): the target of software prefetches and of the public
        #: issue_prefetch API, and — under partial accessing — the private
        #: level that gets sectored.
        self._pf_level = (hierarchy.level_index(private_attaches[0].level)
                          if private_attaches else 0)
        self._outermost_private = len(privates) - 1
        caches = []
        for index, level in enumerate(privates):
            sector = level.sector_size
            if not sector and partial_accessing and index == self._pf_level:
                sector = config.l1_sector_size
            level_cfg = level.cache_config(sector_size=sector)
            caches.append(tuple(Cache(level_cfg) for _ in range(n)))
        self._private_caches = tuple(caches)
        self._private_latencies = tuple(level.hit_latency
                                        for level in privates)
        #: Private levels past the L1, inner first: empty on the classic
        #: one-private-level chain, so the walk skips them for free.
        self._outer_levels = tuple(range(1, len(privates)))
        self.l1 = self._private_caches[0]
        shared_sector = shared.sector_size or (
            config.l2_sector_size if partial_accessing else 0)
        l2_cfg = shared.cache_config(sector_size=shared_sector)
        self.l2 = tuple(Cache(l2_cfg) for _ in range(n))
        self._shared_pos = len(hierarchy.levels)
        # One _Attach (a bank of prefetcher instances + notification
        # gates) per attachment point.  Private banks are per-core;
        # shared banks are per-slice.  ``private_attaches`` is already
        # sorted inner-level-first, which fixes notification order.
        def build_attach(spec, level_index, caches, issue):
            make = (factory if spec.prefetcher is None
                    else named_prefetcher_factory(spec.prefetcher))
            return _Attach(level_index, [make(i) for i in range(n)],
                           caches, issue)

        cls = type(self)
        attaches = []
        for spec in private_attaches:
            level_index = hierarchy.level_index(spec.level)
            attaches.append(build_attach(
                spec, level_index, self._private_caches[level_index],
                cls.issue_prefetch))
        self._attaches = tuple(attaches)
        self._l1_attaches = tuple(a for a in attaches if a.level_index == 0)
        #: Per private level, the attachments with an eviction hook.
        self._evict_observers = tuple(
            tuple(a for a in attaches
                  if a.level_index == index and any(a.has_on_eviction))
            for index in range(len(privates)))
        self._shared_attaches = tuple(
            build_attach(spec, len(privates), self.l2,
                         cls._issue_shared_prefetch)
            for spec in hierarchy.shared_attaches)
        # Flat instance list (attach-major): what System introspects for
        # IMP state; the per-core list when a single private attachment
        # exists.
        self.prefetchers = [p for a in self._attaches for p in a.prefetchers]
        self.prefetchers += [p for a in self._shared_attaches
                             for p in a.prefetchers]
        self.directories = [Directory(tile, config.ackwise_pointers, self.traffic)
                            for tile in range(n)]
        self.line_size = self.l1[0].line_size
        # ----- hot-path precomputation ---------------------------------
        line_size = self.line_size
        if line_size > 0 and (line_size & (line_size - 1)) == 0:
            self._line_shift = line_size.bit_length() - 1
            self._line_mask = ~(line_size - 1)
        else:
            self._line_shift = None
            self._line_mask = None
        self._cores_pow2_mask = (n - 1) if (n & (n - 1)) == 0 else None
        self._hit_latency = self._private_latencies[0]
        self._l2_hit_latency = l2_cfg.hit_latency
        self._ideal = config.ideal_memory
        self._issue_lead = (config.perfect_prefetch_lead
                            if config.perfect_prefetch else 0)
        # Shared result tuple for the overwhelmingly common plain L1 hit
        # (immutable, so safe to return repeatedly), plus one reusable
        # result list for every other access_fast outcome — callers consume
        # the latency/flags immediately (see access_fast's contract), so no
        # per-access result tuple is allocated.
        self._plain_hit = (self._hit_latency, True, False, False, 0.0)
        self._ret = [0.0, False, False, False, 0.0]
        # The in-order core may handle an L1 hit itself when probing the
        # L1 by shift/mask finds exactly what access_fast would (a
        # power-of-two, non-sectored L1: a resident line is a full hit),
        # when a hit has at most one prefetcher to notify, and when memory
        # is not ideal (ideal memory never consults the caches).
        sample_l1 = self.l1[0]
        self._core_l1_hits = (sample_l1._tag_shift is not None
                              and not sample_l1.sector_size
                              and len(self._l1_attaches) <= 1
                              and not self._ideal)
        # One reusable AccessContext: fields are rebound per access instead
        # of allocating a context (plus a read_value closure) per reference.
        self._ctx = AccessContext(core_id=0, pc=0, addr=0, size=0,
                                  is_write=False, hit=False, now=0.0)
        read_value = self.mem_image.read_value
        ctx = self._ctx
        self._ctx.read_value = lambda: read_value(ctx.addr)

    def l1_hit_binding(self, core_id: int) -> Optional[L1HitBinding]:
        """What ``core_id``'s in-order core needs to handle its own L1 hits,
        or None when every access must come through :meth:`access_fast`.

        An L1 hit touches nothing but the core's L1 and the prefetcher
        attached there, so a core that replays access_fast's hit path on
        those two gives identical results; see the rule in ``__init__``.
        """
        if not self._core_l1_hits:
            return None
        prefetcher = issue_requests = None
        skip_resident = False
        for attach in self._l1_attaches:
            if attach.notify_hits[core_id]:
                prefetcher = attach.prefetchers[core_id]
                issue_requests = partial(self._issue_requests, attach)
                skip_resident = attach.skip_resident[core_id]
        return L1HitBinding(self.l1[core_id], self._hit_latency, prefetcher,
                            self._ctx, issue_requests, skip_resident)

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def line_addr(self, addr: int) -> int:
        if self._line_shift is not None:
            return addr & self._line_mask
        return addr - (addr % self.line_size)

    def home_tile(self, addr: int) -> int:
        """L2 slice (and directory) holding this line: line interleaving."""
        if self._line_shift is not None:
            line_no = addr >> self._line_shift
        else:
            line_no = addr // self.line_size
        if self._cores_pow2_mask is not None:
            return line_no & self._cores_pow2_mask
        return line_no % self.config.n_cores

    def memory_controller(self, addr: int) -> tuple:
        """Return ``(controller_index, controller_tile)`` for an address."""
        if self._line_shift is not None:
            index = (addr >> self._line_shift) % self._num_mcs
        else:
            index = (addr // self.line_size) % self._num_mcs
        return index, self._mc_tiles[index]

    # ------------------------------------------------------------------
    # Demand access path
    # ------------------------------------------------------------------
    def access(self, core_id: int, ref: MemRef, now: float) -> AccessOutcome:
        """Perform one demand load/store for ``core_id`` at time ``now``.

        Object-based wrapper kept for tests and external callers; core
        models use :meth:`access_fast`.
        """
        latency, l1_hit, l2_hit, covered, late = self.access_fast(
            core_id, ref.pc, ref.addr, ref.size, ref.is_write, now)
        return AccessOutcome(latency=latency, l1_hit=l1_hit, l2_hit=l2_hit,
                             covered_by_prefetch=covered,
                             late_prefetch_cycles=late)

    def access_fast(self, core_id: int, pc: int, addr: int, size: int,
                    is_write: bool, now: float):
        """Scalar demand-access entry point (the hot path).

        Walks the private levels inside-out, then fetches through the
        shared last level (directory + NoC + DRAM).  Every attached
        prefetcher observes the access stream reaching its level — an
        attachment at level *i* sees the accesses that missed levels
        0..i-1 (all of them at the L1) — and its prefetches install at its
        level.  Attachments are notified inner levels first; shared-level
        attachments observe slice-local fetches inside :meth:`_fetch_line`.

        Returns ``(latency, l1_hit, l2_hit, covered_by_prefetch,
        late_prefetch_cycles)``, where ``l2_hit`` means a hit past the L1;
        core models read only the first two elements, so stand-in memory
        systems may return any indexable with latency at [0] and the L1-hit
        flag at [1].  The returned indexable may be a **reused scratch
        list** — callers must consume it before the next access, never
        retain it.
        """
        if self._ideal:
            for attach in self._l1_attaches:
                if attach.notify_hits[core_id]:
                    self._notify(attach, core_id, pc, addr, size, is_write,
                                 True, now)
            return self._plain_hit

        l1 = self.l1[core_id]
        hit = l1.access_fast(addr, size, is_write, now)
        if hit is not None:
            ready, covered = hit
            hit_latency = self._hit_latency
            late = ready - now
            if late > 0.0:
                latency = hit_latency + late
            else:
                late = 0.0
                latency = hit_latency
            if covered:
                core_stats = self.stats.cores[core_id]
                core_stats.prefetch_covered_misses += 1
                core_stats.prefetches_useful += 1
                core_stats.prefetch_late_cycles += int(late)
            for attach in self._l1_attaches:
                if attach.notify_hits[core_id]:
                    # _notify, inlined (the hottest call site: every L1 hit
                    # the core does not handle itself).
                    ctx = self._ctx
                    ctx.core_id = core_id
                    ctx.pc = pc
                    ctx.addr = addr
                    ctx.size = size
                    ctx.is_write = is_write
                    ctx.hit = True
                    ctx.now = now
                    requests = attach.prefetchers[core_id].on_access(ctx)
                    if requests:
                        self._issue_requests(attach, core_id, requests, now)
            if covered or late:
                ret = self._ret
                ret[0] = latency
                ret[1] = True
                ret[2] = False
                ret[3] = covered
                ret[4] = late
                return ret
            return self._plain_hit

        # L1 miss: walk the outer private levels (none on a one-level chain).
        latency = self._hit_latency
        levels = self._private_caches
        for index in self._outer_levels:
            latency += self._private_latencies[index]
            hit = levels[index][core_id].access_fast(addr, size, is_write,
                                                     now)
            if hit is not None:
                return self._outer_hit(core_id, pc, addr, size, is_write,
                                       now, index, hit, latency)
            self.stats.cores[core_id].bump_level(index + 1, hit=False)

        # Missed every private level: fetch through the shared level, then
        # fill the private levels outermost first.
        arrival, shared_hit = self._fetch_line(
            core_id, addr, now - self._issue_lead, is_write=is_write,
            fetch_bytes=self.line_size, sectors=None, pc=pc, size=size,
            demand=True)
        for index in reversed(self._outer_levels):
            cache = levels[index][core_id]
            if cache.fill_fast(addr, now, arrival, False, is_write):
                self._handle_private_eviction(core_id, index, cache, now)
        if l1.fill_fast(addr, now, arrival, False, is_write):
            self._handle_private_eviction(core_id, 0, l1, now)
        latency += max(0.0, arrival - now)
        for attach in self._attaches:
            if attach.notify_enabled[core_id]:
                self._notify(attach, core_id, pc, addr, size, is_write,
                             False, now)
        ret = self._ret
        ret[0] = latency
        ret[1] = False
        ret[2] = shared_hit
        ret[3] = False
        ret[4] = 0.0
        return ret

    def _outer_hit(self, core_id: int, pc: int, addr: int, size: int,
                   is_write: bool, now: float, hit_level: int, hit,
                   latency: float):
        """Finish a demand access that hit private level ``hit_level`` > 0
        after ``latency`` cycles of lookups."""
        ready, covered = hit
        late = ready - now
        if late > 0.0:
            latency += late
        else:
            late = 0.0
        core_stats = self.stats.cores[core_id]
        core_stats.bump_level(hit_level + 1, hit=True)
        if covered:
            core_stats.prefetch_covered_misses += 1
            core_stats.prefetches_useful += 1
            core_stats.prefetch_late_cycles += int(late)
        arrival = now + latency
        # Pull the line into every inner level (inclusive fill).
        levels = self._private_caches
        for index in range(hit_level - 1, -1, -1):
            cache = levels[index][core_id]
            if cache.fill_fast(addr, now, arrival, False, is_write):
                self._handle_private_eviction(core_id, index, cache, now)
        for attach in self._attaches:
            level = attach.level_index
            if level > hit_level:
                break     # sorted inner-first: nothing deeper saw it
            # A hit *at* the attachment level is a hit notification, which
            # miss-stream-only prefetchers skip; inner levels' misses are
            # miss notifications for deeper attachments.
            if (attach.notify_hits if level == hit_level
                    else attach.notify_enabled)[core_id]:
                self._notify(attach, core_id, pc, addr, size, is_write,
                             level == hit_level, now)
        return latency, False, True, covered, late

    def _handle_private_eviction(self, core_id: int, level_index: int,
                                 cache: Cache, now: float) -> None:
        """Eviction from private level ``level_index`` (``cache`` is the
        core's cache there).

        The victim is described by the evicting cache's ``victim_*``
        scratch fields (captured into locals first: cascading write-backs
        below may evict again and overwrite deeper levels' scratch).

        Outermost private evictions leave the core's domain: the line is
        back-invalidated from every inner private level (the chain is
        inclusive, and the directory tracks the outermost level — an inner
        copy surviving the directory's ``evict`` would go stale), then the
        directory is told and dirty lines ride the NoC to their home slice
        of the shared level.  Inner evictions stay local: a dirty victim
        is written back into the next private level (which may cascade).
        """
        victim_addr = cache.victim_addr
        victim_dirty = cache.victim_dirty
        for attach in self._evict_observers[level_index]:
            if attach.has_on_eviction[core_id]:
                attach.prefetchers[core_id].on_eviction(
                    victim_addr, cache.victim_touched, now)
        if level_index != self._outermost_private:
            if victim_dirty:
                outer = self._private_caches[level_index + 1][core_id]
                if outer.fill_fast(victim_addr, now, now, False, True):
                    self._handle_private_eviction(core_id, level_index + 1,
                                                  outer, now)
            return
        if level_index:
            for inner in range(level_index):
                flags = self._private_caches[inner][core_id].invalidate_fast(
                    victim_addr)
                if flags is not None and flags & 1:   # FLAG_DIRTY
                    victim_dirty = True
        # home_tile / line_addr, inlined for power-of-two geometries (this
        # runs once per steady-state miss).
        if self._line_shift is not None:
            line = victim_addr & self._line_mask
            line_no = victim_addr >> self._line_shift
        else:
            line = self.line_addr(victim_addr)
            line_no = victim_addr // self.line_size
        if self._cores_pow2_mask is not None:
            home = line_no & self._cores_pow2_mask
        else:
            home = line_no % self.config.n_cores
        self.directories[home].evict(line, core_id)
        if victim_dirty:
            # Write the dirty line back to its home slice.  (A dirty victim
            # of that fill is dropped: the write-back path never charges
            # nested shared-level evictions.)
            self.noc.send_fast(core_id, home, self.line_size, now)
            self.l2[home].fill_fast(victim_addr, now, now, False, True)

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------
    def issue_prefetch(self, core_id: int, request: PrefetchRequest,
                       now: float, level: Optional[int] = None) -> float:
        """Issue one prefetch for ``core_id`` into private level ``level``
        (default: the primary attachment level — the L1 classically);
        return its completion time.

        The prefetch does not stall the core; its cost is the NoC/DRAM
        traffic it generates and the capacity it occupies at its target
        level.  Every private-level prefetch goes through here.
        """
        if self._ideal:
            return now
        if level is None:
            level = self._pf_level
        cache = self._private_caches[level][core_id]
        addr = request.addr
        # Inlined cache way lookup (most prefetches find the line already
        # resident).
        if cache._tag_shift is not None:
            way = cache._index[(addr >> cache._line_shift)
                               & cache._set_mask].get(addr >> cache._tag_shift)
        else:
            way = cache._way_of(addr)
        size = request.size
        line_size = self.line_size
        fetch_bytes = size if size < line_size else line_size
        sectors = None
        if cache.sector_size:
            sectors = self._sector_mask_for_prefetch(cache, addr, fetch_bytes)
        if way is not None:
            if not cache.sector_size:
                return now  # already resident, nothing to do
            if (cache._sector_valid[way] & sectors) == sectors:
                return now
        core_stats = self.stats.cores[core_id]
        core_stats.prefetches_issued += 1
        if request.is_indirect:
            core_stats.indirect_prefetches_issued += 1
        else:
            core_stats.stream_prefetches_issued += 1
        noc_bytes = fetch_bytes if self.config.partial_noc else line_size
        dram_bytes = fetch_bytes if self.config.partial_dram else line_size
        arrival, _ = self._fetch_line(core_id, addr, now,
                                      is_write=request.exclusive,
                                      fetch_bytes=noc_bytes,
                                      dram_bytes=dram_bytes,
                                      sectors=sectors)
        # Fill the target level and every private level outside it
        # (outermost first): the chain is inclusive, and a line resident
        # only in an inner level would break the directory bookkeeping,
        # which tracks the outermost private level.
        if level != self._outermost_private:
            for outer in range(self._outermost_private, level, -1):
                outer_cache = self._private_caches[outer][core_id]
                if outer_cache.fill_fast(addr, now, arrival, True, False):
                    self._handle_private_eviction(core_id, outer,
                                                  outer_cache, now)
        if cache.fill_fast(addr, now, arrival, True, False, sectors):
            self._handle_private_eviction(core_id, level, cache, now)
        return arrival

    def _sector_mask_for_prefetch(self, cache: Cache, addr: int,
                                  fetch_bytes: int) -> int:
        """Sectors fetched by a partial prefetch of ``fetch_bytes`` bytes."""
        if fetch_bytes >= self.line_size:
            return full_mask(cache.sectors_per_line)
        return cache.sector_mask(addr, fetch_bytes)

    # ------------------------------------------------------------------
    # Shared fetch path (private miss or prefetch): directory + shared
    # level + DRAM
    # ------------------------------------------------------------------
    def _fetch_line(self, core_id: int, addr: int, issue_time: float, *,
                    is_write: bool, fetch_bytes: int,
                    dram_bytes: Optional[int] = None,
                    sectors: Optional[int],
                    pc: int = 0, size: int = 0,
                    demand: bool = False) -> tuple:
        """Fetch a line (or sectors of it) for a core; return
        ``(arrival_time, l2_hit)``.

        ``demand`` marks a demand fetch (not a prefetch): when the shared
        level carries per-slice prefetchers, demand fetches are what they
        observe (``pc``/``size`` feed their access context).  Slice
        prefetchers are notified after the demand's response is scheduled,
        so their requests never shorten the triggering fetch."""
        core_stats = self.stats.cores[core_id]
        # line_addr / home_tile, inlined for power-of-two geometries.
        if self._line_shift is not None:
            line = addr & self._line_mask
            line_no = addr >> self._line_shift
        else:
            line = self.line_addr(addr)
            line_no = addr // self.line_size
        if self._cores_pow2_mask is not None:
            home = line_no & self._cores_pow2_mask
        else:
            home = line_no % self.config.n_cores
        directory = self.directories[home]
        l2 = self.l2[home]
        if dram_bytes is None:
            dram_bytes = fetch_bytes
        noc_send = self.noc.send_fast

        # Request message: core tile -> home tile.
        time = noc_send(core_id, home, CONTROL_MESSAGE_BYTES, issue_time)

        # Directory consultation and coherence actions.
        if is_write:
            extra = directory.write(line, core_id, self.config.n_cores,
                                    self.line_size).extra_hops_messages
        else:
            extra = directory.read_fast(line, core_id, self.config.n_cores,
                                        self.line_size)
        if extra:
            coherence_done = time
            for src, dst, payload in extra:
                sent = noc_send(src, dst, payload, time)
                if sent > coherence_done:
                    coherence_done = sent
            if coherence_done > time:
                time = coherence_done

        # L2 slice lookup at the home tile.
        shared_attaches = self._shared_attaches
        if shared_attaches:
            # Same state transitions and counters as access_hit, plus the
            # first-touch flag that credits a slice prefetcher whose line
            # a fetch found resident.
            hit_state = l2.access_fast(addr,
                                       fetch_bytes if fetch_bytes > 1 else 1,
                                       is_write, time)
            l2_hit = hit_state is not None
            if l2_hit and hit_state[1]:
                self.stats.cores[home].prefetches_useful += 1
        else:
            l2_hit = l2.access_hit(addr,
                                   fetch_bytes if fetch_bytes > 1 else 1,
                                   is_write, time)
        time += self._l2_hit_latency
        lookup_done = time
        shared_pos = self._shared_pos
        if l2_hit:
            if shared_pos == 2:
                core_stats.l2_hits += 1
            elif shared_pos == 3:
                core_stats.l3_hits += 1
            else:
                core_stats.bump_level(shared_pos, hit=True)
        else:
            if shared_pos == 2:
                core_stats.l2_misses += 1
            elif shared_pos == 3:
                core_stats.l3_misses += 1
            else:
                core_stats.bump_level(shared_pos, hit=False)
            # Miss in the shared level: go to the memory controller and DRAM.
            mc_index, mc_tile = self.memory_controller(addr)
            time = noc_send(home, mc_tile, CONTROL_MESSAGE_BYTES, time)
            time = self.dram.access(mc_index, line, dram_bytes, time,
                                    is_write=False)
            time = noc_send(mc_tile, home, dram_bytes, time)
            l2_sectors = None
            if l2.sector_size:
                l2_sectors = (l2.sector_mask(addr, dram_bytes)
                              if dram_bytes < self.line_size
                              else full_mask(l2.sectors_per_line))
            if l2.fill_fast(addr, time, time, False, is_write, l2_sectors):
                self._handle_l2_eviction(home, l2, time)

        # Data response: home tile -> requesting core.
        time = noc_send(home, core_id, fetch_bytes, time)
        if demand and shared_attaches:
            # The slice's prefetchers observe the demand fetch that just
            # consulted it; their requests issue at the slice's lookup
            # time, after the demand's own reservations.
            for attach in shared_attaches:
                if (attach.notify_hits if l2_hit
                        else attach.notify_enabled)[home]:
                    self._notify(attach, home, pc, addr, size, is_write,
                                 l2_hit, lookup_done)
        return time, l2_hit

    # ------------------------------------------------------------------
    # Evictions and write-backs
    # ------------------------------------------------------------------
    def _handle_l2_eviction(self, home: int, cache, now: float) -> None:
        for attach in self._shared_attaches:
            if attach.has_on_eviction[home]:
                attach.prefetchers[home].on_eviction(
                    cache.victim_addr, cache.victim_touched, now)
        if not cache.victim_dirty:
            return
        victim_addr = cache.victim_addr
        # memory_controller, inlined (no tuple built).
        if self._line_shift is not None:
            mc_index = (victim_addr >> self._line_shift) % self._num_mcs
        else:
            mc_index = (victim_addr // self.line_size) % self._num_mcs
        self.noc.send_fast(home, self._mc_tiles[mc_index], self.line_size,
                           now)
        self.dram.access(mc_index, victim_addr, self.line_size, now,
                         is_write=True)

    # ------------------------------------------------------------------
    # Prefetcher plumbing
    # ------------------------------------------------------------------
    def _notify(self, attach: _Attach, owner: int, pc: int, addr: int,
                size: int, is_write: bool, hit: bool, now: float) -> None:
        """Show one access to ``owner``'s prefetcher in ``attach`` and issue
        whatever it requests."""
        ctx = self._ctx
        ctx.core_id = owner
        ctx.pc = pc
        ctx.addr = addr
        ctx.size = size
        ctx.is_write = is_write
        ctx.hit = hit
        ctx.now = now
        requests = attach.prefetchers[owner].on_access(ctx)
        if requests:
            self._issue_requests(attach, owner, requests, now)

    def _issue_requests(self, attach: _Attach, owner: int,
                        requests: List[PrefetchRequest], now: float) -> None:
        """Issue one prefetcher's requests through ``attach.issue``:
        resident-skip early-out, ``depends_on_previous`` chaining, and
        ``on_fill`` follow-on requests."""
        issue = attach.issue
        level = attach.level_index
        cache = attach.caches[owner]
        if attach.skip_resident[owner]:
            # A resident full-line request completes at its issue time
            # with no other effect, and most generated requests are
            # exactly that.
            index = cache._index
            line_shift = cache._line_shift
            set_mask = cache._set_mask
            tag_shift = cache._tag_shift
            previous_completion = now
            for request in requests:
                issue_at = (previous_completion
                            if request.depends_on_previous else now)
                addr = request.addr
                if index[(addr >> line_shift) & set_mask].get(
                        addr >> tag_shift) is not None:
                    previous_completion = issue_at
                    continue
                previous_completion = issue(self, owner, request, issue_at,
                                            level)
            return
        on_fill = (attach.prefetchers[owner].on_fill
                   if attach.has_on_fill[owner] else None)
        previous_completion = now
        for request in requests:
            issue_at = (previous_completion
                        if request.depends_on_previous else now)
            completion = issue(self, owner, request, issue_at, level)
            previous_completion = completion
            if on_fill is not None:
                follow_on = on_fill(request.addr, completion)
                if follow_on:
                    self._issue_requests(attach, owner, follow_on,
                                         completion)

    def _issue_shared_prefetch(self, home: int, request: PrefetchRequest,
                               now: float, level: int) -> float:
        """Issue one slice-local prefetch: fetch from DRAM into the home
        slice of the shared level (``level``).  The slice is the line's
        coherence home, so no directory interaction is needed (private
        copies are unaffected); the cost is MC/DRAM traffic and slice
        capacity.  Issue/usefulness statistics account to the slice's
        tile."""
        if self._ideal:
            return now
        l2 = self.l2[home]
        addr = request.addr
        if l2._tag_shift is not None:
            way = l2._index[(addr >> l2._line_shift)
                            & l2._set_mask].get(addr >> l2._tag_shift)
        else:
            way = l2._way_of(addr)
        size = request.size
        line_size = self.line_size
        fetch_bytes = size if size < line_size else line_size
        sectors = None
        if l2.sector_size:
            sectors = self._sector_mask_for_prefetch(l2, addr, fetch_bytes)
        if way is not None:
            if not l2.sector_size:
                return now  # already resident in the slice
            if (l2._sector_valid[way] & sectors) == sectors:
                return now
        slice_stats = self.stats.cores[home]
        slice_stats.prefetches_issued += 1
        if request.is_indirect:
            slice_stats.indirect_prefetches_issued += 1
        else:
            slice_stats.stream_prefetches_issued += 1
        noc_bytes = fetch_bytes if self.config.partial_noc else line_size
        dram_bytes = fetch_bytes if self.config.partial_dram else line_size
        if self._line_shift is not None:
            line = addr & self._line_mask
            mc_index = (addr >> self._line_shift) % self._num_mcs
        else:
            line = self.line_addr(addr)
            mc_index = (addr // self.line_size) % self._num_mcs
        mc_tile = self._mc_tiles[mc_index]
        noc_send = self.noc.send_fast
        time = noc_send(home, mc_tile, CONTROL_MESSAGE_BYTES, now)
        time = self.dram.access(mc_index, line, dram_bytes, time,
                                is_write=False)
        time = noc_send(mc_tile, home, noc_bytes, time)
        if l2.fill_fast(addr, now, time, True, False, sectors):
            self._handle_l2_eviction(home, l2, time)
        return time

    def software_prefetch(self, core_id: int, addr: int, now: float) -> float:
        """Issue a software prefetch (non-binding, full line)."""
        self.stats.cores[core_id].sw_prefetches_issued += 1
        request = PrefetchRequest(addr=addr, size=self.line_size)
        return self.issue_prefetch(core_id, request, now)

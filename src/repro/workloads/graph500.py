"""Graph500 breadth-first search workload (Section 5.3).

BFS over a power-law graph.  Each level's frontier is an array of vertex
ids; processing a frontier element ``u = frontier[i]`` requires::

    u      = frontier[i]              # INDEX    (sequential frontier scan)
    start  = row_ptr[u]               # INDIRECT, 8-byte elements (shift = 3)
    ...
    w      = col_idx[start + k]       # INDEX    (scan of u's neighbour list)
    seen   = visited[w >> 3]          # INDIRECT, bit vector (shift = -3)
    parent[w] = u                     # INDIRECT store (on discovery)

The ``row_ptr[frontier[i]]`` load whose *value* then positions the
``col_idx`` scan makes this a multi-level indirection (Listing 3), and the
bit-vector visited test exercises the negative shift (-3) of Table 2.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.mem_image import MemoryImage
from repro.sim.trace import AccessKind, Trace
from repro.workloads.base import Workload, WorkloadBuild, pc_of
from repro.workloads.emit import RowBlocks, TraceSlots
from repro.workloads.graphs import CSRGraph, bfs_levels, power_law_graph


class Graph500Workload(Workload):
    """BFS over a power-law (Graph500-style) graph."""

    name = "graph500"

    PC_FRONTIER = pc_of(50)
    PC_ROW_PTR = pc_of(51)
    PC_COL_IDX = pc_of(52)
    PC_VISITED = pc_of(53)
    PC_PARENT = pc_of(54)
    PC_SW_PREFETCH = pc_of(55)

    def __init__(self, n_vertices: int = 4096, avg_degree: float = 12.0,
                 seed: int = 1) -> None:
        super().__init__(seed=seed)
        self.n_vertices = n_vertices
        self.avg_degree = avg_degree

    # ------------------------------------------------------------------
    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        graph = power_law_graph(self.n_vertices, self.avg_degree, seed=self.seed)
        levels = bfs_levels(graph, root=0)
        image = MemoryImage()
        image.add_array("row_ptr", graph.row_ptr)
        image.add_array("col_idx", graph.col_idx)
        # One concatenated frontier array; levels are contiguous slices.
        frontier_all = np.concatenate(levels).astype(np.int32)
        image.add_array("frontier", frontier_all)
        image.add_array("visited", np.zeros(self.n_vertices, dtype=np.uint8),
                        elem_size=1 / 8, length=self.n_vertices, writable=True)
        image.add_array("parent", np.full(self.n_vertices, -1, dtype=np.int32),
                        writable=True)
        # Level-synchronous BFS: each level is split across the cores, so a
        # core's trace is its chunk of level 0, then of level 1, ...
        level_first = np.cumsum([0] + [len(level) for level in levels])
        positions: List[List[np.ndarray]] = [[] for _ in range(n_cores)]
        for first, level in zip(level_first, levels):
            for core_id, chunk in enumerate(self.partition(len(level), n_cores)):
                positions[core_id].append(
                    np.arange(first + chunk.start, first + chunk.stop))
        # A level's pass sees every vertex of that level and the ones before
        # it as visited (the root, then each level's neighbours once that
        # level is done): a neighbour is discovered iff it is deeper.
        depth = np.repeat(np.arange(len(levels)), np.diff(level_first))
        vertex_depth = np.full(self.n_vertices, len(levels))
        vertex_depth[frontier_all] = depth
        traces = [self._core_trace(core_id, np.concatenate(positions[core_id]),
                                   frontier_all, depth, vertex_depth, graph,
                                   image, software_prefetch,
                                   sw_prefetch_distance)
                  for core_id in range(n_cores)]
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"vertices": self.n_vertices,
                                       "edges": graph.num_edges,
                                       "levels": len(levels)})

    # ------------------------------------------------------------------
    def _core_trace(self, core_id: int, positions: np.ndarray,
                    frontier: np.ndarray, depth: np.ndarray,
                    vertex_depth: np.ndarray, graph: CSRGraph,
                    image: MemoryImage, software_prefetch: bool,
                    distance: int) -> Trace:
        col_idx = graph.col_idx
        vertices = frontier[positions]
        first = graph.row_ptr[vertices]
        end = graph.row_ptr[vertices + 1]
        loop = RowBlocks(end - first, head=3, width=6)
        j = loop.index(first)
        neighbor = col_idx[j]
        discovered = vertex_depth[neighbor] > depth[positions][loop.item_row]
        slots = TraceSlots(loop.size)
        slots.load(loop.head(0), self.PC_FRONTIER,
                   image.addrs("frontier", positions), size=4,
                   kind=AccessKind.INDEX)
        # Row pointer is indexed by the frontier *value*: an indirect
        # access whose own value positions the neighbour scan below.
        slots.load(loop.head(1), self.PC_ROW_PTR,
                   image.addrs("row_ptr", vertices), kind=AccessKind.INDIRECT)
        slots.compute(loop.head(2), 2)
        if software_prefetch:
            ahead = j + distance < end[loop.item_row]
            slots.sw_prefetch(loop.item(0)[ahead], self.PC_SW_PREFETCH,
                              image.addrs("visited", col_idx[j[ahead] + distance]))
        slots.load(loop.item(1), self.PC_COL_IDX, image.addrs("col_idx", j),
                   size=4, kind=AccessKind.INDEX)
        slots.load(loop.item(2), self.PC_VISITED,
                   image.addrs("visited", neighbor), size=1,
                   kind=AccessKind.INDIRECT)
        slots.compute(loop.item(3), 1)
        slots.store(loop.item(4)[discovered], self.PC_PARENT,
                    image.addrs("parent", neighbor[discovered]), size=4,
                    kind=AccessKind.INDIRECT)
        slots.compute(loop.item(5), discovered)
        return slots.trace(core_id)

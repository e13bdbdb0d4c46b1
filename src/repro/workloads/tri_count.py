"""Triangle counting workload (Section 5.3).

The paper's triangle-counting code works on acyclic directed graphs and
converts each vertex's neighbour list into a bit vector that is then probed
indirectly while scanning the two-hop neighbourhood::

    u      = col_idx[j]               # INDEX  (scan of v's neighbours)
    start  = row_ptr[u]               # INDIRECT (8-byte elements)
    w      = col_idx[start + k]       # INDEX  (scan of u's neighbours)
    bit    = bitvec[w >> 3]           # INDIRECT, bit vector (shift = -3,
                                      #  coefficient 1/8 — Table 2)

Loops here have small trip counts (a vertex's out-degree), which is what
makes triangle counting the workload with late prefetches and the strongest
sensitivity to the PT size and prefetch distance in the paper (Figures 14
and 16).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.mem_image import MemoryImage
from repro.sim.trace import AccessKind, Trace
from repro.workloads.base import Workload, WorkloadBuild, pc_of
from repro.workloads.emit import RowBlocks, TraceSlots
from repro.workloads.graphs import CSRGraph, power_law_graph


class TriangleCountWorkload(Workload):
    """Triangle counting by neighbourhood bit-vector intersection."""

    name = "tri_count"

    PC_ROW_PTR_V = pc_of(60)
    PC_COL_IDX_V = pc_of(61)
    PC_ROW_PTR_U = pc_of(62)
    PC_COL_IDX_U = pc_of(63)
    PC_BITVEC_SET = pc_of(64)
    PC_BITVEC_TEST = pc_of(65)
    PC_SW_PREFETCH = pc_of(66)

    def __init__(self, n_vertices: int = 2048, avg_degree: float = 6.0,
                 seed: int = 1, max_two_hop_per_vertex: int = 128) -> None:
        super().__init__(seed=seed)
        self.n_vertices = n_vertices
        self.avg_degree = avg_degree
        self.max_two_hop_per_vertex = max_two_hop_per_vertex

    # ------------------------------------------------------------------
    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        graph = power_law_graph(self.n_vertices, self.avg_degree,
                                seed=self.seed, acyclic=True)
        image = MemoryImage()
        image.add_array("row_ptr", graph.row_ptr)
        image.add_array("col_idx", graph.col_idx)
        image.add_array("bitvec", np.zeros(self.n_vertices, dtype=np.uint8),
                        elem_size=1 / 8, length=self.n_vertices, writable=True)
        traces: List[Trace] = []
        for core_id, vertices in enumerate(self.partition(self.n_vertices,
                                                          n_cores)):
            traces.append(self._core_trace(core_id, vertices, graph, image,
                                           software_prefetch,
                                           sw_prefetch_distance))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"vertices": self.n_vertices,
                                       "edges": graph.num_edges})

    # ------------------------------------------------------------------
    def _core_trace(self, core_id: int, vertices: range, graph: CSRGraph,
                    image: MemoryImage, software_prefetch: bool,
                    distance: int) -> Trace:
        col_idx = graph.col_idx
        row_ptr = graph.row_ptr
        vertices = np.arange(vertices.start, vertices.stop)
        first = row_ptr[vertices]
        degree = row_ptr[vertices + 1] - first
        # Per vertex: a head, a bit-vector store per neighbour u, then per
        # u a header and a scan of u's own neighbours, until
        # max_two_hop_per_vertex of those have been tested (the budget
        # leaves a prefix of v's neighbours active).
        neighbors = RowBlocks(degree)
        j = neighbors.index(first)
        u = col_idx[j]
        u_degree = row_ptr[u + 1] - row_ptr[u]
        tested_before = np.cumsum(u_degree) - u_degree
        tested_before -= tested_before[np.arange(len(j)) - neighbors.rank]
        budget = np.maximum(self.max_two_hop_per_vertex - tested_before, 0)
        active = budget > 0
        taken = np.minimum(u_degree, budget)[active]
        u = u[active]
        intersect = RowBlocks(np.bincount(neighbors.item_row[active],
                                          minlength=len(vertices)),
                              width=3, inner=4 * taken)
        loop = RowBlocks(degree, head=1, width=3, tail=intersect.sizes)
        intersect.place(loop.tail(0))
        scan = RowBlocks(taken, width=4, start=intersect.item(3))
        k = scan.index(row_ptr[u])
        slots = TraceSlots(loop.size)
        slots.load(loop.head(0), self.PC_ROW_PTR_V,
                   image.addrs("row_ptr", vertices), kind=AccessKind.STREAM)
        # Build the bit vector of v's neighbourhood (streaming writes).
        slots.load(loop.item(0), self.PC_COL_IDX_V, image.addrs("col_idx", j),
                   size=4, kind=AccessKind.INDEX)
        slots.store(loop.item(1), self.PC_BITVEC_SET,
                    image.addrs("bitvec", col_idx[j]), size=1,
                    kind=AccessKind.INDIRECT)
        slots.compute(loop.item(2), 1)
        # Intersect each neighbour's neighbour list with the bit vector.
        slots.load(intersect.item(0), self.PC_COL_IDX_V,
                   image.addrs("col_idx", j[active]), size=4,
                   kind=AccessKind.INDEX)
        slots.load(intersect.item(1), self.PC_ROW_PTR_U,
                   image.addrs("row_ptr", u), kind=AccessKind.INDIRECT)
        slots.compute(intersect.item(2), 1)
        if software_prefetch:
            ahead = k + distance < row_ptr[u + 1][scan.item_row]
            slots.sw_prefetch(scan.item(0)[ahead], self.PC_SW_PREFETCH,
                              image.addrs("bitvec", col_idx[k[ahead] + distance]))
        slots.load(scan.item(1), self.PC_COL_IDX_U, image.addrs("col_idx", k),
                   size=4, kind=AccessKind.INDEX)
        slots.load(scan.item(2), self.PC_BITVEC_TEST,
                   image.addrs("bitvec", col_idx[k]), size=1,
                   kind=AccessKind.INDIRECT)
        slots.compute(scan.item(3), 2)   # bit test and triangle count update
        return slots.trace(core_id)

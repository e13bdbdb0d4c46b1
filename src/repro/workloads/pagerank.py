"""Pagerank workload (Section 5.3).

Pull-style pagerank over a CSR graph: for every vertex, the new rank is the
weighted sum of its in-neighbours' ranks divided by their out-degrees.  The
memory pattern per edge is::

    j   = col_idx[e]          # INDEX  (sequential scan of the edge array)
    r   = rank[j]             # INDIRECT, 8-byte elements  (shift = 3)
    d   = out_degree[j]       # INDIRECT, 4-byte elements  (shift = 2)

``rank`` and ``out_degree`` are indexed by the *same* index stream, so this
workload exercises IMP's multi-way indirection support (Listing 2 of the
paper).  Row-pointer reads and the rank store are streaming accesses.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.mem_image import MemoryImage
from repro.sim.trace import AccessKind, Trace
from repro.workloads.base import Workload, WorkloadBuild, pc_of
from repro.workloads.emit import RowBlocks, TraceSlots
from repro.workloads.graphs import CSRGraph, power_law_graph


class PagerankWorkload(Workload):
    """Iterative pagerank on a power-law graph."""

    name = "pagerank"

    PC_ROW_PTR = pc_of(10)
    PC_COL_IDX = pc_of(11)
    PC_RANK = pc_of(12)
    PC_DEGREE = pc_of(13)
    PC_STORE = pc_of(14)
    PC_SW_PREFETCH = pc_of(15)

    def __init__(self, n_vertices: int = 4096, avg_degree: float = 8.0,
                 iterations: int = 1, seed: int = 1) -> None:
        super().__init__(seed=seed)
        self.n_vertices = n_vertices
        self.avg_degree = avg_degree
        self.iterations = iterations

    # ------------------------------------------------------------------
    def _layout(self, graph: CSRGraph) -> MemoryImage:
        image = MemoryImage()
        image.add_array("row_ptr", graph.row_ptr)
        image.add_array("col_idx", graph.col_idx)
        image.add_array("rank", np.ones(self.n_vertices, dtype=np.float64))
        image.add_array("out_degree", graph.out_degrees().astype(np.int32))
        image.add_array("new_rank", np.zeros(self.n_vertices, dtype=np.float64),
                        writable=True)
        return image

    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        graph = power_law_graph(self.n_vertices, self.avg_degree, seed=self.seed)
        image = self._layout(graph)
        traces: List[Trace] = []
        chunks = self.partition(self.n_vertices, n_cores)
        for core_id, vertices in enumerate(chunks):
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
        vertices = np.tile(np.arange(vertices.start, vertices.stop),
                           self.iterations)
        first = graph.row_ptr[vertices]
        end = graph.row_ptr[vertices + 1]
        loop = RowBlocks(end - first, head=2, width=5, tail=2)
        edge = loop.index(first)
        neighbor = graph.col_idx[edge]
        slots = TraceSlots(loop.size)
        # Row bounds: streaming loads of the row-pointer array.
        slots.load(loop.head(0), self.PC_ROW_PTR,
                   image.addrs("row_ptr", vertices), kind=AccessKind.STREAM)
        slots.compute(loop.head(1), 2)
        if software_prefetch:
            ahead = edge + distance < end[loop.item_row]
            slots.sw_prefetch(loop.item(0)[ahead], self.PC_SW_PREFETCH,
                              image.addrs("rank",
                                          graph.col_idx[edge[ahead] + distance]))
        slots.load(loop.item(1), self.PC_COL_IDX, image.addrs("col_idx", edge),
                   size=4, kind=AccessKind.INDEX)
        slots.load(loop.item(2), self.PC_RANK, image.addrs("rank", neighbor),
                   kind=AccessKind.INDIRECT)
        slots.load(loop.item(3), self.PC_DEGREE,
                   image.addrs("out_degree", neighbor), size=4,
                   kind=AccessKind.INDIRECT)
        slots.compute(loop.item(4), 3)                # divide and accumulate
        slots.store(loop.tail(0), self.PC_STORE,
                    image.addrs("new_rank", vertices), kind=AccessKind.STREAM)
        slots.compute(loop.tail(1), 2)
        return slots.trace(core_id)

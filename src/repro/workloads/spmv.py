"""Sparse matrix-vector multiplication (SpMV) from HPCG (Section 5.3).

For every row, the kernel scans the row's non-zeros and indirectly gathers
the corresponding elements of the dense input vector::

    c = col_idx[j]        # INDEX   (sequential scan)
    v = values[j]         # STREAM  (same scan, different array)
    x = vec[c]            # INDIRECT, 8-byte elements (shift = 3)
    y[row] += v * x       # STREAM store

This is the cleanest A[B[i]] pattern of the suite and the workload on which
IMP achieves near-perfect coverage in the paper (Table 3).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.mem_image import MemoryImage
from repro.sim.trace import AccessKind, Trace
from repro.workloads.base import Workload, WorkloadBuild, pc_of
from repro.workloads.emit import RowBlocks, TraceSlots
from repro.workloads.sparse import CSRMatrix, stencil_27pt


class SpMVWorkload(Workload):
    """HPCG-style SpMV on a 27-point stencil matrix."""

    name = "spmv"

    PC_ROW_PTR = pc_of(20)
    PC_COL_IDX = pc_of(21)
    PC_VALUES = pc_of(22)
    PC_VECTOR = pc_of(23)
    PC_STORE = pc_of(24)
    PC_SW_PREFETCH = pc_of(25)

    def __init__(self, nx: int = 14, ny: int = 14, nz: int = 14,
                 seed: int = 1, matrix: Optional[CSRMatrix] = None,
                 permute_columns: bool = True) -> None:
        super().__init__(seed=seed)
        self.nx, self.ny, self.nz = nx, ny, nz
        # The constructor parameter and the lazily built matrix are kept
        # apart: only a user-*supplied* matrix makes this workload
        # unserialisable (spec_params), while the derived one is always
        # reconstructible from (nx, ny, nz, seed).
        self._matrix = matrix
        self._matrix_cache: Optional[CSRMatrix] = None
        #: HPCG's optimised multicore implementation (Park et al.) reorders
        #: the unknowns, which destroys the natural grid ordering of the
        #: column indices.  At full problem scale the vector accesses are
        #: irregular either way; at our scaled-down sizes the permutation is
        #: what preserves that irregularity (see DESIGN.md).
        self.permute_columns = permute_columns

    def matrix(self) -> CSRMatrix:
        """The sparse matrix used by the kernel (built lazily)."""
        if self._matrix is not None:
            return self._matrix
        if self._matrix_cache is None:
            matrix = stencil_27pt(self.nx, self.ny, self.nz, seed=self.seed)
            if self.permute_columns:
                permutation = self.rng(1).permutation(matrix.num_rows)
                matrix = CSRMatrix(row_ptr=matrix.row_ptr,
                                   col_idx=permutation[matrix.col_idx].astype(
                                       matrix.col_idx.dtype),
                                   values=matrix.values)
            self._matrix_cache = matrix
        return self._matrix_cache

    # ------------------------------------------------------------------
    def _layout(self, matrix: CSRMatrix) -> MemoryImage:
        image = MemoryImage()
        image.add_array("row_ptr", matrix.row_ptr)
        image.add_array("col_idx", matrix.col_idx)
        image.add_array("values", matrix.values)
        image.add_array("vec", np.ones(matrix.num_rows, dtype=np.float64))
        image.add_array("result", np.zeros(matrix.num_rows, dtype=np.float64),
                        writable=True)
        return image

    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        matrix = self.matrix()
        image = self._layout(matrix)
        traces: List[Trace] = []
        for core_id, rows in enumerate(self.partition(matrix.num_rows, n_cores)):
            traces.append(self._core_trace(core_id, rows, matrix, image,
                                           software_prefetch,
                                           sw_prefetch_distance))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"rows": matrix.num_rows,
                                       "nonzeros": matrix.num_nonzeros})

    # ------------------------------------------------------------------
    def _core_trace(self, core_id: int, rows: range, matrix: CSRMatrix,
                    image: MemoryImage, software_prefetch: bool,
                    distance: int) -> Trace:
        rows = np.arange(rows.start, rows.stop)
        first = matrix.row_ptr[rows]
        end = matrix.row_ptr[rows + 1]
        loop = RowBlocks(end - first, head=2, width=5, tail=1)
        j = loop.index(first)
        slots = TraceSlots(loop.size)
        slots.load(loop.head(0), self.PC_ROW_PTR, image.addrs("row_ptr", rows),
                   kind=AccessKind.STREAM)
        slots.compute(loop.head(1), 1)
        if software_prefetch:
            ahead = j + distance < end[loop.item_row]
            target = matrix.col_idx[j[ahead] + distance]
            slots.sw_prefetch(loop.item(0)[ahead], self.PC_SW_PREFETCH,
                              image.addrs("vec", target))
        slots.load(loop.item(1), self.PC_COL_IDX, image.addrs("col_idx", j),
                   size=4, kind=AccessKind.INDEX)
        slots.load(loop.item(2), self.PC_VALUES, image.addrs("values", j),
                   kind=AccessKind.STREAM)
        slots.load(loop.item(3), self.PC_VECTOR,
                   image.addrs("vec", matrix.col_idx[j]),
                   kind=AccessKind.INDIRECT)
        slots.compute(loop.item(4), 2)                # multiply-accumulate
        slots.store(loop.tail(0), self.PC_STORE, image.addrs("result", rows),
                    kind=AccessKind.STREAM)
        return slots.trace(core_id)

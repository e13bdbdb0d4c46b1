"""Symmetric Gauss-Seidel smoother (SymGS) from HPCG (Section 5.3).

SymGS performs a forward triangular solve followed by a backward one over
the same sparse matrix.  Rows are processed in blocks (the HPCG multicolour
/ level-scheduled variant groups rows for parallelism); within each row the
access pattern is the same gather as SpMV, but the smoothed vector is also
*written* indirectly at the row position, and the backward sweep scans the
index array with a negative stride — exercising IMP's handling of descending
streams and frequent pattern re-detection (the paper notes SymGS is the one
workload that stresses the IPD, Figure 15).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.mem_image import MemoryImage
from repro.sim.trace import AccessKind, Trace
from repro.workloads.base import Workload, WorkloadBuild, pc_of
from repro.workloads.emit import RowBlocks, TraceSlots
from repro.workloads.sparse import CSRMatrix, stencil_27pt


class SymGSWorkload(Workload):
    """Forward + backward Gauss-Seidel sweeps on a stencil matrix."""

    name = "symgs"

    PC_ROW_PTR_F = pc_of(30)
    PC_COL_IDX_F = pc_of(31)
    PC_VALUES_F = pc_of(32)
    PC_VECTOR_F = pc_of(33)
    PC_STORE_F = pc_of(34)
    PC_ROW_PTR_B = pc_of(35)
    PC_COL_IDX_B = pc_of(36)
    PC_VALUES_B = pc_of(37)
    PC_VECTOR_B = pc_of(38)
    PC_STORE_B = pc_of(39)
    PC_SW_PREFETCH = pc_of(40)

    def __init__(self, nx: int = 12, ny: int = 12, nz: int = 12,
                 seed: int = 1, matrix: Optional[CSRMatrix] = None,
                 permute_columns: bool = True) -> None:
        super().__init__(seed=seed)
        self.nx, self.ny, self.nz = nx, ny, nz
        # User-supplied vs lazily derived matrix kept apart so the lazy
        # build does not poison spec serialisation (see SpMVWorkload).
        self._matrix = matrix
        self._matrix_cache: Optional[CSRMatrix] = None
        # Same column permutation rationale as SpMVWorkload (see DESIGN.md).
        self.permute_columns = permute_columns

    def matrix(self) -> CSRMatrix:
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

    def _layout(self, matrix: CSRMatrix) -> MemoryImage:
        image = MemoryImage()
        image.add_array("row_ptr", matrix.row_ptr)
        image.add_array("col_idx", matrix.col_idx)
        image.add_array("values", matrix.values)
        image.add_array("xvec", np.ones(matrix.num_rows, dtype=np.float64),
                        writable=True)
        image.add_array("rhs", np.ones(matrix.num_rows, dtype=np.float64))
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
    def _sweep(self, slots: TraceSlots, loop: RowBlocks, rows: np.ndarray,
               matrix: CSRMatrix, image: MemoryImage, software_prefetch: bool,
               distance: int, *, forward: bool) -> None:
        if forward:
            pcs = (self.PC_ROW_PTR_F, self.PC_COL_IDX_F, self.PC_VALUES_F,
                   self.PC_VECTOR_F, self.PC_STORE_F)
        else:
            pcs = (self.PC_ROW_PTR_B, self.PC_COL_IDX_B, self.PC_VALUES_B,
                   self.PC_VECTOR_B, self.PC_STORE_B)
        pc_row, pc_col, pc_val, pc_vec, pc_store = pcs
        first = matrix.row_ptr[rows][loop.item_row]
        end = matrix.row_ptr[rows + 1][loop.item_row]
        # The backward sweep scans each row's non-zeros in reverse.
        j = first + loop.rank if forward else end - 1 - loop.rank
        slots.load(loop.head(0), pc_row, image.addrs("row_ptr", rows),
                   kind=AccessKind.STREAM)
        slots.load(loop.head(1), pc_store, image.addrs("rhs", rows),
                   kind=AccessKind.STREAM)
        slots.compute(loop.head(2), 2)
        if software_prefetch:
            target = j + distance if forward else j - distance
            ahead = (first <= target) & (target < end)
            slots.sw_prefetch(loop.item(0)[ahead], self.PC_SW_PREFETCH,
                              image.addrs("xvec", matrix.col_idx[target[ahead]]))
        slots.load(loop.item(1), pc_col, image.addrs("col_idx", j), size=4,
                   kind=AccessKind.INDEX)
        slots.load(loop.item(2), pc_val, image.addrs("values", j),
                   kind=AccessKind.STREAM)
        slots.load(loop.item(3), pc_vec, image.addrs("xvec", matrix.col_idx[j]),
                   kind=AccessKind.INDIRECT)
        slots.compute(loop.item(4), 2)
        # The smoothed value is written back to the row's vector entry.
        slots.compute(loop.tail(0), 4)    # divide by the diagonal, busy-wait check
        slots.store(loop.tail(1), pc_store, image.addrs("xvec", rows),
                    kind=AccessKind.STREAM)

    def _core_trace(self, core_id: int, rows: range, matrix: CSRMatrix,
                    image: MemoryImage, software_prefetch: bool,
                    distance: int) -> Trace:
        forward_rows = np.arange(rows.start, rows.stop)
        backward_rows = forward_rows[::-1]
        counts = np.diff(matrix.row_ptr)
        layout = dict(head=3, width=5, tail=2)
        forward = RowBlocks(counts[forward_rows], **layout)
        backward = RowBlocks(counts[backward_rows], start=forward.size, **layout)
        slots = TraceSlots(forward.size + backward.size)
        self._sweep(slots, forward, forward_rows, matrix, image,
                    software_prefetch, distance, forward=True)
        self._sweep(slots, backward, backward_rows, matrix, image,
                    software_prefetch, distance, forward=False)
        return slots.trace(core_id)

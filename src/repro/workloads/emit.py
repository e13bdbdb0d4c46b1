"""Column emitters: per-core traces built with numpy, not per access.

A paper workload's trace is a loop nest — for every row (a matrix row, a
vertex, a rating, a query) a few *head* instructions, then a fixed group
of instructions per inner item (a non-zero, an edge, a candidate), then a
few *tail* instructions.  Rather than appending one access at a time
through :class:`repro.sim.trace.TraceBuilder`, an emitter

1. lays the nest out as *slots*, one per instruction in program order
   (:class:`RowBlocks`, the CSR block layout: a row's slots start at the
   exclusive prefix sum of the row sizes before it);
2. fills whole slot columns at once (:class:`TraceSlots`: "slot ``item(2)``
   of every item loads ``vec[col_idx[j]]``"), leaving conditional slots
   (a software prefetch past the end of its row, say) empty;
3. folds each run of compute slots into the *lead* of the next memory row,
   exactly as ``TraceBuilder`` does, and hands the six columns to
   :meth:`repro.sim.trace.Trace.from_columns`.

The result is byte-identical to the per-access loop it replaces (pinned by
``tests/data/trace_digests.json``), so every emitter reads as a short row
template.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.sim.trace import (
    KIND_CODES,
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_SW_PREFETCH,
    AccessKind,
    Trace,
)

#: Opcode of a slot nothing was emitted into (dropped before folding).
ABSENT = -1

IntOrArray = Union[int, np.ndarray]


def exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    """``out[i] = sum(values[:i])`` as int64."""
    out = np.zeros(len(values), dtype=np.int64)
    np.cumsum(values[:-1], out=out[1:])
    return out


class RowBlocks:
    """Slot layout of one loop level over rows with ``counts[r]`` items.

    Row ``r`` occupies ``head`` slots, then ``counts[r]`` items of
    ``width`` slots each (item ``i`` followed by ``inner[i]`` more slots
    for a nested loop), then ``tail`` slots (a scalar or one per row).
    Rows are laid back to back from slot ``start``, or each from its own
    ``start[r]`` when the level nests inside another (see :meth:`place`).
    """

    def __init__(self, counts: np.ndarray, *, head: int = 0, width: int = 0,
                 tail: IntOrArray = 0, inner: Optional[np.ndarray] = None,
                 start: IntOrArray = 0) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        #: Row of each item, and the item's position within its row.
        self.item_row = np.repeat(np.arange(len(counts)), counts)
        first = exclusive_cumsum(counts)
        self.rank = np.arange(len(self.item_row)) - first[self.item_row]
        spans = np.full(len(self.item_row), width, dtype=np.int64)
        if inner is not None:
            spans += inner
        prefix = np.zeros(len(spans) + 1, dtype=np.int64)
        np.cumsum(spans, out=prefix[1:])
        self._item_offset = head + prefix[:-1] - prefix[first][self.item_row]
        self._tail = tail
        #: Slots per row, and in all rows.
        self.sizes = head + prefix[first + counts] - prefix[first] + tail
        self.size = int(self.sizes.sum())
        self.place(start)

    def place(self, start: IntOrArray) -> None:
        """Lay the rows back to back from slot ``start``, or row ``r``
        from slot ``start[r]``."""
        if np.ndim(start) == 0:
            start = start + exclusive_cumsum(self.sizes)
        self.row_start = np.asarray(start, dtype=np.int64)
        self._item_start = self.row_start[self.item_row] + self._item_offset

    def head(self, slot: int) -> np.ndarray:
        """Slot ``slot`` of every row's head."""
        return self.row_start + slot

    def item(self, slot: int) -> np.ndarray:
        """Slot ``slot`` of every item (``width`` and up: its nested loop)."""
        return self._item_start + slot

    def tail(self, slot: int) -> np.ndarray:
        """Slot ``slot`` of every row's tail."""
        return self.row_start + self.sizes - self._tail + slot

    def index(self, row_first: np.ndarray) -> np.ndarray:
        """CSR index of every item: its row's first index plus its rank."""
        return row_first[self.item_row] + self.rank


class TraceSlots:
    """The slot columns of one core's trace, filled a whole column at a
    time, then folded into a :class:`Trace`."""

    def __init__(self, n_slots: int) -> None:
        # One row per column: op, pc, addr, size, aux.
        self._columns = np.zeros((5, n_slots), dtype=np.int64)
        self._columns[0] = ABSENT
        self.op, self.pc, self.addr, self.size, self.aux = self._columns

    def _put(self, slots: np.ndarray, op: int, pc: int, addr: IntOrArray,
             size: int, aux: IntOrArray) -> None:
        self.op[slots] = op
        self.pc[slots] = pc
        self.addr[slots] = addr
        self.size[slots] = size
        self.aux[slots] = aux

    def load(self, slots: np.ndarray, pc: int, addr: np.ndarray, *,
             size: int = 8, kind: AccessKind = AccessKind.OTHER) -> None:
        self._put(slots, OP_LOAD, pc, addr, size, KIND_CODES[kind])

    def store(self, slots: np.ndarray, pc: int, addr: np.ndarray, *,
              size: int = 8, kind: AccessKind = AccessKind.OTHER) -> None:
        self._put(slots, OP_STORE, pc, addr, size, KIND_CODES[kind])

    def sw_prefetch(self, slots: np.ndarray, pc: int, addr: np.ndarray, *,
                    overhead_ops: int = 3) -> None:
        self._put(slots, OP_SW_PREFETCH, pc, addr, 0, overhead_ops)

    def compute(self, slots: np.ndarray, ops: IntOrArray) -> None:
        """``ops`` non-memory instructions per slot (0 emits nothing)."""
        self._put(slots, OP_COMPUTE, 0, 0, 0, ops)

    def trace(self, core_id: int) -> Trace:
        """Drop empty slots, fold compute runs into the next memory row's
        lead (a trailing run keeps a compute row of its own) and build."""
        columns = self._columns
        if (self.op == ABSENT).any():
            columns = columns[:, self.op != ABSENT]
        op, aux = columns[0], columns[4]
        is_mem = op != OP_COMPUTE
        # Compute ops issued before each slot; a memory row's lead is the
        # part issued since the previous memory row.
        ops_before = np.cumsum(np.where(is_mem, 0, aux))
        mem_ops_before = ops_before[is_mem]
        n_mem = len(mem_ops_before)
        trailing = ((int(ops_before[-1]) if len(op) else 0)
                    - (int(mem_ops_before[-1]) if n_mem else 0))
        rows = np.zeros((6, n_mem + (trailing > 0)), dtype=np.int64)
        rows[:5, :n_mem] = columns[:, is_mem]
        rows[5, :n_mem] = np.diff(mem_ops_before, prepend=0)
        if trailing:
            rows[:, n_mem] = (OP_COMPUTE, 0, 0, 0, trailing, 0)
        return Trace.from_columns(core_id, *rows)

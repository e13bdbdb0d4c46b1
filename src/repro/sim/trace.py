"""Per-core memory trace representation (columnar encoding).

Workloads do not run as native programs inside the simulator; instead they
emit, per core, a trace that captures the instruction and memory behaviour
of the kernel.  Conceptually a trace is a sequence of three entry types:

* :class:`Compute` — a run of non-memory instructions.
* :class:`MemRef` — one load or store, tagged with the access *kind* so that
  the miss breakdown of the paper's Figure 1 / Figure 2 can be reproduced.
* :class:`SwPrefetch` — a software prefetch instruction, used only by the
  "Software Prefetching" configuration (Mowry-style compiler insertion).

Every memory-touching entry carries the program counter of the instruction
that produced it, because both the stream prefetcher and IMP associate
patterns with PCs (Section 3.3.1 of the paper).

Storage layout
--------------

Traces routinely hold hundreds of thousands of dynamic entries per core, so
a :class:`Trace` stores six parallel ``array('q')`` columns rather than one
Python object per entry::

    op    opcode (OP_COMPUTE / OP_LOAD / OP_STORE / OP_SW_PREFETCH)
    pc    program counter            (0 for compute runs)
    addr  byte address               (0 for compute runs)
    size  access size in bytes       (0 for compute runs)
    aux   ops for compute runs, the AccessKind code for loads/stores,
          overhead_ops for software prefetches
    lead  non-memory ops executed immediately before this row's instruction

A run of compute ops is folded into the *lead* column of the next
memory-touching row (the ubiquitous compute-then-load pattern then costs
one row instead of two); a standalone ``OP_COMPUTE`` row appears only for a
trailing compute run or via the object-level ``append`` API.

:meth:`Trace.from_columns` is the producer for the paper workloads: their
emitters (:mod:`repro.workloads.emit`) build whole columns with numpy and
hand them over finished.  :class:`TraceBuilder` produces the same columns
one row at a time for small or irregular generators (the regular kernels,
scenarios, tests) and finishes through ``from_columns`` too.  The summary
counts (instruction count, memory references, per-kind reference counts,
entry count) are derived from the finished columns in one place, once per
trace, not maintained per append.

Core models iterate the columns directly and dispatch on the integer opcode;
the object forms (:class:`MemRef` & co.) are materialised on demand by the
``entries`` property / iteration for tests and offline analysis only — a
row with a non-zero *lead* expands to a :class:`Compute` entry followed by
the row's own entry, so the object view is unchanged from the original
representation.  ``len(trace)`` counts entries (not rows); ``num_rows`` has
the row count.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Union

import numpy as np


class AccessKind(enum.Enum):
    """Classification of a memory reference, used for attribution only.

    The timing model never looks at the kind; it exists so that statistics
    can be broken down exactly the way the paper's motivation figures do.
    """

    #: Sequential read of an index array ``B[i]`` (captured by stream pf).
    INDEX = "index"
    #: Irregular access ``A[B[i]]`` — the pattern IMP targets.
    INDIRECT = "indirect"
    #: Other streaming/strided accesses (e.g. row pointers, output arrays).
    STREAM = "stream"
    #: Everything else (stack, scalars, hash computations, ...).
    OTHER = "other"


#: Integer opcodes stored in the ``op`` column.
OP_COMPUTE = 0
OP_LOAD = 1
OP_STORE = 2
OP_SW_PREFETCH = 3

#: AccessKind <-> small-integer codes stored in the ``aux`` column.
KIND_BY_CODE = tuple(AccessKind)
KIND_CODES = {kind: code for code, kind in enumerate(KIND_BY_CODE)}
NUM_KINDS = len(KIND_BY_CODE)


@dataclass(frozen=True)
class MemRef:
    """A single load or store executed by a core."""

    pc: int
    addr: int
    size: int = 8
    is_write: bool = False
    kind: AccessKind = AccessKind.OTHER

    @property
    def is_read(self) -> bool:
        return not self.is_write


@dataclass(frozen=True)
class Compute:
    """A run of ``ops`` back-to-back non-memory instructions."""

    ops: int = 1


@dataclass(frozen=True)
class SwPrefetch:
    """A software prefetch instruction targeting ``addr``.

    ``overhead_ops`` models the extra address-computation instructions a
    compiler must emit for an indirect prefetch (compute ``i + delta``, load
    ``B[i + delta]``, scale and add) — the instruction-overhead effect shown
    in Figure 10 of the paper.
    """

    pc: int
    addr: int
    overhead_ops: int = 3


TraceEntry = Union[MemRef, Compute, SwPrefetch]

#: One trace column as handed to :meth:`Trace.from_columns`.
Column = Union[Sequence[int], np.ndarray]


class _Summary(NamedTuple):
    instructions: int
    mem_refs: int
    kind_counts: tuple
    entries: int


def _as_column(values: Column) -> array:
    """``values`` as an ``array('q')`` (numpy arrays via one buffer copy)."""
    if isinstance(values, np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.int64)
        column = array("q")
        column.frombytes(memoryview(values).cast("B"))
        return column
    return array("q", values)


class Trace:
    """The instruction/memory trace of a single core (columnar storage)."""

    __slots__ = ("core_id", "op", "pc", "addr", "size", "aux", "lead",
                 "_summary")

    def __init__(self, core_id: int,
                 entries: Optional[Iterable[TraceEntry]] = None) -> None:
        self.core_id = core_id
        self.op = array("q")
        self.pc = array("q")
        self.addr = array("q")
        self.size = array("q")
        self.aux = array("q")
        self.lead = array("q")
        self._summary: Optional[_Summary] = None
        if entries:
            self.extend(entries)

    @classmethod
    def from_columns(cls, core_id: int, op: Column, pc: Column, addr: Column,
                     size: Column, aux: Column, lead: Column) -> "Trace":
        """A trace over six finished, equally long columns.

        Each column may be a sequence of ints or an integer numpy array;
        it is stored as an ``array('q')``.  This is the constructor every
        producer goes through (the paper workloads' column emitters and
        :meth:`TraceBuilder.build`), and the summary counts are derived
        here, once, from the columns themselves.
        """
        trace = cls(core_id)
        trace.op, trace.pc, trace.addr, trace.size, trace.aux, trace.lead = (
            _as_column(column) for column in (op, pc, addr, size, aux, lead))
        rows = len(trace.op)
        if not all(len(column) == rows for column in (
                trace.pc, trace.addr, trace.size, trace.aux, trace.lead)):
            raise ValueError("trace columns differ in length")
        trace._summarise()
        return trace

    def _summarise(self) -> _Summary:
        """Derive (instructions, memory refs, per-kind refs, entries) from
        the columns: a memory row is one instruction, a software prefetch
        ``1 + aux``, a compute row ``aux``, and every row adds its lead
        ops; a non-zero lead is one extra :class:`Compute` entry."""
        op = np.frombuffer(self.op, dtype=np.int64)
        aux = np.frombuffer(self.aux, dtype=np.int64)
        lead = np.frombuffer(self.lead, dtype=np.int64)
        is_mem = (op == OP_LOAD) | (op == OP_STORE)
        instructions = (int(lead.sum()) + int(aux[~is_mem].sum())
                        + int(np.count_nonzero(op != OP_COMPUTE)))
        kind_counts = np.bincount(aux[is_mem], minlength=NUM_KINDS)
        self._summary = _Summary(
            instructions, int(np.count_nonzero(is_mem)),
            tuple(int(count) for count in kind_counts[:NUM_KINDS]),
            len(op) + int(np.count_nonzero(lead)))
        return self._summary

    # ------------------------------------------------------------------
    # Object-level API (compatibility with the original representation)
    # ------------------------------------------------------------------
    def append(self, entry: TraceEntry) -> None:
        if type(entry) is Compute:
            row = (OP_COMPUTE, 0, 0, 0, entry.ops)
        elif type(entry) is MemRef:
            row = (OP_STORE if entry.is_write else OP_LOAD, entry.pc,
                   entry.addr, entry.size, KIND_CODES[entry.kind])
        elif type(entry) is SwPrefetch:
            row = (OP_SW_PREFETCH, entry.pc, entry.addr, 0, entry.overhead_ops)
        else:
            raise TypeError(f"unsupported trace entry {entry!r}")
        for column, value in zip((self.op, self.pc, self.addr, self.size,
                                  self.aux, self.lead), row + (0,)):
            column.append(value)
        self._summary = None

    def extend(self, entries: Iterable[TraceEntry]) -> None:
        for entry in entries:
            self.append(entry)

    def _row_entries(self, row: int) -> Iterator[TraceEntry]:
        """Materialise the entry object(s) encoded by one row."""
        lead = self.lead[row]
        if lead:
            yield Compute(lead)
        op = self.op[row]
        if op == OP_COMPUTE:
            yield Compute(self.aux[row])
        elif op == OP_SW_PREFETCH:
            yield SwPrefetch(pc=self.pc[row], addr=self.addr[row],
                             overhead_ops=self.aux[row])
        else:
            yield MemRef(pc=self.pc[row], addr=self.addr[row],
                         size=self.size[row], is_write=(op == OP_STORE),
                         kind=KIND_BY_CODE[self.aux[row]])

    def entry_at(self, position: int) -> TraceEntry:
        """Materialise the entry object at ``position`` (slow path)."""
        return self.entries[position]

    @property
    def entries(self) -> List[TraceEntry]:
        """Materialised entry objects (slow path — tests / analysis only)."""
        return list(self)

    @property
    def num_rows(self) -> int:
        """Number of storage rows (<= number of entries)."""
        return len(self.op)

    def __iter__(self) -> Iterator[TraceEntry]:
        for row in range(len(self.op)):
            yield from self._row_entries(row)

    def __len__(self) -> int:
        return (self._summary or self._summarise()).entries

    # ------------------------------------------------------------------
    # Summary helpers (used by workload tests and Figure 10)
    # ------------------------------------------------------------------
    @property
    def instruction_count(self) -> int:
        """Total dynamic instruction count represented by the trace.

        Derived once from the columns (not rescanned per call).
        """
        return (self._summary or self._summarise()).instructions

    @property
    def memory_reference_count(self) -> int:
        """Number of demand loads/stores in the trace."""
        return (self._summary or self._summarise()).mem_refs

    def count_by_kind(self) -> dict:
        """Return the number of memory references per :class:`AccessKind`."""
        kind_counts = (self._summary or self._summarise()).kind_counts
        return dict(zip(KIND_BY_CODE, kind_counts))


class TraceBuilder:
    """Row-at-a-time builder that coalesces consecutive compute operations.

    For small or irregular generators (the regular kernels, scenarios and
    tests); the paper workloads emit whole columns with numpy instead (see
    :mod:`repro.workloads.emit`).  Rows are buffered in plain Python lists
    (the cheapest append available) and handed to :meth:`Trace.from_columns`
    at :meth:`build`; pending compute ops are folded into the *lead* column
    of the next memory-touching row.
    """

    __slots__ = ("_core_id", "_pending_ops", "_op", "_pc", "_addr", "_size",
                 "_aux", "_lead", "_built")

    def __init__(self, core_id: int) -> None:
        self._core_id = core_id
        self._pending_ops = 0
        self._op: List[int] = []
        self._pc: List[int] = []
        self._addr: List[int] = []
        self._size: List[int] = []
        self._aux: List[int] = []
        self._lead: List[int] = []
        self._built: Optional[Trace] = None

    def _check_open(self) -> None:
        if self._built is not None:
            raise RuntimeError("TraceBuilder is finished: build() was "
                               "already called, further entries would be "
                               "silently lost")

    def compute(self, ops: int = 1) -> "TraceBuilder":
        """Add ``ops`` non-memory instructions."""
        if ops > 0:
            self._check_open()
            self._pending_ops += ops
        return self

    def _append_row(self, op: int, pc: int, addr: int, size: int,
                    aux: int) -> None:
        self._check_open()
        self._op.append(op)
        self._pc.append(pc)
        self._addr.append(addr)
        self._size.append(size)
        self._aux.append(aux)
        self._lead.append(self._pending_ops)
        self._pending_ops = 0

    def load(self, pc: int, addr: int, *, size: int = 8,
             kind: AccessKind = AccessKind.OTHER) -> "TraceBuilder":
        """Add a load instruction."""
        self._append_row(OP_LOAD, pc, addr, size, KIND_CODES[kind])
        return self

    def store(self, pc: int, addr: int, *, size: int = 8,
              kind: AccessKind = AccessKind.OTHER) -> "TraceBuilder":
        """Add a store instruction."""
        self._append_row(OP_STORE, pc, addr, size, KIND_CODES[kind])
        return self

    def sw_prefetch(self, pc: int, addr: int, *, overhead_ops: int = 3) -> "TraceBuilder":
        """Add a software prefetch instruction."""
        self._append_row(OP_SW_PREFETCH, pc, addr, 0, overhead_ops)
        return self

    def build(self) -> Trace:
        """Finish the trace and return it (idempotent)."""
        if self._built is None:
            trailing, self._pending_ops = self._pending_ops, 0
            if trailing:
                # Trailing compute run gets its own row.
                self._append_row(OP_COMPUTE, 0, 0, 0, trailing)
            self._built = Trace.from_columns(
                self._core_id, self._op, self._pc, self._addr, self._size,
                self._aux, self._lead)
        return self._built

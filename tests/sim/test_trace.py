"""Unit tests for the trace representation (repro.sim.trace)."""

import pytest

from repro.sim.trace import (
    KIND_BY_CODE,
    KIND_CODES,
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_SW_PREFETCH,
    AccessKind,
    Compute,
    MemRef,
    SwPrefetch,
    Trace,
    TraceBuilder,
)


class TestTraceBuilder:
    def test_consecutive_compute_coalesced(self):
        builder = TraceBuilder(core_id=0)
        builder.compute(3).compute(2)
        builder.load(0x400, 0x1000)
        trace = builder.build()
        assert isinstance(trace.entries[0], Compute)
        assert trace.entries[0].ops == 5
        assert isinstance(trace.entries[1], MemRef)

    def test_trailing_compute_flushed_on_build(self):
        builder = TraceBuilder(core_id=0)
        builder.load(0x400, 0x1000).compute(4)
        trace = builder.build()
        assert isinstance(trace.entries[-1], Compute)
        assert trace.entries[-1].ops == 4

    def test_zero_compute_ignored(self):
        trace = TraceBuilder(0).compute(0).load(0x400, 0x1000).build()
        assert len(trace) == 1

    def test_load_store_and_prefetch_entries(self):
        builder = TraceBuilder(core_id=1)
        builder.load(0x400, 0x1000, kind=AccessKind.INDEX)
        builder.store(0x408, 0x2000, kind=AccessKind.STREAM)
        builder.sw_prefetch(0x410, 0x3000, overhead_ops=3)
        trace = builder.build()
        load, store, prefetch = trace.entries
        assert load.is_read and load.kind is AccessKind.INDEX
        assert store.is_write and store.kind is AccessKind.STREAM
        assert isinstance(prefetch, SwPrefetch)
        assert prefetch.overhead_ops == 3


class TestTraceSummaries:
    def test_instruction_count(self):
        builder = TraceBuilder(0)
        builder.compute(10)
        builder.load(0x400, 0x1000)
        builder.sw_prefetch(0x408, 0x2000, overhead_ops=3)
        trace = builder.build()
        # 10 compute + 1 load + (1 + 3) for the software prefetch.
        assert trace.instruction_count == 15

    def test_memory_reference_count_excludes_prefetches(self):
        builder = TraceBuilder(0)
        builder.load(0x400, 0x1000)
        builder.store(0x408, 0x2000)
        builder.sw_prefetch(0x410, 0x3000)
        trace = builder.build()
        assert trace.memory_reference_count == 2

    def test_count_by_kind(self):
        builder = TraceBuilder(0)
        builder.load(0x400, 0x1000, kind=AccessKind.INDEX)
        builder.load(0x408, 0x2000, kind=AccessKind.INDIRECT)
        builder.load(0x410, 0x3000, kind=AccessKind.INDIRECT)
        counts = builder.build().count_by_kind()
        assert counts[AccessKind.INDEX] == 1
        assert counts[AccessKind.INDIRECT] == 2
        assert counts[AccessKind.OTHER] == 0

    def test_iteration_and_len(self):
        trace = TraceBuilder(0).load(0x400, 0x1000).compute(1).build()
        assert len(trace) == 2
        assert len(list(trace)) == 2

    def test_empty_trace(self):
        trace = Trace(core_id=0)
        assert trace.instruction_count == 0
        assert trace.memory_reference_count == 0


class TestColumnarStorage:
    """The columnar encoding behind the object-level API."""

    def test_columns_encode_opcodes(self):
        trace = (TraceBuilder(0)
                 .compute(3)
                 .load(0x400, 0x1000, kind=AccessKind.INDEX)
                 .store(0x408, 0x2000)
                 .sw_prefetch(0x410, 0x3000, overhead_ops=2)
                 .build())
        # The leading compute(3) is folded into the load row's lead column.
        assert list(trace.op) == [OP_LOAD, OP_STORE, OP_SW_PREFETCH]
        assert list(trace.addr) == [0x1000, 0x2000, 0x3000]
        assert list(trace.lead) == [3, 0, 0]
        assert trace.aux[0] == KIND_CODES[AccessKind.INDEX]    # load kind
        assert trace.aux[2] == 2                               # overhead ops
        assert trace.num_rows == 3
        assert len(trace) == 4          # the object view still has 4 entries
        assert trace.entries[0] == Compute(3)

    def test_trailing_compute_gets_its_own_row(self):
        trace = TraceBuilder(0).load(0x400, 0x1000).compute(4).build()
        assert list(trace.op) == [OP_LOAD, OP_COMPUTE]
        assert trace.aux[1] == 4
        assert len(trace) == 2

    def test_entry_at_round_trips(self):
        trace = Trace(core_id=1)
        entries = [Compute(5),
                   MemRef(pc=0x400, addr=0x1000, size=4, is_write=False,
                          kind=AccessKind.INDIRECT),
                   MemRef(pc=0x408, addr=0x2000, is_write=True,
                          kind=AccessKind.STREAM),
                   SwPrefetch(pc=0x410, addr=0x3000, overhead_ops=7)]
        trace.extend(entries)
        assert trace.entries == entries
        assert trace.entry_at(-1) == entries[-1]
        assert list(trace) == entries

    def test_counts_maintained_incrementally(self):
        trace = Trace(core_id=0)
        assert trace.count_by_kind() == {kind: 0 for kind in KIND_BY_CODE}
        trace.append(MemRef(pc=0, addr=0, kind=AccessKind.INDIRECT))
        trace.append(Compute(9))
        trace.append(SwPrefetch(pc=0, addr=64, overhead_ops=3))
        assert trace.instruction_count == 1 + 9 + 4
        assert trace.memory_reference_count == 1
        assert trace.count_by_kind()[AccessKind.INDIRECT] == 1

    def test_append_rejects_unknown_entry(self):
        with pytest.raises(TypeError):
            Trace(core_id=0).append(object())

    def test_parallel_columns_stay_aligned(self):
        builder = TraceBuilder(0)
        for i in range(100):
            builder.compute(1).load(0x400, 0x1000 + 64 * i)
        trace = builder.build()
        # 100 rows (compute folded into each load), 200 logical entries.
        assert (len(trace.op) == len(trace.pc) == len(trace.addr)
                == len(trace.size) == len(trace.aux) == len(trace.lead)
                == trace.num_rows == 100)
        assert len(trace) == 200
        assert trace.instruction_count == 200


class TestFromColumns:
    """``Trace.from_columns`` derives the same trace ``TraceBuilder`` does."""

    @staticmethod
    def columns(trace):
        return [list(column) for column in (trace.op, trace.pc, trace.addr,
                                            trace.size, trace.aux,
                                            trace.lead)]

    def assert_same(self, trace, reference):
        assert self.columns(trace) == self.columns(reference)
        assert trace.instruction_count == reference.instruction_count
        assert (trace.memory_reference_count
                == reference.memory_reference_count)
        assert trace.count_by_kind() == reference.count_by_kind()
        assert len(trace) == len(reference)
        assert trace.entries == reference.entries

    def test_compute_lead_folding(self):
        reference = (TraceBuilder(0).compute(3)
                     .load(0x400, 0x1000, kind=AccessKind.INDEX)
                     .compute(2).compute(1)
                     .store(0x408, 0x2000, kind=AccessKind.STREAM).build())
        trace = Trace.from_columns(
            0, [OP_LOAD, OP_STORE], [0x400, 0x408], [0x1000, 0x2000], [8, 8],
            [KIND_CODES[AccessKind.INDEX], KIND_CODES[AccessKind.STREAM]],
            [3, 3])
        self.assert_same(trace, reference)
        assert trace.instruction_count == 8
        assert len(trace) == 4          # two leads, two memory entries

    def test_trailing_compute_row(self):
        reference = TraceBuilder(2).load(0x400, 0x1000).compute(4).build()
        trace = Trace.from_columns(2, [OP_LOAD, OP_COMPUTE], [0x400, 0],
                                   [0x1000, 0], [8, 0],
                                   [KIND_CODES[AccessKind.OTHER], 4], [0, 0])
        self.assert_same(trace, reference)
        assert trace.entries[-1] == Compute(4)

    def test_sw_prefetch_overhead_ops(self):
        reference = (TraceBuilder(0).compute(1)
                     .sw_prefetch(0x410, 0x3000, overhead_ops=5)
                     .load(0x400, 0x1000, kind=AccessKind.INDIRECT).build())
        trace = Trace.from_columns(
            0, [OP_SW_PREFETCH, OP_LOAD], [0x410, 0x400], [0x3000, 0x1000],
            [0, 8], [5, KIND_CODES[AccessKind.INDIRECT]], [1, 0])
        self.assert_same(trace, reference)
        # 1 lead + (1 + 5) for the prefetch + 1 load; prefetches are not
        # memory references.
        assert trace.instruction_count == 8
        assert trace.memory_reference_count == 1

    def test_empty_partition(self):
        # A core with no rows (more cores than rows) gets an empty trace.
        trace = Trace.from_columns(3, [], [], [], [], [], [])
        self.assert_same(trace, TraceBuilder(3).build())
        assert trace.num_rows == 0 and len(trace) == 0
        assert trace.count_by_kind() == {kind: 0 for kind in KIND_BY_CODE}

    def test_numpy_columns_equal_sequence_columns(self):
        import numpy as np

        rows = [[OP_LOAD, OP_COMPUTE], [0x400, 0], [0x1000, 0], [4, 0],
                [KIND_CODES[AccessKind.INDEX], 2], [7, 0]]
        from_lists = Trace.from_columns(0, *rows)
        from_arrays = Trace.from_columns(
            0, *(np.array(column, dtype=np.int32) for column in rows))
        self.assert_same(from_arrays, from_lists)
        assert from_arrays.op.typecode == "q"

    def test_rejects_columns_of_different_lengths(self):
        with pytest.raises(ValueError, match="differ in length"):
            Trace.from_columns(0, [OP_LOAD], [0x400], [0x1000], [8], [0], [])

    def test_append_after_from_columns_updates_counts(self):
        trace = Trace.from_columns(0, [OP_LOAD], [0x400], [0x1000], [8],
                                   [KIND_CODES[AccessKind.INDEX]], [0])
        trace.append(Compute(5))
        assert trace.instruction_count == 6
        assert len(trace) == 2

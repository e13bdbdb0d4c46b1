"""The column emitters (repro.workloads.emit) against TraceBuilder."""

import random

import numpy as np
import pytest

from repro.sim.trace import AccessKind, TraceBuilder
from repro.workloads import (
    IndirectStreamWorkload,
    PagerankWorkload,
    TriangleCountWorkload,
)
from repro.workloads.base import pc_of
from repro.workloads.emit import RowBlocks, TraceSlots


def columns(trace):
    return [list(column) for column in (trace.op, trace.pc, trace.addr,
                                        trace.size, trace.aux, trace.lead)]


def assert_same_trace(trace, reference):
    assert columns(trace) == columns(reference)
    assert trace.instruction_count == reference.instruction_count
    assert trace.memory_reference_count == reference.memory_reference_count
    assert trace.count_by_kind() == reference.count_by_kind()
    assert len(trace) == len(reference)


class TestRowBlocks:
    def test_head_items_and_tail_are_laid_back_to_back(self):
        loop = RowBlocks([2, 0, 1], head=1, width=2, tail=1)
        assert list(loop.sizes) == [6, 2, 4]
        assert loop.size == 12
        assert list(loop.head(0)) == [0, 6, 8]
        assert list(loop.item(0)) == [1, 3, 9]
        assert list(loop.item(1)) == [2, 4, 10]
        assert list(loop.tail(0)) == [5, 7, 11]
        assert list(loop.item_row) == [0, 0, 2]
        assert list(loop.rank) == [0, 1, 0]
        assert list(loop.index(np.array([10, 20, 30]))) == [10, 11, 30]

    def test_nested_level_fills_its_items_inner_slots(self):
        outer = RowBlocks([2], head=1, width=1, inner=np.array([2, 3]))
        inner = RowBlocks([2, 3], width=1, start=outer.item(1))
        assert outer.size == 1 + (1 + 2) + (1 + 3)
        assert list(outer.item(0)) == [1, 4]
        assert list(inner.item(0)) == [2, 3, 5, 6, 7]

    def test_per_row_tail_and_placement(self):
        inner = RowBlocks([1, 2], width=2)
        outer = RowBlocks([0, 0], head=1, tail=inner.sizes)
        inner.place(outer.tail(0))
        assert list(outer.sizes) == [3, 5]
        assert list(inner.item(0)) == [1, 4, 6]


class TestTraceSlotsFold:
    """Random programs folded by TraceSlots equal TraceBuilder's rows."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_program_matches_trace_builder(self, seed):
        rng = random.Random(seed)
        builder = TraceBuilder(seed)
        n_slots = rng.randrange(0, 30)
        slots = TraceSlots(n_slots)
        kinds = list(AccessKind)
        for slot in range(n_slots):
            choice = rng.randrange(6)
            at = np.array([slot])
            pc, addr = pc_of(rng.randrange(8)), rng.randrange(1 << 20)
            kind = rng.choice(kinds)
            if choice == 0:
                builder.load(pc, addr, size=4, kind=kind)
                slots.load(at, pc, addr, size=4, kind=kind)
            elif choice == 1:
                builder.store(pc, addr, kind=kind)
                slots.store(at, pc, addr, kind=kind)
            elif choice == 2:
                builder.sw_prefetch(pc, addr, overhead_ops=2)
                slots.sw_prefetch(at, pc, addr, overhead_ops=2)
            elif choice in (3, 4):
                ops = rng.randrange(0, 4)
                builder.compute(ops)
                slots.compute(at, ops)
            # choice 5: the slot stays empty (a skipped conditional)
        assert_same_trace(slots.trace(seed), builder.build())


def indirect_stream_reference(workload, n_cores, software_prefetch,
                              distance=8):
    """The per-access TraceBuilder loop the indirect-stream emitter
    replaced, kept here as an executable specification."""
    build = workload.build(n_cores, software_prefetch=software_prefetch)
    image = build.mem_image
    indices = image.data("B")
    a_addr, b_addr = image.addr_fn("A"), image.addr_fn("B")
    c_addr = image.addr_fn("C") if workload.two_way else None
    data_size = min(8, workload.elem_size)
    traces = []
    for core_id, chunk in enumerate(workload.partition(workload.n_indices,
                                                       n_cores)):
        builder = TraceBuilder(core_id)
        for i in chunk:
            target = int(indices[i])
            if software_prefetch and i + distance < chunk.stop:
                builder.sw_prefetch(pc_of(98),
                                    a_addr(int(indices[i + distance])))
            builder.load(workload.PC_INDEX, b_addr(i), size=4,
                         kind=AccessKind.INDEX)
            builder.load(workload.PC_DATA, a_addr(target), size=data_size,
                         kind=AccessKind.INDIRECT)
            if workload.two_way:
                builder.load(workload.PC_DATA2, c_addr(target),
                             size=data_size, kind=AccessKind.INDIRECT)
            builder.compute(2)
        traces.append(builder.build())
    return build.traces, traces


class TestWorkloadEmitters:
    @pytest.mark.parametrize("n_indices,n_cores", [(3, 4), (37, 16), (200, 9)])
    @pytest.mark.parametrize("two_way", [False, True])
    @pytest.mark.parametrize("software_prefetch", [False, True])
    def test_indirect_stream_matches_builder_loop(self, n_indices, n_cores,
                                                  two_way, software_prefetch):
        workload = IndirectStreamWorkload(n_indices=n_indices, n_data=512,
                                          elem_size=4, two_way=two_way,
                                          seed=5)
        emitted, reference = indirect_stream_reference(
            workload, n_cores, software_prefetch)
        for trace, expected in zip(emitted, reference):
            assert_same_trace(trace, expected)

    @pytest.mark.parametrize("workload", [
        PagerankWorkload(n_vertices=3, avg_degree=2.0, seed=2),
        TriangleCountWorkload(n_vertices=3, avg_degree=2.0, seed=2),
        IndirectStreamWorkload(n_indices=3, n_data=64, seed=2),
    ], ids=lambda workload: workload.name)
    def test_more_cores_than_rows_gives_empty_traces(self, workload):
        build = workload.build(4, software_prefetch=True)
        assert len(build.traces) == 4
        assert [trace.core_id for trace in build.traces] == [0, 1, 2, 3]
        empty = build.traces[3]
        assert empty.num_rows == 0 and empty.instruction_count == 0
        assert build.total_instructions == sum(
            trace.instruction_count for trace in build.traces[:3])

    def test_pagerank_iterations_repeat_the_row_template(self):
        # A second iteration replays the first; only the lead of its first
        # row changes (the previous iteration's trailing compute folds in).
        once = PagerankWorkload(n_vertices=256, seed=4).build(4).traces
        twice = PagerankWorkload(n_vertices=256, iterations=2,
                                 seed=4).build(4).traces
        for one, two in zip(once, twice):
            rows = one.num_rows - 1          # the trailing compute row
            for name in ("op", "pc", "addr", "size", "aux"):
                column = list(getattr(one, name))
                assert list(getattr(two, name)) == (column[:rows]
                                                    + column)
            assert two.lead[rows] == one.lead[0] + one.aux[rows]
            assert two.instruction_count == 2 * one.instruction_count
            assert (two.memory_reference_count
                    == 2 * one.memory_reference_count)

"""Golden digests of the per-core traces every workload emits.

Each entry of ``tests/data/trace_digests.json`` is a sha256 over one
build's traces: per core, the six column byte strings plus
``instruction_count``, ``memory_reference_count``, the per-kind counts
and ``len()``.  The digests pin the emitted traces byte for byte, so an
emitter rewrite (a loop turned into column arithmetic, say) must
reproduce them exactly — and with them every simulated fingerprint.

Regenerate (only when a trace change is intended) with::

    PYTHONPATH=src python tests/workloads/test_trace_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.workloads import (
    IndirectStreamWorkload,
    StreamingWorkload,
    Workload,
    paper_workloads,
)

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "data" / "trace_digests.json"

CORES = (1, 4, 16, 64)
SW_PREFETCH = (False, True)
SIZES = ("default", "scale0.15")


def workloads_at(size: str) -> List[Tuple[str, Workload]]:
    """The workloads pinned at one size: ``default`` is every class at its
    default parameters, ``scale0.15`` is the paper cross-product's size
    (plus the scenario corpus' synthetic inputs)."""
    if size == "default":
        workloads = paper_workloads(scale=1.0) + [
            IndirectStreamWorkload(), StreamingWorkload()]
        return [(workload.name, workload) for workload in workloads]
    workloads = [(workload.name, workload)
                 for workload in paper_workloads(scale=0.15)]
    workloads += [
        ("indirect_stream",
         IndirectStreamWorkload(n_indices=2048, n_data=8192, seed=3)),
        ("indirect_stream_two_way",
         IndirectStreamWorkload(n_indices=2048, n_data=8192, elem_size=16,
                                two_way=True, seed=3)),
        ("streaming", StreamingWorkload(n_elements=4096, seed=3)),
    ]
    return workloads


def build_digest(workload: Workload, n_cores: int,
                 software_prefetch: bool) -> str:
    """sha256 over every core's columns and summary counts of one build."""
    build = workload.build(n_cores, software_prefetch=software_prefetch)
    digest = hashlib.sha256()
    for trace in build.traces:
        digest.update(f"core {trace.core_id}\n".encode())
        for column in (trace.op, trace.pc, trace.addr, trace.size,
                       trace.aux, trace.lead):
            digest.update(column.tobytes())
            digest.update(b"|")
        kinds = trace.count_by_kind()
        summary = [trace.instruction_count, trace.memory_reference_count,
                   [kinds[kind] for kind in sorted(kinds, key=lambda k: k.value)],
                   len(trace)]
        digest.update(json.dumps(summary).encode())
    return digest.hexdigest()


def case_key(size: str, name: str, n_cores: int, software_prefetch: bool) -> str:
    return f"{size}/{name}/c{n_cores}/sw{int(software_prefetch)}"


def compute_digests() -> Dict[str, str]:
    digests: Dict[str, str] = {}
    for size in SIZES:
        for name, workload in workloads_at(size):
            for n_cores in CORES:
                for software_prefetch in SW_PREFETCH:
                    digests[case_key(size, name, n_cores, software_prefetch)] = (
                        build_digest(workload, n_cores, software_prefetch))
    return digests


def _golden() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("size", SIZES)
def test_trace_digests_match_golden(size):
    golden = _golden()
    mismatches = []
    checked = 0
    for name, workload in workloads_at(size):
        for n_cores in CORES:
            for software_prefetch in SW_PREFETCH:
                key = case_key(size, name, n_cores, software_prefetch)
                assert key in golden, f"no golden digest for {key}"
                checked += 1
                if build_digest(workload, n_cores, software_prefetch) != golden[key]:
                    mismatches.append(key)
    assert checked == sum(1 for key in golden if key.startswith(size + "/"))
    assert not mismatches, f"traces changed: {mismatches}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    DIGESTS_PATH.write_text(json.dumps(compute_digests(), indent=1,
                                       sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")

"""Outside-in benchmark of the IMP simulator (``repro`` package).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-indirect --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: it repeats cold passes of
the workload for about ``--seconds`` seconds and reports medians.
``--trace 1`` runs one untraced and one traced pass in this process and
reports the per-layer metrics (see ``spans.py``).  Either way every run's
statistics fingerprint is checked, a human-readable summary is printed,
and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

The exit code is 0 when every check passed, 1 when a run failed or a
fingerprint differed, and 2 when the checkout holds no ``repro`` package.
README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from importlib import metadata
from typing import Dict, List, Optional, Tuple

import passes
from passes import HERE, JOBS, PAPER_SCALE, SCENARIOS, SRC, WORKLOADS, Pass

#: Set-up samples a ``--trace 0`` run takes at least.
MIN_SETUP_SAMPLES = 5
#: Fresh interpreters timed for ``cli.import_s``.
IMPORT_SAMPLES = 3

#: Compiles the package's bytecode (so no run pays for it) and prints the
#: NoC kernel the default configuration resolves to.
PROBE = ("import compileall, sys; compileall.compile_dir(sys.argv[1], "
         "quiet=1); from repro.noc.mesh import resolve_kernel_name; "
         "from repro.sim.config import NoCConfig; "
         "print(resolve_kernel_name(NoCConfig()))")
IMPORT_PROBE = ("import time; start = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - start)")

#: (name, unit, better) of the end-to-end metrics.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_kips", "kinst/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles", "cycles", "lower"),
)


def _metric(value, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any process it waited for
    (children and, through them, pool workers and shards)."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def provenance(args, removed: Dict[str, str], noc_kernel: str) -> Dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    nproc = os.cpu_count() or 1
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": nproc, "jobs": JOBS,
        "python": platform.python_version(), "numpy": numpy,
        "REPRO_NO_CEXT": os.environ.get("REPRO_NO_CEXT"),
        "stripped_env": sorted(removed),
        "paper_scale": PAPER_SCALE, "noc_kernel": noc_kernel,
        # BENCH_5.json recorded its sweep_scaling section as skipped
        # because its host had a single CPU.
        "bench5_single_cpu_skip_holds": nproc == 1,
    }


# ----------------------------------------------------------------------
def timed_run(workload, seconds: float) -> Tuple[Dict, List[Pass]]:
    """Cold passes for about ``seconds`` s (at least one); medians."""
    done: List[Pass] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        result = workload.timed_pass()
        took = time.monotonic() - began
        if result is None:
            break
        done.append(result)
        if time.monotonic() - start + took > seconds:
            break
    if not done:
        return {}, done
    setups = [sample for result in done for sample in result.setup_s]
    workload.top_up_setup(setups, MIN_SETUP_SAMPLES)
    values = {
        "wall_s": _median([result.wall_s for result in done]),
        "setup_s": _median(setups),
        "sim_kips": _median([result.instructions / result.sim_s / 1000.0
                             for result in done]),
        "peak_rss_mb": peak_rss_mb(),
        "sim_cycles": done[0].cycles,
    }
    metrics = {name: _metric(values[name], unit)
               for name, unit, _ in END_TO_END}
    return metrics, done


def import_seconds() -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = passes.run_child([sys.executable, "-c", IMPORT_PROBE],
                                HERE)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def traced_run(workload) -> Tuple[Dict, List[Pass]]:
    """One untraced and one traced pass, in this process."""
    from spans import Layers, ServiceWatch, Tracer

    import_s = import_seconds()
    watch = ServiceWatch()
    layers = Layers(watch)
    layers.targets()            # import every traced module up front
    import repro.cli  # noqa: F401  (the sweeps' entry point)
    untraced = workload.inprocess_pass()
    tracer = Tracer()
    with tracer.installed(layers):
        traced = workload.inprocess_pass()
    done = [result for result in (untraced, traced) if result is not None]
    if len(done) < 2:
        return {}, done
    values = layer_values(tracer, watch, traced)
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics = {name: _metric(values[name], unit)
               for name, unit, _ in PER_LAYER}
    return metrics, done


#: (name, unit, better) of the per-layer metrics.
PER_LAYER = (
    ("workloads.build.calls", "count", "lower"),
    ("workloads.build.s", "s", "lower"),
    ("sim.System.init.s", "s", "lower"),
    ("sim.System.run.self_s", "s", "lower"),
    ("memory.MemorySystem.access_fast.calls", "count", "lower"),
    ("memory.MemorySystem.access_fast.self_s", "s", "lower"),
    ("memory.MemorySystem.issue_prefetch.calls", "count", "lower"),
    ("memory.MemorySystem.issue_prefetch.self_s", "s", "lower"),
    ("memory.Cache.calls", "count", "lower"),
    ("memory.Cache.self_s", "s", "lower"),
    ("memory.Directory.calls", "count", "lower"),
    ("memory.Directory.self_s", "s", "lower"),
    ("memory.dram.calls", "count", "lower"),
    ("memory.dram.self_s", "s", "lower"),
    ("noc.MeshNoC.send_fast.calls", "count", "lower"),
    ("noc.MeshNoC.send_fast.self_s", "s", "lower"),
    ("prefetchers.IMP.on_access.calls", "count", "lower"),
    ("prefetchers.IMP.on_access.self_s", "s", "lower"),
    ("prefetchers.IMP.on_eviction.calls", "count", "lower"),
    ("prefetchers.StreamPrefetcher.on_access.calls", "count", "lower"),
    ("prefetchers.StreamPrefetcher.on_access.self_s", "s", "lower"),
    ("prefetchers.GHBPrefetcher.on_access.calls", "count", "lower"),
    ("prefetchers.GHBPrefetcher.on_access.self_s", "s", "lower"),
    ("mem_image.read_value.calls", "count", "lower"),
    ("mem_image.read_value.self_s", "s", "lower"),
    ("memory.l1_misses", "count", "lower"),
    ("memory.l2_misses", "count", "lower"),
    ("prefetchers.issued", "count", "lower"),
    ("prefetchers.accuracy", "ratio", "higher"),
    ("noc.bytes", "bytes", "lower"),
    ("dram.bytes", "bytes", "lower"),
    ("experiments.SweepEngine.run.self_s", "s", "lower"),
    ("experiments.backend.execute.s", "s", "lower"),
    ("experiments.ResultCache.get.calls", "count", "lower"),
    ("experiments.ResultCache.get.s", "s", "lower"),
    ("experiments.ResultCache.put.calls", "count", "lower"),
    ("experiments.ResultCache.put.s", "s", "lower"),
    ("experiments.SweepJournal.record_ok.calls", "count", "lower"),
    ("experiments.SweepJournal.record_ok.s", "s", "lower"),
    ("service.ServiceClient.submit.calls", "count", "lower"),
    ("service.ServiceClient.submit.s", "s", "lower"),
    ("service.ServiceClient.job.calls", "count", "lower"),
    ("service.polls_per_job", "count", "lower"),
    ("service.job_latency_p50_s", "s", "lower"),
    ("service.job_latency_p90_s", "s", "lower"),
    ("service.http_429.calls", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_values(tracer, watch, traced: Pass) -> Dict[str, float]:
    """Per-layer values from the spans and the traced pass's fingerprints
    (``cli.import_s`` and ``trace.overhead_s`` are added by the caller)."""
    values: Dict[str, float] = {}
    for name, stat in tracer.stats.items():
        values[f"{name}.calls"] = stat.calls
        values[f"{name}.self_s"] = stat.self_s
        values[f"{name}.s"] = stat.total_s
    fps = traced.runs.values()
    issued = sum(fp["prefetches_issued"] for fp in fps)
    values.update({
        "memory.l1_misses": sum(fp["l1_misses"] for fp in fps),
        "memory.l2_misses": sum(fp["l2_misses"] for fp in fps),
        "prefetchers.issued": issued,
        "prefetchers.accuracy": (sum(fp["prefetches_useful"] for fp in fps)
                                 / issued if issued else 0.0),
        "noc.bytes": sum(fp["noc_bytes"] for fp in fps),
        "dram.bytes": sum(fp["dram_bytes"] for fp in fps),
        "service.http_429.calls": watch.http_429,
    })
    latencies = watch.latencies()
    jobs = len(watch.submitted)
    polls = values.get("service.ServiceClient.job.calls", 0)
    values["service.polls_per_job"] = polls / jobs if jobs else 0.0
    values["service.job_latency_p50_s"] = _percentile(latencies, 0.5)
    values["service.job_latency_p90_s"] = _percentile(latencies, 0.9)
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER
            if name not in ("cli.import_s", "trace.overhead_s")}


def _percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile of sorted ``values`` (0 when empty)."""
    if not values:
        return 0.0
    return values[max(1, math.ceil(share * len(values))) - 1]


# ----------------------------------------------------------------------
def _print_summary(workload, metrics: Dict, done: List[Pass],
                   prov: Dict, kinds) -> None:
    checker = workload.checker
    print(f"perfbench {workload.name}: {workload.why}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("model unvalidated, no error figure; caches start empty "
          f"(cold); {len(done)} pass(es), wall_s "
          + " ".join(f"{result.wall_s:.3f}" for result in done))
    better = {name: direction for name, _, direction in kinds}
    for name, metric in metrics.items():
        print(f"  {name:46s} {metric['value']:>16.6g} {metric['unit']:8s}"
              f" ({better[name]} is better)")
    fail_frac = (checker.failed / checker.attempted
                 if checker.attempted else 1.0)
    print(f"  {'fail_frac':46s} {fail_frac:>16.6g} {'ratio':8s}"
          f" (lower is better; {checker.failed}/{checker.attempted} runs)")
    if workload.name == "paper-sweep" and done:
        print(f"  {'imp_speedup_x':46s} "
              f"{passes.imp_speedup(done[0].runs):>16.6g} {'x':8s}"
              f" (simulated; geomean base/imp cycles at 16 cores)")
    if checker.expected is None:
        print(f"  no stored expectations for seed {workload.seed}: runs "
              f"are checked against each other only")
    for problem in checker.problems:
        print(f"  FAILED {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file() or not SCENARIOS.is_dir():
        print(f"error: no repro package under {SRC} or no scenario corpus "
              f"at {SCENARIOS}; run from a full checkout", file=sys.stderr)
        return 2

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    removed = passes.hermetic_environ()
    work = HERE / ".work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        noc_kernel = passes.run_child(
            [sys.executable, "-c", PROBE, str(SRC / "repro")],
            work).stdout.strip().splitlines()[-1]
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            metrics, done = traced_run(workload)
            kinds = PER_LAYER
        else:
            metrics, done = timed_run(workload, args.seconds)
            kinds = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass
    _print_summary(workload, metrics, done,
                   provenance(args, removed, noc_kernel), kinds)
    checker = workload.checker
    correct = checker.ok() and len(metrics) == len(kinds)
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

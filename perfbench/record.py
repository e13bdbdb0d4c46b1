"""Capture the benchmark's fingerprint expectations for some seeds.

    python3 perfbench/record.py --seeds 1 2 3 [--workloads paper-sweep]

Expectations come from a different path than the one the benchmark
times, wherever one exists:

* ``sim-indirect`` -- :mod:`simpass` in this process (the timed pass runs
  the same code in a fresh interpreter);
* ``corpus-sweep`` -- each seeded scenario simulated in this process with
  ``execute_spec``: no sweep engine, worker pool or result cache;
* ``paper-sweep``  -- ``repro sweep`` with the process backend: no
  service and no shards.

Results merge into ``expected/<workload>.json``.  Paper-sweep runs keep
their full fingerprint for seed 1 and a short digest for other seeds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import sys
from typing import Dict

import passes
import simpass
from passes import (EXPECTED, HERE, JOBS, PAPER_ARGS, fingerprint_digest,
                    paper_labels, read_records, write_scenarios)


def record_sim_indirect(seed: int, work) -> Dict:
    return simpass.simulate(simpass.prepare(seed))


def record_corpus(seed: int, work) -> Dict:
    from repro.experiments.scenario import load_scenario
    from repro.experiments.sweep import execute_spec

    directory = work / "scenarios"
    write_scenarios(directory, seed, None)
    runs = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".fingerprint.json"):
            continue
        scenario = load_scenario(path)
        result = execute_spec(scenario.to_runspec(), scenario.resolve()[0])
        runs[path.stem] = result.stats.fingerprint()
    return runs


def record_paper(seed: int, work) -> Dict:
    from repro.cli import main

    argv = ["sweep", *PAPER_ARGS, "--seed", str(seed), "--jobs", str(JOBS),
            "--cache-dir", str(work / "cache"),
            "--failures-out", str(work / "failures.json")]
    code = main(argv, out=io.StringIO())
    if code != 0:
        raise RuntimeError(f"repro sweep exited {code}")
    runs = paper_labels(read_records(work / "cache"))
    if seed != 1:
        runs = {label: fingerprint_digest(fp) for label, fp in runs.items()}
    return runs


RECORDERS = {"sim-indirect": record_sim_indirect,
             "corpus-sweep": record_corpus,
             "paper-sweep": record_paper}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=sorted(RECORDERS),
                        default=sorted(RECORDERS))
    args = parser.parse_args(argv)
    passes.hermetic_environ()
    work = HERE / ".work" / f"record-{os.getpid()}"
    EXPECTED.mkdir(exist_ok=True)
    try:
        for name in args.workloads:
            path = EXPECTED / f"{name}.json"
            doc = {"workload": name, "seeds": {}}
            if path.exists():
                with open(path) as handle:
                    doc = json.load(handle)
            for seed in args.seeds:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                doc["seeds"][str(seed)] = RECORDERS[name](seed, work)
                print(f"recorded {name} seed {seed}: "
                      f"{len(doc['seeds'][str(seed)])} runs", flush=True)
            doc["seeds"] = dict(sorted(doc["seeds"].items(),
                                       key=lambda item: int(item[0])))
            with open(path, "w") as handle:
                json.dump(doc, handle, indent=1, sort_keys=True)
                handle.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of the ``sim-indirect`` workload: spmv and pagerank at their
default sizes on 16 cores, each under modes ``imp`` and
``imp_partial_noc_dram``, simulated in this process on one thread with no
result cache.

Run as a script it is the timed pass: a fresh interpreter that imports the
package, builds both traces, constructs all four ``System`` objects, stamps
the monotonic clock just before the first ``System.run`` call, simulates,
and prints one JSON line::

    python3 perfbench/simpass.py --seed 1 [--setup-only]

``--setup-only`` stops at the stamp.  The benchmark's traced pass imports
:func:`prepare` and :func:`simulate` instead, so both passes share one code
path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Tuple

KERNELS = ("spmv", "pagerank")
MODES = ("imp", "imp_partial_noc_dram")
CORES = 16


def prepare(seed: int) -> List[Tuple[str, object]]:
    """Build the traces and construct one ``System`` per (kernel, mode)."""
    from repro.experiments.configs import experiment_config
    from repro.sim.system import System
    from repro.workloads import make_workload

    systems = []
    for kernel in KERNELS:
        workload = make_workload(kernel, seed=seed)
        for mode in MODES:
            config, prefetcher, imp_config, software = experiment_config(
                mode, CORES)
            build = workload.cached_build(CORES, software_prefetch=software)
            systems.append((f"{kernel}/{mode}",
                            System(config, build.traces, build.mem_image,
                                   prefetcher, imp_config)))
    return systems


def simulate(systems) -> Dict[str, Dict[str, int]]:
    """Run every system; returns label -> statistics fingerprint."""
    return {label: system.run().stats.fingerprint()
            for label, system in systems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    systems = prepare(args.seed)
    doc = {"t_setup": time.monotonic()}
    if not args.setup_only:
        doc["runs"] = simulate(systems)
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads, each a closed-loop batch run to completion.

* ``sim-indirect`` -- :mod:`simpass` in a fresh interpreter.
* ``corpus-sweep`` -- ``repro sweep --scenario-dir`` over the example
  scenario corpus, ``--jobs N`` on an empty cache, then re-runs of the
  same command on the cache it filled.
* ``paper-sweep``  -- ``repro sweep --figures fig9 fig11 --cores 16 64``
  through ``--backend service`` across two local ``repro serve`` shards,
  then re-runs on the cache it filled.

Every pass works in its own directory under the benchmark's work
directory: result caches, journals, failure reports, shard caches and the
seeded scenario copies never touch the repository's ``results/``.
A :class:`Checker` verifies every pass's fingerprints against the first
pass of the run and against the expectations stored for the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "examples" / "scenarios"
EXPECTED = HERE / "expected"

#: Variables that would change what the program does (fault injection,
#: NoC kernel override, worker count); removed before anything starts.
STRIPPED_ENV = ("REPRO_FAULTS", "REPRO_NOC_KERNEL", "REPRO_JOBS")

#: Simulating processes for the sweeps: at most two, never more than the
#: host's CPUs.
JOBS = min(2, os.cpu_count() or 1)

PAPER_SCALE = 0.15
PAPER_ARGS = ["--figures", "fig9", "fig11", "--cores", "16", "64",
              "--scale", str(PAPER_SCALE)]
PAPER_SHARDS = 2


#: Timeouts (s) for one child process; a run must end within 180 s.
CHILD_TIMEOUT = 150.0
SHARD_START_TIMEOUT = 30.0
SHARD_STOP_TIMEOUT = 20.0

Fingerprint = Dict[str, int]


def hermetic_environ() -> Dict[str, str]:
    """Strip :data:`STRIPPED_ENV` from this process (children inherit
    it) and put the checkout's ``src`` first on every import path.
    Returns the removed variables."""
    removed = {name: os.environ.pop(name) for name in STRIPPED_ENV
               if name in os.environ}
    paths = [str(SRC)] + [path for path in
                          os.environ.get("PYTHONPATH", "").split(os.pathsep)
                          if path]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return removed


class ChildFailed(RuntimeError):
    """A child process exited non-zero or timed out."""


def run_child(argv: List[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run one child to completion; raises :class:`ChildFailed`."""
    try:
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(argv[1:4])}: timed out after "
                          f"{exc.timeout:g}s") from exc
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-5:]
        raise ChildFailed(f"{' '.join(argv[1:4])}: exit "
                          f"{proc.returncode}: " + " | ".join(tail))
    return proc


def load_expected(workload: str, seed: int) -> Optional[Dict]:
    """The run expectations stored for ``seed``, or None: label ->
    fingerprint, or -> its :func:`fingerprint_digest`."""
    path = EXPECTED / f"{workload}.json"
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)["seeds"].get(str(seed))


class Checker:
    """Counts runs attempted and failed.

    A run fails when its command fails, when it is missing or extra, when
    its fingerprint differs from the run's first pass, or when it differs
    from the stored expectation for the seed.
    """

    def __init__(self, expected: Optional[Dict[str, Fingerprint]]) -> None:
        self.expected = expected
        self.reference: Optional[Dict[str, Fingerprint]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, where: str, runs: int, reason: str) -> None:
        self.attempted += runs
        self.failed += runs
        self.problems.append(f"{where}: {reason}")

    def check(self, where: str, runs: Dict[str, Fingerprint],
              by_label: bool = True) -> None:
        """Compare one pass's runs with the reference and expectations.

        With ``by_label=False`` the expectation is compared as a set of
        fingerprints (the corpus keys its records by spec digest, its
        expectations by scenario name).
        """
        bad = set()
        if self.reference is None:
            self.reference = runs
        else:
            bad |= _differing(runs, self.reference)
        if self.expected is not None:
            if by_label:
                bad |= _differing(runs, self.expected)
            elif (sorted(map(fingerprint_digest, runs.values()))
                  != sorted(set(map(fingerprint_digest,
                                    self.expected.values())))):
                bad |= set(runs) or {"<none>"}
        self.attempted += max(len(runs), len(self.reference))
        if bad:
            self.failed += len(bad)
            self.problems.append(f"{where}: fingerprint mismatch in "
                                 f"{', '.join(sorted(bad)[:5])}")

    def ok(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def fingerprint_digest(fingerprint) -> str:
    """A fingerprint's short digest; a stored digest is returned as is."""
    if isinstance(fingerprint, str):
        return fingerprint
    canonical = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _differing(runs, reference) -> set:
    labels = set(runs) | set(reference)
    return {label for label in labels
            if label not in runs or label not in reference
            or fingerprint_digest(runs[label])
            != fingerprint_digest(reference[label])}


class Pass:
    """One cold pass: its wall time, set-up samples and runs."""

    def __init__(self, wall_s: float, setup_s: List[float],
                 runs: Dict[str, Fingerprint],
                 sim_s: Optional[float] = None) -> None:
        self.wall_s = wall_s
        self.setup_s = setup_s
        self.runs = runs
        #: Host seconds of simulation (``sim_kips``' denominator).
        self.sim_s = wall_s if sim_s is None else sim_s

    @property
    def instructions(self) -> int:
        return sum(fp["instructions"] for fp in self.runs.values())

    @property
    def cycles(self) -> int:
        return sum(fp["runtime_cycles"] for fp in self.runs.values())


class Workload:
    """Shared plumbing: the run's work directory and checker."""

    name = ""
    why = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.checker = Checker(load_expected(self.name, seed))
        self._passes = 0

    def pass_dir(self) -> Path:
        self._passes += 1
        path = self.work / f"pass{self._passes}"
        path.mkdir(parents=True)
        return path

    def timed_pass(self) -> Pass:
        raise NotImplementedError

    def top_up_setup(self, samples: List[float], want: int) -> None:
        """Add set-up samples until there are ``want`` (if needed)."""

    def inprocess_pass(self) -> Pass:
        """The pass run inside this process, for the traced comparison."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class SimIndirect(Workload):
    name = "sim-indirect"
    why = ("the simulator hot loop on A[B[i]]: IMP, mem-image reads, the "
           "classic hierarchy walk and sectored fills in one process")

    def _launch(self, setup_only: bool) -> Dict:
        argv = [sys.executable, str(HERE / "simpass.py"),
                "--seed", str(self.seed)]
        if setup_only:
            argv.append("--setup-only")
        start = time.monotonic()
        proc = run_child(argv, self.work)
        end = time.monotonic()
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["wall_s"] = end - start
        doc["setup_s"] = doc["t_setup"] - start
        return doc

    def timed_pass(self) -> Optional[Pass]:
        try:
            doc = self._launch(setup_only=False)
        except ChildFailed as exc:
            self.checker.fail("cold pass", len(self.checker.reference or
                                               {}) or 4, str(exc))
            return None
        self.checker.check("cold pass", doc["runs"])
        return Pass(doc["wall_s"], [doc["setup_s"]], doc["runs"],
                    sim_s=doc["wall_s"] - doc["setup_s"])

    def top_up_setup(self, samples: List[float], want: int) -> None:
        while len(samples) < want:
            try:
                samples.append(self._launch(setup_only=True)["setup_s"])
            except ChildFailed as exc:
                self.checker.fail("set-up launch", 1, str(exc))
                return

    def inprocess_pass(self) -> Pass:
        import simpass
        start = time.perf_counter()
        systems = simpass.prepare(self.seed)
        ready = time.perf_counter()
        runs = simpass.simulate(systems)
        wall = time.perf_counter() - start
        self.checker.check("in-process pass", runs)
        return Pass(wall, [ready - start], runs, sim_s=wall - (ready - start))


# ----------------------------------------------------------------------
_SIMULATED = re.compile(r"\[sweep\] .*?(\d+) simulated .*cache hits (\d+)")
_SCENARIO_LINE = re.compile(r"^(\S+\.json)\s+(\d+) cycles\s+(.+)$", re.M)


def read_records(cache: Path) -> Dict[str, Dict]:
    """digest -> cache record, for every record a sweep stored."""
    records = {}
    for path in sorted(cache.glob("*.json")):
        with open(path) as handle:
            records[path.stem] = json.load(handle)
    return records


class Sweep(Workload):
    """A ``repro sweep`` command: cold on an empty cache, then re-run."""

    #: Whether stored expectations are keyed like the pass's runs (else
    #: they are compared as a set of fingerprints).
    by_label = True
    #: Re-runs on the cache the cold run filled, per pass; the median over
    #: them is the sweep's ``setup_s``.
    warm_reruns = 5

    def sweep_argv(self, pass_dir: Path) -> List[str]:
        raise NotImplementedError

    def label_runs(self, records: Dict[str, Dict]) -> Dict[str, Fingerprint]:
        raise NotImplementedError

    def check_output(self, where: str, output: str) -> bool:
        return True

    def _cli(self, pass_dir: Path, argv: List[str]) -> str:
        proc = run_child([sys.executable, "-m", "repro.cli", "sweep", *argv],
                         pass_dir)
        return proc.stdout

    def _verify(self, where: str, pass_dir: Path, output: str,
                expect_simulated: Optional[int]) -> Dict[str, Fingerprint]:
        """Check one sweep's output and stored records."""
        match = _SIMULATED.search(output)
        runs = self.label_runs(read_records(pass_dir / "cache"))
        if match is None:
            self.checker.fail(where, len(runs) or 1, "no sweep summary line")
        elif expect_simulated is not None and \
                int(match.group(1)) != expect_simulated:
            self.checker.fail(where, len(runs),
                              f"{match.group(1)} runs simulated on a warm "
                              f"cache, expected {expect_simulated}")
        elif self.check_output(where, output):
            self.checker.check(where, runs, by_label=self.by_label)
        return runs

    def _shards(self, pass_dir: Path) -> "Shards":
        return Shards(pass_dir, 0)

    def timed_pass(self) -> Optional[Pass]:
        pass_dir = self.pass_dir()
        argv = self.sweep_argv(pass_dir)
        try:
            with self._shards(pass_dir) as shards:
                argv += shards.argv()
                start = time.monotonic()
                output = self._cli(pass_dir, argv)
                wall = time.monotonic() - start
                runs = self._verify("cold pass", pass_dir, output, None)
                setups = []
                for _ in range(self.warm_reruns):
                    start = time.monotonic()
                    output = self._cli(pass_dir, argv)
                    setups.append(time.monotonic() - start)
                    self._verify("warm re-run", pass_dir, output, 0)
        except (ChildFailed, ShardError) as exc:
            self.checker.fail("pass", len(self.checker.reference or {}) or 1,
                              str(exc))
            return None
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        return Pass(wall, setups, runs)

    def inprocess_pass(self) -> Optional[Pass]:
        from repro.cli import main
        pass_dir = self.pass_dir()
        argv = self.sweep_argv(pass_dir)
        try:
            with self._shards(pass_dir) as shards:
                argv += shards.argv()
                out = io.StringIO()
                start = time.perf_counter()
                code = main(["sweep", *argv], out=out)
                wall = time.perf_counter() - start
                if code != 0:
                    self.checker.fail("in-process pass", len(
                        self.checker.reference or {}) or 1,
                        f"repro sweep exit {code}")
                    return None
                runs = self._verify("in-process pass", pass_dir,
                                    out.getvalue(), None)
        except ShardError as exc:
            self.checker.fail("in-process pass", 1, str(exc))
            return None
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        return Pass(wall, [], runs)


# ----------------------------------------------------------------------
class CorpusSweep(Sweep):
    name = "corpus-sweep"
    why = ("fixed cost dominates: import, spec digests, pool start-up, "
           "cache write-then-read and the generic hierarchy walk at 4 cores")
    by_label = False
    # A cold pass takes about two re-runs' time: fewer re-runs per pass
    # leave room for more cold samples in a run.
    warm_reruns = 2

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.scenarios = work / "scenarios"
        write_scenarios(self.scenarios, seed, self.checker.expected)

    def sweep_argv(self, pass_dir: Path) -> List[str]:
        return ["--scenario-dir", str(self.scenarios), "--jobs", str(JOBS),
                "--cache-dir", str(pass_dir / "cache"),
                "--failures-out", str(pass_dir / "failures.json")]

    def label_runs(self, records):
        return {digest: record["fingerprint"]
                for digest, record in records.items()}

    def check_output(self, where: str, output: str) -> bool:
        """Every scenario printed, and each matches its sibling
        ``.fingerprint.json`` whenever one was written."""
        lines = _SCENARIO_LINE.findall(output)
        bad = [name for name, _, status in lines
               if status != ("fingerprint ok" if (
                   self.scenarios / name).with_suffix(
                       ".fingerprint.json").exists() else "no expectation")]
        names = sorted(path.name for path in self.scenarios.glob("*.json")
                       if not path.name.endswith(".fingerprint.json"))
        if bad or sorted(name for name, _, _ in lines) != names:
            self.checker.fail(where, len(names), "scenario check failed: "
                              + ", ".join(bad or ["missing scenario lines"]))
            return False
        return True


def write_scenarios(directory: Path, seed: int,
                    expected: Optional[Dict[str, Fingerprint]]) -> None:
    """Copy the example corpus with every workload seed shifted by
    ``seed - 1``.  Seed 1 is the corpus as shipped, with its sibling
    ``.fingerprint.json`` files; other seeds get siblings written from
    the stored expectations, when there are any."""
    directory.mkdir(parents=True)
    for path in sorted(SCENARIOS.glob("*.json")):
        if path.name.endswith(".fingerprint.json"):
            continue
        with open(path) as handle:
            doc = json.load(handle)
        params = doc.get("workload_params", {})
        if "seed" in params:
            params["seed"] += seed - 1
        with open(directory / path.name, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
        sibling = path.with_suffix(".fingerprint.json")
        if seed == 1 and sibling.exists():
            shutil.copyfile(sibling, directory / sibling.name)
        elif expected is not None:
            with open(directory / sibling.name,
                      "w") as handle:
                json.dump({"fingerprint": expected[path.stem]}, handle,
                          indent=2, sort_keys=True)


# ----------------------------------------------------------------------
class PaperSweep(Sweep):
    name = "paper-sweep"
    why = ("the paper cross-product through the service backend and two "
           "shards: trace builds for 7 workloads, 7 modes, 64-core meshes")

    def sweep_argv(self, pass_dir: Path) -> List[str]:
        return [*PAPER_ARGS, "--seed", str(self.seed), "--jobs", str(JOBS),
                "--backend", "service",
                "--cache-dir", str(pass_dir / "cache"),
                "--failures-out", str(pass_dir / "failures.json")]

    def _shards(self, pass_dir: Path) -> "Shards":
        return Shards(pass_dir, PAPER_SHARDS)

    def label_runs(self, records):
        return paper_labels(records)


def paper_labels(records: Dict[str, Dict]) -> Dict[str, Fingerprint]:
    runs = {}
    for record in records.values():
        spec = record["spec"]
        runs[f"{spec['workload']}/{spec['mode']}@{spec['n_cores']}c"] = \
            record["fingerprint"]
    return runs


def imp_speedup(runs: Dict[str, Fingerprint], cores: int = 16) -> float:
    """Geomean over the paper workloads of base cycles / imp cycles."""
    ratios = []
    for label, fp in runs.items():
        workload, rest = label.split("/", 1)
        if rest == f"imp@{cores}c":
            base = runs[f"{workload}/base@{cores}c"]["runtime_cycles"]
            ratios.append(base / fp["runtime_cycles"])
    product = 1.0
    for ratio in ratios:
        product *= ratio
    return product ** (1.0 / len(ratios)) if ratios else float("nan")


# ----------------------------------------------------------------------
class ShardError(RuntimeError):
    """A ``repro serve`` shard did not come up."""


class Shards:
    """``count`` local ``repro serve --port 0`` processes, each with its
    own cache under ``directory``; stopped (SIGTERM, then SIGKILL) on
    exit from the ``with`` block, whatever happened inside it."""

    def __init__(self, directory: Path, count: int) -> None:
        self.directory = directory
        self.count = count
        self.procs: List[subprocess.Popen] = []
        self.urls: List[str] = []

    def argv(self) -> List[str]:
        return [arg for url in self.urls for arg in ("--shard", url)]

    def __enter__(self) -> "Shards":
        try:
            logs = []
            for index in range(self.count):
                log = self.directory / f"shard{index}.log"
                with open(log, "w") as handle:
                    self.procs.append(subprocess.Popen(
                        [sys.executable, "-m", "repro.cli", "serve",
                         "--host", "127.0.0.1", "--port", "0",
                         "--cache-dir", str(self.directory / f"shard{index}")],
                        cwd=self.directory, stdout=handle,
                        stderr=subprocess.STDOUT))
                logs.append(log)
            deadline = time.monotonic() + SHARD_START_TIMEOUT
            for proc, log in zip(self.procs, logs):
                self.urls.append(_await_port(proc, log, deadline))
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=SHARD_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


def _await_port(proc: subprocess.Popen, log: Path, deadline: float) -> str:
    while time.monotonic() < deadline:
        match = re.search(r"port=(\d+)", log.read_text())
        if match:
            return f"http://127.0.0.1:{match.group(1)}"
        if proc.poll() is not None:
            raise ShardError(f"shard exited {proc.returncode}: "
                             f"{log.read_text().strip()[-300:]}")
        time.sleep(0.02)
    raise ShardError(f"shard did not report its port within "
                     f"{SHARD_START_TIMEOUT:g}s")


WORKLOADS = {cls.name: cls for cls in (SimIndirect, CorpusSweep, PaperSweep)}

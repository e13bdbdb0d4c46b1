"""A shard reuses the previous runspec job's trace build while the build
key repeats, the way a pool worker reuses one workload per batch."""

from svc_helpers import tiny_scenario

from repro.experiments.scenario import ScenarioSpec
from repro.experiments.sweep import ResultCache
from repro.service import store as job_states
from repro.service.jobs import JobManager
from repro.service.store import JobStore
from repro.workloads.synthetic import IndirectStreamWorkload


def runspec_doc(mode: str, n_cores: int = 1) -> dict:
    doc = dict(tiny_scenario(21), mode=mode, n_cores=n_cores)
    return {"runspec": ScenarioSpec.from_dict(doc).to_runspec().to_dict(),
            "name": f"{mode}-{n_cores}"}


def run_jobs(tmp_path, monkeypatch, docs):
    """Run ``docs`` through a manager; returns the jobs and the
    ``(n_cores, software_prefetch)`` of every trace build."""
    builds = []
    original = IndirectStreamWorkload.build

    def counting_build(self, n_cores, *, software_prefetch=False, **kwargs):
        builds.append((n_cores, software_prefetch))
        return original(self, n_cores, software_prefetch=software_prefetch,
                        **kwargs)

    monkeypatch.setattr(IndirectStreamWorkload, "build", counting_build)
    store = JobStore(tmp_path / "jobs.jsonl")
    manager = JobManager(store, ResultCache(tmp_path / "cache"),
                         queue_depth=8)
    jobs = [manager.submit(doc)[0] for doc in docs]
    manager.start()
    assert manager.drain(timeout=30.0)
    store.close()
    return jobs, builds


def test_same_build_key_builds_once(tmp_path, monkeypatch):
    docs = [runspec_doc("base"), runspec_doc("imp")]
    jobs, builds = run_jobs(tmp_path, monkeypatch, docs)
    assert [job.status for job in jobs] == [job_states.DONE] * 2
    assert all(job.simulated for job in jobs)
    assert builds == [(1, False)]


def test_new_build_key_replaces_the_kept_workload(tmp_path, monkeypatch):
    docs = [runspec_doc("base"), runspec_doc("base", n_cores=4),
            runspec_doc("imp")]
    jobs, builds = run_jobs(tmp_path, monkeypatch, docs)
    assert [job.status for job in jobs] == [job_states.DONE] * 3
    # Only the most recent workload is kept: returning to the first key
    # rebuilds it.
    assert builds == [(1, False), (4, False), (1, False)]


def test_kept_workload_holds_one_build(tmp_path, monkeypatch):
    # The software-prefetch variant is a different trace: the shard drops
    # the kept build instead of holding both.
    docs = [runspec_doc("base"), runspec_doc("swpref"), runspec_doc("imp")]
    jobs, builds = run_jobs(tmp_path, monkeypatch, docs)
    assert [job.status for job in jobs] == [job_states.DONE] * 3
    assert builds == [(1, False), (1, True), (1, False)]

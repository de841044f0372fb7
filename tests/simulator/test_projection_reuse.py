"""A host projects a task once per stay in its batch: same run as per phase.

The reference below is what ``DomainHost.transform_batch`` did before it
kept its projections — the renaming oracle over the whole batch, every
phase.
Runs with k = 2 and k = 4 hosts, a processor failure and migrated-in tasks
must produce the same report, the same per-task trace and the same phase
list either way.
"""

from __future__ import annotations

import pytest

from repro.core.affinity import Projection, UniformCommunicationModel
from repro.core.domains import partition_workers
from repro.experiments import ExperimentConfig
from repro.experiments.runner import build_scheduler, workload_tasks
from repro.simulator import DistributedRuntime, DomainHost

from ..core.test_projection import project_tasks

CONFIG = ExperimentConfig.quick(
    num_transactions=240, num_processors=8, runs=1, per_vertex_cost=0.005
)


def _project_every_phase(self, tasks, now):
    return project_tasks(tasks, self.view.workers)


def _run(domains: int, seed: int):
    comm = UniformCommunicationModel(CONFIG.remote_cost)
    tasks = workload_tasks(CONFIG, seed)
    assignment = partition_workers(
        CONFIG.num_processors, domains, "hash", tasks=tasks
    )
    return DistributedRuntime(
        [build_scheduler("rtsads", CONFIG, comm) for _ in assignment.domains],
        assignment,
        tasks,
        CONFIG.remote_cost,
        # P5 dies while phases are in flight and its queue is non-empty:
        # both the decline and the surrender path requeue originals.
        failures=[(40.0, 5)],
        validate_phases=True,
        seed=seed,
    ).run()


def _comparable(report):
    data = report.as_dict()
    data.pop("wall_seconds")
    return data


@pytest.mark.parametrize("domains", [2, 4])
@pytest.mark.parametrize("seed", [7, 1998])
def test_projection_reuse_changes_nothing(monkeypatch, domains, seed):
    reused = _run(domains, seed)
    with monkeypatch.context() as patched:
        patched.setattr(
            DomainHost, "transform_batch", _project_every_phase
        )
        reference = _run(domains, seed)
    # The run exercised what the cache has to survive.
    assert reused.migration["accepted"] > 0
    assert reused.workers_lost == 1 and reused.reschedules > 0
    assert max(phase.batch_size for phase in reused.phases) > 1
    assert _comparable(reused) == _comparable(reference)
    assert reused.phases == reference.phases
    assert reused.trace.records == reference.trace.records


def test_a_task_is_projected_once_however_long_it_waits(monkeypatch):
    """Counts the work, not the time: a host's ``Projection`` renames a
    task object when it joins the host's batch, not once per phase it
    spends there.  (A task that leaves — delivered, then surrendered by
    the failed worker — is renamed again when it comes back: the memo
    holds one batch, not the run.)"""
    project, rename = Projection.project, Projection.rename
    calls = []  # per project(): (view, input objects, renamed objects)

    def counting_project(view, tasks):
        calls.append((view, {id(task) for task in tasks}, []))
        return project(view, tasks)

    def counting_rename(view, task):
        calls[-1][2].append(id(task))
        return rename(view, task)

    monkeypatch.setattr(Projection, "project", counting_project)
    monkeypatch.setattr(Projection, "rename", counting_rename)
    report = _run(2, 7)
    previous = {}
    for view, inputs, renamed in calls:
        joined = inputs - previous.get(id(view), set())
        assert sorted(renamed) == sorted(joined)
        previous[id(view)] = inputs
    renames = sum(len(renamed) for _, _, renamed in calls)
    waited = sum(phase.batch_size for phase in report.phases)
    assert 0 < renames < waited

"""One offer round, two backends: the live broker agrees with the simulator.

Both backends run ``sharding/migration.py::offer_leftovers`` and differ
only in the hand-off.  Here the same leftovers meet the same per-worker
loads twice, off the wire: on two ``ClusterMaster`` domains with an
in-memory hub and a hand-moved clock, driven by a ``MigrationBroker``,
and on the two domain hosts of a ``DistributedRuntime``.  They must give
the same offers, accepts and declines, the same trace notes and the same
:class:`~repro.sharding.MigrationStats`, and leave every task owned by
exactly one domain.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.cluster.master import ClusterMaster, Domain
from repro.core.affinity import UniformCommunicationModel
from repro.core.domains import partition_workers
from repro.core.schedule import ScheduleEntry
from repro.core.task import Task
from repro.experiments.runner import build_scheduler
from repro.observability import Instrumentation, MemorySink
from repro.runtime.ledger import TaskRecord
from repro.sharding.cluster import MigrationBroker
from repro.simulator import DistributedRuntime

from ..service.kept_state import Clock, WireStub

CONFIG = ClusterConfig.smoke(workers=4, tasks=16, seed=7)
REMOTE = CONFIG.experiment.remote_cost
ASSIGNMENT = partition_workers(4, 2)
#: Domain 0 offers, domain 1 (its one peer) answers.
ORIGIN, TARGET = 0, 1
NOW = 10.0
MIGRATION_NOTES = ("migration_offered", "migrated", "migration_declined")


@lru_cache(maxsize=1)
def _database():
    return Domain.whole(CONFIG.experiment).database


def _tasks(specs):
    return [
        Task(
            task_id=task_id,
            processing_time=processing,
            arrival_time=0.0,
            deadline=NOW + slack,
            affinity=frozenset(affinity),
        )
        for task_id, (processing, slack, affinity) in enumerate(specs, 1)
    ]


def _notes(sink: MemorySink):
    return [
        (e["transition"], e["task_id"], e["t"], e["from_domain"],
         e["to_domain"])
        for e in sink.events
        if e.get("event") == "task" and e["transition"] in MIGRATION_NOTES
    ]


def live_domains(tasks, target_loads, lost):
    """Both masters, the origin holding ``tasks`` as batch leftovers."""
    sink = MemorySink()
    obs = Instrumentation(sink=sink)
    clock = Clock()
    clock.now = NOW
    masters = []
    with mock.patch(
        "repro.cluster.master.MessageHub", lambda *args, **kwargs: WireStub()
    ):
        for d, workers in enumerate(ASSIGNMENT.domains):
            master = ClusterMaster(
                CONFIG,
                Domain(
                    database=_database(),
                    tasks=(),
                    workers=workers,
                    domain_id=d,
                    has_peers=True,
                ),
                instrumentation=obs,
            )
            master.vnow = clock
            for worker_id in workers:
                conn_id = 100 + worker_id
                master.hub.connect(conn_id)
                master._register_worker(conn_id, {"worker_id": worker_id})
            master.start_clock()
            masters.append(master)
    origin, target = masters[ORIGIN], masters[TARGET]
    for slot, load in enumerate(target_loads):
        worker_id = ASSIGNMENT.workers_of(TARGET)[slot]
        target.workers[worker_id].outstanding = {-1 - worker_id: load}
    for master in masters:
        master.loads(NOW)  # the view a phase pinned before any loss
    for slot in sorted(lost):
        target._worker_lost(
            ASSIGNMENT.workers_of(TARGET)[slot], reason="missed heartbeats"
        )
    for task in tasks:
        origin.ledger.open(TaskRecord(task))
    origin.driver.batch.add_arrivals(tasks)
    broker = MigrationBroker(CONFIG, Instrumentation(sink=sink))
    return masters, broker, sink


def sim_domains(tasks, target_loads, lost):
    """The runtime's two hosts, its origin holding ``tasks`` as leftovers."""
    sink = MemorySink()
    comm = UniformCommunicationModel(REMOTE)
    runtime = DistributedRuntime(
        schedulers=[
            build_scheduler("rtsads", CONFIG.experiment, comm)
            for _ in ASSIGNMENT.domains
        ],
        assignment=ASSIGNMENT,
        workload=[],
        remote_cost=REMOTE,
        instrumentation=Instrumentation(sink=sink),
    )
    origin, target = runtime.domains[ORIGIN], runtime.domains[TARGET]
    for slot, load in enumerate(target_loads):
        worker = target.worker_objs[slot]
        if load > 0:
            filler = Task(
                task_id=-1 - worker.processor_id,
                processing_time=load,
                arrival_time=0.0,
                deadline=1e9,
            )
            worker.deliver(ScheduleEntry(filler, slot, 0.0, load), NOW)
    for slot in sorted(lost):
        target.worker_objs[slot].fail(NOW)
    for task in tasks:
        runtime.ledger.open(TaskRecord(task))
    origin.driver.batch.add_arrivals(tasks)
    return runtime, sink


def waiting(driver, task_ids):
    """Ids of the named tasks still owed a decision by ``driver``."""
    return sorted(task.task_id for task in driver.withdraw(task_ids))


_quarters = st.integers(min_value=0, max_value=240).map(lambda n: n / 4)
_task_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=160).map(lambda n: n / 4),
        # Some already expired at NOW; every deadline is after arrival 0.
        st.integers(min_value=-36, max_value=480).map(lambda n: n / 4),
        st.frozensets(st.integers(min_value=0, max_value=3), max_size=2),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    specs=_task_specs,
    target_loads=st.lists(_quarters, min_size=2, max_size=2),
    lost=st.frozensets(st.integers(min_value=0, max_value=1)),
)
# The target's first worker is lost after the last phase pinned its view;
# the task needs the second, affine one (no communication cost) in time.
@example(
    specs=[(10.0, 20.0, {ASSIGNMENT.workers_of(TARGET)[1]})],
    target_loads=[0.0, 0.0],
    lost=frozenset({0}),
)
# Declined and accepted alike, nothing is offered twice.
@example(
    specs=[(10.0, 20.0, set()), (5.0, 400.0, set())],
    target_loads=[30.0, 0.0],
    lost=frozenset(),
)
def test_live_round_matches_the_simulator(specs, target_loads, lost):
    tasks = _tasks(specs)
    ids = [task.task_id for task in tasks]
    masters, broker, live_sink = live_domains(tasks, target_loads, lost)
    runtime, sim_sink = sim_domains(tasks, target_loads, lost)

    # Two rounds each: the second must find every leftover barred.
    for _ in range(2):
        broker.offer_leftovers(masters[ORIGIN], masters)
        runtime._offer_leftovers(runtime.domains[ORIGIN], NOW)

    notes = _notes(live_sink)
    assert notes == _notes(sim_sink)
    assert broker.stats == runtime.stats
    stats = broker.stats
    assert stats.offers == stats.accepted + stats.declined
    offered = [note[1] for note in notes if note[0] == "migration_offered"]
    assert len(offered) == len(set(offered)) == stats.offers
    migrated = sorted(note[1] for note in notes if note[0] == "migrated")
    assert len(migrated) == stats.accepted

    # Every task is owned by exactly one master, once.
    origin, target = masters[ORIGIN], masters[TARGET]
    assert sorted(target.records) == migrated
    assert sorted(origin.records) == sorted(set(ids) - set(migrated))
    assert sum(master.ledger.opened for master in masters) == len(ids)
    assert sum(
        sum(master.ledger.settled.values()) + master.ledger.still_open
        for master in masters
    ) == len(ids)
    # ... and waits in the same place on both backends.
    sim_origin, sim_target = runtime.domains[ORIGIN], runtime.domains[TARGET]
    assert waiting(target.driver, ids) == waiting(sim_target.driver, ids)
    assert waiting(origin.driver, ids) == waiting(sim_origin.driver, ids)

    # No connection is a peer master's: the hubs hold workers only.
    for master in masters:
        assert master.hub.open_connections == len(master.alive_workers())


def test_a_peer_with_no_live_worker_declines_every_offer():
    """Like the simulator, the live round offers to a peer whose workers
    are all gone, and the peer declines."""
    tasks = _tasks([(5.0, 400.0, set()), (5.0, 400.0, {0})])
    masters, broker, sink = live_domains(tasks, [0.0, 0.0], {0, 1})
    assert not broker.offer_leftovers(masters[ORIGIN], masters)
    assert broker.stats.offers == broker.stats.declined == 2
    assert [note[0] for note in _notes(sink)] == [
        "migration_offered",
        "migration_declined",
    ] * 2
    assert sorted(masters[ORIGIN].records) == [1, 2]
    assert masters[TARGET].records == {}

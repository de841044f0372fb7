"""Transaction workload generator (paper Section 5.1).

"A transaction contains a uniformly distributed number of given
attribute-values.  The values are picked equiprobably from their respective
domains."  All of one transaction's values come from a single sub-database
(domains are disjoint across sub-databases), chosen uniformly; deadlines
follow the proportional rule ``SF * 10 * Estimated_Cost``.

The paper does not pin down how often the *key* attribute is among the
given values — which controls the indexed-probe vs full-scan mix and hence
the offered load.  By default the key is included whenever the uniformly
drawn attribute subset happens to contain it (probability ``E[u]/A``);
``key_probability`` overrides that with an explicit coin, the calibration
knob the experiment configs use to keep offered load comparable across
scales (see DESIGN.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.task import Task, TaskSet
from ..database.database import (
    DatabaseConfig,
    DistributedDatabase,
    PopulatedDatabase,
    TaskDraft,
    placement_after,
)
from ..database.replication import ReplicaPlacement
from ..database.transaction import Transaction, UpdateTransaction
from .arrivals import ArrivalProcess, BurstyArrival, arrival_rate, make_arrival
from .deadlines import ProportionalDeadline


@dataclass(frozen=True)
class TransactionWorkloadConfig:
    """Knobs of the transaction generator, with paper defaults."""

    num_transactions: int = 1000
    slack_factor: float = 1.0  # SF in [1, 3]
    key_probability: Optional[float] = None
    write_fraction: float = 0.0  # paper: read-only, i.e. 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.key_probability is not None and not (
            0.0 <= self.key_probability <= 1.0
        ):
            raise ValueError("key_probability must be in [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.num_transactions <= 0:
            raise ValueError("num_transactions must be positive")
        if self.slack_factor <= 0:
            raise ValueError("slack_factor must be positive")


class TransactionWorkloadGenerator:
    """Draws transactions against a populated database.

    :meth:`drafts` needs only the rows and index; :meth:`generate` also
    needs the replica placement of a :class:`DistributedDatabase`.
    """

    def __init__(
        self,
        database: PopulatedDatabase,
        config: Optional[TransactionWorkloadConfig] = None,
        arrivals: Optional[ArrivalProcess] = None,
    ) -> None:
        self.database = database
        self.config = config or TransactionWorkloadConfig()
        self.arrivals = arrivals or BurstyArrival()
        self.deadlines = ProportionalDeadline(self.config.slack_factor)

    def _draw_transaction(
        self, txn_id: int, arrival_time: float, rng: random.Random
    ) -> Transaction:
        schema = self.database.schema
        subdb = rng.randrange(schema.num_subdatabases)
        # "A uniformly distributed number of given attribute-values."
        count = rng.randint(1, schema.num_attributes)
        if self.config.key_probability is None:
            attributes = rng.sample(range(schema.num_attributes), count)
        else:
            non_key = [
                a for a in range(schema.num_attributes)
                if a != schema.key_attribute
            ]
            if rng.random() < self.config.key_probability:
                attributes = [schema.key_attribute] + rng.sample(
                    non_key, min(count - 1, len(non_key))
                )
            else:
                attributes = rng.sample(non_key, min(count, len(non_key)))
        predicates = {
            attribute: schema.domain_for(subdb, attribute).sample(rng)
            for attribute in attributes
        }
        # Short-circuit before drawing so pure-read configurations (the
        # paper's) consume an identical RNG stream with or without the
        # write-mix feature compiled in.
        if self.config.write_fraction and rng.random() < self.config.write_fraction:
            # An update rewrites 1-2 attributes of the matched rows with
            # fresh values from the same sub-database's domains.
            count = rng.randint(1, min(2, schema.num_attributes))
            updated = rng.sample(range(schema.num_attributes), count)
            updates = {
                attribute: schema.domain_for(subdb, attribute).sample(rng)
                for attribute in updated
            }
            return UpdateTransaction(
                txn_id=txn_id,
                predicates=predicates,
                arrival_time=arrival_time,
                updates=updates,
            )
        return Transaction(
            txn_id=txn_id, predicates=predicates, arrival_time=arrival_time
        )

    def generate_transactions(self) -> List[Transaction]:
        """The raw transaction stream, in arrival order."""
        rng = random.Random(self.config.seed)
        times = self.arrivals.arrival_times(self.config.num_transactions, rng)
        return [
            self._draw_transaction(txn_id, arrival, rng)
            for txn_id, arrival in enumerate(times)
        ]

    def drafts(self) -> Tuple[List[TaskDraft], List[Transaction]]:
        """Each transaction's task fields but the affinity, plus the
        transactions; reads no replica placement.

        Every transaction is estimated once: its deadline and its task's
        processing time are the same estimate.
        """
        transactions = self.generate_transactions()
        drafts = []
        for txn in transactions:
            estimate = self.database.cost_model.estimate(txn)
            deadline = self.deadlines.deadline(txn.arrival_time, estimate.cost)
            drafts.append(self.database.draft(txn, deadline, estimate))
        return drafts, transactions

    def generate(self) -> Tuple[TaskSet, List[Transaction]]:
        """Tasks (for the scheduler) plus the transactions they wrap.

        A convenience for tests and examples over a
        :class:`DistributedDatabase`; the experiments place drafts through
        :class:`SeededDraw` instead.
        """
        drafts, transactions = self.drafts()
        placement = self.database.placement
        tasks = TaskSet(draft.place(placement) for draft in drafts)
        return tasks, transactions

    def generate_tasks(self) -> TaskSet:
        """Just the scheduler-facing tasks (tests and examples)."""
        tasks, _ = self.generate()
        return tasks


@dataclass(frozen=True)
class SeededDraw:
    """What a seed fixes of a workload, whatever machine it runs on.

    The paper's m- and R-sweeps run one database and one transaction
    stream per seed; only replica placement differs between their points.
    A draw keeps, per transaction, its :class:`TaskDraft` (estimate,
    deadline, tag, target sub-database), and the row generator's state
    where the rows left it, from which replica placement continues
    (:func:`~repro.database.database.placement_after`).
    It holds no row, no index and no transaction, so nothing a run later
    mutates (X3's updates) can reach it.
    """

    num_subdatabases: int
    rng_state: tuple
    drafts: Tuple[TaskDraft, ...]

    def __len__(self) -> int:
        return len(self.drafts)

    def place(
        self, num_processors: int, replication_rate: float
    ) -> Tuple[ReplicaPlacement, Tuple[Task, ...]]:
        """The replica placement on ``(m, R)`` and the tasks it yields."""
        placement = placement_after(
            self.rng_state,
            self.num_subdatabases,
            num_processors,
            replication_rate,
        )
        tasks = tuple(draft.place(placement) for draft in self.drafts)
        return placement, tasks


def draw_workload(
    experiment,
    seed: int,
    write_fraction: float = 0.0,
) -> Tuple[SeededDraw, PopulatedDatabase, List[Transaction]]:
    """The seed half of :func:`build_seeded_workload`.

    Draws the rows from ``Random(seed)``, the transactions from a second
    ``Random(seed)``, and estimates and dates each transaction; reads the
    fields of ``experiment.draw_key()``: an open arrival comes at
    :func:`arrival_rate`, over the time the stream takes at that rate.
    Returns the draw with the rows and transactions it was made from.
    """
    arrivals = None
    if experiment.arrival != "burst":
        rate = arrival_rate(experiment, experiment.offered_load)
        horizon = experiment.num_transactions / rate
        arrivals = make_arrival(experiment.arrival, rate, horizon=horizon)
    rng = random.Random(seed)
    database = PopulatedDatabase.populate(
        DatabaseConfig(
            records_per_subdb=experiment.records_per_subdb,
            domain_size=experiment.domain_size,
        ),
        rng,
    )
    rng_state = rng.getstate()
    generator = TransactionWorkloadGenerator(
        database=database,
        config=TransactionWorkloadConfig(
            num_transactions=experiment.num_transactions,
            slack_factor=experiment.slack_factor,
            key_probability=experiment.key_probability,
            write_fraction=write_fraction,
            seed=seed,
        ),
        arrivals=arrivals,
    )
    drafts, transactions = generator.drafts()
    draw = SeededDraw(
        num_subdatabases=database.config.num_subdatabases,
        rng_state=rng_state,
        drafts=tuple(drafts),
    )
    return draw, database, transactions


def build_seeded_workload(
    experiment,
    seed: int,
    write_fraction: float = 0.0,
) -> Tuple[DistributedDatabase, TaskSet, List[Transaction]]:
    """Database, scheduler tasks and raw transactions of one seeded run.

    A pure function of its arguments — ``experiment`` is anything with an
    :class:`~repro.experiments.config.ExperimentConfig`'s database and
    workload fields.  The simulator, the live master and every live worker
    rebuild byte-identical state from ``(experiment, seed)`` independently,
    so live and simulated runs of one config see the same workload.
    ``write_fraction`` is X3's update mix.

    It is the seed half (:func:`draw_workload`) followed by the placement
    half (:meth:`SeededDraw.place`), the same two steps the experiment
    runner's memo takes with the seed half kept between ``(m, R)`` points.
    """
    draw, database, transactions = draw_workload(
        experiment, seed, write_fraction
    )
    placement, tasks = draw.place(
        experiment.num_processors, experiment.replication_rate
    )
    return database.placed(placement), TaskSet(tasks), transactions

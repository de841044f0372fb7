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
from ..database.database import DatabaseConfig, DistributedDatabase
from ..database.transaction import Transaction, UpdateTransaction
from .arrivals import ArrivalProcess, BurstyArrival
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
    """Draws transactions against a built database and emits scheduler tasks."""

    def __init__(
        self,
        database: DistributedDatabase,
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

    def generate(self) -> Tuple[TaskSet, List[Transaction]]:
        """Tasks (for the scheduler) plus the transactions they wrap."""
        transactions = self.generate_transactions()
        tasks = TaskSet()
        for txn in transactions:
            estimate = self.database.estimate_cost(txn)
            deadline = self.deadlines.deadline(txn.arrival_time, estimate)
            tasks.add(self.database.to_task(txn, deadline))
        return tasks, transactions

    def generate_tasks(self) -> TaskSet:
        """Just the scheduler-facing tasks."""
        tasks, _ = self.generate()
        return tasks


def build_seeded_workload(
    experiment,
    seed: int,
    arrivals: Optional[ArrivalProcess] = None,
    write_fraction: float = 0.0,
) -> Tuple[DistributedDatabase, TaskSet, List[Transaction]]:
    """Database, scheduler tasks and raw transactions of one seeded run.

    A pure function of its arguments — ``experiment`` is anything with an
    :class:`~repro.experiments.config.ExperimentConfig`'s database and
    workload fields.  The simulator, the live master and every live worker
    rebuild byte-identical state from ``(experiment, seed)`` independently,
    so live and simulated runs of one config see the same workload.  The
    two keywords are the extension studies' departures from the paper's
    read-only burst: ``arrivals`` (X2's Poisson stream) and
    ``write_fraction`` (X3's update mix).
    """
    database = DistributedDatabase.build(
        config=DatabaseConfig(
            num_subdatabases=experiment.num_subdatabases,
            records_per_subdb=experiment.records_per_subdb,
            num_attributes=experiment.num_attributes,
            domain_size=experiment.domain_size,
        ),
        num_processors=experiment.num_processors,
        replication_rate=experiment.replication_rate,
        rng=random.Random(seed),
    )
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
    tasks, transactions = generator.generate()
    return database, tasks, transactions

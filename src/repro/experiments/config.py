"""Experiment configurations (paper Section 5.1 parameters).

The paper's setup: 10 sub-databases of 1000 records x 10 attributes, 1000
bursty transactions, deadlines ``SF * 10 * Estimated_Cost`` with SF in
[1, 3], replication rate R in [10%, 100%], processors 2..10, 10 runs per
point, 99% confidence (:data:`repro.metrics.stats.SIGNIFICANCE_LEVEL`).
:meth:`ExperimentConfig.paper` reproduces that
scale; :meth:`ExperimentConfig.quick` shrinks records and repetitions so CI
and the benchmark harness stay fast while preserving every ratio that
drives the result shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

from ..core.domains import PARTITION_POLICIES
from ..service.admission import ADMISSION_POLICY_NAMES
from ..workload.arrivals import ARRIVAL_NAMES

#: Fields describing *how* a sweep executes (parallelism, caching) rather
#: than *what* it computes.  They are excluded from
#: :meth:`ExperimentConfig.cache_fields`, so changing them can never
#: invalidate cached results — ``--jobs 4`` reuses cells computed serially.
EXECUTION_FIELDS = ("jobs", "cache_dir")

#: Fields that say which seeds a cell repeats.  ``run_once(config,
#: scheduler, seed)`` reads neither (the seed is an argument), so they are
#: no part of a run's identity: ``--runs 3`` then ``--runs 10`` recomputes
#: seven seeds per point.
STATISTICS_FIELDS = ("runs", "base_seed")

#: The fields :func:`repro.workload.transactions.build_seeded_workload`
#: reads: with the seed, the whole identity of a generated workload.
#: ``domains``, ``partition_policy``, ``scheduler`` and ``backend`` are
#: absent because they never reach the generator (tested against an
#: attribute-recording proxy in ``tests/experiments/test_workload_memo.py``).
WORKLOAD_FIELDS = (
    "num_subdatabases",
    "records_per_subdb",
    "num_attributes",
    "domain_size",
    "num_processors",
    "replication_rate",
    "num_transactions",
    "slack_factor",
    "key_probability",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: workload + machine + scheduler cost model.

    Frozen and built from plain picklable types, so a config can cross a
    ``multiprocessing`` spawn boundary unchanged (the parallel sweep engine
    relies on this).  All cost/time fields are in virtual quanta (one
    tuple-checking iteration = 1.0 unit), never wall seconds.
    """

    # --- workload (paper Section 5.1) ---
    num_transactions: int = 1000
    slack_factor: float = 1.0
    num_subdatabases: int = 10
    records_per_subdb: int = 1000
    num_attributes: int = 10
    domain_size: int = 100
    # Probability a transaction gives a key value (None = paper-literal
    # uniform attribute subsets, ~55%).  At paper scale 1000 transactions
    # against 10k records would offer 4.5x the deadline-feasible capacity
    # with the literal mix; 0.9 keeps offered load ~1.1x capacity at m=10,
    # the same balance the quick scale has naturally.
    key_probability: float | None = 0.9

    # --- machine ---
    num_processors: int = 10
    replication_rate: float = 0.3
    remote_cost: float = 400.0  # constant C of the wormhole model

    # --- scheduling cost model ---
    # kappa: virtual cost per generated vertex.  Chosen so one full pass over
    # the batch (kappa * m * n) stays comparable to the cheapest task class's
    # deadline horizon — the regime a Paragon-class host operates in.
    per_vertex_cost: float = 0.005

    # --- statistics ---
    runs: int = 10
    base_seed: int = 1998  # venue year; any constant works

    # --- execution ---
    # Registry name of the ExecutionBackend the runner dispatches to
    # ("sim" = virtual-clock simulator, "cluster" = live TCP system,
    # "service" = long-lived streaming service under open-loop load).
    # Kept a plain string so configs stay picklable and open to backends
    # registered by downstream code.
    backend: str = "sim"

    # Registry name of the scheduler to run (see repro.core.registry).
    # None means "no explicit choice": experiments fall back to their own
    # scheduler set (the figures compare rtsads vs dcols), while a name
    # pins every cell of a sweep to that one scheduler.  An ordinary
    # cache field, so `--scheduler edf` sweeps are content-addressed
    # separately from the default comparisons.
    scheduler: Optional[str] = None

    # --- sharding (see src/repro/sharding/) ---
    # Number of scheduling domains the worker set is partitioned into and
    # the partitioning policy (a member of
    # repro.core.domains.PARTITION_POLICIES).  domains=1 is the paper's
    # single-master system; domains>1 dispatches through the sharded
    # runtime (sim) or the multi-master launcher (cluster).  Ordinary
    # cache fields, so shard-curve sweeps are content-addressed like any
    # other axis.
    domains: int = 1
    partition_policy: str = "hash"

    # There is one search loop (repro.core.search.run_search), so "scalar"
    # is the only legal value and no run reads it.  benchmarks/e2e still
    # passes kernel="scalar"; the field goes when that benchmark is re-based.
    kernel: str = "scalar"

    # --- service mode (see src/repro/service/; ignored by sim/cluster) ---
    # Arrival-process name for the open-loop load generator (a key of
    # repro.workload.arrivals.ARRIVAL_NAMES), the offered load as a
    # fraction of fleet capacity (1.0 = mean arrival work == what the
    # workers can clear), and the admission/overload-shedding policy
    # (a key of repro.service.admission.ADMISSION_POLICY_NAMES).  They
    # are ordinary cache fields, so load-curve grids are content-addressed
    # like every other sweep axis.
    arrival: str = "burst"
    offered_load: float = 1.0
    admission_policy: str = "reject-newest"

    # --- sweep execution (see experiments/sweep.py) ---
    # How the cell grid executes: worker processes to fan cells across
    # (1 = every cell in this process) and where finished cells are kept
    # and looked up (None = no cache).  Neither affects what is computed —
    # they are excluded from the cache key (EXECUTION_FIELDS) and results
    # are byte-identical for every (jobs, cache_dir) combination.
    jobs: int = 1
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        """Reject configurations no experiment could meaningfully run."""
        if self.num_transactions <= 0:
            raise ValueError("num_transactions must be positive")
        if not 0 < self.slack_factor < math.inf:
            raise ValueError("slack_factor must be positive and finite")
        if not 0.0 < self.replication_rate <= 1.0:
            raise ValueError("replication_rate must be in (0, 1]")
        if self.num_processors <= 0:
            raise ValueError("num_processors must be positive")
        if not 0 <= self.remote_cost < math.inf:
            raise ValueError("remote_cost must be non-negative and finite")
        if not 0 < self.per_vertex_cost < math.inf:
            raise ValueError("per_vertex_cost must be positive and finite")
        if self.runs <= 0:
            raise ValueError("runs must be positive")
        if not self.backend:
            raise ValueError("backend must be a non-empty registry name")
        if self.scheduler is not None and not self.scheduler:
            raise ValueError(
                "scheduler must be None or a non-empty registry name"
            )
        if self.domains <= 0:
            raise ValueError("domains must be positive")
        if self.kernel != "scalar":
            raise ValueError(
                "kernel must be 'scalar' (the one search loop), "
                f"got {self.kernel!r}"
            )
        if self.domains > self.num_processors:
            raise ValueError(
                f"cannot split {self.num_processors} processors into "
                f"{self.domains} non-empty domains"
            )
        if self.partition_policy not in PARTITION_POLICIES:
            raise ValueError(
                f"partition_policy must be one of {PARTITION_POLICIES}, "
                f"got {self.partition_policy!r}"
            )
        if self.arrival not in ARRIVAL_NAMES:
            raise ValueError(
                f"arrival must be one of {ARRIVAL_NAMES}, got {self.arrival!r}"
            )
        if not 0 < self.offered_load < math.inf:
            raise ValueError("offered_load must be positive and finite")
        if self.admission_policy not in ADMISSION_POLICY_NAMES:
            raise ValueError(
                f"admission_policy must be one of {ADMISSION_POLICY_NAMES}, "
                f"got {self.admission_policy!r}"
            )
        if self.jobs <= 0:
            raise ValueError("jobs must be positive (1 = serial)")

    # ----- canonical scales --------------------------------------------------

    @classmethod
    def paper(cls, **overrides) -> "ExperimentConfig":
        """The full Section-5.1 configuration."""
        return cls(**overrides)

    @classmethod
    def quick(cls, **overrides) -> "ExperimentConfig":
        """A CI-scale configuration preserving the paper's cost ratios.

        Records per sub-database shrink 5x (so scans cost 200 checking
        iterations instead of 1000) with the domain size shrunk alongside so
        the mean key frequency stays at the paper's 10 tuples per key; the
        transaction count shrinks 4x, and the remote cost C and per-vertex
        cost scale with the scan cost.  Runs drop to 3 — enough for a
        confidence interval, fast enough for benchmarks.
        """
        defaults = dict(
            num_transactions=250,
            records_per_subdb=200,
            domain_size=20,
            remote_cost=80.0,
            per_vertex_cost=0.02,
            key_probability=None,  # literal mix already balances this scale
            runs=3,
        )
        defaults.update(overrides)
        return cls(**defaults)

    # ----- derived quantities -------------------------------------------------

    @property
    def total_records(self) -> int:
        """``r``: global record count."""
        return self.num_subdatabases * self.records_per_subdb

    @property
    def scan_cost(self) -> float:
        """Worst-case cost of a non-key transaction (``k * r/d``)."""
        return float(self.records_per_subdb)

    def with_processors(self, num_processors: int) -> "ExperimentConfig":
        """A copy with ``num_processors`` replaced (figure-5 sweep axis)."""
        return replace(self, num_processors=num_processors)

    def with_replication(self, replication_rate: float) -> "ExperimentConfig":
        """A copy with ``replication_rate`` replaced (figure-6 sweep axis)."""
        return replace(self, replication_rate=replication_rate)

    def with_slack_factor(self, slack_factor: float) -> "ExperimentConfig":
        """A copy with ``slack_factor`` replaced (laxity sweep axis)."""
        return replace(self, slack_factor=slack_factor)

    def with_domains(self, domains: int) -> "ExperimentConfig":
        """A copy with ``domains`` replaced (shard-curve sweep axis)."""
        return replace(self, domains=domains)

    def with_offered_load(self, offered_load: float) -> "ExperimentConfig":
        """A copy with ``offered_load`` replaced (load-curve sweep axis)."""
        return replace(self, offered_load=offered_load)

    def with_admission_policy(self, policy: str) -> "ExperimentConfig":
        """A copy with the service admission policy replaced."""
        return replace(self, admission_policy=policy)

    def seeds(self) -> List[int]:
        """One deterministic seed per repetition.

        Purely arithmetic over ``(base_seed, runs)``: the same list comes
        back no matter where or how often it is called, which is what
        makes sweep cells reproducible from any worker process — the
        parallel engine never generates seeds, it only distributes these.
        """
        return [self.base_seed + run for run in range(self.runs)]

    def workload_key(self) -> Tuple[object, ...]:
        """The :data:`WORKLOAD_FIELDS` values: which workload a seed yields.

        Two configs with equal keys generate byte-identical workloads from
        the same seed, whatever scheduler, backend or domain count they
        run them on.
        """
        return tuple(getattr(self, name) for name in WORKLOAD_FIELDS)

    def cache_fields(self) -> Dict[str, object]:
        """Every field one seeded run reads, as plain types.

        This is the identity the sweep cache hashes: all workload,
        machine, cost-model, backend, sharding and service fields —
        everything except :data:`EXECUTION_FIELDS` (how a sweep executes),
        :data:`STATISTICS_FIELDS` (which seeds) and the
        one-valued ``kernel``.  Any change to any returned value must
        invalidate cached cells, and no other change may (both tested in
        ``tests/experiments/test_sweep.py``).
        """
        unread = (*EXECUTION_FIELDS, *STATISTICS_FIELDS, "kernel")
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in unread
        }


#: Sweep axes used by the figure reproductions (paper Section 5.1).
PROCESSOR_SWEEP: Tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10)
REPLICATION_SWEEP: Tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)
SLACK_FACTOR_SWEEP: Tuple[float, ...] = (1.0, 2.0, 3.0)
#: Offered-load axis of the service compliance-under-load curve: from
#: comfortable headroom through saturation into 1.6x overload.
OFFERED_LOAD_SWEEP: Tuple[float, ...] = (0.6, 0.9, 1.2, 1.6)

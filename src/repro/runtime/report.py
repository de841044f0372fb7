"""The one report schema every execution backend produces.

A :class:`RunReport` is the outcome of running one scheduler over one
seeded workload on one backend — simulator, live TCP cluster, or anything
registered later.  The *exported* fields (everything :meth:`as_dict`
emits) have identical keys and types regardless of backend, which is what
lets one experiment sweep both execution modes through the same export
and figure pipeline; CI asserts the schemas can never drift apart.

Every *counted* field (``total_tasks`` through ``reschedules``) is a count
kept by the run's :class:`~repro.runtime.ledger.TaskLedger`;
:meth:`RunReport.from_ledgers` is the one place they are read off, for
one ledger or the ``k`` of a sharded live run.

Backend-specific artifacts that cannot be schema-stable — the simulator's
full ledger, the live master's bound port — ride along in
:attr:`RunReport.extras` and are exposed as conveniences (:attr:`trace`,
:attr:`port`, :attr:`events_dispatched`) but never exported.

Every ratio is computed by :func:`repro.metrics.compliance.ratio` — one
guard, one division, for both backends.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence

from ..metrics.compliance import percent, ratio
from .driver import PhaseTrace
from .ledger import COMPLETED, EXPIRED, FAILED, SHED, SURRENDERED, TaskLedger


@dataclass
class RunReport:
    """Outcome of one complete run on any backend."""

    backend: str
    scheduler_name: str
    num_workers: int
    seed: int
    total_tasks: int
    guaranteed: int
    completed: int
    deadline_hits: int
    completed_late: int
    expired: int
    failed: int
    guaranteed_violations: int
    reschedules: int
    workers_lost: int
    makespan: float
    wall_seconds: float
    phases: List[PhaseTrace] = field(default_factory=list)
    #: Schedulability-oracle verdict and regret for this run's workload
    #: (see :mod:`repro.analysis.schedulability`).  Populated by the
    #: experiment runner after the backend returns; empty means the
    #: oracle was not consulted.
    regret: Dict[str, object] = field(default_factory=dict)
    #: Inter-domain migration accounting for sharded runs (see
    #: :mod:`repro.sharding`): offer/accept/decline counts and per-domain
    #: flows.  Empty for single-master runs — the key set is part of the
    #: stable schema either way.
    migration: Dict[str, object] = field(default_factory=dict)
    #: Backend artifacts outside the stable schema (never exported).
    extras: Dict[str, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_ledgers(
        cls, ledgers: Sequence[TaskLedger], **run: object
    ) -> "RunReport":
        """The report of a run booked on ``ledgers`` (one per master).

        Fills every counted field by summing the ledgers' counts; ``run``
        is the rest of the constructor (backend, scheduler, clock
        readings, phases, extras).  Judged against *offered* load: a
        rejected submission counts in ``total_tasks``, and rejected, shed
        and surrendered work is ``failed`` beside tasks lost in flight.
        """
        summed = (
            "opened", "rejected", "deadline_hits", "guaranteed",
            "guaranteed_violations", "reschedules",
        )
        counts: Counter = Counter()
        for ledger in ledgers:
            counts.update(ledger.settled)
            counts.update({name: getattr(ledger, name) for name in summed})
        return cls(
            total_tasks=counts["opened"] + counts["rejected"],
            guaranteed=counts["guaranteed"],
            completed=counts[COMPLETED],
            deadline_hits=counts["deadline_hits"],
            completed_late=counts[COMPLETED] - counts["deadline_hits"],
            expired=counts[EXPIRED],
            failed=(
                counts[FAILED] + counts[SHED] + counts[SURRENDERED]
                + counts["rejected"]
            ),
            guaranteed_violations=counts["guaranteed_violations"],
            reschedules=counts["reschedules"],
            **run,
        )

    def check_balance(self) -> None:
        """Raise ``ValueError`` unless every task is booked exactly once.

        A drained batch run settles every task: ``completed + expired +
        failed == total_tasks``.  A service report also carries the
        submission side in ``extras``: every submission was accepted or
        rejected, ``failed`` is exactly the rejected, shed and surrendered
        ones, and accepted work still open (a report taken before the
        drain finished) is the only thing allowed to be unsettled.
        """
        extras = self.extras
        booked = self.completed + self.expired + self.failed
        checks = [
            (
                "completed + expired + failed + open == total_tasks",
                booked + extras.get("open", 0),
                self.total_tasks,
            ),
            (
                "deadline_hits + completed_late == completed",
                self.deadline_hits + self.completed_late,
                self.completed,
            ),
        ]
        if "submitted" in extras:
            refused = extras["rejected"] + extras["shed"] + extras["surrendered"]
            checks += [
                (
                    "accepted + rejected == submitted",
                    extras["accepted"] + extras["rejected"],
                    extras["submitted"],
                ),
                ("submitted == total_tasks", extras["submitted"], self.total_tasks),
                ("rejected + shed + surrendered == failed", refused, self.failed),
            ]
        problems = [
            f"{law} ({left} != {right})"
            for law, left, right in checks
            if left != right
        ]
        if problems:
            raise ValueError(
                f"{self.backend} report does not balance: " + "; ".join(problems)
            )

    # ----- ratios (all via metrics.compliance) ------------------------------

    @property
    def hit_ratio(self) -> float:
        """Deadline compliance: fraction of tasks finished by deadline."""
        return ratio(self.deadline_hits, self.total_tasks)

    @property
    def hit_percent(self) -> float:
        """:attr:`hit_ratio` as a percentage (the figures' y axis)."""
        return percent(self.deadline_hits, self.total_tasks)

    @property
    def guarantee_ratio(self) -> float:
        """Fraction of tasks delivered under an unrevoked guarantee."""
        return ratio(self.guaranteed, self.total_tasks)

    # ----- phase-level aggregates -------------------------------------------

    @property
    def num_phases(self) -> int:
        """How many scheduling phases the run took."""
        return len(self.phases)

    @property
    def dead_end_rate(self) -> float:
        """Fraction of phases that terminated in a dead end."""
        if not self.phases:
            return 0.0
        return sum(1 for p in self.phases if p.dead_end) / len(self.phases)

    @property
    def mean_depth(self) -> float:
        """Average schedule depth over productive phases."""
        productive = [p for p in self.phases if p.scheduled > 0]
        if not productive:
            return 0.0
        return sum(p.max_depth for p in productive) / len(productive)

    @property
    def mean_processors_touched(self) -> float:
        """Average distinct processors used per productive phase schedule."""
        productive = [p for p in self.phases if p.scheduled > 0]
        if not productive:
            return 0.0
        return sum(p.processors_touched for p in productive) / len(productive)

    @property
    def total_scheduling_time(self) -> float:
        """Virtual time the host spent inside scheduling phases."""
        return sum(p.time_used for p in self.phases)

    # ----- backend extras ---------------------------------------------------

    @property
    def trace(self):
        """The run's task ledger with its records (sim backend only)."""
        try:
            return self.extras["trace"]
        except KeyError:
            raise AttributeError(
                f"the {self.backend!r} backend records no simulation trace"
            ) from None

    @property
    def reclaimed_time(self) -> float:
        """Worst-case processor time reclaimed by early completions, in
        virtual quanta (0.0 where a backend keeps no finished records)."""
        trace = self.extras.get("trace")
        return trace.total_reclaimed_time() if trace is not None else 0.0

    @property
    def events_dispatched(self) -> int:
        """Engine events dispatched (sim backend only; 0 elsewhere)."""
        return int(self.extras.get("events_dispatched", 0))

    @property
    def port(self) -> int:
        """The live master's bound TCP port (cluster backend only)."""
        try:
            return int(self.extras["port"])
        except KeyError:
            raise AttributeError(
                f"the {self.backend!r} backend binds no port"
            ) from None

    # ----- presentation -----------------------------------------------------

    def summary(self) -> str:
        """One-line human-readable digest used by examples and the CLI."""
        return (
            f"{self.scheduler_name}: {self.deadline_hits}/"
            f"{self.total_tasks} deadlines met "
            f"({self.hit_percent:.1f}%), "
            f"{len(self.phases)} phases, makespan {self.makespan:.1f}, "
            f"dead-end rate {100 * self.dead_end_rate:.1f}%"
        )

    def render(self) -> str:
        """Multi-line report used by the CLI (both backends)."""
        lines = [
            (
                f"{self.scheduler_name} on {self.num_workers} workers - "
                f"{self.backend} backend (seed {self.seed})"
            ),
            (
                f"guarantee ratio:  {self.guarantee_ratio:.3f} "
                f"({self.guaranteed}/{self.total_tasks} guaranteed)"
            ),
            (
                f"compliance ratio: {self.hit_ratio:.3f} "
                f"({self.deadline_hits}/{self.total_tasks} met their deadline)"
            ),
            (
                f"completed {self.completed} (late {self.completed_late}), "
                f"expired {self.expired}, failed {self.failed}, "
                f"guaranteed-but-missed {self.guaranteed_violations}"
            ),
            (
                f"phases {self.num_phases}, reschedules {self.reschedules}, "
                f"workers lost {self.workers_lost}"
            ),
            (
                f"makespan {self.makespan:.1f} units "
                f"({self.wall_seconds:.2f} s wall)"
            ),
        ]
        return "\n".join(lines)

    # ----- export -----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """The stable, backend-neutral schema (extras excluded).

        Keys *and* value types are identical for every backend; CI's
        backend-matrix job asserts exactly that.
        """
        return {
            "backend": self.backend,
            "scheduler_name": self.scheduler_name,
            "num_workers": self.num_workers,
            "seed": self.seed,
            "total_tasks": self.total_tasks,
            "guaranteed": self.guaranteed,
            "completed": self.completed,
            "deadline_hits": self.deadline_hits,
            "completed_late": self.completed_late,
            "expired": self.expired,
            "failed": self.failed,
            "guaranteed_violations": self.guaranteed_violations,
            "reschedules": self.reschedules,
            "workers_lost": self.workers_lost,
            "makespan": float(self.makespan),
            "wall_seconds": float(self.wall_seconds),
            "hit_ratio": self.hit_ratio,
            "guarantee_ratio": self.guarantee_ratio,
            "num_phases": self.num_phases,
            "regret": dict(self.regret),
            "migration": dict(self.migration),
            "phases": [asdict(phase) for phase in self.phases],
        }

"""The three simulator workloads: paper-scale fig5, the quick figures, shards.

Each workload is a list of *units* — one call of a public figure function
for one x value — repeated pass after pass with a fresh base seed per pass,
so a memo inside the program cannot turn a later pass into a no-op.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional

from stats import per_pass

#: Base seeds of consecutive passes are this far apart: quick-scale cells
#: run seeds ``base .. base+2``, and passes must not share any.
PASS_SEED_STRIDE = 1000


@dataclass
class Unit:
    """One figure call: its name inside the pass and how to make it."""

    key: str
    call: Callable[[], object]


def pass_units(
    workload: str, base_seed: int, smoke: bool = False, kernel: str = "scalar"
) -> List[Unit]:
    """The units of one pass of ``workload`` at ``base_seed``."""
    from repro.experiments import ExperimentConfig
    from repro.experiments.config import PROCESSOR_SWEEP, REPLICATION_SWEEP
    from repro.experiments.figures import figure5, figure6, shard_curve

    if workload == "fig5-paper":
        config = ExperimentConfig.paper(
            runs=1, base_seed=base_seed, kernel=kernel,
            **({"num_transactions": 120} if smoke else {}),
        )
        # The sweep stops at m=8: at m=10 the phase count of one seed is 3x
        # another's (dcols: 31k-110k), and the cell's host time with it, so
        # the workload would measure which seed it was given.
        return [
            Unit(f"fig5 m={m}", lambda m=m: figure5(config, processors=(m,)))
            for m in ((2, 8) if smoke else (2, 6, 8))
        ]
    if workload == "figs-quick":
        config = ExperimentConfig.quick(
            base_seed=base_seed, kernel=kernel,
            **({"num_transactions": 40, "runs": 2} if smoke else {}),
        )
        processors = (2, 10) if smoke else PROCESSOR_SWEEP
        rates = (0.1, 1.0) if smoke else REPLICATION_SWEEP
        return [
            Unit(f"fig5 m={m}", lambda m=m: figure5(config, processors=(m,)))
            for m in processors
        ] + [
            Unit(
                f"fig6 R={r}",
                lambda r=r: figure6(config, replication_rates=(r,)),
            )
            for r in rates
        ]
    if workload == "shard-wide":
        config = ExperimentConfig.quick(
            num_transactions=150 if smoke else 3000,
            per_vertex_cost=0.005,
            runs=1,
            base_seed=base_seed,
            kernel=kernel,
        )
        return [
            Unit(
                f"shard m={m} k={k}",
                lambda m=m, k=k: shard_curve(
                    config, processors=(m,), domains=(k,)
                ),
            )
            for m in ((16,) if smoke else (16, 24))
            for k in ((1, 4) if smoke else (1, 2, 4))
        ]
    raise ValueError(f"unknown simulator workload {workload!r}")


def warm_up() -> None:
    """One tiny cell of each figure kind, so lazy imports are done."""
    from repro.experiments import ExperimentConfig
    from repro.experiments.figures import figure5, shard_curve

    config = ExperimentConfig.quick(runs=1, num_transactions=40)
    figure5(config, processors=(3,))
    shard_curve(config, processors=(4,), domains=(2,))


@dataclass
class UnitOutcome:
    """What one figure call cost and whether its results hold up."""

    repetitions: int = 0
    failed: int = 0
    tasks: int = 0
    fingerprint: str = ""


def check_unit(result) -> UnitOutcome:
    """Invariants every repetition must satisfy, plus a result fingerprint.

    RT-SADS's theorem: a guaranteed task never misses its deadline.  The
    offline oracle's ceiling: no scheduler beats ``hits_upper_bound``.  The
    fingerprint covers every simulated statistic a figure call returns, so
    a change to the program that alters the paper's results is caught on
    the pinned seed even when both invariants still hold.
    """
    outcome = UnitOutcome()
    digest = hashlib.sha256()
    for (series, x), cell in result.cells.items():
        repetitions = len(cell.hit_percents)
        outcome.repetitions += repetitions
        outcome.tasks += repetitions * cell.config.num_transactions
        beaten = sum(
            1
            for regret in cell.regrets
            if regret
            and regret["verdict"] != "unknown"
            and regret["deadline_hits"] > regret["hits_upper_bound"]
        )
        if cell.scheduled_but_missed > 0:
            # The cell only carries the total, so every repetition of it
            # is suspect.
            outcome.failed += repetitions
        else:
            outcome.failed += beaten
        digest.update(
            repr(
                (
                    series,
                    x,
                    cell.hit_percents,
                    cell.makespans,
                    cell.scheduling_times,
                    cell.dead_end_rates,
                    cell.mean_depths,
                )
            ).encode()
        )
    outcome.fingerprint = digest.hexdigest()
    return outcome


@dataclass
class SimRun:
    """Everything one timed section of a simulator workload measured."""

    seconds_by_unit: Dict[str, List[float]] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    wall: float = 0.0
    tasks: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def pass_seconds(self) -> float:
        return per_pass(self.seconds_by_unit)


def run_section(
    workload: str,
    seed: int,
    seconds: Optional[float],
    smoke: bool = False,
    kernel: str = "scalar",
    around_unit: Callable[[str], ContextManager] = lambda key: nullcontext(),
) -> SimRun:
    """Run passes of ``workload`` for ``seconds``, or one pass when ``None``.

    The clock is read after every unit; once the first pass is complete the
    section stops at the first unit that ends past ``seconds``.  A unit
    that raises counts as one failed operation and the section goes on.
    ``around_unit(key)`` gives the context each figure call runs in (the
    traced run's root span).
    """
    run = SimRun()
    clock = time.perf_counter
    started = clock()
    pass_index = 0
    while True:
        units = pass_units(
            workload, seed + PASS_SEED_STRIDE * pass_index, smoke, kernel
        )
        for unit in units:
            begin = clock()
            try:
                with around_unit(unit.key):
                    result = unit.call()
            except Exception:  # the benchmark reports it and keeps going
                traceback.print_exc(file=sys.stderr)
                run.attempted += 1
                run.failed += 1
                continue
            spent = clock() - begin
            run.seconds_by_unit.setdefault(unit.key, []).append(spent)
            run.wall += spent
            outcome = check_unit(result)
            run.attempted += outcome.repetitions
            run.failed += outcome.failed
            run.tasks += outcome.tasks
            run.fingerprints[f"{pass_index}:{unit.key}"] = outcome.fingerprint
            if (
                seconds is not None
                and pass_index > 0
                and clock() - started >= seconds
            ):
                return run
        pass_index += 1
        if seconds is None or clock() - started >= seconds:
            return run


def mismatched_fingerprints(
    run: SimRun, expected: Dict[str, str]
) -> List[str]:
    """Keys whose fingerprint differs from the committed one.

    Keys the committed file does not know (a faster machine reaching a
    later pass) are not compared.
    """
    return sorted(
        key
        for key, fingerprint in run.fingerprints.items()
        if key in expected and expected[key] != fingerprint
    )

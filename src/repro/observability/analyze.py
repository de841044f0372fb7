"""Trace replay: deadline-miss attribution, timelines, and trace diffs.

A merged trace (simulator or live cluster — the event vocabulary is
shared) contains everything needed to answer *why* each deadline was
missed, not just how many were.  This module replays the ``task``
transitions and ``span`` phase records from one trace and classifies
every miss into exactly one cause:

``worker_failure``
    The task was on a worker that died (``failed``) or had its
    assignment surrendered (``surrendered``) and could not recover in
    time.  Failure dominates every other explanation: whatever else went
    wrong, the crash is the story.
``execution_overrun``
    The task started with enough budget to meet its deadline but the
    physical execution outran the worst-case estimate (live runs stamp
    the evidence directly as ``overrun_seconds``).
``dispatch_delay``
    The task was placed — dispatched/delivered, or explicitly declined
    at the master's dispatch-time re-validation — but too late for the
    remaining slack: the delay between feasibility and execution ate the
    deadline.
``search_latency``
    The task was never placed although scheduling phases ran while it
    was live: the feasibility search could not fit it (or spent its
    quantum elsewhere) before the deadline passed.
``admission_wait``
    Nothing ever considered the task: it expired waiting for a phase to
    open.  The catch-all — every miss matches one of the five.

Classification is a strict first-match cascade in the order above, so
attribution is total (100% of misses) and exclusive (exactly one cause
per miss) by construction.

Orthogonally to the *cause*, every miss is labeled with the workload's
offline schedulability verdict (:mod:`repro.analysis.schedulability`),
reconstructed from the trace's enriched ``arrived`` events: a miss on a
provably-**feasible** workload is *regret* — the scheduler alone left
the deadline on the table — while a miss on a provably-**infeasible**
workload may have been forced by the workload no matter the scheduler.
Traces that predate arrival enrichment classify as ``unknown``.

Sharded traces additionally label each miss with the task's
inter-domain migration path (``migrated`` transitions carrying
``from_domain``/``to_domain``), so cross-domain misses stay attributable
without adding a sixth cause: migration moves a task between masters, it
never by itself explains a miss.

The module is pure: functions take event lists (as returned by
:func:`~repro.observability.sinks.read_jsonl`) and return dataclasses or
rendered ASCII tables.  The ``repro trace`` CLI is a thin wrapper.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.schedulability import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    SchedulabilityVerdict,
    analyze_triples,
)

#: Deadline-comparison slop in virtual units: the core EPSILON's value,
#: copied because this package imports nothing beyond the stdlib.
EPSILON = 1e-9

CAUSE_WORKER_FAILURE = "worker_failure"
CAUSE_EXECUTION_OVERRUN = "execution_overrun"
CAUSE_DISPATCH_DELAY = "dispatch_delay"
CAUSE_SEARCH_LATENCY = "search_latency"
CAUSE_ADMISSION_WAIT = "admission_wait"

#: Every cause the classifier can assign, in cascade (precedence) order.
CAUSES = (
    CAUSE_WORKER_FAILURE,
    CAUSE_EXECUTION_OVERRUN,
    CAUSE_DISPATCH_DELAY,
    CAUSE_SEARCH_LATENCY,
    CAUSE_ADMISSION_WAIT,
)

#: Transitions that mean "the task was handed to a processor" (the
#: ledger's ``PLACED_TRANSITIONS``; a test holds the two together).
_PLACED = ("dispatched", "delivered")
#: Transitions that mean "execution began on a processor".
_STARTED = ("started", "exec_started")

# Outcomes a task timeline can end in: a completion is ``met`` or
# ``late``; every other terminal transition of the ledger's vocabulary
# (``shed`` and ``surrendered`` too) is an outcome under its own name.
OUTCOME_MET = "met"
OUTCOME_LATE = "late"
OUTCOME_EXPIRED = "expired"
OUTCOME_FAILED = "failed"
OUTCOME_INCOMPLETE = "incomplete"


def _terminal_transitions() -> Tuple[str, ...]:
    """The ledger's terminal transition names.

    Read at call time: the ledger's package imports this one's
    primitives, so a module-level import would be circular.
    """
    from ..runtime.ledger import TERMINAL_TRANSITIONS

    return TERMINAL_TRANSITIONS


def _num(value: object) -> Optional[float]:
    """The value as a float when it is one (bools excluded), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


@dataclass
class TaskTimeline:
    """Every ``task`` transition one task went through, in trace order."""

    task_id: int
    transitions: List[Dict[str, object]] = field(default_factory=list)

    def has(self, *names: str) -> bool:
        """Whether any transition with one of ``names`` occurred."""
        return any(t.get("transition") in names for t in self.transitions)

    def first(self, *names: str) -> Optional[Dict[str, object]]:
        """The earliest transition matching ``names`` (None if absent)."""
        for event in self.transitions:
            if event.get("transition") in names:
                return event
        return None

    def last(self, *names: str) -> Optional[Dict[str, object]]:
        """The latest transition matching ``names`` (None if absent)."""
        for event in reversed(self.transitions):
            if event.get("transition") in names:
                return event
        return None

    def field_value(self, key: str) -> Optional[float]:
        """The first numeric value of ``key`` carried by any transition."""
        for event in self.transitions:
            value = _num(event.get(key))
            if value is not None:
                return value
        return None

    @property
    def arrival(self) -> Optional[float]:
        """Arrival time, from whichever transition recorded it."""
        arrived = self.first("arrived")
        if arrived is not None:
            t = _num(arrived.get("t"))
            if t is not None:
                return t
        return self.field_value("arrival")

    @property
    def deadline(self) -> Optional[float]:
        """Absolute deadline, from whichever transition recorded it."""
        return self.field_value("deadline")

    def migration_path(self) -> Optional[str]:
        """Domain hops of completed migrations, e.g. ``"0->1"``.

        Sharded runs emit a ``migrated`` transition per accepted
        inter-domain handoff (offers that were declined or timed out do
        not move the task and do not count).  None for unsharded traces.
        """
        path: List[str] = []
        for event in self.transitions:
            if event.get("transition") != "migrated":
                continue
            source = event.get("from_domain")
            target = event.get("to_domain")
            if not path:
                path.append(str(source))
            path.append(str(target))
        return "->".join(path) if path else None

    def terminal(self) -> Optional[Dict[str, object]]:
        """The terminal transition the timeline ended in (None if open).

        The last one wins.  ``surrendered`` is terminal only as the word
        on a drain: a worker-loss ``surrendered`` requeues the task, so
        one followed by a re-placement leaves the timeline open.
        """
        names = _terminal_transitions()
        placed_since = False
        for event in reversed(self.transitions):
            name = event.get("transition")
            if name in _PLACED:
                placed_since = True
            elif name in names:
                requeued = name == "surrendered" and placed_since
                return None if requeued else event
        return None

    def outcome(self) -> str:
        """Terminal outcome of the timeline (last terminal event wins)."""
        terminal = self.terminal()
        if terminal is None:
            return OUTCOME_INCOMPLETE
        transition = terminal.get("transition")
        if transition != "finished":
            return str(transition)
        if terminal.get("met_deadline") is True:
            return OUTCOME_MET
        if terminal.get("met_deadline") is False:
            return OUTCOME_LATE
        # No explicit verdict on the finish event: derive one.
        t = _num(terminal.get("t"))
        deadline = self.deadline
        if t is not None and deadline is not None:
            return OUTCOME_MET if t <= deadline + EPSILON else OUTCOME_LATE
        return OUTCOME_MET


@dataclass
class MissAttribution:
    """One missed deadline with its single attributed cause."""

    task_id: int
    cause: str
    outcome: str
    detail: str
    deadline: Optional[float] = None
    miss_time: Optional[float] = None
    phase: Optional[int] = None
    #: The trace-level oracle verdict this miss happened under: a miss on
    #: a provably-``feasible`` workload is *regret* (the scheduler alone
    #: is to blame), one on a provably-``infeasible`` workload may have
    #: been forced by the workload itself, and ``unknown`` means the
    #: trace lacked the per-task data to decide.
    workload: str = UNKNOWN
    #: Domain hops when the task was migrated between scheduling domains
    #: before missing (``"0->1"``); None for unmigrated tasks.  This is
    #: orthogonal to the cause — migration moves a task, it is never
    #: itself one of the five causes.
    migration: Optional[str] = None

    @property
    def is_regret(self) -> bool:
        """True when no scheduler could have missed this deadline set."""
        return self.workload == FEASIBLE


@dataclass
class AttributionReport:
    """Every miss in one trace, classified; plus the run-level tallies."""

    total_tasks: int
    outcomes: Counter
    misses: List[MissAttribution]
    phases: int
    #: Offline schedulability verdict reconstructed from the trace's
    #: ``arrived`` events (None when the trace predates arrival
    #: enrichment or omits ``run_start``'s worker count).
    oracle: Optional[SchedulabilityVerdict] = None

    @property
    def by_cause(self) -> Counter:
        """Miss counts per cause (zero-miss causes omitted)."""
        return Counter(miss.cause for miss in self.misses)

    @property
    def by_phase(self) -> Counter:
        """Miss counts per dispatch phase; never-placed misses key None."""
        return Counter(miss.phase for miss in self.misses)

    @property
    def migrated_misses(self) -> int:
        """Misses on tasks that crossed a scheduling-domain boundary."""
        return sum(1 for miss in self.misses if miss.migration)

    @property
    def workload_class(self) -> str:
        """Oracle verdict string for the whole trace (``unknown`` w/o one)."""
        return self.oracle.verdict if self.oracle is not None else UNKNOWN

    @property
    def regret_misses(self) -> int:
        """Misses the oracle proves avoidable.

        On a provably-feasible workload every miss is regret; on a
        provably-infeasible one only the misses beyond the oracle's
        forced-miss floor are (the floor's worth may have been inevitable
        no matter the scheduler); without a verdict nothing is claimed.
        """
        if self.oracle is None or self.workload_class == UNKNOWN:
            return 0
        return max(0, len(self.misses) - self.oracle.forced_misses)


def trace_oracle(
    events: Sequence[Dict[str, object]],
    timelines: Dict[int, TaskTimeline],
) -> Optional[SchedulabilityVerdict]:
    """Schedulability verdict of the workload one trace recorded.

    Rebuilds ``(arrival, cost, deadline)`` triples from the task
    timelines and the worker count from ``run_start``, then runs the
    offline oracle (:mod:`repro.analysis.schedulability`).  Returns None
    — *no claim*, rather than a guess — unless **every** task carries
    all three numbers: a partial reconstruction could misclassify the
    workload (e.g. calling it feasible because the costly tasks were the
    undocumented ones).
    """
    workers = None
    for event in events:
        if event.get("event") == "run_start":
            workers = _num(event.get("workers"))
            break
    if workers is None or int(workers) <= 0 or not timelines:
        return None
    triples = []
    for timeline in timelines.values():
        arrival = timeline.arrival
        cost = timeline.field_value("cost")
        deadline = timeline.deadline
        if arrival is None or cost is None or deadline is None:
            return None
        triples.append((arrival, cost, deadline))
    return analyze_triples(triples, int(workers))


def build_timelines(
    events: Sequence[Dict[str, object]],
) -> Dict[int, TaskTimeline]:
    """Group a trace's ``task`` transitions by task id, preserving order."""
    timelines: Dict[int, TaskTimeline] = {}
    for event in events:
        if event.get("event") != "task":
            continue
        task_id = event.get("task_id")
        if not isinstance(task_id, int):
            continue
        timeline = timelines.get(task_id)
        if timeline is None:
            timeline = timelines[task_id] = TaskTimeline(task_id=task_id)
        timeline.transitions.append(event)
    return timelines


def phase_windows(
    events: Sequence[Dict[str, object]],
) -> List[Tuple[float, float]]:
    """Virtual-time windows ``(open, close)`` of every scheduling phase.

    Phase spans stamp their opening virtual time ``t`` and how much of the
    quantum the search consumed (``time_used``); the window closes at
    ``t + time_used`` (or ``t`` when the span predates that field).  Live
    traces wrap every scheduler ``phase`` span in a ``cluster_phase``
    span; when the outer kind is present only it is counted, so one phase
    is one window on both backends.
    """
    spans = [event for event in events if event.get("event") == "span"]
    names = {event.get("name") for event in spans}
    wanted = "cluster_phase" if "cluster_phase" in names else "phase"
    windows: List[Tuple[float, float]] = []
    for event in spans:
        if event.get("name") != wanted:
            continue
        opened = _num(event.get("t"))
        if opened is None:
            continue
        used = _num(event.get("time_used")) or 0.0
        windows.append((opened, opened + used))
    return windows


def classify_miss(
    timeline: TaskTimeline, phases: Sequence[Tuple[float, float]]
) -> Tuple[str, str]:
    """One (cause, human-readable detail) for a missed-deadline timeline.

    Implements the module-level cascade; the final branch is a catch-all,
    so every miss receives exactly one cause.
    """
    deadline = timeline.deadline

    # 1. A crash explains everything downstream of it.
    if timeline.has("failed", "surrendered"):
        lost = timeline.last("failed", "surrendered")
        worker = lost.get("processor", lost.get("worker"))
        return CAUSE_WORKER_FAILURE, (
            f"assignment lost to worker {worker} "
            f"({lost.get('transition')}); "
            f"rescheduling could not recover the deadline"
        )

    started = timeline.first(*_STARTED)
    finished = timeline.last("finished")

    # 2. Started in time, finished late: the execution itself overran.
    if finished is not None and started is not None:
        overrun = _num(finished.get("overrun_seconds"))
        if overrun is None:
            exec_finished = timeline.last("exec_finished")
            if exec_finished is not None:
                overrun = _num(exec_finished.get("overrun_seconds"))
        if overrun is not None and overrun > 0:
            return CAUSE_EXECUTION_OVERRUN, (
                f"execution exceeded its worst-case budget by "
                f"{overrun:.6f}s"
            )
        start_t = _num(started.get("t"))
        planned = timeline.field_value("planned_cost")
        if (
            start_t is not None
            and planned is not None
            and deadline is not None
            and start_t + planned <= deadline + EPSILON
        ):
            return CAUSE_EXECUTION_OVERRUN, (
                f"started at t={start_t:.3f} with budget {planned:.3f} "
                f"inside deadline {deadline:.3f}, yet finished late"
            )

    # 3. It was placed (or explicitly declined at dispatch) — the delay
    #    between feasibility and execution consumed the slack.
    placed = timeline.first(*_PLACED)
    if placed is not None or timeline.has("dispatch_rejected"):
        if placed is not None:
            t = _num(placed.get("t"))
            where = f"placed at t={t:.3f}" if t is not None else "placed"
        else:
            rejected = timeline.last("dispatch_rejected")
            t = _num(rejected.get("t"))
            where = (
                f"declined at dispatch re-validation (t={t:.3f})"
                if t is not None
                else "declined at dispatch re-validation"
            )
        return CAUSE_DISPATCH_DELAY, (
            f"{where}; dispatch/communication delay left too little "
            f"slack before the deadline"
        )

    # 4. Never placed, but the search ran while the task was live.
    arrival = timeline.arrival
    if deadline is not None:
        window_start = arrival if arrival is not None else float("-inf")
        for opened, closed in phases:
            if closed >= window_start - EPSILON and (
                opened <= deadline + EPSILON
            ):
                return CAUSE_SEARCH_LATENCY, (
                    f"a scheduling phase ran at t={opened:.3f} while the "
                    f"task was live but never produced a feasible slot"
                )

    # 5. Nothing considered it before the deadline passed.
    return CAUSE_ADMISSION_WAIT, (
        "expired waiting for a scheduling phase to consider it"
    )


def attribute_misses(
    events: Sequence[Dict[str, object]],
) -> AttributionReport:
    """Replay one trace and classify every missed deadline.

    Every task whose terminal outcome is late, expired, or failed is a
    miss; each receives exactly one cause from :func:`classify_miss`.
    """
    timelines = build_timelines(events)
    phases = phase_windows(events)
    oracle = trace_oracle(events, timelines)
    workload = oracle.verdict if oracle is not None else UNKNOWN
    outcomes: Counter = Counter()
    misses: List[MissAttribution] = []
    for task_id in sorted(timelines):
        timeline = timelines[task_id]
        outcome = timeline.outcome()
        outcomes[outcome] += 1
        if outcome not in (OUTCOME_LATE, OUTCOME_EXPIRED, OUTCOME_FAILED):
            continue
        cause, detail = classify_miss(timeline, phases)
        terminal = timeline.terminal()
        placed = timeline.first(*_PLACED)
        phase = None
        if placed is not None and isinstance(placed.get("phase"), int):
            phase = placed["phase"]
        misses.append(
            MissAttribution(
                task_id=task_id,
                cause=cause,
                outcome=outcome,
                detail=detail,
                deadline=timeline.deadline,
                miss_time=(
                    _num(terminal.get("t")) if terminal is not None else None
                ),
                phase=phase,
                workload=workload,
                migration=timeline.migration_path(),
            )
        )
    return AttributionReport(
        total_tasks=len(timelines),
        outcomes=outcomes,
        misses=misses,
        phases=len(phases),
        oracle=oracle,
    )


# ----- rendering ------------------------------------------------------------


def _table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> List[str]:
    """Left-aligned ASCII table lines (headers underlined with dashes)."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(row[col]) for row in cells) for col in range(len(headers))
    ]
    lines = []
    for index, row in enumerate(cells):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            .rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return lines


def _oracle_line(report: AttributionReport, total_misses: int) -> str:
    """One sentence classifying the misses against the workload oracle."""
    verdict = report.workload_class
    if verdict == FEASIBLE:
        return (
            f"workload oracle: provably feasible — all {total_misses} "
            f"misses are regret (a clairvoyant scheduler misses none)"
        )
    if verdict == INFEASIBLE:
        forced = report.oracle.forced_misses
        return (
            f"workload oracle: provably infeasible (>= {forced} forced "
            f"misses) — regret beyond that floor: {report.regret_misses}"
        )
    return (
        "workload oracle: unknown (trace lacks per-task arrival/cost/"
        "deadline or a run_start worker count)"
    )


def render_attribution(report: AttributionReport) -> str:
    """The attribution report as human-readable ASCII tables."""
    lines = [
        f"tasks {report.total_tasks}, phases {report.phases}: "
        + ", ".join(
            f"{report.outcomes.get(outcome, 0)} {outcome}"
            for outcome in (
                OUTCOME_MET,
                OUTCOME_LATE,
                *_terminal_transitions()[1:],
                OUTCOME_INCOMPLETE,
            )
            if report.outcomes.get(outcome, 0)
        ),
        "",
    ]
    total_misses = len(report.misses)
    if not total_misses:
        lines.append("no deadline misses: nothing to attribute")
        return "\n".join(lines)
    by_cause = report.by_cause
    lines.append(f"deadline misses: {total_misses} (100% attributed)")
    lines.append(_oracle_line(report, total_misses))
    if report.migrated_misses:
        lines.append(
            f"cross-domain: {report.migrated_misses} of {total_misses} "
            f"misses were on tasks migrated between scheduling domains"
        )
    lines.extend(
        _table(
            ["cause", "misses", "share"],
            [
                [
                    cause,
                    by_cause[cause],
                    f"{100.0 * by_cause[cause] / total_misses:.1f}%",
                ]
                for cause in CAUSES
                if by_cause.get(cause)
            ],
        )
    )
    lines.append("")
    lines.append("by dispatch phase (never-placed misses under '-'):")
    by_phase = report.by_phase
    lines.extend(
        _table(
            ["phase", "misses"],
            [
                ["-" if phase is None else phase, count]
                for phase, count in sorted(
                    by_phase.items(),
                    key=lambda kv: (kv[0] is None, kv[0] or 0),
                )
            ],
        )
    )
    lines.append("")
    # The 'migrated' column only appears for sharded traces, so single-
    # domain reports render exactly as they always have.
    sharded = report.migrated_misses > 0
    headers = ["task", "outcome", "cause", "workload", "deadline", "missed at"]
    if sharded:
        headers.append("migrated")
    rows = []
    for miss in report.misses:
        row = [
            miss.task_id,
            miss.outcome,
            miss.cause,
            "regret" if miss.is_regret else miss.workload,
            "-" if miss.deadline is None else f"{miss.deadline:.1f}",
            "-" if miss.miss_time is None else f"{miss.miss_time:.1f}",
        ]
        if sharded:
            row.append(miss.migration or "-")
        rows.append(row)
    lines.extend(_table(headers, rows))
    return "\n".join(lines)


def render_timeline(
    events: Sequence[Dict[str, object]],
    phase: Optional[int] = None,
    width: int = 72,
) -> str:
    """An ASCII per-processor Gantt chart of one trace (or one phase).

    Each processor gets a row; a task occupies the columns between its
    start (execution start, falling back to placement) and its finish,
    drawn with its task id's last digit and ``!`` on the finishing column
    of a missed deadline.  ``phase`` restricts the chart to tasks placed
    in that scheduling phase.
    """
    timelines = build_timelines(events)
    intervals: List[Tuple[int, float, float, int, bool]] = []
    for timeline in timelines.values():
        placed = timeline.first(*_PLACED)
        if placed is None:
            continue
        if phase is not None and placed.get("phase") != phase:
            continue
        processor = placed.get("processor")
        if not isinstance(processor, int):
            continue
        started = timeline.first(*_STARTED)
        begin = _num((started or placed).get("t"))
        if begin is None:
            begin = _num(placed.get("t"))
        terminal = timeline.terminal()
        end = _num(terminal.get("t")) if terminal is not None else None
        if begin is None or end is None or end < begin:
            continue
        missed = timeline.outcome() in (
            OUTCOME_LATE,
            OUTCOME_EXPIRED,
            OUTCOME_FAILED,
        )
        intervals.append(
            (processor, begin, end, timeline.task_id, missed)
        )
    if not intervals:
        scope = "trace" if phase is None else f"phase {phase}"
        return f"no executed tasks in this {scope}"
    t_min = min(begin for _, begin, _, _, _ in intervals)
    t_max = max(end for _, _, end, _, _ in intervals)
    span = max(t_max - t_min, EPSILON)
    scale = (width - 1) / span

    def col(t: float) -> int:
        return min(width - 1, max(0, int((t - t_min) * scale)))

    processors = sorted({p for p, _, _, _, _ in intervals})
    label_width = max(len(f"P{p}") for p in processors)
    lines = [
        f"t = [{t_min:.1f}, {t_max:.1f}] virtual units, "
        f"{span / width:.2f} units/column"
        + ("" if phase is None else f", phase {phase} only"),
    ]
    for processor in processors:
        row = [" "] * width
        for p, begin, end, task_id, missed in sorted(
            intervals, key=lambda iv: iv[1]
        ):
            if p != processor:
                continue
            lo, hi = col(begin), col(end)
            digit = str(task_id % 10)
            for column in range(lo, hi + 1):
                row[column] = digit
            if missed:
                row[hi] = "!"
        lines.append(f"P{processor}".ljust(label_width) + " |" + "".join(row))
    lines.append(
        "".ljust(label_width)
        + " +"
        + "-" * width
    )
    lines.append("digits: task id mod 10; '!': deadline missed")
    return "\n".join(lines)


@dataclass
class TraceDiff:
    """Structural comparison of two traces (e.g. sim vs cluster)."""

    tasks_a: int
    tasks_b: int
    only_in_a: List[int]
    only_in_b: List[int]
    outcome_changes: List[Tuple[int, str, str]]
    causes_a: Counter
    causes_b: Counter

    @property
    def identical_outcomes(self) -> bool:
        """True when both traces saw the same tasks with equal outcomes."""
        return not (
            self.only_in_a or self.only_in_b or self.outcome_changes
        )


def diff_traces(
    events_a: Sequence[Dict[str, object]],
    events_b: Sequence[Dict[str, object]],
) -> TraceDiff:
    """Compare two traces task by task: presence, outcome, miss causes."""
    report_a = attribute_misses(events_a)
    report_b = attribute_misses(events_b)
    lines_a = build_timelines(events_a)
    lines_b = build_timelines(events_b)
    shared = sorted(set(lines_a) & set(lines_b))
    changes = []
    for task_id in shared:
        outcome_a = lines_a[task_id].outcome()
        outcome_b = lines_b[task_id].outcome()
        if outcome_a != outcome_b:
            changes.append((task_id, outcome_a, outcome_b))
    return TraceDiff(
        tasks_a=len(lines_a),
        tasks_b=len(lines_b),
        only_in_a=sorted(set(lines_a) - set(lines_b)),
        only_in_b=sorted(set(lines_b) - set(lines_a)),
        outcome_changes=changes,
        causes_a=report_a.by_cause,
        causes_b=report_b.by_cause,
    )


def render_diff(
    diff: TraceDiff, label_a: str = "A", label_b: str = "B"
) -> str:
    """The trace diff as ASCII tables; empty sections are elided."""
    lines = [
        f"{label_a}: {diff.tasks_a} tasks; {label_b}: {diff.tasks_b} tasks"
    ]
    if diff.only_in_a:
        lines.append(f"only in {label_a}: {diff.only_in_a}")
    if diff.only_in_b:
        lines.append(f"only in {label_b}: {diff.only_in_b}")
    if diff.outcome_changes:
        lines.append("")
        lines.extend(
            _table(
                ["task", label_a, label_b],
                [list(change) for change in diff.outcome_changes],
            )
        )
    if diff.causes_a or diff.causes_b:
        lines.append("")
        lines.extend(
            _table(
                ["miss cause", label_a, label_b],
                [
                    [
                        cause,
                        diff.causes_a.get(cause, 0),
                        diff.causes_b.get(cause, 0),
                    ]
                    for cause in CAUSES
                    if diff.causes_a.get(cause) or diff.causes_b.get(cause)
                ],
            )
        )
    if diff.identical_outcomes:
        lines.append("every shared task reached the same outcome")
    return "\n".join(lines)

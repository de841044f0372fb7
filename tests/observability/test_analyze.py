"""Miss attribution on synthetic traces with known ground-truth causes.

Each test constructs a minimal event list whose correct classification is
known by construction, one per cause in the cascade, plus the properties
the cascade guarantees: attribution is total (every miss gets a cause)
and exclusive (exactly one, drawn from CAUSES).
"""

from repro.observability import (
    CAUSES,
    attribute_misses,
    diff_traces,
    render_attribution,
    render_diff,
    render_timeline,
)
from repro.observability.analyze import (
    CAUSE_ADMISSION_WAIT,
    CAUSE_DISPATCH_DELAY,
    CAUSE_EXECUTION_OVERRUN,
    CAUSE_SEARCH_LATENCY,
    CAUSE_WORKER_FAILURE,
    OUTCOME_EXPIRED,
    OUTCOME_LATE,
    OUTCOME_MET,
    phase_windows,
)


def task(task_id, transition, **fields):
    event = {"event": "task", "task_id": task_id, "transition": transition}
    event.update(fields)
    return event


def phase_span(t, time_used, name="phase"):
    return {"event": "span", "name": name, "t": t, "time_used": time_used}


def single_cause(events):
    """Attribute a one-miss trace and return (cause, attribution)."""
    report = attribute_misses(events)
    assert len(report.misses) == 1, report.misses
    miss = report.misses[0]
    assert miss.cause in CAUSES
    return miss.cause, miss


# ----- one synthetic trace per cause ----------------------------------------


def worker_failure_trace(task_id=1):
    return [
        task(task_id, "arrived", t=0.0, deadline=10.0),
        task(task_id, "dispatched", t=1.0, processor=0, phase=0,
             deadline=10.0),
        task(task_id, "surrendered", t=5.0, processor=0, deadline=10.0),
        task(task_id, "expired", t=10.0, deadline=10.0),
    ]


def execution_overrun_trace(task_id=2):
    return [
        task(task_id, "arrived", t=0.0, deadline=10.0),
        task(task_id, "dispatched", t=1.0, processor=0, phase=0,
             deadline=10.0, planned_cost=3.0),
        task(task_id, "started", t=2.0, processor=0),
        task(task_id, "finished", t=12.0, processor=0, met_deadline=False,
             overrun_seconds=0.8, deadline=10.0),
    ]


def dispatch_delay_trace(task_id=3):
    return [
        task(task_id, "arrived", t=0.0, deadline=10.0),
        task(task_id, "dispatched", t=9.5, processor=0, phase=1,
             deadline=10.0),
        task(task_id, "expired", t=10.0, deadline=10.0),
    ]


def search_latency_trace(task_id=4):
    return [
        phase_span(t=2.0, time_used=1.0),
        task(task_id, "arrived", t=0.0, arrival=0.0, deadline=10.0),
        task(task_id, "expired", t=10.0, arrival=0.0, deadline=10.0),
    ]


def admission_wait_trace(task_id=5, start=0.0):
    return [
        task(task_id, "arrived", t=start, deadline=start + 5.0),
        task(task_id, "expired", t=start + 5.0, deadline=start + 5.0),
    ]


class TestCascadeGroundTruth:
    def test_worker_failure(self):
        cause, miss = single_cause(worker_failure_trace())
        assert cause == CAUSE_WORKER_FAILURE
        assert miss.outcome == OUTCOME_EXPIRED

    def test_execution_overrun_from_stamped_overrun(self):
        cause, miss = single_cause(execution_overrun_trace())
        assert cause == CAUSE_EXECUTION_OVERRUN
        assert miss.outcome == OUTCOME_LATE
        assert "0.8" in miss.detail

    def test_execution_overrun_from_budget_arithmetic(self):
        """Sim traces carry no overrun_seconds; the budget check catches
        a task that started with room to finish yet finished late."""
        events = [
            task(2, "arrived", t=0.0, deadline=10.0),
            task(2, "delivered", t=1.0, processor=0, phase=0,
                 deadline=10.0, planned_cost=3.0),
            task(2, "started", t=2.0, processor=0),
            task(2, "finished", t=12.0, processor=0, met_deadline=False,
                 deadline=10.0),
        ]
        cause, _ = single_cause(events)
        assert cause == CAUSE_EXECUTION_OVERRUN

    def test_dispatch_delay_when_placed_too_late(self):
        cause, miss = single_cause(dispatch_delay_trace())
        assert cause == CAUSE_DISPATCH_DELAY
        assert miss.phase == 1

    def test_dispatch_delay_from_rejection(self):
        events = [
            task(3, "arrived", t=0.0, deadline=10.0),
            task(3, "dispatch_rejected", t=9.0, processor=0, deadline=10.0),
            task(3, "expired", t=10.0, deadline=10.0),
        ]
        cause, miss = single_cause(events)
        assert cause == CAUSE_DISPATCH_DELAY
        assert "re-validation" in miss.detail

    def test_dispatch_delay_beats_overrun_without_budget(self):
        """Started too late to ever make it: the execution is blameless,
        the placement delay is the cause."""
        events = [
            task(3, "arrived", t=0.0, deadline=10.0),
            task(3, "dispatched", t=8.5, processor=0, phase=0,
                 deadline=10.0, planned_cost=3.0),
            task(3, "started", t=9.0, processor=0),
            task(3, "finished", t=12.0, processor=0, met_deadline=False,
                 deadline=10.0),
        ]
        cause, _ = single_cause(events)
        assert cause == CAUSE_DISPATCH_DELAY

    def test_search_latency(self):
        cause, _ = single_cause(search_latency_trace())
        assert cause == CAUSE_SEARCH_LATENCY

    def test_admission_wait_with_no_phases(self):
        cause, _ = single_cause(admission_wait_trace())
        assert cause == CAUSE_ADMISSION_WAIT

    def test_admission_wait_when_phases_missed_the_window(self):
        """A phase that opened after the deadline cannot be the search's
        fault: the task was never considered."""
        events = [
            phase_span(t=50.0, time_used=2.0),
            task(5, "arrived", t=0.0, arrival=0.0, deadline=10.0),
            task(5, "expired", t=10.0, arrival=0.0, deadline=10.0),
        ]
        cause, _ = single_cause(events)
        assert cause == CAUSE_ADMISSION_WAIT

    def test_failure_dominates_everything(self):
        """A surrendered task that also overran still blames the crash."""
        events = [
            task(1, "arrived", t=0.0, deadline=10.0),
            task(1, "dispatched", t=1.0, processor=0, phase=0,
                 deadline=10.0, planned_cost=3.0),
            task(1, "started", t=2.0, processor=0),
            task(1, "surrendered", t=4.0, processor=0, deadline=10.0),
            task(1, "failed", t=4.0, processor=0, deadline=10.0),
        ]
        cause, _ = single_cause(events)
        assert cause == CAUSE_WORKER_FAILURE


class TestAttributionProperties:
    def combined(self):
        events = []
        events += worker_failure_trace(1)
        events += execution_overrun_trace(2)
        events += dispatch_delay_trace(3)
        events += search_latency_trace(4)
        # Arrives long after the only phase window ([2, 3]) closed, so the
        # search cannot be blamed: pure admission wait.
        events += admission_wait_trace(5, start=100.0)
        # One met task: must never appear among the misses.
        events += [
            task(6, "arrived", t=0.0, deadline=20.0),
            task(6, "dispatched", t=1.0, processor=1, phase=0,
                 deadline=20.0),
            task(6, "started", t=2.0, processor=1),
            task(6, "finished", t=5.0, processor=1, met_deadline=True,
                 deadline=20.0),
        ]
        return events

    def test_every_miss_gets_exactly_one_known_cause(self):
        report = attribute_misses(self.combined())
        assert report.total_tasks == 6
        assert report.outcomes[OUTCOME_MET] == 1
        assert len(report.misses) == 5
        assert [m.cause for m in report.misses] == [
            "worker_failure",
            "execution_overrun",
            "dispatch_delay",
            "search_latency",
            "admission_wait",
        ]
        assert all(m.cause in CAUSES for m in report.misses)
        # Total: sum over causes equals the miss count (nothing dropped,
        # nothing double counted).
        assert sum(report.by_cause.values()) == len(report.misses)

    def test_met_outcome_derived_from_deadline_when_unstamped(self):
        events = [
            task(7, "arrived", t=0.0, deadline=10.0),
            task(7, "finished", t=9.0, deadline=10.0),
        ]
        report = attribute_misses(events)
        assert report.outcomes[OUTCOME_MET] == 1
        assert not report.misses

    def test_render_mentions_full_attribution(self):
        text = render_attribution(attribute_misses(self.combined()))
        assert "deadline misses: 5 (100% attributed)" in text
        assert "worker_failure" in text

    def test_render_with_no_misses(self):
        events = [
            task(1, "arrived", t=0.0, deadline=10.0),
            task(1, "finished", t=5.0, met_deadline=True, deadline=10.0),
        ]
        text = render_attribution(attribute_misses(events))
        assert "nothing to attribute" in text


class TestLedgerOutcomes:
    """Every terminal transition of the ledger's vocabulary is an outcome."""

    def outcomes(self, *events):
        return attribute_misses(list(events)).outcomes

    def test_shed_is_its_own_outcome(self):
        outcomes = self.outcomes(
            task(1, "admitted", t=0.0, deadline=10.0),
            task(1, "shed", t=1.0, deadline=10.0, met_deadline=False),
        )
        assert outcomes == {"shed": 1}

    def test_drain_surrender_is_terminal(self):
        outcomes = self.outcomes(
            task(1, "admitted", t=0.0, deadline=10.0),
            task(1, "dispatched", t=1.0, processor=0, phase=0),
            task(1, "surrendered", t=2.0, deadline=10.0, met_deadline=False),
            # Worker telemetry merged after the drain does not reopen it.
            task(1, "exec_started", t=1.5, worker=0),
        )
        assert outcomes == {"surrendered": 1}

    def test_requeue_followed_by_a_placement_stays_open(self):
        outcomes = self.outcomes(
            task(1, "dispatched", t=1.0, processor=0, phase=0),
            task(1, "surrendered", t=2.0, processor=0, deadline=10.0),
            task(1, "dispatched", t=3.0, processor=1, phase=1),
        )
        assert outcomes == {"incomplete": 1}

    def test_requeue_then_finish_is_judged_on_the_finish(self):
        outcomes = self.outcomes(
            task(1, "delivered", t=1.0, processor=0, phase=0),
            task(1, "surrendered", t=2.0, processor=0, deadline=10.0),
            task(1, "delivered", t=3.0, processor=1, phase=1),
            task(1, "finished", t=4.0, deadline=10.0, met_deadline=True),
        )
        assert outcomes == {OUTCOME_MET: 1}

    def test_terminal_names_are_the_ledgers(self):
        from repro.runtime.ledger import PLACED_TRANSITIONS, TERMINAL_TRANSITIONS
        from repro.observability import analyze

        for name in TERMINAL_TRANSITIONS[1:]:
            assert self.outcomes(task(1, name, t=1.0)) == {name: 1}
        assert set(analyze._PLACED) == set(PLACED_TRANSITIONS)

    def test_render_lists_the_new_outcomes(self):
        text = render_attribution(
            attribute_misses(
                [
                    task(1, "shed", t=1.0, deadline=10.0),
                    task(2, "surrendered", t=1.0, deadline=10.0),
                ]
            )
        )
        assert "1 shed, 1 surrendered" in text


class TestPhaseWindows:
    def test_plain_phase_spans(self):
        windows = phase_windows(
            [phase_span(1.0, 2.0), phase_span(5.0, 0.5)]
        )
        assert windows == [(1.0, 3.0), (5.0, 5.5)]

    def test_cluster_spans_preferred_to_avoid_double_counting(self):
        """Live traces nest scheduler ``phase`` spans inside
        ``cluster_phase`` spans; only the outer kind must count."""
        events = [
            phase_span(1.0, 2.0, name="phase"),
            phase_span(1.0, 2.5, name="cluster_phase"),
            phase_span(5.0, 1.0, name="phase"),
            phase_span(5.0, 1.2, name="cluster_phase"),
        ]
        assert phase_windows(events) == [(1.0, 3.5), (5.0, 6.2)]


class TestTimeline:
    def trace(self):
        return [
            task(12, "arrived", t=0.0, deadline=30.0),
            task(12, "dispatched", t=1.0, processor=0, phase=0,
                 deadline=30.0),
            task(12, "started", t=2.0, processor=0),
            task(12, "finished", t=20.0, processor=0, met_deadline=True,
                 deadline=30.0),
            task(7, "arrived", t=0.0, deadline=10.0),
            task(7, "dispatched", t=1.0, processor=1, phase=0,
                 deadline=10.0),
            task(7, "started", t=3.0, processor=1),
            task(7, "finished", t=15.0, processor=1, met_deadline=False,
                 deadline=10.0),
        ]

    def test_rows_digits_and_miss_marker(self):
        chart = render_timeline(self.trace(), width=40)
        lines = chart.splitlines()
        p0 = next(line for line in lines if line.startswith("P0"))
        p1 = next(line for line in lines if line.startswith("P1"))
        assert "2" in p0  # task 12 draws its id mod 10
        assert "!" in p1  # task 7 missed
        assert "!" not in p0

    def test_phase_filter_and_empty_scope(self):
        assert "no executed tasks" in render_timeline(
            self.trace(), phase=99
        )


class TestDiff:
    def test_identical_traces(self):
        events = dispatch_delay_trace()
        diff = diff_traces(events, list(events))
        assert diff.identical_outcomes
        assert "same outcome" in render_diff(diff, "sim", "cluster")

    def test_outcome_change_and_presence(self):
        sim = [
            task(1, "arrived", t=0.0, deadline=10.0),
            task(1, "finished", t=5.0, met_deadline=True, deadline=10.0),
            task(2, "arrived", t=0.0, deadline=10.0),
            task(2, "finished", t=5.0, met_deadline=True, deadline=10.0),
        ]
        cluster = [
            task(1, "arrived", t=0.0, deadline=10.0),
            task(1, "finished", t=11.0, met_deadline=False, deadline=10.0),
            task(3, "arrived", t=0.0, deadline=10.0),
            task(3, "finished", t=5.0, met_deadline=True, deadline=10.0),
        ]
        diff = diff_traces(sim, cluster)
        assert not diff.identical_outcomes
        assert diff.only_in_a == [2]
        assert diff.only_in_b == [3]
        assert diff.outcome_changes == [(1, OUTCOME_MET, OUTCOME_LATE)]
        text = render_diff(diff, "sim", "cluster")
        assert "only in sim: [2]" in text
        assert "only in cluster: [3]" in text

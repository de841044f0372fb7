"""End-to-end: an instrumented simulation emits the documented events."""

import pytest

from repro.core import RTSADS, UniformCommunicationModel, make_task
from repro.observability import Instrumentation, MemorySink, get_instrumentation
from repro.simulator import simulate


@pytest.fixture
def instrumented_run():
    sink = MemorySink()
    obs = Instrumentation(sink=sink)
    tasks = [
        make_task(i, processing_time=10.0, deadline=5_000.0) for i in range(6)
    ]
    result = simulate(
        RTSADS(UniformCommunicationModel(50.0)),
        tasks,
        num_workers=2,
        instrumentation=obs,
    )
    return result, obs, sink


class TestRunEvents:
    def test_run_start_and_end_bracket_the_trace(self, instrumented_run):
        result, _, sink = instrumented_run
        (start,) = sink.of_kind("run_start")
        (end,) = sink.of_kind("run_end")
        assert start["scheduler"] == "RT-SADS"
        assert start["tasks"] == 6
        assert start["workers"] == 2
        assert end["makespan"] == pytest.approx(result.makespan)
        assert end["deadline_hits"] == 6
        assert sink.events[0] is start
        assert sink.events[-1] is end

    def test_task_lifecycle_transitions_recorded(self, instrumented_run):
        _, _, sink = instrumented_run
        transitions = [e["transition"] for e in sink.of_kind("task")]
        assert transitions.count("arrived") == 6
        assert transitions.count("delivered") == 6
        assert transitions.count("started") == 6
        assert transitions.count("finished") == 6
        finished = [
            e for e in sink.of_kind("task") if e["transition"] == "finished"
        ]
        assert all(e["met_deadline"] for e in finished)

    def test_events_carry_scheduler_context(self, instrumented_run):
        _, _, sink = instrumented_run
        assert all(e["scheduler"] == "RT-SADS" for e in sink.events)


class TestPhaseSpans:
    def test_phase_spans_carry_search_internals(self, instrumented_run):
        result, _, sink = instrumented_run
        spans = [e for e in sink.of_kind("span") if e["name"] == "phase"]
        assert len(spans) == len(result.phases)
        for span in spans:
            assert span["quantum"] > 0
            assert span["vertices_generated"] >= 0
            assert span["feasibility_rejections"] >= 0
            assert span["batch_size"] >= 1
            assert span["wall_s"] >= 0


class TestMetrics:
    def test_per_scheduler_counters_accumulate(self, instrumented_run):
        result, obs, _ = instrumented_run
        counters = obs.metrics.snapshot()["counters"]
        assert counters["scheduler_phases{scheduler=RT-SADS}"] == len(
            result.phases
        )
        assert counters["runtime_runs"] == 1
        assert (
            counters["runtime_task_transitions{transition=finished}"] == 6
        )

    def test_explicit_instrumentation_leaves_global_default_alone(
        self, instrumented_run
    ):
        _, obs, _ = instrumented_run
        assert get_instrumentation() is not obs
        assert not get_instrumentation().enabled


class TestDisabledIsInert:
    def test_uninstrumented_run_matches_instrumented(self, instrumented_run):
        result, _, _ = instrumented_run
        tasks = [
            make_task(i, processing_time=10.0, deadline=5_000.0)
            for i in range(6)
        ]
        plain = simulate(
            RTSADS(UniformCommunicationModel(50.0)), tasks, num_workers=2
        )
        assert plain.makespan == pytest.approx(result.makespan)
        assert len(plain.phases) == len(result.phases)
        assert plain.hit_ratio == result.hit_ratio

"""One observation path: every registry scheduler reports its phases.

The phase frame (``repro.core.scheduler.Scheduler.schedule_phase``) emits
the ``phase`` span and the per-scheduler metrics for whatever rule fills
the window, so a traced run of any registered name carries one span per
phase with the same fields, and ``repro trace analyze`` sees its phases.
"""

from __future__ import annotations

import re

import pytest

from repro.core.registry import registered_names
from repro.experiments.cli import main
from repro.observability import Instrumentation, MemorySink
from repro.simulator import simulate

from .test_conformance import build
from .workloads import WORKLOADS

WORKERS = 4


@pytest.fixture(params=registered_names())
def observed_run(request):
    obs = Instrumentation(sink=MemorySink())
    scheduler = build(request.param)
    report = simulate(
        scheduler,
        WORKLOADS["uniform"](0, num_processors=WORKERS),
        num_workers=WORKERS,
        instrumentation=obs,
    )
    return scheduler, report, obs


def test_one_phase_span_per_phase_trace(observed_run):
    scheduler, report, obs = observed_run
    spans = [e for e in obs.sink.of_kind("span") if e["name"] == "phase"]
    assert report.phases
    assert len(spans) == len(report.phases)
    for index, (span, phase) in enumerate(zip(spans, report.phases)):
        assert span["scheduler"] == scheduler.name
        assert span["phase"] == index
        assert span["quantum"] == phase.quantum
        assert span["time_used"] == phase.time_used
        assert span["scheduled"] == phase.scheduled
        assert span["vertices_generated"] == phase.vertices_generated
        assert span["feasibility_rejections"] >= 0


def test_phase_metrics_count_the_same_phases(observed_run):
    scheduler, report, obs = observed_run
    snapshot = obs.metrics.snapshot()
    label = f"{{scheduler={scheduler.name}}}"
    assert snapshot["counters"]["scheduler_phases" + label] == len(report.phases)
    # Q_s(j) for every scheduler: the window less the pre-paid overhead.
    quantum = snapshot["histograms"]["scheduler_quantum" + label]
    assert quantum["count"] == len(report.phases)
    assert quantum["max"] < max(phase.quantum for phase in report.phases)


def test_trace_analyze_sees_a_list_schedulers_phases(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main([
        "fig5", "--quick", "--runs", "1", "--transactions", "30",
        "--processors", "3", "--scheduler", "greedy_edf",
        "--trace-out", str(path),
    ]) == 0
    capsys.readouterr()
    assert main(["trace", "analyze", str(path)]) == 0
    match = re.search(r"phases (\d+)", capsys.readouterr().out)
    assert match and int(match.group(1)) > 0

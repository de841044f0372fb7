"""Tests for deadline-compliance metrics."""

from repro.core import make_task
from repro.metrics import hit_ratio_by_tag
from repro.simulator import STATUS_COMPLETED, STATUS_EXPIRED, SimulationTrace


def _trace():
    trace = SimulationTrace()
    specs = [
        # (id, tag, status, processor, phase, finished, deadline)
        (0, "indexed", STATUS_COMPLETED, 0, 0, 50.0, 100.0),
        (1, "indexed", STATUS_COMPLETED, 1, 0, 150.0, 100.0),  # late
        (2, "scan", STATUS_COMPLETED, 0, 1, 90.0, 100.0),
        (3, "scan", STATUS_EXPIRED, None, None, None, 100.0),
    ]
    for task_id, tag, status, proc, phase, finished, deadline in specs:
        task = make_task(
            task_id, processing_time=10.0, deadline=deadline, tag=tag
        )
        record = trace.add_task(task)
        record.status = status
        record.processor = proc
        record.scheduled_phase = phase
        record.finished_at = finished
    return trace


class TestBreakdowns:
    def test_hit_ratio_by_tag(self):
        ratios = hit_ratio_by_tag(_trace())
        assert ratios["indexed"] == 0.5
        assert ratios["scan"] == 0.5

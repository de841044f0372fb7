"""Tests for deadline-compliance metrics."""

from repro.core import make_task
from repro.metrics import hit_ratio_by_tag
from repro.runtime.ledger import COMPLETED, EXPIRED

from ..simulator.test_trace import _trace_with


def _trace():
    specs = [
        # (id, tag, status, processor, phase, finished, deadline)
        (0, "indexed", COMPLETED, 0, 0, 50.0, 100.0),
        (1, "indexed", COMPLETED, 1, 0, 150.0, 100.0),  # late
        (2, "scan", COMPLETED, 0, 1, 90.0, 100.0),
        (3, "scan", EXPIRED, None, None, None, 100.0),
    ]
    return _trace_with(
        [
            (
                make_task(
                    task_id, processing_time=10.0, deadline=deadline, tag=tag
                ),
                status, proc, phase, finished,
            )
            for task_id, tag, status, proc, phase, finished, deadline in specs
        ]
    )


class TestBreakdowns:
    def test_hit_ratio_by_tag(self):
        ratios = hit_ratio_by_tag(_trace())
        assert ratios["indexed"] == 0.5
        assert ratios["scan"] == 0.5

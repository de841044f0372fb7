"""Unit tests for the worker-side telemetry buffer."""

from repro.cluster.telemetry import TelemetryBuffer


def small_buffer(monkeypatch, cap):
    """A buffer whose class-wide drop bound is shrunk to ``cap`` events."""
    monkeypatch.setattr(TelemetryBuffer, "CAP", cap)
    return TelemetryBuffer()


class TestEmit:
    def test_stamps_worker_monotonic_clock(self):
        buffer = TelemetryBuffer()
        buffer.emit({"event": "task", "transition": "exec_started"})
        [event] = buffer.drain(10)
        assert isinstance(event["w_mono"], float)

    def test_existing_stamp_is_preserved(self):
        buffer = TelemetryBuffer()
        buffer.emit({"event": "task", "w_mono": 42.5})
        [event] = buffer.drain(10)
        assert event["w_mono"] == 42.5

    def test_caller_event_dict_not_mutated(self):
        buffer = TelemetryBuffer()
        original = {"event": "task"}
        buffer.emit(original)
        assert "w_mono" not in original


class TestBounding:
    def test_oldest_events_drop_first(self, monkeypatch):
        buffer = small_buffer(monkeypatch, 3)
        for index in range(5):
            buffer.emit({"event": "task", "task_id": index, "w_mono": 1.0})
        assert len(buffer) == 3
        assert buffer.events_dropped == 2
        assert buffer.events_buffered == 5

    def test_drop_marker_prepended_on_next_drain(self, monkeypatch):
        buffer = small_buffer(monkeypatch, 2)
        for index in range(4):
            buffer.emit({"event": "task", "task_id": index, "w_mono": 1.0})
        batch = buffer.drain(10)
        assert batch[0]["event"] == "telemetry_dropped"
        assert batch[0]["dropped"] == 2
        assert [e["task_id"] for e in batch[1:]] == [2, 3]
        # The loss is reported exactly once.
        assert buffer.drain(10) == []

    def test_drop_marker_rides_on_top_of_max_events(self, monkeypatch):
        """The marker must not displace a payload event from the batch.

        A drain capped at ``max_events`` returns up to that many *real*
        events plus the marker — otherwise every drop would also delay
        one live event per heartbeat, and a persistently full buffer
        could starve payload delivery entirely.
        """
        buffer = small_buffer(monkeypatch, 3)
        for index in range(5):
            buffer.emit({"event": "task", "task_id": index, "w_mono": 1.0})
        batch = buffer.drain(3)
        assert len(batch) == 4
        assert batch[0]["event"] == "telemetry_dropped"
        assert batch[0]["dropped"] == 2
        assert [e["task_id"] for e in batch[1:]] == [2, 3, 4]
        assert buffer.drain(3) == []


class TestDrain:
    def test_batches_respect_max_events(self):
        buffer = TelemetryBuffer()
        for index in range(5):
            buffer.emit({"event": "task", "task_id": index, "w_mono": 1.0})
        first = buffer.drain(3)
        second = buffer.drain(3)
        assert [e["task_id"] for e in first] == [0, 1, 2]
        assert [e["task_id"] for e in second] == [3, 4]
        assert not buffer

    def test_truthiness_tracks_pending_work(self, monkeypatch):
        buffer = small_buffer(monkeypatch, 1)
        assert not buffer
        buffer.emit({"event": "task", "w_mono": 1.0})
        assert buffer
        buffer.emit({"event": "task", "w_mono": 2.0})  # drops the first
        buffer.drain(10)
        # Drained empty, no pending drop report: falsy again.
        assert not buffer

"""Tests for the discrete-event simulation engine."""

import pytest

from repro.simulator import (
    SimulationEngine,
    SimulationError,
    SimulationObserver,
)


class Ping:
    def __init__(self, label="ping"):
        self.label = label


class Pong:
    pass


class TestDispatch:
    def test_dispatches_to_registered_handler(self):
        engine = SimulationEngine()
        seen = []
        engine.subscribe(Ping, lambda now, e: seen.append((now, e.label)))
        engine.schedule_at(2.0, Ping("a"))
        engine.run()
        assert seen == [(2.0, "a")]

    def test_clock_advances_monotonically(self):
        engine = SimulationEngine()
        times = []
        engine.subscribe(Ping, lambda now, e: times.append(now))
        for t in (5.0, 1.0, 3.0):
            engine.schedule_at(t, Ping())
        engine.run()
        assert times == [1.0, 3.0, 5.0]
        assert engine.now == 5.0

    def test_handler_can_schedule_new_events(self):
        engine = SimulationEngine()
        seen = []

        def on_ping(now, event):
            seen.append(now)
            if now < 3.0:
                engine.schedule_after(1.0, Ping())

        engine.subscribe(Ping, on_ping)
        engine.schedule_at(1.0, Ping())
        engine.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_unhandled_event_raises(self):
        engine = SimulationEngine()
        engine.schedule_at(0.0, Pong())
        with pytest.raises(SimulationError, match="no handler"):
            engine.run()

    def test_duplicate_handler_rejected(self):
        engine = SimulationEngine()
        engine.subscribe(Ping, lambda now, e: None)
        with pytest.raises(SimulationError):
            engine.subscribe(Ping, lambda now, e: None)


class TestScheduling:
    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine()
        engine.subscribe(Ping, lambda now, e: None)
        engine.schedule_at(5.0, Ping())
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, Ping())

    def test_schedule_after_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, Ping())

    def test_run_until_stops_before_later_events(self):
        engine = SimulationEngine()
        seen = []
        engine.subscribe(Ping, lambda now, e: seen.append(now))
        engine.schedule_at(1.0, Ping())
        engine.schedule_at(10.0, Ping())
        engine.run(until=5.0)
        assert seen == [1.0]
        assert engine.now == 5.0
        assert engine.step() is True  # the later event is still queued

    def test_step_returns_false_when_empty(self):
        assert SimulationEngine().step() is False

    def test_max_events_guard(self):
        engine = SimulationEngine()
        engine.subscribe(
            Ping, lambda now, e: engine.schedule_after(1.0, Ping())
        )
        engine.schedule_at(0.0, Ping())
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(max_events=10)

    def test_events_dispatched_counter(self):
        engine = SimulationEngine()
        engine.subscribe(Ping, lambda now, e: None)
        for t in range(3):
            engine.schedule_at(float(t), Ping())
        engine.run()
        assert engine.events_dispatched == 3


class RecordingObserver(SimulationObserver):
    def __init__(self):
        self.dispatched = []
        self.advances = []

    def on_event_dispatched(self, now, event):
        self.dispatched.append((now, event))

    def on_clock_advanced(self, previous, now):
        self.advances.append((previous, now))


class TestObservers:
    def _engine_with_pings(self, times=(1.0, 3.0, 3.0, 7.0)):
        engine = SimulationEngine()
        seen = []
        engine.subscribe(Ping, lambda now, e: seen.append((now, e.label)))
        for t in times:
            engine.schedule_at(t, Ping(str(t)))
        return engine, seen

    def test_observer_sees_every_dispatch(self):
        engine, _ = self._engine_with_pings()
        observer = RecordingObserver()
        engine.add_observer(observer)
        engine.run()
        assert [now for now, _ in observer.dispatched] == [1.0, 3.0, 3.0, 7.0]

    def test_clock_hook_fires_only_on_strict_advance(self):
        engine, _ = self._engine_with_pings()
        observer = RecordingObserver()
        engine.add_observer(observer)
        engine.run()
        # Two events at t=3.0 advance the clock once.
        assert observer.advances == [(0.0, 1.0), (1.0, 3.0), (3.0, 7.0)]

    def test_observers_do_not_perturb_dispatch(self):
        baseline_engine, baseline_seen = self._engine_with_pings()
        baseline_engine.run()

        engine, seen = self._engine_with_pings()
        engine.add_observer(RecordingObserver())
        engine.add_observer(RecordingObserver())
        engine.run()

        assert seen == baseline_seen
        assert engine.events_dispatched == baseline_engine.events_dispatched
        assert engine.now == baseline_engine.now

    def test_dispatch_observer_runs_after_handler(self):
        engine = SimulationEngine()
        order = []
        engine.subscribe(Ping, lambda now, e: order.append("handler"))

        class Tap(SimulationObserver):
            def on_event_dispatched(self, now, event):
                order.append("observer")

        engine.add_observer(Tap())
        engine.schedule_at(0.0, Ping())
        engine.run()
        assert order == ["handler", "observer"]

    def test_partial_observers_allowed(self):
        engine, _ = self._engine_with_pings((1.0, 2.0))

        class DispatchOnly:
            def __init__(self):
                self.count = 0

            def on_event_dispatched(self, now, event):
                self.count += 1

        class ClockOnly:
            def __init__(self):
                self.count = 0

            def on_clock_advanced(self, previous, now):
                self.count += 1

        dispatch_only, clock_only = DispatchOnly(), ClockOnly()
        engine.add_observer(dispatch_only)
        engine.add_observer(clock_only)
        engine.run()
        assert dispatch_only.count == 2
        assert clock_only.count == 2

    def test_hookless_observer_rejected(self):
        with pytest.raises(SimulationError, match="neither"):
            SimulationEngine().add_observer(object())

    def test_one_dispatch_handler_rule_retained(self):
        # Observers are additive; the single-handler dispatch contract of
        # subscribe() still holds with observers attached.
        engine = SimulationEngine()
        engine.add_observer(RecordingObserver())
        engine.subscribe(Ping, lambda now, e: None)
        with pytest.raises(SimulationError):
            engine.subscribe(Ping, lambda now, e: None)

    def test_run_until_jump_notifies_clock_observers(self):
        engine = SimulationEngine()
        engine.subscribe(Ping, lambda now, e: None)
        observer = RecordingObserver()
        engine.add_observer(observer)
        engine.schedule_at(1.0, Ping())
        engine.schedule_at(10.0, Ping())
        engine.run(until=5.0)
        assert observer.advances == [(0.0, 1.0), (1.0, 5.0)]

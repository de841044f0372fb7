"""A small discrete-event simulation engine.

Dispatches events in timestamp order to handlers registered per event type,
advancing a monotonic virtual clock.  The engine is generic: the on-line
scheduling runtime registers handlers for arrivals, phase completions, and
task completions, but nothing here is scheduling-specific.

Two registration surfaces exist with different contracts:

* :meth:`SimulationEngine.subscribe` — the *dispatch* handler, exactly one
  per event type, the thing that advances simulation state;
* :meth:`SimulationEngine.add_observer` — any number of passive observers
  notified after each dispatch (``on_event_dispatched``) and on every clock
  advance (``on_clock_advanced``).  Observers exist for instrumentation:
  they must not schedule events or mutate simulation state, and the engine
  calls them after the dispatch handler returns so they see post-event
  state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Type

from .events import EventQueue


class SimulationError(RuntimeError):
    """Raised on inconsistent simulator state (e.g. time moving backwards)."""


class SimulationObserver:
    """Optional base class for engine observers (all hooks default no-op).

    Observers are duck-typed — any object with either hook method works —
    but inheriting documents intent and supplies the missing hook.
    """

    def on_event_dispatched(self, now: float, event: Any) -> None:
        """Called after the dispatch handler for ``event`` returned."""

    def on_clock_advanced(self, previous: float, now: float) -> None:
        """Called whenever the virtual clock strictly advances."""


class SimulationEngine:
    """Virtual clock plus event dispatch loop."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._handlers: Dict[Type, Callable[[float, Any], None]] = {}
        self._dispatch_observers: List[Callable[[float, Any], None]] = []
        self._clock_observers: List[Callable[[float, float], None]] = []
        self.now = 0.0
        self.events_dispatched = 0

    def subscribe(
        self, event_type: Type, handler: Callable[[float, Any], None]
    ) -> None:
        """Register the handler for one event type (one handler per type)."""
        if event_type in self._handlers:
            raise SimulationError(
                f"handler already registered for {event_type.__name__}"
            )
        self._handlers[event_type] = handler

    def unsubscribe_all(self) -> None:
        """Forget every dispatch handler: the owner is done with the engine.

        Handlers are usually bound methods of whatever owns the engine, so
        until they are dropped owner and engine keep each other alive.
        """
        self._handlers.clear()

    def add_observer(self, observer: Any) -> None:
        """Attach a passive observer (see :class:`SimulationObserver`).

        The observer may implement ``on_event_dispatched(now, event)``,
        ``on_clock_advanced(previous, now)``, or both; implementing neither
        is an error (the registration would be dead weight).
        """
        dispatched = getattr(observer, "on_event_dispatched", None)
        advanced = getattr(observer, "on_clock_advanced", None)
        if dispatched is None and advanced is None:
            raise SimulationError(
                "observer implements neither on_event_dispatched nor "
                "on_clock_advanced"
            )
        if dispatched is not None:
            self._dispatch_observers.append(dispatched)
        if advanced is not None:
            self._clock_observers.append(advanced)

    def schedule_at(self, time: float, event: Any) -> None:
        """Enqueue ``event`` for dispatch at absolute virtual ``time``."""
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self.now}"
            )
        self._queue.push(max(time, self.now), event)

    def schedule_after(self, delay: float, event: Any) -> None:
        """Enqueue ``event`` for dispatch ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        self._queue.push(self.now + delay, event)

    def next_time(self) -> float:
        """When the next queued event is due (``inf`` with none queued)."""
        time = self._queue.peek_time()
        return float("inf") if time is None else time

    def step(self) -> bool:
        """Dispatch the next event; returns False when the queue is empty."""
        if not self._queue:
            return False
        time, event = self._queue.pop()
        if time < self.now - 1e-12:
            raise SimulationError(
                f"event time {time} precedes current time {self.now}"
            )
        previous = self.now
        self.now = max(self.now, time)
        if self._clock_observers and self.now > previous:
            for advanced in self._clock_observers:
                advanced(previous, self.now)
        handler = self._handlers.get(type(event))
        if handler is None:
            raise SimulationError(
                f"no handler registered for {type(event).__name__}"
            )
        handler(self.now, event)
        self.events_dispatched += 1
        if self._dispatch_observers:
            for dispatched in self._dispatch_observers:
                dispatched(self.now, event)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Dispatch events until the queue drains, ``until``, or the cap."""
        dispatched = 0
        while self._queue:
            if until is not None:
                next_time = self._queue.peek_time()
                if next_time is not None and next_time > until:
                    previous = self.now
                    self.now = until
                    if self._clock_observers and self.now > previous:
                        for advanced in self._clock_observers:
                            advanced(previous, self.now)
                    return
            if max_events is not None and dispatched >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a runaway "
                    "simulation (check quantum/expiry configuration)"
                )
            self.step()
            dispatched += 1

"""A streaming client of the scheduler service.

:class:`ServiceClient` wraps one :class:`~repro.cluster.network.
WorkerChannel` connection to a :class:`~repro.service.master.ServiceFront`
and keeps the submission ledger: every ``SUBMIT`` it sends is tracked until
its ``ACCEPT``/``REJECT`` and — for accepted ones — its terminal
``RESULT`` arrives.  The open-loop load generator
(:mod:`repro.service.load`) composes one of these; nothing here paces
time, so the class is equally usable from tests that want frame-level
control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster import protocol
from ..cluster.network import ConnectionLost, WorkerChannel


@dataclass
class SubmissionOutcome:
    """Everything the client learned about one submission."""

    request_id: int
    template_id: int
    accepted: Optional[bool] = None  # None until ACCEPT/REJECT arrives
    task_id: Optional[int] = None
    reject_reason: str = ""
    status: str = ""  # terminal RESULT status ('' until it arrives)
    met_deadline: bool = False
    finished_at: float = 0.0

    @property
    def settled(self) -> bool:
        """True once nothing further is owed for this submission."""
        if self.accepted is None:
            return False
        return self.accepted is False or bool(self.status)


class ServiceClient:
    """Submit transactions to a running service and collect outcomes."""

    def __init__(self, channel: WorkerChannel) -> None:
        self._channel = channel
        self._next_request = 0
        #: request_id -> outcome, in submission order (dicts preserve it).
        self.outcomes: Dict[int, SubmissionOutcome] = {}

    @classmethod
    def connect(cls, host: str, port: int) -> "ServiceClient":
        """Dial a running service master."""
        return cls(WorkerChannel.connect(host, port))

    def close(self) -> None:
        self._channel.close()

    # ----- submitting --------------------------------------------------------

    def submit(self, template_id: int) -> SubmissionOutcome:
        """Stream one SUBMIT (at the template's own deadline); returns its
        (not yet settled) outcome."""
        import time

        request_id = self._next_request
        self._next_request += 1
        outcome = SubmissionOutcome(
            request_id=request_id, template_id=template_id
        )
        self.outcomes[request_id] = outcome
        self._channel.send(
            protocol.submit(request_id, template_id, mono=time.monotonic())
        )
        return outcome

    # ----- receiving ---------------------------------------------------------

    def poll(self, timeout: float) -> List[Dict[str, object]]:
        """Absorb service frames for up to ``timeout`` seconds.

        Updates the ledger and returns the raw messages (tests inspect
        them).  Raises :class:`ConnectionLost` when the service is gone.
        """
        messages = self._channel.poll(timeout)
        for message in messages:
            self._absorb(message)
        return messages

    def _absorb(self, message: Dict[str, object]) -> None:
        kind = message.get("type")
        outcome = self.outcomes.get(int(message.get("request_id", -1)))
        if outcome is None:
            return
        if kind == protocol.ACCEPT:
            outcome.accepted = True
            outcome.task_id = int(message["task_id"])
        elif kind == protocol.REJECT:
            outcome.accepted = False
            outcome.reject_reason = str(message.get("reason", ""))
        elif kind == protocol.RESULT:
            outcome.status = str(message.get("status", ""))
            outcome.met_deadline = bool(message.get("met_deadline", False))
            outcome.finished_at = float(message.get("finished_at", 0.0))

    # ----- ledger views ------------------------------------------------------

    def unsettled(self) -> List[SubmissionOutcome]:
        """Submissions still owed an ACCEPT/REJECT or a RESULT."""
        return [o for o in self.outcomes.values() if not o.settled]

    def drain(self, timeout: float) -> bool:
        """Poll until every submission settles or ``timeout`` passes.

        Returns True when fully settled.  A lost connection settles
        nothing further and returns False — the caller decides whether
        that is a test failure or an expected teardown.
        """
        import time

        deadline = time.monotonic() + timeout
        while self.unsettled():
            if time.monotonic() >= deadline:
                return False
            try:
                self.poll(0.05)
            except ConnectionLost:
                return False
        return True

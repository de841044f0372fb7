"""Wire protocol of the live cluster runtime.

Messages are length-prefixed JSON frames: a 4-byte big-endian payload
length followed by a UTF-8 JSON object.  Every payload carries the protocol
version (``v``) and a message ``type``; peers reject frames from other
versions instead of mis-parsing them.  The constructors below are the only
sanctioned way to build messages, so master and worker can never drift on
field names.

Message types
-------------
``HELLO``      worker -> master: registration (worker index, pid, host).
``WELCOME``    master -> worker: registration ack + resident sub-databases.
``ASSIGN``     master -> worker: one guaranteed task-to-processor assignment.
``TASK_DONE``  worker -> master: actual vs estimated execution cost.
``HEARTBEAT``  worker -> master: liveness + queue depth.
``TELEMETRY``  worker -> master: a batch of buffered trace events.
``SHUTDOWN``   master -> worker: drain and exit.
``SUBMIT``     client -> master: stream one transaction into the service.
``ACCEPT``     master -> client: submission admitted (task id + deadline).
``REJECT``     master -> client: submission shed by the admission policy.
``RESULT``     master -> client: terminal outcome of an accepted submission.

Service mode (protocol v3)
--------------------------
In the streaming service mode clients never ship transaction bodies over
the wire.  A ``SUBMIT`` names a *template* — one of the deterministically
rebuilt workload transactions both master and workers derive from
``(experiment, seed)`` — and the master mints a fresh task instance from
it, stamped with the submission's arrival time.  ``ASSIGN`` therefore
carries ``template_id`` so workers know which resident transaction body to
execute for a minted task id.  Every ``SUBMIT`` receives exactly one
``ACCEPT`` or ``REJECT``, and every ``ACCEPT`` is followed by exactly one
``RESULT`` (statuses: ``completed``/``expired``/``shed``/``surrendered``).

Sharded domains (protocol v4)
-----------------------------
v4 added master-to-master migration frames (offer, accept, decline); they
are retired, as the masters of one run share a process and offer work by
a direct call (:mod:`repro.sharding.cluster`).

Clock samples
-------------
``HELLO``, ``HEARTBEAT``, and ``TELEMETRY`` carry ``mono`` — the sender's
``time.monotonic()`` at send time — so the master can estimate each
worker's clock offset (see
:class:`repro.observability.clockskew.ClockOffsetEstimator`) and merge
worker-stamped telemetry events onto its own timeline.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterable, Iterator, List, Sequence

#: Bump on any incompatible change to frame layout or message fields.
#: v2: TELEMETRY messages; ``mono`` clock samples on HELLO and HEARTBEAT.
#: v3: service-mode SUBMIT/ACCEPT/REJECT/RESULT; ``template_id`` on ASSIGN.
#: v4: inter-domain migration frames, since retired (no worker or client
#: frame changed with them).
PROTOCOL_VERSION = 4

#: 4-byte big-endian unsigned payload length.
HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload; anything larger is a corrupt stream
#: (the largest legitimate message is a TELEMETRY batch of a few hundred
#: small events; batches are chunked well below this).
MAX_FRAME_BYTES = 1 << 20

#: Events per TELEMETRY frame; keeps every frame far under MAX_FRAME_BYTES.
TELEMETRY_BATCH_SIZE = 200

HELLO = "HELLO"
WELCOME = "WELCOME"
ASSIGN = "ASSIGN"
TASK_DONE = "TASK_DONE"
HEARTBEAT = "HEARTBEAT"
TELEMETRY = "TELEMETRY"
SHUTDOWN = "SHUTDOWN"
SUBMIT = "SUBMIT"
ACCEPT = "ACCEPT"
REJECT = "REJECT"
RESULT = "RESULT"

MESSAGE_TYPES = frozenset(
    {
        HELLO,
        WELCOME,
        ASSIGN,
        TASK_DONE,
        HEARTBEAT,
        TELEMETRY,
        SHUTDOWN,
        SUBMIT,
        ACCEPT,
        REJECT,
        RESULT,
    }
)

#: Terminal statuses a RESULT frame may carry.
RESULT_STATUSES = frozenset({"completed", "expired", "shed", "surrendered"})


class ProtocolError(ValueError):
    """A frame or message violates the protocol."""


def pack(message: Dict[str, object]) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    kind = message.get("type")
    if kind not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {kind!r}")
    payload = dict(message)
    payload["v"] = PROTOCOL_VERSION
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return HEADER.pack(len(body)) + body


def unpack(body: bytes) -> Dict[str, object]:
    """Decode one frame payload, validating version and type."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"frame payload is {type(message).__name__}, not an object")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} != {PROTOCOL_VERSION}"
        )
    if message.get("type") not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {message.get('type')!r}")
    return message


class FrameDecoder:
    """Incremental decoder: feed raw bytes, get complete messages.

    One instance per connection; it owns the connection's receive buffer so
    frames split across ``recv`` calls (or several frames arriving in one)
    reassemble correctly.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        """Absorb ``data``; return every message completed by it."""
        return list(self.frames(data))

    def frames(self, data: bytes) -> Iterator[Dict[str, object]]:
        """Absorb ``data``; yield each message it completes, in order.

        Raises :class:`ProtocolError` at the first corrupt frame — after
        the messages completed before it have been yielded, so a reader
        that must survive a bad peer keeps what was good and drops the
        connection (the stream cannot be resynchronized).
        """
        self._buffer.extend(data)
        while len(self._buffer) >= HEADER.size:
            (length,) = HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"incoming frame of {length} bytes exceeds "
                    f"{MAX_FRAME_BYTES}; stream is corrupt"
                )
            end = HEADER.size + length
            if len(self._buffer) < end:
                break
            body = bytes(self._buffer[HEADER.size:end])
            del self._buffer[:end]
            yield unpack(body)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


# ----- constructors ---------------------------------------------------------


def hello(
    worker_id: int, pid: int, host: str, mono: float = 0.0
) -> Dict[str, object]:
    """Registration; ``mono`` is the worker clock's first offset sample."""
    return {
        "type": HELLO,
        "worker_id": worker_id,
        "pid": pid,
        "host": host,
        "mono": mono,
    }


def welcome(worker_id: int, residency: Iterable[int]) -> Dict[str, object]:
    return {
        "type": WELCOME,
        "worker_id": worker_id,
        "residency": sorted(residency),
    }


def assign(
    task_id: int,
    worker_id: int,
    total_cost: float,
    communication_cost: float,
    deadline: float,
    template_id: int = -1,
) -> Dict[str, object]:
    """One dispatched schedule entry.

    ``total_cost`` is the worst case the master budgeted (``p + c``);
    ``communication_cost`` the remote-access share of it; ``deadline`` the
    absolute deadline in virtual units for the worker's own bookkeeping.
    ``template_id`` names the workload transaction to execute when it
    differs from ``task_id`` (service mode mints fresh task ids per
    submission); ``-1`` means "the task id is the template id" (batch
    mode).
    """
    return {
        "type": ASSIGN,
        "task_id": task_id,
        "worker_id": worker_id,
        "total_cost": total_cost,
        "communication_cost": communication_cost,
        "deadline": deadline,
        "template_id": template_id,
    }


def task_done(
    task_id: int,
    worker_id: int,
    actual_cost: float,
    estimated_cost: float,
    exec_seconds: float,
) -> Dict[str, object]:
    """Completion report: actual checking work vs the master's estimate."""
    return {
        "type": TASK_DONE,
        "task_id": task_id,
        "worker_id": worker_id,
        "actual_cost": actual_cost,
        "estimated_cost": estimated_cost,
        "exec_seconds": exec_seconds,
    }


def heartbeat(
    worker_id: int, queue_depth: int, tasks_done: int, mono: float = 0.0
) -> Dict[str, object]:
    """Liveness beat; ``mono`` feeds the master's clock-offset estimator."""
    return {
        "type": HEARTBEAT,
        "worker_id": worker_id,
        "queue_depth": queue_depth,
        "tasks_done": tasks_done,
        "mono": mono,
    }


def telemetry(
    worker_id: int, events: Sequence[Dict[str, object]], mono: float = 0.0
) -> Dict[str, object]:
    """One batch of buffered worker trace events.

    Each event is a flat JSON object stamped with ``w_mono`` (the worker's
    monotonic clock when it was emitted); ``mono`` is the batch's send
    time, which doubles as one more clock-offset sample.
    """
    return {
        "type": TELEMETRY,
        "worker_id": worker_id,
        "events": list(events),
        "mono": mono,
    }


def shutdown(reason: str = "complete") -> Dict[str, object]:
    return {"type": SHUTDOWN, "reason": reason}


def submit(
    request_id: int,
    template_id: int,
    relative_deadline: float = 0.0,
    mono: float = 0.0,
) -> Dict[str, object]:
    """Stream one transaction into the service.

    ``request_id`` is client-scoped (echoed on ACCEPT/REJECT/RESULT so the
    client can correlate); ``template_id`` names the workload transaction
    to instantiate; ``relative_deadline`` is the deadline in virtual units
    past the master-observed arrival time (``<= 0`` means "use the
    template's own laxity"); ``mono`` is a clock-offset sample.
    """
    return {
        "type": SUBMIT,
        "request_id": request_id,
        "template_id": template_id,
        "relative_deadline": relative_deadline,
        "mono": mono,
    }


def accept(request_id: int, task_id: int, deadline: float) -> Dict[str, object]:
    """Submission admitted: the minted task id and its absolute deadline."""
    return {
        "type": ACCEPT,
        "request_id": request_id,
        "task_id": task_id,
        "deadline": deadline,
    }


def reject(request_id: int, reason: str, policy: str) -> Dict[str, object]:
    """Submission shed at admission by ``policy`` (e.g. ``backlog-full``)."""
    return {
        "type": REJECT,
        "request_id": request_id,
        "reason": reason,
        "policy": policy,
    }


def result(
    request_id: int,
    task_id: int,
    status: str,
    met_deadline: bool,
    finished_at: float,
) -> Dict[str, object]:
    """Terminal outcome of an accepted submission.

    ``status`` is one of :data:`RESULT_STATUSES`; ``finished_at`` is the
    virtual time the task reached that status (0 when never dispatched).
    """
    if status not in RESULT_STATUSES:
        raise ProtocolError(f"unknown result status {status!r}")
    return {
        "type": RESULT,
        "request_id": request_id,
        "task_id": task_id,
        "status": status,
        "met_deadline": met_deadline,
        "finished_at": finished_at,
    }

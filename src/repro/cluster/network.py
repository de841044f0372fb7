"""Non-blocking TCP transport for python objects between master and workers.

The master side (:class:`MessageHub`) multiplexes every worker connection
through one :mod:`selectors` loop: sockets are non-blocking, each connection
owns a receive :class:`~repro.cluster.protocol.FrameDecoder` and a send
buffer, and broken connections surface as explicit ``DISCONNECT`` events
after any messages that were already buffered — never as lost data.  A
peer that does not speak the protocol is dropped the same way: a
``ProtocolError`` never escapes :meth:`MessageHub.poll`.

The worker side (:class:`WorkerChannel`) holds the single connection to the
master: blocking sends (a worker has nothing better to do than flush its
own reports) and timeout-bounded polls for receives.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..observability import Instrumentation, get_instrumentation
from .protocol import FrameDecoder, ProtocolError, pack

#: Event kinds yielded by :meth:`MessageHub.poll`.
CONNECT = "connect"
MESSAGE = "message"
DISCONNECT = "disconnect"

RECV_CHUNK = 65536
#: Pending-connection queue of the master's listener; a fleet registers in
#: one burst, so it must exceed any worker count the experiments use.
LISTEN_BACKLOG = 32
#: Wall seconds between a worker's attempts to reach a master that is not
#: listening yet.
RETRY_INTERVAL = 0.05


class ConnectionLost(ConnectionError):
    """The peer closed or reset the connection."""


@dataclass(frozen=True)
class NetworkEvent:
    """One thing that happened on the hub's selector loop."""

    kind: str  # CONNECT | MESSAGE | DISCONNECT
    conn_id: int
    message: Optional[Dict[str, object]] = None


class _Connection:
    """Per-peer state: socket, receive decoder, pending output."""

    __slots__ = ("conn_id", "sock", "decoder", "outbox", "broken")

    def __init__(self, conn_id: int, sock: socket.socket) -> None:
        self.conn_id = conn_id
        self.sock = sock
        self.decoder = FrameDecoder()
        self.outbox = bytearray()
        self.broken = False


class MessageHub:
    """The master's end of the wire: accept, multiplex, send, detect loss."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.obs = instrumentation or get_instrumentation()
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(LISTEN_BACKLOG)
        self._listener.setblocking(False)
        # Cached so the address survives close() (reports read it late).
        self._host, self._port = self._listener.getsockname()[:2]
        self._selector.register(self._listener, selectors.EVENT_READ, data=None)
        self._connections: Dict[int, _Connection] = {}
        self._next_id = 0
        self._closed = False

    # ----- addressing ------------------------------------------------------

    @property
    def port(self) -> int:
        return self._port

    @property
    def host(self) -> str:
        return self._host

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def open_connections(self) -> int:
        """Peers connected right now, whatever they are."""
        return len(self._connections)

    # ----- metrics ---------------------------------------------------------

    def _count(self, counter: str, kind: str, size: int) -> None:
        if not self.obs.enabled:
            return
        self.obs.metrics.counter(
            f"cluster_messages_{counter}", type=kind
        ).inc()
        self.obs.metrics.counter(f"cluster_bytes_{counter}").inc(size)

    # ----- event loop ------------------------------------------------------

    def poll(self, timeout: float) -> List[NetworkEvent]:
        """Pump the selector once; return everything that happened.

        Ordering guarantee: messages decoded from a connection that then
        hit EOF are yielded *before* its ``DISCONNECT`` event.
        """
        events: List[NetworkEvent] = []
        for key, mask in self._selector.select(timeout):
            if key.data is None:
                self._accept(events)
                continue
            conn: _Connection = key.data
            if mask & selectors.EVENT_WRITE:
                self._flush(conn)
            if mask & selectors.EVENT_READ:
                self._receive(conn, events)
        # Surface connections whose send side broke outside poll().
        for conn in list(self._connections.values()):
            if conn.broken:
                self._drop(conn, events)
        return events

    def _accept(self, events: List[NetworkEvent]) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(self._next_id, sock)
            self._next_id += 1
            self._selector.register(sock, selectors.EVENT_READ, data=conn)
            self._connections[conn.conn_id] = conn
            events.append(NetworkEvent(kind=CONNECT, conn_id=conn.conn_id))

    def _receive(self, conn: _Connection, events: List[NetworkEvent]) -> None:
        try:
            data = conn.sock.recv(RECV_CHUNK)
        except BlockingIOError:
            return
        except (ConnectionResetError, OSError):
            self._drop(conn, events)
            return
        if not data:
            self._drop(conn, events)
            return
        try:
            for message in conn.decoder.frames(data):
                self._count("received", str(message.get("type")), len(data))
                events.append(
                    NetworkEvent(
                        kind=MESSAGE, conn_id=conn.conn_id, message=message
                    )
                )
        except ProtocolError as exc:
            # Not our protocol (a stray HTTP client, another version, a
            # corrupt stream): that peer loses its connection, the loop
            # and every other peer carry on.  Frames completed before the
            # bad one were yielded above and precede the DISCONNECT.
            self.obs.logger.warning(
                "protocol error; dropping the connection",
                conn=conn.conn_id,
                error=str(exc),
            )
            self.obs.metrics.counter("cluster_protocol_errors").inc()
            self._drop(conn, events)

    def _drop(
        self, conn: _Connection, events: Optional[List[NetworkEvent]]
    ) -> None:
        if conn.conn_id not in self._connections:
            return
        del self._connections[conn.conn_id]
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        if events is not None:
            events.append(NetworkEvent(kind=DISCONNECT, conn_id=conn.conn_id))

    # ----- sending ---------------------------------------------------------

    def send(self, conn_id: int, message: Dict[str, object]) -> bool:
        """Queue one message to a peer; returns False if it is gone."""
        conn = self._connections.get(conn_id)
        if conn is None or conn.broken:
            return False
        frame = pack(message)
        conn.outbox.extend(frame)
        self._count("sent", str(message.get("type")), len(frame))
        self._flush(conn)
        return not conn.broken

    def broadcast(self, message: Dict[str, object]) -> int:
        """Send to every live connection; returns how many accepted it."""
        sent = 0
        for conn_id in list(self._connections):
            if self.send(conn_id, message):
                sent += 1
        return sent

    def _flush(self, conn: _Connection) -> None:
        """Push as much pending output as the socket accepts right now."""
        while conn.outbox:
            try:
                written = conn.sock.send(conn.outbox)
            except BlockingIOError:
                break
            except (BrokenPipeError, ConnectionResetError, OSError):
                conn.broken = True
                return
            if written <= 0:
                break
            del conn.outbox[:written]
        interest = selectors.EVENT_READ
        if conn.outbox:
            interest |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, interest, data=conn)
        except (KeyError, ValueError):
            pass

    # ----- teardown --------------------------------------------------------

    def close_connection(self, conn_id: int) -> None:
        conn = self._connections.get(conn_id)
        if conn is not None:
            self._drop(conn, events=None)

    def close(self) -> None:
        """Close every connection, the listener, and the selector."""
        if self._closed:
            return
        self._closed = True
        for conn in list(self._connections.values()):
            self._drop(conn, events=None)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._selector.close()


class WorkerChannel:
    """The worker's single connection to the master."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = FrameDecoder()
        self._closed = False

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        timeout: float = 10.0,
    ) -> "WorkerChannel":
        """Dial the master, retrying until it listens or ``timeout`` passes."""
        deadline = time.monotonic() + timeout
        last_error: Optional[OSError] = None
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(
                    (host, port), timeout=RETRY_INTERVAL + 1.0
                )
            except OSError as exc:
                last_error = exc
                time.sleep(RETRY_INTERVAL)
                continue
            sock.setblocking(True)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return cls(sock)
        raise ConnectionLost(
            f"could not reach master at {host}:{port} within {timeout}s: "
            f"{last_error}"
        )

    def send(self, message: Dict[str, object]) -> None:
        if self._closed:
            raise ConnectionLost("channel is closed")
        try:
            self._sock.sendall(pack(message))
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ConnectionLost(f"send failed: {exc}") from None

    def poll(self, timeout: float) -> List[Dict[str, object]]:
        """Messages that arrived within ``timeout`` seconds (maybe none).

        Raises :class:`ConnectionLost` on EOF or reset — the master is gone
        and the worker should wind down.
        """
        if self._closed:
            raise ConnectionLost("channel is closed")
        self._sock.settimeout(max(0.0, timeout))
        try:
            data = self._sock.recv(RECV_CHUNK)
        except (socket.timeout, BlockingIOError):
            # timeout=0 puts the socket in non-blocking mode, where an
            # empty wire raises BlockingIOError instead of socket.timeout;
            # both just mean "nothing yet", not a lost master.
            return []
        except (ConnectionResetError, OSError) as exc:
            raise ConnectionLost(f"recv failed: {exc}") from None
        if not data:
            raise ConnectionLost("master closed the connection")
        return self._decoder.feed(data)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

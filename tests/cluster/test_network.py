"""Transport tests: hub/channel loopback, disconnects, fragmentation."""

from __future__ import annotations

import json
import socket

import pytest

from repro.cluster import protocol
from repro.cluster.network import (
    CONNECT,
    DISCONNECT,
    MESSAGE,
    ConnectionLost,
    MessageHub,
    WorkerChannel,
)


@pytest.fixture
def hub():
    hub = MessageHub()
    yield hub
    hub.close()


def poll_until(hub, predicate, attempts=200, timeout=0.02):
    """Poll the hub until some collected event satisfies ``predicate``."""
    collected = []
    for _ in range(attempts):
        collected.extend(hub.poll(timeout))
        if predicate(collected):
            return collected
    raise AssertionError(f"condition never met; events: {collected}")


class TestLoopback:
    def test_connect_send_receive_round_trip(self, hub):
        channel = WorkerChannel.connect(hub.host, hub.port, timeout=5.0)
        try:
            events = poll_until(
                hub, lambda evs: any(e.kind == CONNECT for e in evs)
            )
            conn_id = next(e.conn_id for e in events if e.kind == CONNECT)

            channel.send(protocol.hello(0, 123, "test"))
            events = poll_until(
                hub, lambda evs: any(e.kind == MESSAGE for e in evs)
            )
            message = next(
                e.message for e in events if e.kind == MESSAGE
            )
            assert message["type"] == protocol.HELLO
            assert message["pid"] == 123

            assert hub.send(conn_id, protocol.welcome(0, [1, 2]))
            received = []
            for _ in range(200):
                received.extend(channel.poll(0.02))
                if received:
                    break
            assert received[0]["type"] == protocol.WELCOME
            assert received[0]["residency"] == [1, 2]
        finally:
            channel.close()

    def test_broadcast_reaches_every_connection(self, hub):
        channels = [
            WorkerChannel.connect(hub.host, hub.port, timeout=5.0)
            for _ in range(3)
        ]
        try:
            poll_until(
                hub,
                lambda evs: sum(e.kind == CONNECT for e in evs) == 3,
            )
            assert hub.broadcast(protocol.shutdown()) == 3
            for channel in channels:
                received = []
                for _ in range(200):
                    received.extend(channel.poll(0.02))
                    if received:
                        break
                assert received[0]["type"] == protocol.SHUTDOWN
        finally:
            for channel in channels:
                channel.close()

    def test_large_message_survives_fragmentation(self, hub):
        """A frame much larger than one recv chunk still arrives whole."""
        channel = WorkerChannel.connect(hub.host, hub.port, timeout=5.0)
        try:
            big_host = "h" * 200_000  # ~3x RECV_CHUNK
            channel.send(protocol.hello(1, 1, big_host))
            events = poll_until(
                hub, lambda evs: any(e.kind == MESSAGE for e in evs)
            )
            message = next(e.message for e in events if e.kind == MESSAGE)
            assert message["host"] == big_host
        finally:
            channel.close()


class TestDisconnects:
    def test_hub_detects_closed_channel(self, hub):
        channel = WorkerChannel.connect(hub.host, hub.port, timeout=5.0)
        poll_until(hub, lambda evs: any(e.kind == CONNECT for e in evs))
        channel.close()
        events = poll_until(
            hub, lambda evs: any(e.kind == DISCONNECT for e in evs)
        )
        assert any(e.kind == DISCONNECT for e in events)

    def test_messages_delivered_before_disconnect(self, hub):
        """Data already on the wire must not be lost to a close."""
        channel = WorkerChannel.connect(hub.host, hub.port, timeout=5.0)
        channel.send(protocol.heartbeat(0, 1, 2))
        channel.close()
        events = poll_until(
            hub, lambda evs: any(e.kind == DISCONNECT for e in evs)
        )
        kinds = [e.kind for e in events if e.kind != CONNECT]
        assert MESSAGE in kinds
        assert kinds.index(MESSAGE) < kinds.index(DISCONNECT)

    def test_send_to_gone_connection_returns_false(self, hub):
        channel = WorkerChannel.connect(hub.host, hub.port, timeout=5.0)
        events = poll_until(
            hub, lambda evs: any(e.kind == CONNECT for e in evs)
        )
        conn_id = next(e.conn_id for e in events if e.kind == CONNECT)
        hub.close_connection(conn_id)
        assert hub.send(conn_id, protocol.shutdown()) is False
        channel.close()

    def test_channel_poll_raises_when_hub_closes(self, hub):
        channel = WorkerChannel.connect(hub.host, hub.port, timeout=5.0)
        poll_until(hub, lambda evs: any(e.kind == CONNECT for e in evs))
        hub.close()
        with pytest.raises(ConnectionLost):
            for _ in range(200):
                channel.poll(0.02)
        channel.close()

    def test_connect_times_out_against_dead_port(self):
        # Reserve a port and close it so nothing is listening there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionLost):
            WorkerChannel.connect("127.0.0.1", port, timeout=0.3)


def raw_frame(payload: dict) -> bytes:
    """A well-framed payload the sanctioned ``pack`` would refuse to build."""
    body = json.dumps(payload).encode("utf-8")
    return protocol.HEADER.pack(len(body)) + body


class TestProtocolErrors:
    """A peer that does not speak the protocol loses its connection; the
    hub's ``poll`` — the master's scheduling loop — never raises."""

    @pytest.mark.parametrize(
        "wire",
        [
            b"GET / HTTP/1.1\r\n\r\n",
            protocol.HEADER.pack(protocol.MAX_FRAME_BYTES + 1) + b"x",
            raw_frame({"v": protocol.PROTOCOL_VERSION - 1, "type": "HELLO"}),
            raw_frame({"v": protocol.PROTOCOL_VERSION, "type": "BOGUS"}),
        ],
        ids=["garbage", "oversized-length", "wrong-version", "unknown-type"],
    )
    def test_bad_peer_is_dropped_and_others_keep_talking(self, hub, wire):
        good = WorkerChannel.connect(hub.host, hub.port, timeout=5.0)
        bad = socket.create_connection((hub.host, hub.port), timeout=5.0)
        try:
            events = poll_until(
                hub, lambda evs: sum(e.kind == CONNECT for e in evs) == 2
            )
            bad_id = max(e.conn_id for e in events if e.kind == CONNECT)
            bad.sendall(wire)
            events = poll_until(
                hub, lambda evs: any(e.kind == DISCONNECT for e in evs)
            )
            dropped = [e.conn_id for e in events if e.kind == DISCONNECT]
            assert dropped == [bad_id]
            assert not hub.send(bad_id, protocol.shutdown())
            # The hub closed its end: the bad peer reads EOF (or a reset).
            try:
                assert bad.recv(16) == b""
            except ConnectionResetError:
                pass
            good.send(protocol.heartbeat(0, 1, 2))
            events = poll_until(
                hub, lambda evs: any(e.kind == MESSAGE for e in evs)
            )
            assert [e.message["type"] for e in events if e.kind == MESSAGE] == [
                protocol.HEARTBEAT
            ]
        finally:
            bad.close()
            good.close()

    def test_frames_before_the_corrupt_one_are_still_delivered(self, hub):
        """Good frame + garbage in one ``recv``: MESSAGE, then DISCONNECT."""
        peer = socket.create_connection((hub.host, hub.port), timeout=5.0)
        try:
            peer.sendall(
                protocol.pack(protocol.heartbeat(3, 1, 2)) + b"\xff" * 32
            )
            events = poll_until(
                hub, lambda evs: any(e.kind == DISCONNECT for e in evs)
            )
            kinds = [e.kind for e in events if e.kind != CONNECT]
            assert kinds == [MESSAGE, DISCONNECT]
            message = next(e.message for e in events if e.kind == MESSAGE)
            assert message["worker_id"] == 3
        finally:
            peer.close()


class TestLifecycle:
    def test_port_is_ephemeral_and_stable(self, hub):
        assert hub.port > 0
        assert hub.port == hub.port

    def test_close_is_idempotent_and_frees_port(self):
        hub = MessageHub()
        port = hub.port
        hub.close()
        hub.close()
        assert hub.closed
        # The port must be immediately re-bindable (SO_REUSEADDR honored,
        # listener actually closed).
        rebind = socket.socket()
        rebind.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        rebind.bind(("127.0.0.1", port))
        rebind.close()
        # Address survives close for late report reads.
        assert hub.port == port

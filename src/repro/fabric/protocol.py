"""Length-prefixed JSON message framing for the sweep fabric.

Wire format: a 4-byte big-endian unsigned length, then exactly that many
bytes of UTF-8 JSON. Every message is a JSON object with a ``"type"``
field; everything else is message-specific plain data (spec dicts,
serialized SimResults — all JSON-safe by construction: a SimResult is
flat scalars, which JSON round-trips exactly).

Message types (coordinator <-> worker)::

    worker -> hello      {pid, ident, session}     first frame after connect
    coord  -> config     {index, runner, heartbeat} runner spawn payload
    worker -> need       {}                        ask for a lease
    coord  -> lease      {tasks: [{id, label, bench, spec, misses,
                                   attempt}, ...]}
    coord  -> shutdown   {}                        clean exit
    worker -> result     {id, result}              one finished cell
    worker -> error      {id, error}               one failed cell
    worker -> heartbeat  {n}                       liveness (side thread)

Fault plane: both directions pass through the ``fabric.rpc`` injection
site with keys ``<role>/send/<type>`` and ``<role>/recv/<type>`` — a
``crash`` injected there surfaces as :class:`ProtocolError`, which
callers treat exactly like a dropped connection (that is the point: a
chaos plan can sever any edge of the fabric deterministically). A
``stall`` injected there delays the frame, exercising the heartbeat
timeout path. The ``rpc.timeout`` site (same keys) surfaces as
:class:`RpcTimeout` instead — the injected twin of a real per-call
deadline expiring, which is also what a ``timeout=`` argument raises
when the socket blocks past it. Callers treat a timeout like a severed
connection *plus* count it, so retry/reconnect accounting can be
asserted under injection.

Frames are bounded by :data:`MAX_MESSAGE_BYTES` so a garbled length
prefix (or a non-fabric peer) fails fast instead of allocating gigabytes.

A blocking reader takes one frame with :func:`recv_message`; the
coordinator cuts whatever bytes are ready with a :class:`FrameDecoder`.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import FabricError, InjectedFault, SpecError
from repro.faults import fault_hook

#: Upper bound on one frame (runner payloads are a few KB; leases of
#: dozens of spec dicts stay well under 1 MB).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ProtocolError(FabricError):
    """A fabric connection failed or delivered a malformed frame.

    Both peers treat this as "the other side is gone": the coordinator
    reclaims the worker's leases, a worker reconnects (or exits when the
    coordinator itself is unreachable). An injected ``fabric.rpc.crash``
    fault is converted into this type so chaos plans sever connections
    through the same path a real network failure would take.
    """


class RpcTimeout(ProtocolError):
    """An RPC call blocked past its deadline (real or injected).

    A subclass of :class:`ProtocolError` — every recovery path that
    handles a dropped connection handles a timeout identically — but
    distinct so the coordinator can count timeouts separately in its
    resilience stats.
    """


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``host:port`` string (the port is mandatory)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise SpecError(f"fabric address must be host:port, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise SpecError(f"fabric port must be an integer, got {port_text!r}") from None
    if not 0 <= port <= 65535:
        raise SpecError(f"fabric port out of range: {port}")
    return host, port


def send_message(
    sock: socket.socket,
    message: Dict,
    role: str = "peer",
    timeout: Optional[float] = None,
) -> None:
    """Frame and send one message (raises :class:`ProtocolError` on failure).

    ``timeout`` bounds the whole send; expiry raises :class:`RpcTimeout`.
    The socket's prior timeout is restored afterwards.
    """
    key = f"{role}/send/{message.get('type', '?')}"
    try:
        fault_hook("fabric.rpc", key)
    except InjectedFault as exc:
        raise ProtocolError(f"connection dropped (injected): {exc}") from exc
    try:
        fault_hook("rpc.timeout", key)
    except InjectedFault as exc:
        raise RpcTimeout(f"rpc send timed out (injected): {exc}") from exc
    data = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(data) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame too large: {len(data)} bytes")
    previous = sock.gettimeout() if timeout is not None else None
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.sendall(struct.pack(">I", len(data)) + data)
    except socket.timeout as exc:
        raise RpcTimeout(f"send timed out after {timeout}s") from exc
    except OSError as exc:
        raise ProtocolError(f"send failed: {exc}") from exc
    finally:
        if timeout is not None:
            try:
                sock.settimeout(previous)
            except OSError:
                pass


def recv_message(
    sock: socket.socket, role: str = "peer", timeout: Optional[float] = None
) -> Optional[Dict]:
    """Receive one message; None on clean EOF at a frame boundary.

    A connection that dies *inside* a frame — the signature of a killed
    worker — raises :class:`ProtocolError`, as do oversized or
    non-object frames. ``timeout`` bounds each socket read; expiry
    raises :class:`RpcTimeout` (prior socket timeout restored after).
    """
    previous = sock.gettimeout() if timeout is not None else None
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        header = _recv_exact(sock, 4)
        if header is None:
            return None
        data = _recv_exact(sock, _frame_length(header))
        if data is None:
            raise ProtocolError("connection dropped mid-frame")
    finally:
        if timeout is not None:
            try:
                sock.settimeout(previous)
            except OSError:
                pass
    return _decode(data, role)


class FrameDecoder:
    """Cuts one connection's byte stream into messages, as the bytes arrive."""

    def __init__(self, role: str = "peer"):
        self.role = role
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[Dict]:
        """Yield every message ``data`` completes; ``b""`` is end-of-file.

        Fails as :func:`recv_message` does, after the frames before the bad one.
        """
        if not data and self._buffer:
            raise ProtocolError("connection dropped mid-frame")
        self._buffer += data
        while len(self._buffer) >= 4:
            end = 4 + _frame_length(self._buffer[:4])
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[4:end])
            del self._buffer[:end]
            yield _decode(body, self.role)


def _frame_length(header: bytes) -> int:
    (length,) = struct.unpack(">I", header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_MESSAGE_BYTES}")
    return length


def _decode(data: bytes, role: str) -> Dict:
    """One frame's body as a typed message, through the receive fault sites."""
    try:
        message = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame is not a typed message object")
    key = f"{role}/recv/{message['type']}"
    try:
        fault_hook("fabric.rpc", key)
    except InjectedFault as exc:
        raise ProtocolError(f"connection dropped (injected): {exc}") from exc
    try:
        fault_hook("rpc.timeout", key)
    except InjectedFault as exc:
        raise RpcTimeout(f"rpc recv timed out (injected): {exc}") from exc
    return message


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on EOF before the first byte."""
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as exc:
            raise RpcTimeout(f"recv timed out: {exc}") from exc
        except OSError as exc:
            raise ProtocolError(f"recv failed: {exc}") from exc
        if not chunk:
            if chunks:
                raise ProtocolError("connection dropped mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if chunks else b""

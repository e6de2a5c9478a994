"""Socket transport of the distributed campaign engine.

The wire format is deliberately tiny: every message is one JSON object
(UTF-8) prefixed by a 4-byte big-endian length — the classic length-prefixed
framing that survives arbitrary TCP segmentation.  Everything the campaign
ships is already JSON-serializable (``ChipJob.to_dict``,
``ChipRetrainingResult.to_dict``, trace-shard lines, metric snapshots), and
JSON float serialization round-trips ``repr``-exactly in Python, so a result
decoded from a frame re-encodes byte-identically in the content-addressed
store — the transport cannot perturb bit-identity.

Connection establishment is a versioned hello handshake.  The *worker* side
always speaks first (regardless of which side dialed), declaring:

* ``protocol`` — :data:`PROTOCOL_VERSION`; coordinators reject mismatches
  outright rather than guessing at forward compatibility;
* ``store_format`` — :data:`~repro.campaign.store.STORE_FORMAT_VERSION`, so
  a worker built against a different store layout can never contribute rows;
* ``preset`` — optionally, the preset name the worker expects (workers
  normally adopt the coordinator's preset from the welcome frame; declaring
  one turns a mixed-cluster mis-join into a loud reject);
* ``host``/``pid`` — identity for cross-host trace attribution.

The coordinator answers with a ``welcome`` carrying the full serialized
preset and execution knobs, the compute ``backend`` included (or a
``reject`` with a reason); a worker that cannot use that backend ends the
handshake with :class:`HandshakeError` before it builds anything.  The
worker builds its context and reports ``ready``, and from then on both
sides exchange the scheduler's campaign/claim/chunk/result messages plus
periodic heartbeats (see :mod:`repro.campaign.scheduler`).

Blocking helpers (:func:`send_frame`/:func:`recv_frame`) serve the worker
side; the coordinator multiplexes many workers without threads-per-connection
through the incremental :class:`FrameDecoder`.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Dict, List, Optional, Tuple

PROTOCOL_VERSION = 3

#: Frames larger than this are refused on both ends.  Sized far above any
#: legitimate chunk/result/shard payload; its job is to turn a corrupt or
#: hostile length prefix into a clean error instead of a 4 GiB allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

# Message types (the ``type`` field of every frame).
MSG_HELLO = "hello"
MSG_WELCOME = "welcome"
MSG_REJECT = "reject"
MSG_READY = "ready"
MSG_HEARTBEAT = "heartbeat"
MSG_CAMPAIGN = "campaign"
MSG_CLAIM = "claim"
MSG_CHUNK = "chunk"
MSG_RESULT = "result"
MSG_ERROR = "error"
MSG_CAMPAIGN_END = "campaign_end"
MSG_SHARDS = "shards"
MSG_SHUTDOWN = "shutdown"


class TransportError(RuntimeError):
    """Base class for socket-transport failures."""


class FrameError(TransportError):
    """A malformed, oversized or truncated frame."""


class HandshakeError(TransportError):
    """The hello/welcome exchange failed or was rejected."""


def encode_frame(message: Dict[str, Any], max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one message as a length-prefixed JSON frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > max_frame_bytes:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the {max_frame_bytes}-byte cap"
        )
    return _HEADER.pack(len(payload)) + payload


def send_frame(
    sock: socket.socket,
    message: Dict[str, Any],
    lock: Optional[threading.Lock] = None,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> None:
    """Send one framed message (atomically w.r.t. ``lock`` when given).

    The worker's heartbeat thread and its main loop share one socket; the
    lock keeps their frames from interleaving.
    """
    data = encode_frame(message, max_frame_bytes=max_frame_bytes)
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
    """Read exactly ``size`` bytes; ``None`` on EOF at a frame boundary."""
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == size:
                return None
            raise FrameError(
                f"connection closed mid-frame ({size - remaining}/{size} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, Any]]:
    """Read one framed message (blocking); ``None`` on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameError(
            f"peer announced a {length}-byte frame (cap {max_frame_bytes})"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FrameError("connection closed between frame header and payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"undecodable frame payload: {error}") from error
    if not isinstance(message, dict):
        raise FrameError(f"frame payload is not an object: {type(message).__name__}")
    return message


class FrameDecoder:
    """Incremental frame decoder for non-blocking sockets.

    Feed it whatever ``recv`` returned; it buffers partial frames across
    feeds and yields every complete message, so the coordinator's event loop
    never blocks on a slow writer mid-frame.
    """

    __slots__ = ("_buffer", "_max_frame_bytes")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Buffer ``data`` and return every now-complete message, in order."""
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack(bytes(self._buffer[: _HEADER.size]))
            if length > self._max_frame_bytes:
                raise FrameError(
                    f"peer announced a {length}-byte frame (cap {self._max_frame_bytes})"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            try:
                message = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise FrameError(f"undecodable frame payload: {error}") from error
            if not isinstance(message, dict):
                raise FrameError(
                    f"frame payload is not an object: {type(message).__name__}"
                )
            messages.append(message)


def parse_address(spec: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``) into ``(host, port)``."""
    text = str(spec).strip()
    if not text:
        raise ValueError("empty address")
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    host = host.strip() or default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in address {spec!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in address {spec!r}")
    return host, port


def format_address(address: Tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


def find_free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (the Power-SGD join idiom)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def worker_hello(
    host: str,
    pid: int,
    expect_preset: Optional[str] = None,
) -> Dict[str, Any]:
    """Build the worker-first hello frame."""
    from repro.campaign.store import STORE_FORMAT_VERSION

    hello: Dict[str, Any] = {
        "type": MSG_HELLO,
        "protocol": PROTOCOL_VERSION,
        "store_format": STORE_FORMAT_VERSION,
        "host": host,
        "pid": int(pid),
    }
    if expect_preset is not None:
        hello["preset"] = str(expect_preset)
    return hello


def validate_hello(hello: Dict[str, Any], preset_name: str) -> Optional[str]:
    """Coordinator-side hello validation; a rejection reason or ``None``.

    ``preset_name`` is the coordinator's preset; a worker that *declared* an
    expected preset must match it.
    """
    from repro.campaign.store import STORE_FORMAT_VERSION

    if hello.get("type") != MSG_HELLO:
        return f"expected a hello frame, got {hello.get('type')!r}"
    if hello.get("protocol") != PROTOCOL_VERSION:
        return (
            f"protocol version mismatch: worker speaks {hello.get('protocol')!r}, "
            f"coordinator speaks {PROTOCOL_VERSION}"
        )
    if hello.get("store_format") != STORE_FORMAT_VERSION:
        return (
            f"store format mismatch: worker writes v{hello.get('store_format')!r}, "
            f"coordinator stores are v{STORE_FORMAT_VERSION}"
        )
    declared = hello.get("preset")
    if declared is not None and str(declared) != preset_name:
        return (
            f"preset mismatch: worker expects {declared!r}, "
            f"campaign runs {preset_name!r}"
        )
    return None

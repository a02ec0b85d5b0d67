"""Wire protocol of the simulation service.

One frame = one JSON object on one ``\\n``-terminated line.  The format
is deliberately primitive: every value the service moves — scenario
configs, unit plans, unit payloads — is already JSON-native by
construction (that is what makes a :class:`~repro.orchestration.UnitPlan`
shippable at all), so framing reduces to line splitting, and any peer
(including ``netcat`` while debugging) can speak it.

Frame taxonomy (``type`` field):

===================  =========  ==============================================
frame                direction  meaning
===================  =========  ==============================================
``hello``            peer → S   handshake: role + protocol/schema/package
                                (+ optional stable ``worker`` id)
``welcome``          S → peer   handshake accepted; carries the server's
                                bound ``host``/``port`` (meaningful when
                                the server was started on port 0)
``reject``           S → peer   handshake or submit refused (``reason``)
``submit``           client→S   run a scenario (``config`` or ``name`` +
                                ``overrides``; optional ``cache``)
``accepted``         S→client   job admitted (``job_id``, ``total_units``,
                                ``content_hash``, echoed ``config``)
``event``            S→client   one unit changed state (``unit``, ``state`` ∈
                                queued/running/done/failed/cached, ``attempts``,
                                ``wall_time_seconds``; ``payload`` on
                                done/cached)
``job-done``         S→client   all units accounted for (``cache_hits``,
                                ``executed_units``, ``workers``,
                                ``wall_time_seconds``)
``job-failed``       S→client   a unit exhausted its retry budget (``reason``)
``unit``             S→worker   execute one plan (``unit``, ``plan``)
``heartbeat``        worker→S   liveness beacon while a unit executes
                                (``unit``); resets the server's per-unit
                                liveness deadline
``result``           worker→S   unit finished (``unit``, ``payload``,
                                ``wall_time_seconds``, ``sha256`` payload
                                checksum)
``unit-error``       worker→S   unit raised (``unit``, ``error``)
``shutdown``         S→worker   server is draining; disconnect cleanly
``error``            S → peer   protocol violation, connection will close
===================  =========  ==============================================

Versioning: the ``hello``/``welcome`` handshake carries the protocol
version, the result schema version and the package version, and the
server rejects any mismatch.  Byte-identity across worker placements is
only guaranteed when every participant runs the same code — the scenario
content hash already embeds the package version, so a version-skewed
worker would compute results the store could never serve; rejecting it
at handshake time turns a silent wrong-answer hazard into a loud
connection error.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

from .. import __version__
from ..orchestration.scenario import RESULT_SCHEMA_VERSION

#: Bump on any incompatible change to the frame vocabulary above.
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's encoded size.  Large enough for any sane
#: unit payload (trial records are a few dozen bytes each), small enough
#: to bound the memory a malicious or broken peer can pin per connection.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: How long a freshly accepted connection gets to complete its handshake.
HANDSHAKE_TIMEOUT = 10.0

#: How often a worker emits ``heartbeat`` frames while a unit executes.
#: The server's liveness deadline should be a comfortable multiple of
#: this (missing several beats = dead, one delayed beat = fine).
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Default server-side liveness deadline: a worker mid-unit that sends
#: no frame (heartbeat or result) for this long is written off without
#: waiting for the full unit timeout.
DEFAULT_LIVENESS_TIMEOUT = 10.0


class ServiceError(RuntimeError):
    """A service operation failed (submit rejected, job failed, timeout)."""


class ProtocolError(ServiceError):
    """The peer violated the wire protocol (malformed/oversized frame)."""


def encode_frame(frame: Dict[str, Any], max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One frame as its wire bytes (compact JSON + newline)."""
    data = json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(data) > max_bytes:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the {max_bytes}-byte limit"
        )
    return data


async def write_frame(
    writer: asyncio.StreamWriter,
    frame: Dict[str, Any],
    max_bytes: int = MAX_FRAME_BYTES,
) -> None:
    """Send one frame and flush it."""
    writer.write(encode_frame(frame, max_bytes=max_bytes))
    await writer.drain()


async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF between frames.

    Raises :class:`ProtocolError` on an oversized line (the stream limit
    the connection was opened with backs this — see
    :func:`open_service_connection`), a mid-frame disconnect, bytes that
    are not JSON, or JSON that is not an object with a ``type``.
    """
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from error
    except asyncio.LimitOverrunError as error:
        raise ProtocolError(
            f"oversized frame (line exceeds the {max_bytes}-byte limit)"
        ) from error
    if len(line) > max_bytes:
        raise ProtocolError(
            f"oversized frame ({len(line)} bytes > {max_bytes}-byte limit)"
        )
    try:
        frame = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from error
    if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
        raise ProtocolError("malformed frame: expected an object with a 'type'")
    return frame


async def open_service_connection(host: str, port: int, max_bytes: int = MAX_FRAME_BYTES):
    """``asyncio.open_connection`` with the stream limit sized for frames."""
    return await asyncio.open_connection(host, port, limit=max_bytes + 1024)


def hello_frame(role: str, worker: Optional[str] = None) -> Dict[str, Any]:
    """The handshake a client or worker opens its connection with.

    ``worker`` is an optional stable identity for worker connections;
    the server keys its per-worker circuit breaker on it, so a worker
    that reconnects under the same name inherits its quarantine state
    instead of resetting it.
    """
    frame = {
        "type": "hello",
        "role": role,
        "protocol": PROTOCOL_VERSION,
        "schema": RESULT_SCHEMA_VERSION,
        "package": __version__,
    }
    if worker is not None:
        frame["worker"] = worker
    return frame


def handshake_mismatch(frame: Dict[str, Any]) -> Optional[str]:
    """Why a ``hello`` frame is unacceptable, or ``None`` if it matches."""
    if frame.get("type") != "hello":
        return f"expected a hello frame, got {frame.get('type')!r}"
    if frame.get("role") not in ("client", "worker"):
        return f"unknown role {frame.get('role')!r}"
    if frame.get("protocol") != PROTOCOL_VERSION:
        return (
            f"protocol version mismatch: peer speaks {frame.get('protocol')!r}, "
            f"server speaks {PROTOCOL_VERSION}"
        )
    if frame.get("schema") != RESULT_SCHEMA_VERSION:
        return (
            f"result schema mismatch: peer has {frame.get('schema')!r}, "
            f"server has {RESULT_SCHEMA_VERSION}"
        )
    if frame.get("package") != __version__:
        return (
            f"package version mismatch: peer runs {frame.get('package')!r}, "
            f"server runs {__version__!r} (byte-identity requires equal code)"
        )
    return None


def parse_endpoint(value: str) -> tuple:
    """``"host:port"`` → ``(host, port)`` (IPv6 hosts use ``[...]``)."""
    text = value.strip()
    if text.startswith("["):  # [v6]:port
        host, _, rest = text[1:].partition("]")
        if not rest.startswith(":"):
            raise ValueError(f"malformed endpoint {value!r}; expected [host]:port")
        port_text = rest[1:]
    else:
        host, separator, port_text = text.rpartition(":")
        if not separator:
            raise ValueError(f"malformed endpoint {value!r}; expected host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"malformed endpoint {value!r}; port must be an integer")
    if not host or not 0 < port < 65536:
        raise ValueError(f"malformed endpoint {value!r}; expected host:port")
    return host, port

"""Remote shard worker (``repro-popsim worker --connect host:port``).

A worker is the shard runner generalised across machine boundaries: it
connects to a :class:`~repro.service.server.JobServer`, completes the
protocol-version/schema handshake (a version-skewed worker is rejected
before it can compute anything), then loops — receive one
:class:`~repro.orchestration.UnitPlan` envelope, execute it through the
*same* :func:`~repro.orchestration.execute_unit_plan` a fork-worker or
the serial path runs, send the JSON payload back.  All seed derivation
happened in the server's parent process when the plans were built;
the worker re-derives nothing, which is what makes its results
byte-identical to any other placement.

The plan executes on an executor thread so the connection stays
responsive (a ``shutdown`` frame or a dropped socket is noticed even
mid-unit); one unit runs at a time per worker — parallelism comes from
connecting more workers.

Resilience behaviours (PR 8):

* **Heartbeats** — while a unit executes, the worker emits ``heartbeat``
  frames every ``heartbeat_interval`` seconds, so the server can
  distinguish *slow* (beating) from *dead* (silent past its liveness
  deadline) without waiting out the full unit timeout.
* **Reconnect with seeded backoff** — with ``reconnect_retries > 0`` a
  lost/garbled connection (including the server dropping this worker
  after a liveness expiry) is retried through a deterministic
  :class:`~repro.resilience.BackoffPolicy` instead of dying; a clean
  ``shutdown`` frame still ends the worker immediately, and a refused
  handshake (version skew) is never retried — that failure is permanent.
* **Stable identity** — the hello frame carries a ``worker`` id stable
  across reconnects, so the server's per-worker circuit breaker follows
  the worker, not the TCP connection.
* **Injectable seams** — ``transport_wrap`` wraps the post-handshake
  streams (the chaos engine's frame corruption/truncation/delay lives
  behind this), and ``unit_hook`` runs before each unit executes
  (crash/stall/slow/error injection).  Both default to no-ops; raising
  :class:`WorkerCrash` from the hook simulates an abrupt worker death.

A unit that raises is reported with a ``unit-error`` frame rather than
killing the worker: the server counts the failed attempt and re-queues
(bounded by its ``max_attempts``), so one poisoned unit cannot take the
whole pool down.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from ..resilience.backoff import BackoffPolicy
from .protocol import (
    DEFAULT_HEARTBEAT_INTERVAL,
    MAX_FRAME_BYTES,
    ProtocolError,
    ServiceError,
    hello_frame,
    open_service_connection,
    read_frame,
    write_frame,
)

#: ``transport_wrap(reader, writer) -> (reader, writer)`` — applied after
#: the handshake so version negotiation itself is never perturbed.
TransportWrap = Callable[[Any, Any], Tuple[Any, Any]]

#: ``unit_hook(frame)`` — awaited before each unit executes.
UnitHook = Callable[[Dict[str, Any]], Awaitable[None]]


class WorkerCrash(Exception):
    """Raise from a ``unit_hook`` to simulate an abrupt worker death.

    The connection is abandoned mid-unit (no ``unit-error`` frame), which
    is what a SIGKILL'd or power-cycled worker looks like to the server.
    """


def default_worker_id() -> str:
    """A worker identity stable across reconnects of one process."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _payload_checksum(payload: Any) -> str:
    # Deferred import: keep the protocol-only import surface of this
    # module minimal (mirrors the runner import below).
    from ..orchestration.store import unit_checksum

    return unit_checksum(payload)


async def _execute_with_heartbeat(
    loop: asyncio.AbstractEventLoop,
    writer: asyncio.StreamWriter,
    unit_key: Any,
    plan: Any,
    heartbeat_interval: Optional[float],
    max_frame_bytes: int,
) -> Any:
    """Run one plan on an executor thread, heartbeating while it runs."""
    from ..orchestration import runner as _runner

    async def beat() -> None:
        try:
            while True:
                await asyncio.sleep(heartbeat_interval)
                await write_frame(
                    writer, {"type": "heartbeat", "unit": unit_key}, max_frame_bytes
                )
        except (OSError, ConnectionError, ProtocolError):
            # A dead socket surfaces on the result write; beacons are
            # best-effort by definition.
            pass

    beat_task = (
        asyncio.ensure_future(beat())
        if heartbeat_interval is not None and heartbeat_interval > 0
        else None
    )
    try:
        # Module-attribute lookup so tests can monkeypatch the executor;
        # runs on a thread to keep the socket serviced.
        return await loop.run_in_executor(None, _runner.execute_unit_plan, plan)
    finally:
        if beat_task is not None:
            beat_task.cancel()
            await asyncio.gather(beat_task, return_exceptions=True)


async def _worker_session(
    host: str,
    port: int,
    *,
    counter: List[int],
    max_units: Optional[int],
    worker_id: str,
    heartbeat_interval: Optional[float],
    transport_wrap: Optional[TransportWrap],
    unit_hook: Optional[UnitHook],
    max_frame_bytes: int,
) -> str:
    """One connection's unit-serving loop.

    Returns how the session ended: ``"shutdown"`` (explicit frame),
    ``"eof"`` (server closed the socket between frames) or ``"budget"``
    (``max_units`` reached).  Connection-level failures raise.
    """
    from ..orchestration import runner as _runner

    reader, writer = await open_service_connection(host, port, max_frame_bytes)
    try:
        await write_frame(writer, hello_frame("worker", worker=worker_id), max_frame_bytes)
        welcome = await read_frame(reader, max_frame_bytes)
        if welcome is None or welcome.get("type") != "welcome":
            reason = (welcome or {}).get("reason", "connection closed during handshake")
            raise ServiceError(f"server refused worker: {reason}")
        if transport_wrap is not None:
            reader, writer = transport_wrap(reader, writer)
        loop = asyncio.get_running_loop()
        while max_units is None or counter[0] < max_units:
            frame = await read_frame(reader, max_frame_bytes)
            if frame is None:
                return "eof"
            if frame.get("type") == "shutdown":
                return "shutdown"
            if frame.get("type") != "unit":
                raise ProtocolError(
                    f"unexpected frame {frame.get('type')!r}; expected unit"
                )
            plan = _runner.unit_plan_from_wire(frame["plan"])
            start = time.perf_counter()
            try:
                if unit_hook is not None:
                    await unit_hook(frame)
                payload = await _execute_with_heartbeat(
                    loop, writer, frame.get("unit"), plan, heartbeat_interval,
                    max_frame_bytes,
                )
            except (asyncio.CancelledError, WorkerCrash):
                raise
            except Exception as error:  # noqa: BLE001 — reported, not fatal
                await write_frame(
                    writer,
                    {
                        "type": "unit-error",
                        "unit": frame.get("unit"),
                        "error": f"{type(error).__name__}: {error}",
                    },
                    max_frame_bytes,
                )
                continue
            await write_frame(
                writer,
                {
                    "type": "result",
                    "unit": frame.get("unit"),
                    "payload": payload,
                    "sha256": _payload_checksum(payload),
                    "wall_time_seconds": time.perf_counter() - start,
                },
                max_frame_bytes,
            )
            counter[0] += 1
        return "budget"
    finally:
        with contextlib.suppress(Exception):
            writer.close()
        with contextlib.suppress(OSError, ConnectionError):
            await writer.wait_closed()


async def run_worker_async(
    host: str,
    port: int,
    *,
    max_units: Optional[int] = None,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    reconnect_retries: int = 0,
    backoff: Optional[BackoffPolicy] = None,
    heartbeat_interval: Optional[float] = DEFAULT_HEARTBEAT_INTERVAL,
    worker_id: Optional[str] = None,
    transport_wrap: Optional[TransportWrap] = None,
    unit_hook: Optional[UnitHook] = None,
) -> int:
    """Serve units until the server goes away; returns units completed.

    ``max_units`` bounds how many units this worker executes (across
    reconnects) before disconnecting cleanly; ``None`` serves until the
    server sends ``shutdown`` — or, with ``reconnect_retries == 0``,
    until the connection drops.  With ``reconnect_retries > 0`` a
    dropped, torn or garbled connection is retried with deterministic
    seeded backoff (``backoff``, default :class:`BackoffPolicy`); the
    retry budget counts *consecutive* failures and resets whenever a
    session is established.  A refused handshake raises immediately —
    version skew does not heal by retrying.
    """
    policy = backoff if backoff is not None else BackoffPolicy()
    identity = worker_id if worker_id is not None else default_worker_id()
    counter = [0]
    consecutive_failures = 0
    while True:
        try:
            ended = await _worker_session(
                host,
                port,
                counter=counter,
                max_units=max_units,
                worker_id=identity,
                heartbeat_interval=heartbeat_interval,
                transport_wrap=transport_wrap,
                unit_hook=unit_hook,
                max_frame_bytes=max_frame_bytes,
            )
        except (ProtocolError, OSError, ConnectionError, WorkerCrash):
            # Note the order: ProtocolError must be tried before its
            # ServiceError base below, or garbled frames would read as a
            # permanent handshake refusal.
            if consecutive_failures >= reconnect_retries:
                raise
            await asyncio.sleep(policy.delay(consecutive_failures))
            consecutive_failures += 1
            continue
        except ServiceError:
            raise  # handshake refused: permanent, never retried
        if ended in ("shutdown", "budget"):
            return counter[0]
        # EOF between frames: a drained server closes this way, but so
        # does a server that dropped us after a liveness expiry — with a
        # retry budget we treat it as reconnectable.
        if consecutive_failures >= reconnect_retries:
            return counter[0]
        await asyncio.sleep(policy.delay(consecutive_failures))
        consecutive_failures += 1


def run_worker(
    host: str,
    port: int,
    *,
    max_units: Optional[int] = None,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    reconnect_retries: int = 0,
    backoff: Optional[BackoffPolicy] = None,
    heartbeat_interval: Optional[float] = DEFAULT_HEARTBEAT_INTERVAL,
    worker_id: Optional[str] = None,
) -> int:
    """Synchronous wrapper around :func:`run_worker_async`."""
    return asyncio.run(
        run_worker_async(
            host,
            port,
            max_units=max_units,
            max_frame_bytes=max_frame_bytes,
            reconnect_retries=reconnect_retries,
            backoff=backoff,
            heartbeat_interval=heartbeat_interval,
            worker_id=worker_id,
        )
    )

"""Streaming client (``repro-popsim submit`` / :class:`ServiceClient`).

The client submits one scenario to a job server, consumes the per-unit
event stream (``queued → running → done/failed``, plus ``cached`` for
units served straight from the result store), and reassembles the exact
:class:`~repro.orchestration.ScenarioResult` a local
:func:`~repro.orchestration.run_scenario` produces: unit payloads stream
back as they complete and are folded in global trial order through the
same :func:`~repro.orchestration.aggregate_unit_payloads` the local
runner uses, so ``result.canonical_json()`` is byte-identical to an
in-process run — the caller cannot tell (from the result) whether a
measurement ran in-process, on a fork-worker, or three retries deep on a
remote machine.

Progress streaming is push-based: pass ``on_event`` to observe every
state transition as the server emits it (the CLI uses this for live
``[running] p00-s00-t0003 (attempt 1)`` lines) instead of polling for
completion.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, Mapping, Optional

from ..orchestration.runner import (
    ScenarioResult,
    aggregate_unit_payloads,
    build_work_units,
)
from ..orchestration.scenario import Scenario
from ..resilience.backoff import BackoffPolicy
from .protocol import (
    MAX_FRAME_BYTES,
    ServiceError,
    hello_frame,
    open_service_connection,
    read_frame,
    write_frame,
)

#: Signature of the optional progress callback: one server event frame.
EventCallback = Callable[[Dict[str, Any]], None]


class ServiceClient:
    """Submit scenarios to a running job server and stream the results.

    Parameters
    ----------
    host / port:
        The server endpoint (``repro-popsim serve`` prints it on start).
    timeout:
        Optional overall deadline (seconds) per submission, covering
        connect, handshake, execution and streaming.  On expiry the
        connection is torn down and :class:`ServiceError` raised — the
        server notices the disconnect and abandons the job (finished
        units stay in its store, so a retry resumes rather than
        recomputes).
    connect_retries / backoff:
        With ``connect_retries > 0``, a refused/unreachable TCP connect
        is retried that many times with deterministic seeded backoff
        (``backoff``, default :class:`BackoffPolicy`) before giving up —
        useful when the client races the server's startup.  Handshake
        rejections (version skew, draining) are never retried.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        connect_retries: int = 0,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.max_frame_bytes = int(max_frame_bytes)
        self.connect_retries = int(connect_retries)
        self.backoff = backoff if backoff is not None else BackoffPolicy()

    # ------------------------------------------------------------------
    # Sync entry points
    # ------------------------------------------------------------------
    def submit(
        self,
        scenario: Optional[Scenario] = None,
        *,
        name: Optional[str] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        cache: bool = True,
        on_event: Optional[EventCallback] = None,
    ) -> ScenarioResult:
        """Run one scenario on the server; blocks until the result is in.

        Pass either a full ``scenario`` object or a registered ``name``
        (plus CLI-style ``overrides``) — name resolution then happens on
        the *server*, against its registry.
        """
        return asyncio.run(
            self.submit_async(
                scenario, name=name, overrides=overrides, cache=cache, on_event=on_event
            )
        )

    # ------------------------------------------------------------------
    # Async implementation
    # ------------------------------------------------------------------
    async def submit_async(
        self,
        scenario: Optional[Scenario] = None,
        *,
        name: Optional[str] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        cache: bool = True,
        on_event: Optional[EventCallback] = None,
    ) -> ScenarioResult:
        if (scenario is None) == (name is None):
            raise ValueError("pass exactly one of scenario= or name=")
        try:
            return await asyncio.wait_for(
                self._submit(scenario, name, overrides, cache, on_event),
                timeout=self.timeout,
            )
        except asyncio.TimeoutError:
            raise ServiceError(
                f"submission timed out after {self.timeout:g}s "
                f"(server {self.host}:{self.port})"
            ) from None

    async def _submit(
        self,
        scenario: Optional[Scenario],
        name: Optional[str],
        overrides: Optional[Mapping[str, Any]],
        cache: bool,
        on_event: Optional[EventCallback],
    ) -> ScenarioResult:
        start = time.perf_counter()
        reader, writer = await self._connect_with_retry()
        try:
            await write_frame(writer, hello_frame("client"), self.max_frame_bytes)
            welcome = await self._read_expected(reader)
            if welcome.get("type") != "welcome":
                raise ServiceError(
                    f"server refused client: {welcome.get('reason', welcome.get('type'))}"
                )
            submit: Dict[str, Any] = {"type": "submit", "cache": bool(cache)}
            if scenario is not None:
                submit["config"] = scenario.config_dict()
            else:
                submit["name"] = name
                if overrides:
                    submit["overrides"] = dict(overrides)
            await write_frame(writer, submit, self.max_frame_bytes)
            accepted = await self._read_expected(reader)
            if accepted.get("type") == "reject":
                raise ServiceError(f"submission rejected: {accepted.get('reason')}")
            if accepted.get("type") != "accepted":
                raise ServiceError(
                    f"unexpected server reply {accepted.get('type')!r}"
                )
            # The server echoes the resolved canonical config, which is
            # how name-based submissions learn the scenario they ran.
            resolved = (
                scenario
                if scenario is not None
                else Scenario.from_config(accepted["config"])
            )

            payloads: Dict[str, Dict[str, Any]] = {}
            stats: Dict[str, Any] = {}
            while True:
                frame = await self._read_expected(reader)
                frame_type = frame.get("type")
                if frame_type == "event":
                    if on_event is not None:
                        on_event(frame)
                    if frame.get("state") in ("done", "cached"):
                        payloads[str(frame["unit"])] = frame["payload"]
                elif frame_type == "job-done":
                    stats = frame
                    break
                elif frame_type == "job-failed":
                    raise ServiceError(f"job failed: {frame.get('reason')}")
                else:
                    raise ServiceError(f"unexpected server frame {frame_type!r}")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

        units = build_work_units(resolved)
        missing = [unit.key for unit in units if unit.key not in payloads]
        if missing:
            raise ServiceError(
                f"server reported completion but {len(missing)} unit payload(s) "
                f"never arrived (first: {missing[0]})"
            )
        sweeps = aggregate_unit_payloads(resolved, units, payloads)
        return ScenarioResult(
            scenario=resolved,
            sweeps=sweeps,
            total_units=len(units),
            cache_hits=int(stats.get("cache_hits", 0)),
            executed_units=int(stats.get("executed_units", 0)),
            jobs=int(stats.get("workers", 0)),
            wall_time_seconds=time.perf_counter() - start,
        )

    async def _connect_with_retry(self):
        """TCP connect, retried with seeded backoff when configured."""
        attempt = 0
        while True:
            try:
                return await open_service_connection(
                    self.host, self.port, self.max_frame_bytes
                )
            except OSError as error:
                if attempt >= self.connect_retries:
                    raise ServiceError(
                        f"cannot reach job server at {self.host}:{self.port}: {error}"
                    ) from error
                await asyncio.sleep(self.backoff.delay(attempt))
                attempt += 1

    async def _read_expected(self, reader: asyncio.StreamReader) -> Dict[str, Any]:
        """Next frame, treating EOF mid-conversation as a hard error."""
        frame = await read_frame(reader, self.max_frame_bytes)
        if frame is None:
            raise ServiceError("server closed the connection mid-conversation")
        return frame


def submit_scenario(
    host: str,
    port: int,
    scenario: Scenario,
    *,
    cache: bool = True,
    timeout: Optional[float] = None,
    on_event: Optional[EventCallback] = None,
    connect_retries: int = 0,
) -> ScenarioResult:
    """One-shot convenience wrapper around :class:`ServiceClient`."""
    client = ServiceClient(
        host, port, timeout=timeout, connect_retries=connect_retries
    )
    return client.submit(scenario, cache=cache, on_event=on_event)

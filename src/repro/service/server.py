"""The asyncio job server (``repro-popsim serve``).

:class:`JobServer` is the front-end of the simulation service: it
accepts client submissions, validates them against the scenario
registry, decomposes them into the orchestrator's
:class:`~repro.orchestration.UnitPlan` envelopes via the *same*
``build_work_units``/``build_unit_plans`` a local run uses, serves cache
hits straight from the content-hash result store, and dispatches the
misses to a pool of workers — in-process local workers
(``local_workers=N``) and remote workers connected over the wire
(``repro-popsim worker --connect``), interchangeably.

Robustness model
----------------

* **Per-unit timeout** — a dispatched unit that produces no reply within
  ``unit_timeout`` seconds counts as a failed attempt; the worker
  connection is dropped (its eventual late reply would be unreadable
  anyway) and the unit is re-queued.
* **Liveness deadlines** — workers heartbeat while a unit executes; a
  worker that sends *no* frame for ``liveness_timeout`` seconds is
  written off immediately instead of waiting out the full unit timeout.
  Slow-but-alive workers (still beating) get the whole unit budget.
* **Per-worker circuit breaker** — a worker whose dispatches keep
  failing (``breaker_threshold`` consecutive times) is quarantined for
  ``breaker_cooldown`` seconds, then probed with a single unit before
  being readmitted.  Breakers are keyed on the stable ``worker`` id from
  the hello frame, so a flapping worker cannot reset its own quarantine
  by reconnecting.
* **Graceful degradation** — with ``degrade_to_local=True`` a server
  whose remote pool has emptied (every worker gone or quarantined) while
  units are queued executes them in-process rather than letting jobs
  hang; results are byte-identical either way, so degradation changes
  latency only.
* **Payload integrity** — result frames carry a sha256 checksum of their
  payload; a mismatch (corruption in flight) is a failed attempt, never
  an accepted result.
* **Bounded retry** — each unit gets ``max_attempts`` dispatches (worker
  disconnects, timeouts and execution errors all consume one).  An
  exhausted unit fails its whole job with a ``job-failed`` frame; other
  jobs are unaffected.
* **Idempotent completion** — a unit can be completed at most once per
  job (late duplicates after a timeout re-queue are discarded), and
  result-store writes are guarded by the store's per-unit ``O_EXCL``
  lockfile, so two workers racing on a re-queued unit can never tear the
  stored result.
* **Graceful drain** — :meth:`drain` (wired to ``SIGTERM``/``SIGINT`` by
  the CLI) stops admitting new work, waits for in-flight jobs, tells
  idle workers to disconnect, then closes.  Because every finished unit
  is persisted the moment it completes, a *hard* kill loses at most the
  in-flight units: a restarted server resumes the rest from the store.

Determinism: the server never re-derives a seed — unit plans are built
once from the submitted scenario config exactly as the local runner
builds them, workers execute ``execute_unit_plan`` on the shipped
envelope, and the client aggregates payloads in global trial order.
Worker placement, retries, cache state and event interleaving therefore
change *where and when* a unit executes, never any byte of the canonical
result.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from .. import __version__
from ..orchestration.registry import get_scenario
from ..orchestration.runner import (
    UnitPlan,
    build_unit_plans,
    build_work_units,
    execute_unit_plan,
    unit_plan_to_wire,
)
from ..orchestration.scenario import (
    RESULT_SCHEMA_VERSION,
    Scenario,
    ScenarioError,
)
from ..orchestration.store import ResultStore, unit_checksum, valid_unit_payload
from ..resilience.breaker import CircuitBreaker
from .protocol import (
    DEFAULT_LIVENESS_TIMEOUT,
    HANDSHAKE_TIMEOUT,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    handshake_mismatch,
    read_frame,
    write_frame,
)


class _UnitTask:
    """One unit's dispatch state inside one job."""

    __slots__ = ("job", "unit_key", "n_trials", "plan", "attempts", "state")

    def __init__(self, job: "_Job", plan: UnitPlan) -> None:
        self.job = job
        self.unit_key = plan.unit_key
        self.n_trials = plan.trial_hi - plan.trial_lo
        self.plan = plan
        self.attempts = 0
        self.state = "queued"  # queued | running | done | failed


class _Job:
    """One admitted submission and its streaming client connection."""

    def __init__(
        self,
        job_id: str,
        scenario: Scenario,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        use_cache: bool,
    ) -> None:
        self.job_id = job_id
        self.scenario = scenario
        self.writer = writer
        self.write_lock = write_lock
        self.use_cache = use_cache
        self.pending: Set[str] = set()
        self.cache_hits = 0
        self.executed = 0
        self.failed_reason: Optional[str] = None
        self.cancelled = False
        self.done = asyncio.Event()
        self.started = time.monotonic()

    @property
    def finished(self) -> bool:
        return self.done.is_set()


class JobServer:
    """Long-lived scenario-execution service over asyncio sockets.

    Parameters
    ----------
    host / port:
        Bind address.  ``port=0`` picks a free port; :meth:`start`
        returns the bound ``(host, port)``.
    cache / cache_dir / store:
        Result-store wiring, same semantics as
        :func:`~repro.orchestration.run_scenario`: with ``cache`` true
        (default) finished units are read from and written to the
        content-hash store, so repeat submissions are served without
        executing anything and a restarted server resumes where the
        previous one stopped.
    local_workers:
        In-process workers executing unit plans on the server's own
        machine (each occupies one executor thread while running a
        unit).  Remote workers can connect regardless; the two are
        interchangeable mid-job.
    unit_timeout:
        Seconds one dispatched unit may take on a remote worker before
        the attempt is written off and the unit re-queued.
    max_attempts:
        Dispatch budget per unit before its job fails.
    max_frame_bytes:
        Per-connection frame size ceiling (malformed peers are cut off).
    liveness_timeout:
        Seconds a mid-unit worker may stay *silent* (no heartbeat, no
        result) before being written off; ``None`` disables the liveness
        check and falls back to the plain unit timeout.
    breaker_threshold / breaker_cooldown:
        Per-worker circuit breaker: consecutive dispatch failures that
        trip quarantine, and how long quarantine lasts before the worker
        is probed with a single unit.
    degrade_to_local / degrade_after:
        With ``degrade_to_local`` true, a watchdog polling every
        ``degrade_after`` seconds executes queued units in-process
        whenever no worker (local, or remote with a non-open breaker) is
        available — jobs make progress with an empty pool instead of
        hanging.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache: bool = True,
        cache_dir: Union[str, Path, None] = None,
        store: Optional[ResultStore] = None,
        local_workers: int = 0,
        unit_timeout: float = 600.0,
        max_attempts: int = 3,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        liveness_timeout: Optional[float] = DEFAULT_LIVENESS_TIMEOUT,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        degrade_to_local: bool = False,
        degrade_after: float = 1.0,
    ) -> None:
        if local_workers < 0:
            raise ValueError("local_workers must be non-negative")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if unit_timeout <= 0:
            raise ValueError("unit_timeout must be positive")
        if liveness_timeout is not None and liveness_timeout <= 0:
            raise ValueError("liveness_timeout must be positive (or None)")
        if degrade_after <= 0:
            raise ValueError("degrade_after must be positive")
        self.host = host
        self.port = port
        self.local_workers = int(local_workers)
        self.unit_timeout = float(unit_timeout)
        self.max_attempts = int(max_attempts)
        self.max_frame_bytes = int(max_frame_bytes)
        self.liveness_timeout = (
            None if liveness_timeout is None else float(liveness_timeout)
        )
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.degrade_to_local = bool(degrade_to_local)
        self.degrade_after = float(degrade_after)
        self._store: Optional[ResultStore] = None
        if cache:
            self._store = store if store is not None else ResultStore(cache_dir)
        self._queue: "asyncio.Queue[Optional[_UnitTask]]" = asyncio.Queue()
        self._jobs: Dict[str, _Job] = {}
        self._job_counter = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._local_tasks: List["asyncio.Task"] = []
        self._worker_writers: Set[asyncio.StreamWriter] = set()
        # Breakers are keyed by stable worker identity (hello frame's
        # ``worker`` field, peername as fallback) so reconnecting under
        # the same name inherits quarantine state; the writer map exists
        # only so availability counting can see each live connection's
        # breaker.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._writer_breakers: Dict[asyncio.StreamWriter, CircuitBreaker] = {}
        self._watchdog_task: Optional["asyncio.Task"] = None
        self._draining = False
        self._closed = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple:
        """Bind, start accepting connections; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.max_frame_bytes + 1024,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for index in range(self.local_workers):
            self._local_tasks.append(
                asyncio.get_running_loop().create_task(self._run_local_worker())
            )
        if self.degrade_to_local:
            self._watchdog_task = asyncio.get_running_loop().create_task(
                self._degrade_watchdog()
            )
        return self.host, self.port

    async def stop(self) -> None:
        """Shut down now: close the listener, cancel every connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        extra = [self._watchdog_task] if self._watchdog_task is not None else []
        for task in list(self._conn_tasks) + self._local_tasks + extra:
            task.cancel()
        await asyncio.gather(
            *self._conn_tasks, *self._local_tasks, *extra, return_exceptions=True
        )
        self._conn_tasks.clear()
        self._local_tasks.clear()
        self._watchdog_task = None
        self._closed.set()

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: no new work, finish in-flight jobs, stop.

        New submissions and handshakes are rejected with a ``draining``
        reason the moment this is called; every already-admitted job runs
        to completion (its finished units persisting as they land), idle
        workers are told to disconnect, then the server closes.  With a
        ``timeout``, jobs still running when it expires are cut off (their
        finished units are already in the store, so nothing completed is
        lost).
        """
        self._draining = True
        active = [job for job in self._jobs.values() if not job.finished]
        if active:
            _, still_pending = await asyncio.wait(
                [asyncio.ensure_future(job.done.wait()) for job in active],
                timeout=timeout,
            )
            for waiter in still_pending:
                waiter.cancel()
        for writer in list(self._worker_writers):
            with contextlib.suppress(Exception):
                await write_frame(writer, {"type": "shutdown"}, self.max_frame_bytes)
        await self.stop()

    async def wait_closed(self) -> None:
        """Block until :meth:`stop`/:meth:`drain` completes."""
        await self._closed.wait()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            try:
                hello = await asyncio.wait_for(
                    read_frame(reader, self.max_frame_bytes), HANDSHAKE_TIMEOUT
                )
            except (ProtocolError, asyncio.TimeoutError) as error:
                await self._best_effort(writer, {"type": "error", "reason": str(error)})
                return
            if hello is None:
                return
            reason = handshake_mismatch(hello)
            if reason is None and self._draining:
                reason = "server is draining"
            if reason is not None:
                await self._best_effort(writer, {"type": "reject", "reason": reason})
                return
            await write_frame(
                writer,
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "schema": RESULT_SCHEMA_VERSION,
                    "package": __version__,
                    # The *bound* address: with port 0 this is where the
                    # ephemeral listener actually landed.
                    "host": self.host,
                    "port": self.port,
                },
                self.max_frame_bytes,
            )
            if hello["role"] == "worker":
                await self._serve_worker(reader, writer, hello)
            else:
                await self._serve_client(reader, writer)
        except ProtocolError as error:
            await self._best_effort(writer, {"type": "error", "reason": str(error)})
        except (OSError, ConnectionError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels connection tasks; ending the task
            # cancelled would make asyncio.streams' connection_made
            # callback log a spurious traceback, so finish normally (the
            # transport closes below either way).
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    @staticmethod
    async def _best_effort(writer: asyncio.StreamWriter, frame: Dict[str, Any]) -> None:
        with contextlib.suppress(Exception):
            await write_frame(writer, frame)

    # ------------------------------------------------------------------
    # Client side: admission, cache, event streaming
    # ------------------------------------------------------------------
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        next_frame: Optional["asyncio.Task"] = None
        try:
            while True:
                if next_frame is None:
                    next_frame = asyncio.ensure_future(
                        read_frame(reader, self.max_frame_bytes)
                    )
                frame = await next_frame
                next_frame = None
                if frame is None:
                    return
                if frame.get("type") != "submit":
                    raise ProtocolError(
                        f"unexpected frame {frame.get('type')!r}; expected submit"
                    )
                job = await self._admit(frame, writer, write_lock)
                if job is None:
                    continue
                self._jobs[job.job_id] = job
                try:
                    await self._launch(job)
                    # Wait for the job while watching the connection: a
                    # client that disconnects mid-job abandons it (units
                    # already executing still persist to the store).
                    next_frame = asyncio.ensure_future(
                        read_frame(reader, self.max_frame_bytes)
                    )
                    done_wait = asyncio.ensure_future(job.done.wait())
                    finished, _ = await asyncio.wait(
                        {next_frame, done_wait}, return_when=asyncio.FIRST_COMPLETED
                    )
                    if done_wait not in finished:
                        job.cancelled = True
                        job.done.set()
                        done_wait.cancel()
                        frame = await next_frame  # surfaces disconnects/errors
                        next_frame = None
                        if frame is not None:
                            raise ProtocolError(
                                f"unexpected frame {frame.get('type')!r} mid-job"
                            )
                        return
                    if job.failed_reason is not None:
                        await self._send(
                            job,
                            {
                                "type": "job-failed",
                                "job_id": job.job_id,
                                "reason": job.failed_reason,
                            },
                        )
                    else:
                        await self._send(
                            job,
                            {
                                "type": "job-done",
                                "job_id": job.job_id,
                                "total_units": job.cache_hits + job.executed,
                                "cache_hits": job.cache_hits,
                                "executed_units": job.executed,
                                "workers": len(self._worker_writers)
                                + len(self._local_tasks),
                                "wall_time_seconds": time.monotonic() - job.started,
                            },
                        )
                finally:
                    self._jobs.pop(job.job_id, None)
        finally:
            if next_frame is not None:
                next_frame.cancel()
                with contextlib.suppress(Exception):
                    await next_frame

    async def _admit(
        self,
        frame: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> Optional[_Job]:
        """Validate one submit frame; reply ``accepted`` or ``reject``."""
        try:
            if frame.get("config") is not None:
                scenario = Scenario.from_config(frame["config"])
            elif frame.get("name"):
                scenario = get_scenario(str(frame["name"]))
                overrides = frame.get("overrides") or {}
                if overrides:
                    scenario = scenario.with_overrides(**overrides)
            else:
                raise ScenarioError("submit needs a scenario 'config' or 'name'")
            scenario.validate()
        except (ScenarioError, KeyError, TypeError, ValueError) as error:
            await self._best_effort(writer, {"type": "reject", "reason": str(error)})
            return None
        if self._draining:
            await self._best_effort(
                writer, {"type": "reject", "reason": "server is draining"}
            )
            return None
        self._job_counter += 1
        job = _Job(
            job_id=f"job-{self._job_counter:06d}",
            scenario=scenario,
            writer=writer,
            write_lock=write_lock,
            use_cache=bool(frame.get("cache", True)) and self._store is not None,
        )
        units = build_work_units(scenario)
        job.pending = {unit.key for unit in units}
        await self._send(
            job,
            {
                "type": "accepted",
                "job_id": job.job_id,
                "total_units": len(units),
                "content_hash": scenario.content_hash(),
                "config": scenario.config_dict(),
            },
        )
        return job

    async def _launch(self, job: _Job) -> None:
        """Serve cache hits, queue the rest as dispatchable unit tasks."""
        units = build_work_units(job.scenario)
        misses = []
        for unit in units:
            stored = (
                self._store.load_unit(job.scenario, unit.key, unit.n_trials)
                if job.use_cache and self._store is not None
                else None
            )
            if stored is not None:
                job.cache_hits += 1
                job.pending.discard(unit.key)
                await self._send(
                    job,
                    {
                        "type": "event",
                        "job_id": job.job_id,
                        "unit": unit.key,
                        "state": "cached",
                        "attempts": 0,
                        "payload": stored,
                    },
                )
            else:
                misses.append(unit)
        if not job.pending:
            job.done.set()
            return
        for plan in build_unit_plans(job.scenario, misses):
            task = _UnitTask(job, plan)
            await self._send_event(task, "queued")
            self._queue.put_nowait(task)

    async def _send(self, job: _Job, frame: Dict[str, Any]) -> None:
        """Stream one frame to the job's client; a dead client cancels it."""
        if job.cancelled:
            return
        try:
            async with job.write_lock:
                await write_frame(job.writer, frame, self.max_frame_bytes)
        except (OSError, ConnectionError, ProtocolError):
            job.cancelled = True
            job.done.set()

    async def _send_event(self, task: _UnitTask, state: str, **extra: Any) -> None:
        frame = {
            "type": "event",
            "job_id": task.job.job_id,
            "unit": task.unit_key,
            "state": state,
            "attempts": task.attempts,
        }
        frame.update(extra)
        await self._send(task.job, frame)

    # ------------------------------------------------------------------
    # Dispatch: shared by local and remote workers
    # ------------------------------------------------------------------
    async def _next_task(self) -> Optional[_UnitTask]:
        """The next dispatchable unit (skips units of finished jobs)."""
        while True:
            task = await self._queue.get()
            if task is None:
                return None
            if task.state in ("done", "failed") or task.job.finished:
                continue
            return task

    async def _unit_finished(
        self, task: _UnitTask, payload: Any, wall_time: float
    ) -> bool:
        """Record one completed unit (idempotent; persists before emitting).

        Returns whether the payload was accepted — ``False`` only for an
        invalid payload (which is counted as a failed attempt here); the
        caller uses the verdict to feed its circuit breaker.
        """
        if task.state == "done":
            return True  # late duplicate after a timeout re-queue
        if not valid_unit_payload(payload, task.unit_key, task.n_trials):
            await self._attempt_failed(task, "worker returned an invalid payload")
            return False
        task.state = "done"
        job = task.job
        if job.use_cache and self._store is not None:
            # Lockfile-guarded and content-addressed: concurrent writers
            # of the same unit are harmless (identical bytes, one winner).
            self._store.save_unit(job.scenario, task.unit_key, payload)
        if job.finished:
            return True  # job failed/abandoned meanwhile; kept only for the store
        job.executed += 1
        await self._send_event(
            task, "done", payload=payload, wall_time_seconds=wall_time
        )
        job.pending.discard(task.unit_key)
        if not job.pending:
            job.done.set()
        return True

    async def _attempt_failed(self, task: _UnitTask, reason: str) -> None:
        """Re-queue a failed dispatch, or fail the job once retries run out."""
        if task.state in ("done", "failed") or task.job.finished:
            return
        if task.attempts >= self.max_attempts:
            task.state = "failed"
            await self._send_event(task, "failed", error=reason)
            job = task.job
            job.failed_reason = (
                f"unit {task.unit_key} failed after {task.attempts} attempts: {reason}"
            )
            job.done.set()
        else:
            task.state = "queued"
            await self._send_event(task, "queued", error=reason)
            self._queue.put_nowait(task)

    def _breaker_for(
        self, hello: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> CircuitBreaker:
        """The breaker keyed by this worker's stable identity."""
        label = hello.get("worker")
        if not isinstance(label, str) or not label:
            peer = writer.get_extra_info("peername")
            label = f"anon-{peer[0]}:{peer[1]}" if peer else "anon"
        return self._breakers.setdefault(
            label,
            CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                cooldown_seconds=self.breaker_cooldown,
            ),
        )

    async def _await_reply(
        self, reader: asyncio.StreamReader, task: _UnitTask
    ) -> Dict[str, Any]:
        """The dispatched unit's reply frame, under both deadlines.

        Heartbeat frames reset the liveness window; ``result`` /
        ``unit-error`` frames for *other* units (late replies from before
        a timeout re-queue) are discarded without counting against this
        dispatch.  Raises :class:`asyncio.TimeoutError` with the right
        story (liveness vs unit budget) attached as ``args[0]``.
        """
        loop = asyncio.get_running_loop()
        unit_deadline = loop.time() + self.unit_timeout
        while True:
            remaining = unit_deadline - loop.time()
            if remaining <= 0:
                raise asyncio.TimeoutError(
                    f"no reply within the {self.unit_timeout:g}s unit timeout"
                )
            window = (
                remaining
                if self.liveness_timeout is None
                else min(remaining, self.liveness_timeout)
            )
            try:
                reply = await asyncio.wait_for(
                    read_frame(reader, self.max_frame_bytes), timeout=window
                )
            except asyncio.TimeoutError:
                if window < remaining:
                    raise asyncio.TimeoutError(
                        "worker missed its liveness deadline "
                        f"({self.liveness_timeout:g}s with no heartbeat)"
                    ) from None
                raise asyncio.TimeoutError(
                    f"no reply within the {self.unit_timeout:g}s unit timeout"
                ) from None
            if reply is None:
                raise ConnectionResetError("worker disconnected mid-unit")
            reply_type = reply.get("type")
            if reply_type == "heartbeat":
                continue
            if (
                reply_type in ("result", "unit-error")
                and reply.get("unit") != task.unit_key
            ):
                continue  # late duplicate for a re-queued unit; void
            return reply

    async def _serve_worker(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: Dict[str, Any],
    ) -> None:
        """Feed one connected remote worker, one unit at a time."""
        breaker = self._breaker_for(hello, writer)
        self._worker_writers.add(writer)
        self._writer_breakers[writer] = breaker
        try:
            while True:
                while not breaker.allow():
                    await asyncio.sleep(min(0.05, max(breaker.retry_after(), 0.005)))
                task = await self._next_task()
                if task is None:
                    return
                task.attempts += 1
                task.state = "running"
                await self._send_event(task, "running")
                try:
                    await write_frame(
                        writer,
                        {
                            "type": "unit",
                            "unit": task.unit_key,
                            "plan": unit_plan_to_wire(task.plan),
                        },
                        self.max_frame_bytes,
                    )
                    reply = await self._await_reply(reader, task)
                except asyncio.TimeoutError as error:
                    breaker.record_failure()
                    await self._attempt_failed(task, str(error))
                    return  # drop the worker; its late reply is void
                except (ProtocolError, OSError, ConnectionError) as error:
                    breaker.record_failure()
                    await self._attempt_failed(
                        task, f"worker connection lost mid-unit: {error}"
                    )
                    return
                reply_type = reply.get("type")
                if reply_type == "result":
                    payload = reply.get("payload")
                    wire_checksum = reply.get("sha256")
                    if wire_checksum is not None and wire_checksum != unit_checksum(
                        payload
                    ):
                        breaker.record_failure()
                        await self._attempt_failed(
                            task, "result payload failed its sha256 checksum"
                        )
                        return  # the stream is suspect; drop the worker
                    accepted = await self._unit_finished(
                        task,
                        payload,
                        float(reply.get("wall_time_seconds") or 0.0),
                    )
                    if accepted:
                        breaker.record_success()
                    else:
                        breaker.record_failure()
                elif reply_type == "unit-error":
                    breaker.record_failure()
                    await self._attempt_failed(
                        task, str(reply.get("error", "unit execution failed"))
                    )
                else:
                    breaker.record_failure()
                    await self._attempt_failed(
                        task, f"unexpected worker reply {reply_type!r}"
                    )
                    return
        finally:
            self._worker_writers.discard(writer)
            self._writer_breakers.pop(writer, None)

    async def _execute_task_locally(self, task: _UnitTask) -> None:
        """Run one already-claimed unit on an executor thread."""
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        try:
            payload = await loop.run_in_executor(None, execute_unit_plan, task.plan)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 — any unit failure retries
            await self._attempt_failed(
                task, f"local worker: {type(error).__name__}: {error}"
            )
            return
        await self._unit_finished(task, payload, time.perf_counter() - start)

    async def _run_local_worker(self) -> None:
        """In-process worker: same dispatch loop, executor-thread execution."""
        while True:
            task = await self._next_task()
            if task is None:
                return
            task.attempts += 1
            task.state = "running"
            await self._send_event(task, "running")
            await self._execute_task_locally(task)

    def _available_workers(self) -> int:
        """Workers that could plausibly take a unit right now."""
        remote = sum(
            1
            for writer in self._worker_writers
            if self._writer_breakers.get(writer) is None
            or self._writer_breakers[writer].state != "open"
        )
        return len(self._local_tasks) + remote

    async def _degrade_watchdog(self) -> None:
        """Execute queued units in-process when the worker pool is empty.

        The safety net under ``degrade_to_local``: without it, a server
        whose remote workers all died or tripped their breakers would
        hold queued units forever.  Correctness is unaffected — a unit
        computes the same bytes wherever it runs — so degradation only
        trades the wait for local CPU time.
        """
        while True:
            await asyncio.sleep(self.degrade_after)
            if self._queue.qsize() == 0 or self._available_workers() > 0:
                continue
            while self._available_workers() == 0:
                try:
                    task = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if task is None or task.state in ("done", "failed") or task.job.finished:
                    continue
                task.attempts += 1
                task.state = "running"
                await self._send_event(task, "running")
                await self._execute_task_locally(task)

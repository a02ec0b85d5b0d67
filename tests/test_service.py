"""Tests for the simulation service (repro.service).

Covers the subsystem's acceptance criteria:

* a scenario submitted to a job server with remote workers produces a
  result byte-identical to an in-process ``run_scenario`` — including
  when a worker dies mid-unit and the unit is re-queued,
* repeat submissions are served entirely from the content-hash store
  (and survive a server restart),
* failure paths: execution errors retry with a bounded budget, a
  poisoned unit fails only its job, unit timeouts drop the stalled
  worker, malformed / oversized frames and version-skewed handshakes
  are rejected, a client deadline surfaces as a clean error,
* the wire protocol round-trips unit plans exactly.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.orchestration.runner as runner_module
from repro import __version__
from repro.orchestration import (
    ProtocolConfig,
    Scenario,
    build_unit_plans,
    build_work_units,
    get_scenario,
    run_scenario,
    unit_plan_from_wire,
    unit_plan_to_wire,
)
from repro.orchestration.scenario import RESULT_SCHEMA_VERSION
from repro.service import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    JobServer,
    ProtocolError,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import (
    encode_frame,
    handshake_mismatch,
    hello_frame,
    open_service_connection,
    parse_endpoint,
    read_frame,
    write_frame,
)
from repro.service.worker import run_worker_async


def star_scenario(**overrides):
    fields = dict(
        name="service-test",
        workload="star",
        sizes=(6, 8),
        protocols=(ProtocolConfig("star"),),
        repetitions=2,
        seed=5,
    )
    fields.update(overrides)
    return Scenario(**fields)


def run_service(coro_factory, *, n_workers=2, **server_kwargs):
    """Run one test coroutine against a live server + worker pool."""

    async def main():
        server = JobServer(**server_kwargs)
        host, port = await server.start()
        workers = [
            asyncio.ensure_future(run_worker_async(host, port))
            for _ in range(n_workers)
        ]
        try:
            return await coro_factory(server, host, port)
        finally:
            await server.stop()
            for worker in workers:
                worker.cancel()
            await asyncio.gather(*workers, return_exceptions=True)

    return asyncio.run(main())


class TestByteIdentity:
    def test_remote_workers_byte_identical_to_local(self, tmp_path):
        scenario = star_scenario()
        local = run_scenario(scenario, jobs=1, cache=False)

        async def submit(server, host, port):
            return await ServiceClient(host, port).submit_async(scenario)

        remote = run_service(submit, cache_dir=tmp_path / "server")
        assert remote.canonical_json() == local.canonical_json()
        assert remote.executed_units == remote.total_units
        assert remote.cache_hits == 0

    def test_resubmission_served_entirely_from_cache(self, tmp_path):
        scenario = star_scenario()

        async def submit_twice(server, host, port):
            client = ServiceClient(host, port)
            first = await client.submit_async(scenario)
            second = await client.submit_async(scenario)
            return first, second

        first, second = run_service(submit_twice, cache_dir=tmp_path / "server")
        assert second.cache_hits == second.total_units
        assert second.executed_units == 0
        assert second.canonical_json() == first.canonical_json()

    def test_server_restart_resumes_from_store(self, tmp_path):
        scenario = star_scenario()

        async def submit(server, host, port):
            return await ServiceClient(host, port).submit_async(scenario)

        first = run_service(submit, cache_dir=tmp_path / "server")
        # A fresh server over the same store needs no workers at all.
        resumed = run_service(submit, n_workers=0, cache_dir=tmp_path / "server")
        assert resumed.cache_hits == resumed.total_units
        assert resumed.canonical_json() == first.canonical_json()

    def test_local_workers_equivalent_to_remote(self, tmp_path):
        scenario = star_scenario()
        local = run_scenario(scenario, jobs=1, cache=False)

        async def submit(server, host, port):
            return await ServiceClient(host, port).submit_async(scenario)

        served = run_service(
            submit, n_workers=0, local_workers=2, cache_dir=tmp_path / "server"
        )
        assert served.canonical_json() == local.canonical_json()


class TestSubmissionByName:
    def test_name_with_overrides(self, tmp_path):
        expected = run_scenario(
            get_scenario("clique-n100").with_overrides(sizes=(8,), repetitions=1),
            jobs=1,
            cache=False,
        )

        async def submit(server, host, port):
            return await ServiceClient(host, port).submit_async(
                name="clique-n100", overrides={"sizes": [8], "repetitions": 1}
            )

        remote = run_service(submit, cache_dir=tmp_path / "server")
        assert remote.canonical_json() == expected.canonical_json()

    def test_unknown_name_rejected(self, tmp_path):
        async def submit(server, host, port):
            with pytest.raises(ServiceError, match="rejected"):
                await ServiceClient(host, port).submit_async(name="no-such-scenario")

        run_service(submit, n_workers=0, cache_dir=tmp_path / "server")

    def test_invalid_override_rejected(self, tmp_path):
        async def submit(server, host, port):
            with pytest.raises(ServiceError, match="rejected"):
                await ServiceClient(host, port).submit_async(
                    name="clique-n100", overrides={"repetitions": -1}
                )

        run_service(submit, n_workers=0, cache_dir=tmp_path / "server")

    def test_unknown_override_rejected_by_name(self, tmp_path):
        async def submit(server, host, port):
            with pytest.raises(ServiceError, match="rejected: .*no field 'threads'"):
                await ServiceClient(host, port).submit_async(
                    name="clique-n100", overrides={"threads": 2}
                )

        run_service(submit, n_workers=0, cache_dir=tmp_path / "server")

    def test_unknown_config_key_rejected_by_name(self, tmp_path):
        config = {**star_scenario().config_dict(), "threads": 2}

        async def submit(server, host, port):
            reader, writer = await open_service_connection(host, port, MAX_FRAME_BYTES)
            try:
                await write_frame(writer, hello_frame("client"))
                welcome = await read_frame(reader, MAX_FRAME_BYTES)
                assert welcome is not None and welcome["type"] == "welcome"
                await write_frame(writer, {"type": "submit", "config": config})
                return await read_frame(reader, MAX_FRAME_BYTES)
            finally:
                writer.close()

        reply = run_service(submit, n_workers=0, cache_dir=tmp_path / "server")
        assert reply["type"] == "reject"
        assert "no field 'threads'" in reply["reason"]

    def test_non_auto_backend_rejected_by_name(self, tmp_path):
        config = {**star_scenario().config_dict(), "backend": "native"}

        async def submit(server, host, port):
            with pytest.raises(ServiceError, match="rejected: .*backend must be 'auto'"):
                await ServiceClient(host, port).submit_async(
                    name="clique-n100", overrides={"backend": "scalar"}
                )
            reader, writer = await open_service_connection(host, port, MAX_FRAME_BYTES)
            try:
                await write_frame(writer, hello_frame("client"))
                welcome = await read_frame(reader, MAX_FRAME_BYTES)
                assert welcome is not None and welcome["type"] == "welcome"
                await write_frame(writer, {"type": "submit", "config": config})
                return await read_frame(reader, MAX_FRAME_BYTES)
            finally:
                writer.close()

        reply = run_service(submit, n_workers=0, cache_dir=tmp_path / "server")
        assert reply["type"] == "reject"
        assert "backend must be 'auto', got 'native'" in reply["reason"]

    def test_unknown_engine_rejected_by_name(self, tmp_path):
        """An unknown engine is refused at submit, not queued for a
        worker that can never run it."""
        config = {**star_scenario().config_dict(), "engine": "warp"}

        async def submit(server, host, port):
            with pytest.raises(ServiceError, match="rejected: .*engine must be one of"):
                # Bounded: an accepted job with an unknown engine never ends.
                await asyncio.wait_for(
                    ServiceClient(host, port).submit_async(
                        name="clique-n100", overrides={"engine": "warp"}
                    ),
                    timeout=30,
                )
            reader, writer = await open_service_connection(host, port, MAX_FRAME_BYTES)
            try:
                await write_frame(writer, hello_frame("client"))
                welcome = await read_frame(reader, MAX_FRAME_BYTES)
                assert welcome is not None and welcome["type"] == "welcome"
                await write_frame(writer, {"type": "submit", "config": config})
                return await read_frame(reader, MAX_FRAME_BYTES)
            finally:
                writer.close()

        reply = run_service(submit, n_workers=0, cache_dir=tmp_path / "server")
        assert reply["type"] == "reject"
        assert "engine must be one of 'reference', 'auto', got 'warp'" in reply["reason"]


async def _worker_handshake(host, port):
    reader, writer = await open_service_connection(host, port, MAX_FRAME_BYTES)
    await write_frame(writer, hello_frame("worker"))
    welcome = await read_frame(reader, MAX_FRAME_BYTES)
    assert welcome is not None and welcome["type"] == "welcome"
    return reader, writer


class TestFailurePaths:
    def test_worker_killed_mid_unit_requeues_byte_identically(self, tmp_path):
        """A worker that dies holding a unit costs one attempt, not the job."""
        scenario = star_scenario()
        local = run_scenario(scenario, jobs=1, cache=False)
        events = []

        async def flaky_then_healthy(server, host, port):
            client = ServiceClient(host, port)
            submit = asyncio.ensure_future(
                client.submit_async(scenario, on_event=events.append)
            )
            await asyncio.sleep(0.05)  # let the units queue
            reader, writer = await _worker_handshake(host, port)
            unit = await read_frame(reader, MAX_FRAME_BYTES)
            assert unit["type"] == "unit"
            writer.close()  # die mid-unit, result never sent
            healthy = asyncio.ensure_future(run_worker_async(host, port))
            try:
                return await submit
            finally:
                healthy.cancel()
                await asyncio.gather(healthy, return_exceptions=True)

        remote = run_service(
            flaky_then_healthy, n_workers=0, cache_dir=tmp_path / "server"
        )
        assert remote.canonical_json() == local.canonical_json()
        requeues = [e for e in events if e["state"] == "queued" and e.get("error")]
        assert requeues, "the dropped unit must surface a re-queue event"
        assert any(e["attempts"] >= 2 for e in events if e["state"] == "running")

    def test_execution_error_retries_then_succeeds(self, tmp_path, monkeypatch):
        scenario = star_scenario()
        local = run_scenario(scenario, jobs=1, cache=False)
        real_execute = runner_module.execute_unit_plan
        calls = {"count": 0}

        def fails_once(plan):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("synthetic unit failure")
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute_unit_plan", fails_once)

        async def submit(server, host, port):
            return await ServiceClient(host, port).submit_async(scenario)

        remote = run_service(submit, n_workers=1, cache_dir=tmp_path / "server")
        assert remote.canonical_json() == local.canonical_json()
        assert calls["count"] == len(build_work_units(scenario)) + 1

    def test_poisoned_unit_fails_job_after_bounded_retries(self, tmp_path, monkeypatch):
        def always_fails(plan):
            raise RuntimeError("poisoned unit")

        monkeypatch.setattr(runner_module, "execute_unit_plan", always_fails)

        async def submit(server, host, port):
            with pytest.raises(ServiceError, match="job failed.*poisoned"):
                await ServiceClient(host, port).submit_async(star_scenario())

        run_service(submit, n_workers=1, max_attempts=2, cache_dir=tmp_path / "server")

    def test_unit_timeout_drops_stalled_worker_and_requeues(self, tmp_path):
        scenario = star_scenario()
        local = run_scenario(scenario, jobs=1, cache=False)

        async def stalled_then_healthy(server, host, port):
            client = ServiceClient(host, port)
            submit = asyncio.ensure_future(client.submit_async(scenario))
            await asyncio.sleep(0.05)
            reader, writer = await _worker_handshake(host, port)
            unit = await read_frame(reader, MAX_FRAME_BYTES)
            assert unit["type"] == "unit"  # ...and never reply
            healthy = asyncio.ensure_future(run_worker_async(host, port))
            try:
                return await submit
            finally:
                writer.close()
                healthy.cancel()
                await asyncio.gather(healthy, return_exceptions=True)

        remote = run_service(
            stalled_then_healthy,
            n_workers=0,
            unit_timeout=0.25,
            cache_dir=tmp_path / "server",
        )
        assert remote.canonical_json() == local.canonical_json()

    def test_client_timeout_surfaces_clean_error(self, tmp_path):
        async def submit(server, host, port):
            client = ServiceClient(host, port, timeout=0.3)
            with pytest.raises(ServiceError, match="timed out"):
                # No workers connected: the job can never finish.
                await client.submit_async(star_scenario())

        run_service(submit, n_workers=0, cache_dir=tmp_path / "server")

    def test_malformed_frame_rejected(self, tmp_path):
        async def garbage(server, host, port):
            reader, writer = await open_service_connection(host, port, MAX_FRAME_BYTES)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = await read_frame(reader, MAX_FRAME_BYTES)
            assert reply["type"] == "error"
            writer.close()

        run_service(garbage, n_workers=0, cache_dir=tmp_path / "server")

    def test_oversized_frame_rejected(self, tmp_path):
        async def oversized(server, host, port):
            reader, writer = await open_service_connection(host, port, 4096)
            await write_frame(writer, hello_frame("client"))
            welcome = await read_frame(reader, 4096)
            assert welcome["type"] == "welcome"
            writer.write(b"x" * 8192 + b"\n")
            await writer.drain()
            reply = await read_frame(reader, 4096)
            assert reply["type"] == "error"
            writer.close()

        run_service(
            oversized, n_workers=0, max_frame_bytes=2048, cache_dir=tmp_path / "server"
        )

    def test_version_skewed_worker_rejected(self, tmp_path):
        async def skewed(server, host, port):
            reader, writer = await open_service_connection(host, port, MAX_FRAME_BYTES)
            hello = hello_frame("worker")
            hello["protocol"] = PROTOCOL_VERSION + 1
            await write_frame(writer, hello)
            reply = await read_frame(reader, MAX_FRAME_BYTES)
            assert reply["type"] == "reject"
            assert "protocol" in reply["reason"]
            writer.close()

        run_service(skewed, n_workers=0, cache_dir=tmp_path / "server")

    def test_draining_server_rejects_new_submissions(self, tmp_path):
        async def drain_then_submit(server, host, port):
            drain = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0.05)
            with pytest.raises(ServiceError, match="draining|cannot reach"):
                await ServiceClient(host, port).submit_async(star_scenario())
            await drain

        run_service(drain_then_submit, n_workers=0, cache_dir=tmp_path / "server")


class TestResiliencePaths:
    def test_welcome_reports_bound_port(self, tmp_path):
        """With port=0 the kernel picks the port; the welcome frame must
        tell the worker (and port-file readers) where the server landed."""

        async def handshake(server, host, port):
            reader, writer = await open_service_connection(host, port, MAX_FRAME_BYTES)
            await write_frame(writer, hello_frame("worker"))
            welcome = await read_frame(reader, MAX_FRAME_BYTES)
            writer.close()
            return welcome, host, port

        welcome, host, port = run_service(
            handshake, n_workers=0, cache_dir=tmp_path / "server"
        )
        assert welcome["type"] == "welcome"
        assert welcome["host"] == host
        assert welcome["port"] == port > 0

    def test_liveness_deadline_drops_silent_worker(self, tmp_path):
        """A worker that goes silent mid-unit is written off at the liveness
        deadline, not after the (much longer) unit timeout."""
        scenario = star_scenario()
        local = run_scenario(scenario, jobs=1, cache=False)
        events = []

        async def silent_then_healthy(server, host, port):
            client = ServiceClient(host, port)
            submit = asyncio.ensure_future(
                client.submit_async(scenario, on_event=events.append)
            )
            await asyncio.sleep(0.05)
            reader, writer = await _worker_handshake(host, port)
            unit = await read_frame(reader, MAX_FRAME_BYTES)
            assert unit["type"] == "unit"  # ...then no heartbeat, no result
            healthy = asyncio.ensure_future(run_worker_async(host, port))
            try:
                return await submit
            finally:
                writer.close()
                healthy.cancel()
                await asyncio.gather(healthy, return_exceptions=True)

        remote = run_service(
            silent_then_healthy,
            n_workers=0,
            unit_timeout=30.0,  # the liveness deadline must beat this
            liveness_timeout=0.3,
            cache_dir=tmp_path / "server",
        )
        assert remote.canonical_json() == local.canonical_json()
        requeues = [e for e in events if e["state"] == "queued" and e.get("error")]
        assert requeues and "liveness" in requeues[0]["error"]

    def test_heartbeats_keep_slow_worker_alive(self, tmp_path, monkeypatch):
        """Slow is not dead: a unit that outlives the liveness window but
        keeps heartbeating gets the full unit budget, with no retry."""
        import time

        scenario = star_scenario()
        local = run_scenario(scenario, jobs=1, cache=False)
        real_execute = runner_module.execute_unit_plan
        calls = {"count": 0}

        def slow_once(plan):
            calls["count"] += 1
            if calls["count"] == 1:
                time.sleep(0.5)  # >> liveness_timeout below
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute_unit_plan", slow_once)
        events = []

        async def slow_worker(server, host, port):
            worker = asyncio.ensure_future(
                run_worker_async(host, port, heartbeat_interval=0.05)
            )
            try:
                return await ServiceClient(host, port).submit_async(
                    scenario, on_event=events.append
                )
            finally:
                worker.cancel()
                await asyncio.gather(worker, return_exceptions=True)

        remote = run_service(
            slow_worker,
            n_workers=0,
            unit_timeout=30.0,
            liveness_timeout=0.2,
            cache_dir=tmp_path / "server",
        )
        assert remote.canonical_json() == local.canonical_json()
        requeues = [e for e in events if e["state"] == "queued" and e.get("error")]
        assert requeues == [], "a beating worker must never be written off"
        assert calls["count"] == len(build_work_units(scenario))

    def test_circuit_breaker_quarantines_then_readmits(self, tmp_path, monkeypatch):
        """A worker failing every dispatch is quarantined at the breaker
        threshold, probed after the cooldown, and readmitted once healthy —
        and none of that moves a byte."""
        scenario = star_scenario()
        local = run_scenario(scenario, jobs=1, cache=False)
        real_execute = runner_module.execute_unit_plan
        calls = {"count": 0}

        def fails_thrice(plan):
            calls["count"] += 1
            if calls["count"] <= 3:
                raise RuntimeError("synthetic breaker-tripping failure")
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute_unit_plan", fails_thrice)

        async def submit(server, host, port):
            result = await ServiceClient(host, port).submit_async(scenario)
            return result, dict(server._breakers)

        remote, breakers = run_service(
            submit,
            n_workers=1,
            max_attempts=10,
            breaker_threshold=2,  # trips after failures 1+2; probe fails; re-probe succeeds
            breaker_cooldown=0.1,
            cache_dir=tmp_path / "server",
        )
        assert remote.canonical_json() == local.canonical_json()
        assert calls["count"] == len(build_work_units(scenario)) + 3
        # The lone worker's breaker saw the whole arc and ended closed.
        assert len(breakers) == 1
        assert next(iter(breakers.values())).state == "closed"

    def test_empty_pool_degrades_to_in_process_execution(self, tmp_path):
        """With no worker at all, ``degrade_to_local`` runs every unit in
        the server's own process, byte-identical to a local run."""
        scenario = star_scenario()
        local = run_scenario(scenario, jobs=1, cache=False)

        async def submit(server, host, port):
            # Bounded: without the watchdog the job would wait forever.
            return await asyncio.wait_for(
                ServiceClient(host, port).submit_async(scenario), timeout=30
            )

        served = run_service(
            submit,
            n_workers=0,
            degrade_to_local=True,
            degrade_after=0.05,
            cache_dir=tmp_path / "server",
        )
        assert served.canonical_json() == local.canonical_json()
        assert served.executed_units == served.total_units


class TestWireFormat:
    def test_unit_plan_round_trip(self):
        scenario = star_scenario()
        plans = build_unit_plans(scenario, build_work_units(scenario))
        for plan in plans:
            wire = json.loads(json.dumps(unit_plan_to_wire(plan)))
            assert unit_plan_from_wire(wire) == plan

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:7070") == ("127.0.0.1", 7070)
        assert parse_endpoint("[::1]:80") == ("::1", 80)
        for bad in ("no-port", "host:", "host:abc", ":99"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)

    def test_encode_frame_enforces_size_ceiling(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"type": "blob", "data": "x" * 4096}, max_bytes=1024)

    def test_handshake_mismatch(self):
        good = hello_frame("worker")
        assert handshake_mismatch(good) is None
        assert "protocol" in handshake_mismatch({**good, "protocol": 999})
        assert "schema" in handshake_mismatch(
            {**good, "schema": RESULT_SCHEMA_VERSION + 1}
        )
        assert "package" in handshake_mismatch({**good, "package": "0.0.0"})
        assert handshake_mismatch({**good, "role": "observer"}) is not None
        assert __version__ == good["package"]

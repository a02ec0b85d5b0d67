#!/usr/bin/env python
"""CI gate: every execution placement is byte-identical to the serial path.

Runs a tiny four-protocol scenario three times through the stack —

* serially (``jobs=1``), which prepares each (protocol, size) cell once
  for all of its units,
* split over two fork-worker processes (``jobs=2``),
* through the simulation service: an in-process job server with two
  *remote* workers connected over real sockets on localhost

(both parallel placements prepare every unit alone), with the result
store disabled for the local placements and a throwaway store for the
server (CI must never read from or populate
``.repro_cache/``; cached results would mask a divergence, which is
exactly what this job exists to catch).  All three canonical JSON
aggregates must match byte for byte.  The shard-worker pool is entered
only through ``repro.sharding.execute_sharded``, which no scenario
calls; its byte-identity is gated by
``tests/test_sharding.py::TestShardWorkerPool``.

Exit code 0 on equality, 1 with a diff summary otherwise.

Usage::

    PYTHONPATH=src python scripts/ci_parallel_equivalence.py
"""

from __future__ import annotations

import asyncio
import sys
import tempfile


def run_through_service(scenario):
    """One submission against a live server + two socket workers."""
    from repro.service import JobServer, ServiceClient
    from repro.service.worker import run_worker_async

    async def main():
        with tempfile.TemporaryDirectory(prefix="ci-service-") as cache_dir:
            server = JobServer(cache_dir=cache_dir)
            host, port = await server.start()
            workers = [
                asyncio.ensure_future(run_worker_async(host, port)) for _ in range(2)
            ]
            try:
                return await ServiceClient(host, port).submit_async(scenario)
            finally:
                await server.drain(timeout=30)
                await asyncio.gather(*workers, return_exceptions=True)

    return asyncio.run(main())


def main() -> int:
    from repro.orchestration import ProtocolConfig, Scenario, run_scenario

    scenario = Scenario(
        name="ci-parallel-equivalence",
        workload="clique",
        sizes=(10, 14),
        protocols=(
            ProtocolConfig("token"),
            ProtocolConfig("star"),
            ProtocolConfig("identifier"),
            ProtocolConfig("fast"),
        ),
        repetitions=4,
        seed=2022,
    )
    serial = run_scenario(scenario, jobs=1, cache=False)
    placements = {
        "2 fork workers": run_scenario(scenario, jobs=2, cache=False),
        "server + 2 remote workers": run_through_service(scenario),
    }

    serial_bytes = serial.canonical_json().encode("utf-8")
    for label, result in placements.items():
        result_bytes = result.canonical_json().encode("utf-8")
        if result_bytes != serial_bytes:
            print(f"FAIL: {label} aggregate differs from the serial path")
            print(f"  serial ({len(serial_bytes)} bytes): {serial_bytes[:400]!r}")
            print(f"  {label} ({len(result_bytes)} bytes): {result_bytes[:400]!r}")
            return 1
    print(
        "OK: fork-worker and server placements are byte-identical "
        f"to the serial path ({len(serial_bytes)} canonical bytes, "
        f"{serial.total_units} work units, serial {serial.wall_time_seconds:.2f}s, "
        f"fork {placements['2 fork workers'].wall_time_seconds:.2f}s, "
        f"service {placements['server + 2 remote workers'].wall_time_seconds:.2f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

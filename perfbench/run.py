"""End-to-end, layer-by-layer benchmark of the population-protocol stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-sweep --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run with the same workload and seed.
Workloads, metrics and the layer each metric belongs to are listed in
``perfbench/design.json``.  The run fails (exit code 1, ``"correct":
false``) when a correctness gate does not hold:

* at the default seed, the sha256 of the workload's canonical results
  equals the value recorded in ``perfbench/expected.json``;
* every repetition yields the same canonical results;
* every trial of the table1-sweep and torus-token workloads stabilizes
  with exactly one leader;
* in a traced run, the steps ``execute_plan`` reports equal the step
  count behind ``steps_per_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Every run of the benchmark ends well within three minutes.
DEADLINE_S = 170.0
#: Fresh processes timed for ``setup_s`` in one untraced run.
SETUP_SAMPLES = 5
#: Cold child processes (each one measured run) in one untraced run.
COLD_RUNS = 3


class BenchmarkError(RuntimeError):
    pass


def load_json(name: str) -> Dict[str, Any]:
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return json.load(handle)


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Children:
    """Starts ``child.py`` roles, each in its own process group."""

    def __init__(self, args: argparse.Namespace, workdir: str, deadline: float) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        # Partitioned graphs spool their tables to the temporary directory;
        # keep every file the program writes inside the checkout.
        self.env["TMPDIR"] = os.path.join(workdir, "tmp")
        os.makedirs(self.env["TMPDIR"], exist_ok=True)

    def run(self, role: str, trace: int = 0, trace_out: str = "") -> Dict[str, Any]:
        self.count += 1
        name = f"{self.count:02d}-{role}"
        out = os.path.join(self.workdir, f"{name}.json")
        log_path = os.path.join(self.workdir, f"{name}.log")
        argv = [
            sys.executable, os.path.join(HERE, "child.py"), role,
            "--out", out,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--trace", str(trace),
            "--trace-out", trace_out,
            "--scale", self.args.scale,
        ]
        with open(log_path, "w", encoding="utf-8") as log:
            process = subprocess.Popen(
                argv + ["--spawned-at", repr(clock())],
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = process.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                raise BenchmarkError(f"{role} child exceeded the time limit")
            finally:
                # Reap anything the child left behind in its process group.
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
        if code != 0:
            with open(log_path, encoding="utf-8") as log:
                tail = log.read()[-3000:]
            raise BenchmarkError(f"{role} child exited with code {code}:\n{tail}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


def measure(args: argparse.Namespace, children: Children, trace_dir: str) -> Dict[str, Any]:
    """Run the child processes of one benchmark run; merge their records."""
    trace_out = os.path.join(trace_dir, f"{args.workload}.spans.json")
    if workloads.KIND[args.workload] == "cold":
        if args.trace:
            plain = children.run("cold")
            record = children.run("cold", trace=1, trace_out=trace_out)
            record["layers"]["trace.overhead_frac"] = record["walls"][0] / plain["walls"][0] - 1.0
            records = [plain, record]
        else:
            records = []
            begin = time.monotonic()
            while len(records) < COLD_RUNS or time.monotonic() - begin < args.seconds:
                records.append(children.run("cold"))
            record = dict(records[-1])
            record["walls"] = [wall for r in records for wall in r["walls"]]
        record["setups"] = [r["setup_s"] for r in records]
        record["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in records)
        record["deterministic"] = len({r["digest"] for r in records}) == 1
        return record
    setups = []
    if not args.trace:
        setups = [children.run("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    record = children.run("measure", trace=args.trace, trace_out=trace_out)
    record["setups"] = setups + [record["setup_s"]]
    return record


def gates(args: argparse.Namespace, record: Dict[str, Any]) -> Dict[str, bool]:
    """Every correctness check of one run, by name."""
    checks = {"deterministic": bool(record["deterministic"])}
    if args.workload in workloads.MUST_STABILIZE:
        checks["stabilized"] = bool(record["stabilized"])
    if args.seed == workloads.DEFAULT_SEED and args.scale == "full":
        expected = load_json("expected.json").get(args.workload)
        checks["digest"] = record["digest"] == expected
    if args.trace:
        checks["steps_cross_check"] = (
            abs(record["layers"]["runtime.steps_executed"] - record["steps"]) < 0.5
        )
    return checks


def end_to_end(record: Dict[str, Any]) -> Dict[str, float]:
    # In-process workloads: the sum of each scenario's median wall
    # (see child.timed_rounds).
    wall = record["wall"] if "wall" in record else statistics.median(record["walls"])
    return {
        "wall_s": wall,
        "steps_per_s": record["steps"] / wall,
        "units_per_s": record["units"] / wall,
        "setup_s": statistics.median(record["setups"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: the same code paths at smoke-test sizes (no digest gate)",
    )
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse(argv)
    started = time.monotonic()
    # A termination request unwinds through Children.run, which kills the
    # running child's process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    design = load_json("design.json")
    work_root = os.path.join(HERE, "_work")
    workdir = os.path.join(work_root, f"run-{os.getpid()}")
    trace_dir = os.path.join(work_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    children = Children(args, workdir, started + DEADLINE_S)
    try:
        env = children.run("prepare")
        record = measure(args, children, trace_dir)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    repro_env = " ".join(f"{k}={v}" for k, v in sorted(env["repro_env"].items())) or "none"
    print(
        f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"repro={env['repro']} kernel_v6={'loaded' if env['kernel_v6'] else 'MISSING'} "
        f"REPRO_* set: {repro_env}"
    )
    if not env["kernel_v6"]:
        print("FALLBACK RUN: the native v6 kernel did not load; timings measure the NumPy path")
    print(
        f"workload {args.workload} (seed {args.seed}, scale {args.scale}): "
        f"{record['units']} units, {record['steps']} steps per run, "
        f"{len(record['walls'])} measured runs, digest {record['digest']}"
    )

    if args.trace:
        values = {name: 0.0 for name in design["per_layer"]}
        values.update(record["layers"])
        specs = design["per_layer"]
        attempted = record["units"] * record["reps"]
    else:
        values = end_to_end(record)
        specs = design["end_to_end"]
        attempted = record["units"] * len(record["walls"])
    # A unit that fails raises out of run_scenario and fails the child, so
    # a run that prints a result has no failed units.
    failed = 0
    metrics = {name: {"value": values[name], "unit": specs[name]["unit"]} for name in specs}
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_units_frac                    {failed / attempted:.6g} ratio")
    checks = gates(args, record)
    correct = all(checks.values())
    print("correctness: " + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    print(f"elapsed: {time.monotonic() - started:.1f} s")
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

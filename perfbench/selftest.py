"""The benchmark's own tests.

Run from the repository root with::

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps these tests out of the package's tier-1 suite; the
smoke runs start real child processes and take about half a minute.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


DESIGN = load(os.path.join(HERE, "design.json"))
BENCHMARK = load(os.path.join(ROOT, "BENCHMARK.json"))


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def current_attributes():
    return [
        tracing.resolve(module, cls).__dict__[attribute]
        if cls is not None
        else getattr(tracing.resolve(module, cls), attribute)
        for module, cls, attribute, *_ in tracing.TARGETS
    ]


def test_uninstall_restores_every_original_attribute():
    originals = current_attributes()
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        wrapped = current_attributes()
        assert all(new is not old for new, old in zip(wrapped, originals))
        results = workloads.run(workloads.scenarios("torus-token", 3, "tiny"), cache=False)
    finally:
        handle.uninstall()
    assert all(new is old for new, old in zip(current_attributes(), originals))
    spans = tracer.records()
    names = {span.name for span in spans}
    assert {"orchestration.run_scenario", "orchestration.unit", "runtime.execute"} <= names
    units = [span.unit for span in spans if span.name == "runtime.execute"]
    assert None not in units and len(units) == workloads.unit_count(results)
    metrics = tracing.layer_metrics(spans, 1)
    assert metrics["runtime.steps_executed"] == workloads.step_count(results)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def synthetic_tree():
    """root [0, 10] > a [1, 4] > a' [2, 3];  root > b [3.5, 6];  c [12, 13]."""
    return [
        tracing.Span(1, "root", 0.0, 10.0, None),
        tracing.Span(2, "a", 1.0, 4.0, 1),
        tracing.Span(3, "a", 2.0, 3.0, 2),
        tracing.Span(4, "b", 3.5, 6.0, 1),
        tracing.Span(5, "c", 12.0, 13.0, None),
    ]


def test_self_time_subtracts_the_union_of_child_spans():
    selfs = tracing.self_times(synthetic_tree())
    # root's children cover [1, 6] (overlap 3.5-4 counted once).
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.5)
    assert selfs[5] == pytest.approx(1.0)


def test_outermost_skips_nested_spans_of_the_same_layer():
    chosen = tracing.outermost_by_name(synthetic_tree())
    assert [span.sid for span in chosen["a"]] == [2]
    assert [span.sid for span in chosen["root"]] == [1]


def test_unattributed_share_of_wall_time():
    spans = synthetic_tree()
    roots = [spans[0]]
    # 5 of the root's 10 s are covered by its children; wall is 20 s.
    assert tracing.unattributed(spans, roots, 20.0) == pytest.approx(1.0 - 5.0 / 20.0)


def test_pace_scales_a_wall_by_the_loop_times_around_it():
    # The loop ran at half its unloaded speed on average: the work did too.
    loop = pace.INTERPRETER.unloaded_s
    assert pace.INTERPRETER.correct(3.0, 1.5 * loop, 2.5 * loop) == pytest.approx(1.5)


def test_covered_clips_to_the_parent_interval():
    assert tracing.covered([(-1.0, 2.0), (1.5, 3.0), (5.0, 9.0)], 0.0, 6.0) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Names and the recorded design
# ----------------------------------------------------------------------
def test_every_name_is_well_formed():
    names = list(DESIGN["workloads"]) + list(DESIGN["end_to_end"]) + list(DESIGN["per_layer"])
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)


def test_benchmark_json_mirrors_the_design():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == DESIGN["workloads"]
    assert {
        m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for m in BENCHMARK["end_to_end"]
    } == {
        name: {key: spec[key] for key in ("unit", "better", "bound")}
        for name, spec in DESIGN["end_to_end"].items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: (spec["unit"], spec["better"]) for name, spec in DESIGN["per_layer"].items()
    }
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_layer_design_names_known_metrics_and_workloads():
    for spec in DESIGN["per_layer"].values():
        assert set(spec["moves"]) <= set(DESIGN["end_to_end"]) | set(DESIGN["per_layer"])
        assert set(spec["works_on"] + spec["bypassed_on"]) <= set(DESIGN["workloads"])


def test_layer_metrics_cover_the_per_layer_list():
    computed = set(tracing.layer_metrics([], 1))
    trace = {name for name in DESIGN["per_layer"] if name.startswith("trace.")}
    assert computed | trace == set(DESIGN["per_layer"])


# ----------------------------------------------------------------------
# Smoke runs
# ----------------------------------------------------------------------
def run_benchmark(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_tiny_smoke_run(workload, trace):
    done = run_benchmark(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
        "--trace", trace, "--scale", "tiny",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = run_benchmark(str(tmp_path), "--workload", "table1-sweep", "--seed", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

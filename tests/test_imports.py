"""The package-import contract.

``import repro`` and the subpackages off the run path resolve their
public names on first use (``repro._lazy``), while the run path stays
eager: ``import repro.orchestration`` loads every module that
``run_scenario`` executes, so that no import lands inside a run.  Each
check starts a fresh interpreter, because this process has long since
imported most of the package.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Every package whose ``__init__`` imports on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.analytics",
    "repro.core",
    "repro.dynamics",
    "repro.engine",
    "repro.experiments",
    "repro.graphs",
    "repro.lowerbounds",
    "repro.propagation",
    "repro.protocols",
    "repro.walks",
)

#: Modules no scenario run executes: they must not load with the
#: orchestration package or during its runs.
OFF_THE_RUN_PATH = (
    "repro.lowerbounds",
    "repro.walks",
    "repro.experiments.figures",
    "repro.experiments.table1",
    "repro.experiments.reporting",
    "repro.engine.stepper",
    "repro.engine.replicas",
    "repro.graphs.spectral",
    "repro.graphs.properties",
    "repro.propagation.bounds",
    "repro.core.stability",
    "repro.dynamics.scheduler",
    "repro.sharding",
    "repro.service",
    "repro.resilience",
)

#: What a run imports on first use where the native kernel is missing:
#: the per-replica engine, which then serves every compiled plan.
NO_KERNEL_RUN_PATH = ("repro.engine.stepper",)


def _fresh(script: str):
    """Run ``script`` in a new interpreter; its last line of output, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def _within(name: str, prefixes) -> bool:
    return any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)


def _imported_names(path: str, module: str):
    """Every module name an import statement anywhere in ``path`` (the
    source of ``module``) may load, relative imports resolved."""
    package = module if path.endswith("__init__.py") else module.rpartition(".")[0]
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + [node.module] if node.module else anchor)
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_import_repro_loads_only_the_lazy_helper():
    loaded = _fresh(
        "import json, sys\n"
        "import repro\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))\n"
    )
    assert loaded == ["repro._lazy"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_is_the_submodules_object(package):
    """Each name in ``__all__`` and in ``dir()``, read through the lazy
    package first, is the very object its submodule holds; every
    submodule of the package that defines the name agrees."""
    report = _fresh(
        "import importlib, json, pkgutil, sys, types\n"
        f"package = importlib.import_module({package!r})\n"
        "public = list(package.__all__)\n"
        "listed = dir(package)\n"
        "values = {name: getattr(package, name) for name in public + listed}\n"
        "problems = []\n"
        "if len(set(public)) != len(public):\n"
        "    problems.append('__all__ repeats a name')\n"
        "problems += [f'{name} missing from dir()' for name in public if name not in listed]\n"
        "submodules = [importlib.import_module(f'{package.__name__}.{info.name}')\n"
        "              for info in pkgutil.iter_modules(package.__path__)]\n"
        "for name in public:\n"
        "    if isinstance(values[name], types.ModuleType):\n"
        "        if values[name] is not sys.modules.get(f'{package.__name__}.{name}'):\n"
        "            problems.append(f'{name}: not the submodule')\n"
        "        continue\n"
        "    holders = [m for m in submodules if name in vars(m)]\n"
        "    if name == '__version__':\n"
        "        continue\n"
        "    if not holders:\n"
        "        problems.append(f'{name}: no submodule defines it')\n"
        "    problems += [f'{name}: differs from {m.__name__}.{name}'\n"
        "                 for m in holders if vars(m)[name] is not values[name]]\n"
        "for name in listed:\n"
        "    module = sys.modules.get(f'{package.__name__}.{name}')\n"
        "    if module is not None and values[name] is not module:\n"
        "        problems.append(f'{name}: not the submodule')\n"
        "print(json.dumps({'problems': problems, 'public': len(public)}))\n"
    )
    assert report["problems"] == []
    assert report["public"] > 0


def test_public_surface_works_as_before():
    """``from repro import ...``, attribute chains into subpackages,
    star imports and ``help()`` all resolve through the lazy packages."""
    report = _fresh(
        "import json, pydoc\n"
        "import repro\n"
        "from repro import Graph, run_leader_election, TokenLeaderElection\n"
        "from repro.graphs import *\n"
        "graph = repro.graphs.torus(4, 4)\n"
        "assert isinstance(graph, Graph) and torus is repro.graphs.torus\n"
        "result = run_leader_election(TokenLeaderElection(), graph, rng=0)\n"
        "assert result.leaders == 1\n"
        "assert repro.engine.native.RULE_TABLE == 0\n"
        "assert repro.graphs.spectral.normalized_laplacian_spectral_gap(graph) > 0\n"
        "text = pydoc.render_doc(repro.graphs) + pydoc.render_doc(repro)\n"
        "assert 'erdos_renyi' in text and 'run_leader_election' in text\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as error:\n"
        "    missing = str(error)\n"
        "print(json.dumps({'missing': missing}))\n"
    )
    assert report["missing"] == "module 'repro' has no attribute 'no_such_name'"


def test_scenario_runs_import_nothing_after_the_orchestration_package():
    """After ``import repro.orchestration`` a cold run of ``torus-million``
    (at n = 4096), of every ``table1-*`` scenario (first two sizes, one
    repetition) and of ``dynamic-edge-churn`` (first size, one
    repetition) under ``auto`` and under ``reference`` imports no
    ``repro`` module, and nothing off the run path ever loads.  Without
    the kernel the first plan imports the per-replica engine, the one
    module of that host's run path that is left to first use."""
    report = _fresh(
        "import json, sys\n"
        "import repro.orchestration as orchestration\n"
        "def run(name, **overrides):\n"
        "    scenario = orchestration.get_scenario(name).with_overrides(**overrides)\n"
        "    before = set(sys.modules)\n"
        "    result = orchestration.run_scenario(scenario, cache=False)\n"
        "    assert result.executed_units == result.total_units > 0\n"
        "    return sorted(m for m in set(sys.modules) - before if m.startswith('repro'))\n"
        "imported = {'torus-million': run('torus-million', sizes=(4096,))}\n"
        "for name in orchestration.available_scenarios():\n"
        "    if name.startswith('table1-'):\n"
        "        sizes = orchestration.get_scenario(name).sizes[:2]\n"
        "        imported[name] = run(name, sizes=sizes, repetitions=1)\n"
        "churn = orchestration.get_scenario('dynamic-edge-churn').sizes[:1]\n"
        "for engine in ('auto', 'reference'):\n"
        "    imported[f'dynamic-edge-churn/{engine}'] = run(\n"
        "        'dynamic-edge-churn', sizes=churn, repetitions=1, engine=engine)\n"
        "from repro.engine.native import get_run_epoch_kernel\n"
        "print(json.dumps({\n"
        "    'imported': imported,\n"
        "    'loaded': sorted(m for m in sys.modules if m.startswith('repro')),\n"
        "    'kernel': get_run_epoch_kernel() is not None,\n"
        "}))\n"
    )
    allowed = set() if report["kernel"] else set(NO_KERNEL_RUN_PATH)
    assert len(report["imported"]) == 10
    assert {name: set(modules) - allowed for name, modules in report["imported"].items()} == {
        name: set() for name in report["imported"]
    }
    off_path = [prefix for prefix in OFF_THE_RUN_PATH if prefix not in allowed]
    assert [name for name in report["loaded"] if _within(name, off_path)] == []


def test_cli_imports_only_what_its_subcommands_run():
    """A fresh ``import repro.cli`` leaves the modules that only some
    subcommands use (Table 1 rows, report tables, graph properties and
    spectra, broadcast bounds) for those subcommands to import."""
    loaded = _fresh(
        "import json, sys\n"
        "import repro.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    deferred = [
        "repro.experiments.table1",
        "repro.experiments.reporting",
        "repro.graphs.properties",
        "repro.graphs.spectral",
        "repro.propagation.bounds",
    ]
    assert [name for name in deferred if name in loaded] == []
    assert "repro.orchestration.runner" in loaded


def test_runtime_core_and_engine_never_import_the_shard_pool():
    """The dependency runs one way: ``repro.sharding`` builds on the
    runtime, and no module under ``repro.runtime``, ``repro.core`` or
    ``repro.engine`` imports it, at module level or inside a function.
    So no plan reaches the shard-worker pool unless its caller enters
    ``repro.sharding`` itself, and the package can go without touching
    them."""
    offenders = []
    for package in ("runtime", "core", "engine"):
        for directory, _, files in os.walk(os.path.join(SRC, "repro", package)):
            for filename in sorted(files):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                module = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
                module = module.removesuffix(".__init__")
                offenders += [
                    f"{module} imports {name}"
                    for name in _imported_names(path, module)
                    if _within(name, ("repro.sharding",))
                ]
    assert offenders == []

"""Declarative experiment scenarios.

A :class:`Scenario` is a complete, *data-only* description of one
Monte-Carlo sweep: which graph family, which size grid, which protocols
(by builder name + parameters), how many trials, what step budget, which
engine.  Because a scenario is plain data it can be

* hashed into a stable cache key (:meth:`Scenario.content_hash`) for the
  persistent result store,
* pickled/rebuilt cheaply in worker processes by the parallel runner,
* listed, composed and overridden from the CLI without touching code.

The protocol builder names (``token``, ``identifier``, ``fast``,
``star``) map onto the spec builders in
:mod:`repro.experiments.harness`; their keyword parameters travel with
the scenario and are part of the cache key.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.seeds import derive_seed
from ..dynamics.schedule import (
    EdgeChurnSchedule,
    EpochSchedule,
    NodeChurnSchedule,
    TopologySchedule,
)
from ..experiments.harness import (
    ProtocolSpec,
    fast_protocol_spec,
    identifier_protocol_spec,
    star_protocol_spec,
    token_protocol_spec,
)
from ..experiments.workloads import get_workload
from ..graphs.graph import Graph
from ..runtime.plan import ENGINES

#: Bump when the meaning of persisted results changes (record schema,
#: execution semantics).  Part of every scenario content hash, so stale
#: cache entries become unreachable rather than silently wrong.  Last
#: bump (v3): trial records gained a ``wall_time_seconds`` provenance
#: field (measured values are unchanged — the runtime refactor preserves
#: every seeded stream bit for bit); v2-era cache directories are simply
#: left behind and recomputed on first use.  See docs/ORCHESTRATION.md,
#: "Result schema migrations".
RESULT_SCHEMA_VERSION = 3

_SPEC_BUILDERS = {
    "token": token_protocol_spec,
    "identifier": identifier_protocol_spec,
    "fast": fast_protocol_spec,
    "star": star_protocol_spec,
}


class ScenarioError(ValueError):
    """A scenario is malformed or references unknown components."""


@functools.lru_cache(maxsize=32)
def _builder_defaults(
    builder: Callable[..., Any], skip: Tuple[str, ...] = ()
) -> Tuple[Tuple[str, Any], ...]:
    """``(name, default)`` of every parameter of ``builder`` not in ``skip``.

    Read from the signature once per builder, not once per config.
    """
    return tuple(
        (name, parameter.default)
        for name, parameter in inspect.signature(builder).parameters.items()
        if name not in skip
    )


@dataclass(frozen=True)
class ProtocolConfig:
    """Declarative protocol choice: a builder name plus keyword parameters.

    Parameters are canonicalised against the builder's signature: omitted
    keywords are filled with the builder's defaults and unknown keywords
    are rejected.  Semantically identical configs (``ProtocolConfig("fast")``
    vs. one spelling out the defaults) therefore compare — and hash —
    equal, while a change to a builder default changes every affected
    scenario's content hash, as a semantic change must.
    """

    builder: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.builder not in _SPEC_BUILDERS:
            known = ", ".join(sorted(_SPEC_BUILDERS))
            raise ScenarioError(
                f"unknown protocol builder {self.builder!r}; known builders: {known}"
            )
        canonical = dict(_builder_defaults(_SPEC_BUILDERS[self.builder]))
        for key, value in self.params:
            if key not in canonical:
                raise ScenarioError(
                    f"protocol builder {self.builder!r} has no parameter {key!r}; "
                    f"accepts: {', '.join(sorted(canonical)) or '(none)'}"
                )
            canonical[key] = value
        object.__setattr__(self, "params", tuple(sorted(canonical.items())))

    def build_spec(self) -> ProtocolSpec:
        """Instantiate the concrete :class:`ProtocolSpec`."""
        return _SPEC_BUILDERS[self.builder](**dict(self.params))

    def as_dict(self) -> Dict[str, Any]:
        return {"builder": self.builder, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, config: Mapping[str, Any]) -> "ProtocolConfig":
        return cls(
            builder=str(config["builder"]),
            params=tuple(sorted(dict(config.get("params", {})).items())),
        )

    @classmethod
    def from_spec(cls, spec: ProtocolSpec) -> "ProtocolConfig":
        """Recover the declarative form of a spec built by a known builder."""
        if spec.spec_config is None:
            raise ScenarioError(
                f"protocol spec {spec.name!r} was built from a raw factory and has "
                "no declarative form; build it via token/identifier/fast/star "
                "spec builders to orchestrate it"
            )
        builder, params = spec.spec_config
        return cls(builder=builder, params=tuple(params))


def default_protocol_configs() -> Tuple[ProtocolConfig, ...]:
    """The declarative form of the three Table 1 protocols."""
    return (
        ProtocolConfig("token"),
        ProtocolConfig("identifier"),
        ProtocolConfig("fast"),
    )


# ----------------------------------------------------------------------
# Declarative topology schedules
# ----------------------------------------------------------------------
def _epochs_schedule(
    base_graph: Graph,
    seed: int,
    workloads: Tuple[str, ...] = ("clique", "cycle", "star"),
    epoch_length: int = 2048,
    repeat: bool = True,
) -> TopologySchedule:
    """Epoch-switching sequence of workload graphs at the base graph's size.

    Every phase workload must produce a graph on exactly the base graph's
    node count (clique / cycle / star / path do; size-rounding families
    such as torus generally do not and are rejected by the schedule).
    """
    n = base_graph.n_nodes
    graphs = []
    for index, name in enumerate(workloads):
        graphs.append(get_workload(name).build(n, seed=derive_seed(seed, "phase", index)))
    return EpochSchedule.from_graphs(graphs, epoch_length=int(epoch_length), repeat=bool(repeat))


def _edge_churn_schedule(
    base_graph: Graph,
    seed: int,
    keep_probability: float = 0.7,
    epoch_length: int = 1024,
    require_connected: bool = False,
) -> TopologySchedule:
    """Bernoulli edge churn over the scenario's workload graph."""
    return EdgeChurnSchedule(
        base_graph,
        keep_probability=float(keep_probability),
        epoch_length=int(epoch_length),
        seed=seed,
        require_connected=bool(require_connected),
    )


def _node_churn_schedule(
    base_graph: Graph,
    seed: int,
    fractions: Tuple[float, ...] = (0.5, 0.75, 1.0),
    epoch_length: int = 1024,
    repeat: bool = False,
) -> TopologySchedule:
    """Grow/shrink node churn over prefixes of the workload graph."""
    n = base_graph.n_nodes
    counts = [max(2, min(n, int(round(float(fraction) * n)))) for fraction in fractions]
    return NodeChurnSchedule(
        base_graph, counts, epoch_length=int(epoch_length), repeat=bool(repeat)
    )


_SCHEDULE_BUILDERS = {
    "epochs": _epochs_schedule,
    "edge-churn": _edge_churn_schedule,
    "node-churn": _node_churn_schedule,
}


def _freeze(value: Any) -> Any:
    """Lists → tuples recursively, so canonical params stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: Any) -> Any:
    """Tuples → lists recursively (the JSON-native form)."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class ScheduleConfig:
    """Declarative topology schedule: a builder kind plus parameters.

    The concrete :class:`~repro.dynamics.schedule.TopologySchedule` is
    materialised per (graph, seed) at execution time via :meth:`build`;
    the config itself is plain data, so it travels to worker processes
    and is hashed into scenario cache keys exactly like
    :class:`ProtocolConfig`.  Parameters are canonicalised against the
    builder signature (defaults filled in, unknown keys rejected), so
    semantically identical configs hash identically and a changed builder
    default invalidates affected cache entries.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULE_BUILDERS:
            known = ", ".join(sorted(_SCHEDULE_BUILDERS))
            raise ScenarioError(
                f"unknown schedule kind {self.kind!r}; known kinds: {known}"
            )
        canonical = dict(
            _builder_defaults(_SCHEDULE_BUILDERS[self.kind], ("base_graph", "seed"))
        )
        for key, value in self.params:
            if key not in canonical:
                raise ScenarioError(
                    f"schedule kind {self.kind!r} has no parameter {key!r}; "
                    f"accepts: {', '.join(sorted(canonical)) or '(none)'}"
                )
            canonical[key] = _freeze(value)
        object.__setattr__(self, "params", tuple(sorted(canonical.items())))

    def build(self, base_graph: Graph, seed: int) -> TopologySchedule:
        """Materialise the schedule for one (graph, seed) pair."""
        return _SCHEDULE_BUILDERS[self.kind](base_graph, seed, **dict(self.params))

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": {k: _thaw(v) for k, v in self.params}}

    @classmethod
    def from_dict(cls, config: Mapping[str, Any]) -> "ScheduleConfig":
        return cls(
            kind=str(config["kind"]),
            params=tuple(sorted(dict(config.get("params", {})).items())),
        )


@dataclass(frozen=True)
class Scenario:
    """One named, fully declarative Monte-Carlo sweep.

    Attributes
    ----------
    name:
        Registry key; also the human-readable part of the cache directory.
    workload:
        Graph-family workload name (see :mod:`repro.experiments.workloads`).
    sizes:
        Population-size grid.  A single size is allowed (scaling fits are
        then unavailable; see ``SweepResult.fit``).
    protocols:
        Declarative protocol choices, in measurement order.
    repetitions:
        Monte-Carlo trials per (protocol, size).
    seed:
        Base seed; all graph/trial seeds derive from it via
        :mod:`repro.core.seeds`.
    step_budget_multiplier:
        Scales the per-run step budget (``default_step_budget``).
    trials_per_shard:
        How many trials one work unit (= one cache file, one worker task)
        covers.  Affects scheduling granularity and cache layout only —
        never the per-trial seeds, hence never the results.
    engine:
        Execution engine for the simulations: one of
        :data:`repro.runtime.plan.ENGINES`; any other value raises
        :class:`ScenarioError`.
    backend:
        Always ``"auto"``; any other value raises :class:`ScenarioError`.
        Which executor runs a plan follows from the plan's inputs alone
        (:mod:`repro.runtime.execute`), so this field decides nothing.
        It is kept only so that the canonical JSON, and with it every
        content hash and cache directory, stays as it was.
    schedule:
        Optional declarative topology schedule (:class:`ScheduleConfig`).
        ``None`` (the default) runs on the static workload graph; a
        config makes every trial sample interactions from the
        time-varying topology it describes.  The schedule is part of the
        content hash, so dynamic results can never be served from a
        static scenario's cache (or vice versa).  Note that protocol
        factories that calibrate on the graph — the fast protocol
        estimates ``B(G)`` — calibrate on the *workload graph* (the node
        universe), not on the time-varying topology: a legitimate
        non-uniform parameterisation, but one whose constants can be far
        from the dynamic broadcast time, so the bundled dynamic
        scenarios use the calibration-free token protocol.
    description:
        One line shown by ``repro-popsim scenarios``.
    """

    name: str
    workload: str
    sizes: Tuple[int, ...]
    protocols: Tuple[ProtocolConfig, ...] = field(default_factory=default_protocol_configs)
    repetitions: int = 3
    seed: int = 0
    step_budget_multiplier: float = 60.0
    trials_per_shard: int = 1
    engine: str = "auto"
    backend: str = "auto"
    schedule: Optional[ScheduleConfig] = None
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "protocols", tuple(self.protocols))
        if not self.name:
            raise ScenarioError("scenario needs a non-empty name")
        if not self.sizes:
            raise ScenarioError(f"scenario {self.name!r} needs at least one size")
        if not self.protocols:
            raise ScenarioError(f"scenario {self.name!r} needs at least one protocol")
        if self.repetitions < 1:
            raise ScenarioError(f"scenario {self.name!r}: repetitions must be positive")
        if self.trials_per_shard < 1:
            raise ScenarioError(f"scenario {self.name!r}: trials_per_shard must be positive")
        if self.engine not in ENGINES:
            raise ScenarioError(
                f"scenario {self.name!r}: engine must be one of "
                f"{', '.join(map(repr, ENGINES))}, got {self.engine!r}"
            )
        if self.backend != "auto":
            raise ScenarioError(
                f"scenario {self.name!r}: backend must be 'auto', got {self.backend!r}; "
                "the executor follows from each plan's inputs"
            )

    # ------------------------------------------------------------------
    # Validation / construction
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Resolve every referenced component (raises on dangling names)."""
        get_workload(self.workload)
        for protocol in self.protocols:
            protocol.build_spec()
        if self.schedule is not None and self.schedule.kind == "epochs":
            for workload in dict(self.schedule.params).get("workloads", ()):
                get_workload(workload)

    def protocol_specs(self) -> List[ProtocolSpec]:
        """Concrete protocol specs, in declaration order."""
        return [protocol.build_spec() for protocol in self.protocols]

    def schedule_seed(self, size_index: int) -> int:
        """Seed of the size cell's topology-schedule child stream.

        A dedicated stream (``derive_seed(seed, "schedule", i)``),
        independent of the graph and trial streams, so adding a schedule
        never perturbs which graph is built or which scheduler seeds the
        trials receive.  The single source for both direct builds
        (:meth:`build_schedule`) and the orchestrator's shipped unit
        plans.
        """
        return derive_seed(self.seed, "schedule", size_index)

    def build_schedule(self, base_graph: Graph, size_index: int) -> Optional[TopologySchedule]:
        """The concrete topology schedule for one size cell, or ``None``."""
        if self.schedule is None:
            return None
        return self.schedule.build(base_graph, self.schedule_seed(size_index))

    @classmethod
    def _reject_unknown_fields(cls, owner: str, keys: Iterable[str]) -> None:
        """Raise :class:`ScenarioError` naming every key that is not a field."""
        accepted = [f.name for f in fields(cls)]
        unknown = sorted(set(keys) - set(accepted))
        if unknown:
            raise ScenarioError(
                f"{owner} has no field {', '.join(map(repr, unknown))}; "
                f"accepts: {', '.join(accepted)}"
            )

    def with_overrides(self, **overrides: Any) -> "Scenario":
        """A copy with some fields replaced (CLI ``--sizes``/``--repetitions``).

        Raises :class:`ScenarioError` naming any key that is not a field.
        """
        self._reject_unknown_fields(f"scenario {self.name!r}", overrides)
        if "sizes" in overrides:
            overrides["sizes"] = tuple(int(s) for s in overrides["sizes"])
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Canonical form and content hash
    # ------------------------------------------------------------------
    def config_dict(self) -> Dict[str, Any]:
        """The canonical JSON-able description of this scenario.

        The ``schedule`` key is present only on dynamic scenarios: static
        configs serialise exactly as they did before schedules existed,
        so their content hashes — and hence their cache directories —
        are unchanged.  Every other field but ``description`` is here.
        How many worker processes run a scenario is not a field: it is
        set where the scenario runs (``jobs``), so runs that differ only
        in it share one cache directory (and one canonical result).
        """
        config = {
            "name": self.name,
            "workload": self.workload,
            "sizes": list(self.sizes),
            "protocols": [protocol.as_dict() for protocol in self.protocols],
            "repetitions": self.repetitions,
            "seed": self.seed,
            "step_budget_multiplier": self.step_budget_multiplier,
            "trials_per_shard": self.trials_per_shard,
            "engine": self.engine,
            "backend": self.backend,
        }
        if self.schedule is not None:
            config["schedule"] = self.schedule.as_dict()
        return config

    def content_hash(self) -> str:
        """SHA-256 over the canonical config plus code-relevant versions.

        Includes everything that determines the *measured values*: the
        scenario config, the result schema version, the package version
        and the scheduler's seeded-stream parameters (the pre-sample
        refill size is part of the seeded trajectory definition — see
        :data:`repro.runtime.source.REFILL_SIZE`).  The execution ``engine``
        and the constant ``backend`` are part of the config hashed here
        even though engines are bit-identical; a cache entry therefore
        never outlives a semantics change, at the cost of re-running when
        only the engine differs.
        Worker counts never enter it: they are not scenario fields.
        """
        from .. import __version__
        from ..runtime.source import REFILL_SIZE

        payload = {
            "config": self.config_dict(),
            "result_schema": RESULT_SCHEMA_VERSION,
            "package_version": __version__,
            "scheduler_refill": REFILL_SIZE,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`config_dict` output.

        Accepts exactly the keys :meth:`config_dict` writes plus
        ``description``, and raises :class:`ScenarioError` naming any
        other key, so a removed or misspelt field is never dropped
        silently.
        """
        cls._reject_unknown_fields("scenario config", config)
        return cls(
            name=str(config["name"]),
            workload=str(config["workload"]),
            sizes=tuple(int(s) for s in config["sizes"]),
            protocols=tuple(
                ProtocolConfig.from_dict(protocol) for protocol in config["protocols"]
            ),
            repetitions=int(config["repetitions"]),
            seed=int(config["seed"]),
            step_budget_multiplier=float(config["step_budget_multiplier"]),
            trials_per_shard=int(config["trials_per_shard"]),
            engine=str(config["engine"]),
            backend=str(config["backend"]),
            schedule=(
                ScheduleConfig.from_dict(config["schedule"])
                if config.get("schedule") is not None
                else None
            ),
            description=str(config.get("description", "")),
        )

    @classmethod
    def from_specs(
        cls,
        name: str,
        workload: str,
        sizes: Sequence[int],
        specs: Sequence[ProtocolSpec],
        **fields_: Any,
    ) -> "Scenario":
        """Build a scenario from concrete specs that carry ``spec_config``."""
        return cls(
            name=name,
            workload=workload,
            sizes=tuple(sizes),
            protocols=tuple(ProtocolConfig.from_spec(spec) for spec in specs),
            **fields_,
        )

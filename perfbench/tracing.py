"""In-memory span tracing of the program's layers, applied from outside.

The benchmark never edits the package: :func:`install` replaces a fixed
list of public functions and methods (:data:`TARGETS`) with thin
wrappers that record one :class:`Span` per call, and the returned undo
handle puts every original attribute back.  Spans stay in memory until
the run ends, when :func:`dump` writes them out.

A span carries its name (the layer), start and end, the id of the span
that was open when it began (its parent) and the work-unit key set by
the ``execute_unit_plan`` wrapper, inherited by every span below it.
Layer metrics are computed afterwards from the span list
(:func:`layer_metrics`); a span's self time is its duration minus the
part of it its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    """One call of a wrapped function: a layer's busy interval.

    ``info`` is what the target's describe function kept of the call
    (a flag, a count, or a small tuple), or ``None``.
    """

    __slots__ = ("sid", "name", "start", "end", "parent", "unit", "info")

    def __init__(
        self,
        sid: int,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        unit: Optional[str] = None,
        info: Any = None,
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.unit = unit
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


#: The span clock.
now = time.perf_counter


class _Stacks(threading.local):
    def __init__(self) -> None:
        self.stack: List[Tuple[int, Optional[str]]] = []


class Tracer:
    """Collects spans; one stack of open (id, unit) pairs per thread.

    Spans are recorded as plain tuples (cheap to build, and ignored by the
    garbage collector) and turned into :class:`Span` objects by
    :meth:`records` once the traced phase is over.
    """

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = _Stacks()

    def records(self) -> List[Span]:
        return [Span(*row) for row in self.rows]

    def span(self, name: str) -> "_ManualSpan":
        """Context manager for a span opened by the benchmark itself."""
        return _ManualSpan(self, name)

    def _enter(self, unit: Optional[str]) -> Tuple[int, Optional[int], Optional[str]]:
        stack = self._local.stack
        sid = next(self._ids)
        if stack:
            parent, inherited = stack[-1]
            unit = unit if unit is not None else inherited
        else:
            parent = None
        stack.append((sid, unit))
        return sid, parent, unit

    def wrap(
        self,
        name: str,
        fn: Callable,
        describe: Optional[Callable[[tuple, Any], Any]] = None,
        unit_of: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``describe(args, result)`` runs after the span has closed, so the
        bookkeeping it does is not charged to the layer.  Coroutine
        functions get an asynchronous wrapper that records a leaf span (it
        never becomes the parent of other spans, because other tasks run
        while it waits).
        """
        rows = self.rows
        local = self._local
        ids = self._ids
        enter = self._enter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                stack = local.stack
                parent, unit = stack[-1] if stack else (None, None)
                sid = next(ids)
                start = now()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    rows.append((sid, name, start, now(), parent, unit, None))
                    raise
                end = now()
                info = describe(args, result) if describe is not None else None
                rows.append((sid, name, start, end, parent, unit, info))
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid, parent, unit = enter(unit_of(args) if unit_of is not None else None)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                local.stack.pop()
                rows.append((sid, name, start, now(), parent, unit, None))
                raise
            end = now()
            local.stack.pop()
            info = describe(args, result) if describe is not None else None
            rows.append((sid, name, start, end, parent, unit, info))
            return result

        return wrapper


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_ManualSpan":
        self.sid, self.parent, self.unit = self.tracer._enter(None)
        self.start = now()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = now()
        self.tracer._local.stack.pop()
        self.tracer.rows.append((self.sid, self.name, self.start, end, self.parent, self.unit, None))


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _plan_info(args: tuple, plan: Any) -> tuple:
    return plan.mode, plan.n_replicas


def _execute_info(args: tuple, results: Any) -> tuple:
    return args[0].mode, sum(int(result.steps_executed) for result in results)


def _truth(args: tuple, value: Any) -> bool:
    return bool(value)


_PROTOCOL_CLASSES = (
    ("repro.protocols.tokens", "TokenLeaderElection"),
    ("repro.protocols.identifier", "IdentifierLeaderElection"),
    ("repro.protocols.fast", "FastLeaderElection"),
    ("repro.protocols.star", "StarLeaderElection"),
)

#: (module, class or None, attribute, span name, describe, unit key of args)
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Any, Any], ...] = (
    ("repro.experiments.workloads", "Workload", "build", "graphs.build", None, None),
    ("repro.analytics.estimators", None, "batched_broadcast_estimates", "analytics.calibration", None, None),
    ("repro.experiments.harness", None, "broadcast_time_estimate", "analytics.calibration", None, None),
    ("repro.engine.compiler", None, "get_compiled", "engine.compile", None, None),
    ("repro.engine.stepper", "CompiledRun", "apply_block", "engine.kernel", None, None),
    ("repro.runtime", None, "compile_plan", "runtime.compile_plan", _plan_info, None),
    ("repro.runtime.plan", None, "compile_plan", "runtime.compile_plan", _plan_info, None),
    ("repro.runtime", None, "execute_plan", "runtime.execute", _execute_info, None),
    ("repro.runtime.execute", None, "execute_plan", "runtime.execute", _execute_info, None),
    ("repro.runtime.source", "InteractionSource", "next_arrays", "runtime.sample", None, None),
    ("repro.runtime.source", "InteractionSource", "next_batch", "runtime.sample", None, None),
    ("repro.runtime.source", "InteractionSource", "next_pair_indices", "runtime.sample", None, None),
) + tuple(
    (module, cls, "is_output_stable_configuration", "protocols.certificate", _truth, None)
    for module, cls in _PROTOCOL_CLASSES
) + (
    ("repro.sharding.partition", "PartitionedGraph", "__init__", "sharding.partition", None, None),
    ("repro.sharding.executor", None, "execute_sharded", "sharding.execute", None, None),
    ("repro.orchestration", None, "run_scenario", "orchestration.run_scenario", None, None),
    ("repro.orchestration.runner", None, "run_scenario", "orchestration.run_scenario", None, None),
    ("repro.orchestration.runner", None, "execute_unit_plan", "orchestration.unit", None,
     lambda args: args[0].unit_key),
)


class Installed:
    """Undo handle returned by :func:`install`."""

    def __init__(self, patched: List[Tuple[Any, str, Any]]) -> None:
        self.patched = patched

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)
        self.patched = []


def resolve(module: str, cls: Optional[str]) -> Any:
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls is not None else owner


def install(tracer: Tracer, targets: Iterable[tuple] = TARGETS) -> Installed:
    """Wrap every target attribute; the handle's ``uninstall`` restores them."""
    patched: List[Tuple[Any, str, Any]] = []
    for module, cls, attribute, name, describe, unit_of in targets:
        owner = resolve(module, cls)
        # A class attribute is read from the class's own namespace, so the
        # original put back is exactly the function object found there.
        original = owner.__dict__[attribute] if cls is not None else getattr(owner, attribute)
        setattr(owner, attribute, tracer.wrap(name, original, describe, unit_of))
        patched.append((owner, attribute, original))
    return Installed(patched)


def dump(spans: List[Span], path: str) -> None:
    """Write spans as rows of ``FIELDS`` (one JSON array per span)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"fields": list(Span.__slots__), "spans": [[getattr(s, f) for f in Span.__slots__] for s in spans]},
            handle,
            separators=(",", ":"),
        )


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.duration - covered(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def outermost_by_name(spans: List[Span]) -> Dict[str, List[Span]]:
    """Per name, the spans with no ancestor of the same name (no double count)."""
    by_id = {span.sid: span for span in spans}
    chosen: Dict[str, List[Span]] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            chosen.setdefault(span.name, []).append(span)
    return chosen


def unattributed(spans: List[Span], roots: List[Span], wall: float) -> float:
    """Share of ``wall`` that no span below the workload's root spans covers."""
    if wall <= 0:
        return 0.0
    inner: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            inner.setdefault(span.parent, []).append((span.start, span.end))
    covered_total = sum(covered(inner.get(root.sid, ()), root.start, root.end) for root in roots)
    return max(0.0, 1.0 - covered_total / wall)


def layer_metrics(spans: List[Span], reps: int) -> Dict[str, float]:
    """Per-layer metrics of one traced phase, per measured repetition."""
    reps = max(int(reps), 1)
    selfs = self_times(spans)
    layers = outermost_by_name(spans)
    metrics: Dict[str, float] = {}

    def seconds(chosen: List[Span]) -> float:
        return sum(span.duration for span in chosen) / reps

    for name in (
        "graphs.build",
        "analytics.calibration",
        "engine.compile",
        "engine.kernel",
        "runtime.sample",
        "protocols.certificate",
    ):
        metrics[f"{name}_s"] = seconds(layers.get(name, []))
        metrics[f"{name}_calls"] = len(layers.get(name, [])) / reps

    plans = layers.get("runtime.compile_plan", [])  # info: (mode, replicas)
    metrics["runtime.compile_plan_s"] = seconds(plans)
    for mode in ("shared", "single", "reference"):
        metrics[f"runtime.plans.{mode}"] = sum(1 for p in plans if p.info[0] == mode) / reps
    metrics["runtime.replicas_per_plan"] = (
        sum(p.info[1] for p in plans) / len(plans) if plans else 0.0
    )

    executes = layers.get("runtime.execute", [])  # info: (mode, steps)
    metrics["runtime.execute_s"] = seconds(executes)
    metrics["runtime.execute_self_s"] = sum(selfs[s.sid] for s in executes) / reps
    metrics["runtime.execute.reference_s"] = seconds(
        [s for s in executes if s.info[0] == "reference"]
    )
    metrics["runtime.execute.compiled_s"] = seconds(
        [s for s in executes if s.info[0] != "reference"]
    )
    metrics["runtime.steps_executed"] = sum(s.info[1] for s in executes) / reps

    certificates = layers.get("protocols.certificate", [])  # info: fired
    metrics["protocols.certificate_fired_ratio"] = (
        sum(1 for s in certificates if s.info) / len(certificates) if certificates else 0.0
    )

    metrics["sharding.partition_s"] = seconds(layers.get("sharding.partition", []))
    metrics["sharding.execute_s"] = seconds(layers.get("sharding.execute", []))

    units = layers.get("orchestration.unit", [])
    runs = layers.get("orchestration.run_scenario", [])
    metrics["orchestration.self_s"] = sum(selfs[s.sid] for s in units + runs) / reps
    metrics["orchestration.units"] = len(units) / reps
    return metrics

"""Compiled execution engine for population protocols.

The engine turns a :class:`~repro.core.protocol.PopulationProtocol` whose
transition function is a pure function of the two interacting states into
dense lookup tables (:mod:`repro.engine.compiler`), and then executes
scheduler batches against those tables with one of two exactly
equivalent executors, chosen from a plan's inputs
(:mod:`repro.runtime.execute`):

* the v6 epoch stack: a C kernel (:mod:`repro.engine.native`) compiled
  on demand with the system C compiler and driven through
  :mod:`ctypes`, in which one ``repro_run_epoch`` call advances every
  replica of a plan, seeded streams drawn in-kernel, to its next
  certificate check or topology epoch switch;
* the per-replica engine: a tight Python loop over integer state codes
  (:mod:`repro.engine.stepper`, one replica at a time), for the runs the
  stack cannot serve.

:mod:`repro.engine.replicas` runs R independent replicas of the same
(graph, protocol) pair as one ``engine="auto"`` plan — on the v6 epoch
stack, with an exact per-replica fallback on the scalar loop when the
kernel is unavailable.  Single runs, harness measurements and
orchestrator units of any width go through the same execution plans and
so reach the same stack.

Both executors reproduce the reference simulator's sequential semantics
bit-for-bit: same scheduler stream, same stabilization step, same output
history.  ``tests/test_engine_equivalence.py`` enforces this for every
bundled protocol.
"""

from .._lazy import lazy_exports

# Every compiled run reaches the compiler through imports inside
# functions (``compile_plan``, the runner's table warm-up): it loads with
# the package, so that no run pays for importing it.
from . import compiler  # noqa: F401

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "native": (),
        "compiler": (
            "CompiledProtocol",
            "ProtocolCompilationError",
            "clear_compilation_cache",
            "compilation_worthwhile",
            "get_compiled",
        ),
        "replicas": ("run_replicas",),
        "stepper": ("CompiledRun",),
    },
)

"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import clique, cycle, erdos_renyi, path, star, torus


@pytest.fixture
def rng():
    """A deterministic numpy generator for tests."""
    return np.random.default_rng(12345)


def int_seed(seed):
    """The integer seed itself."""
    return seed


def generator_seed(seed):
    """A fresh Generator on the stream of the integer seed."""
    return np.random.default_rng(seed)


#: The two compiled executors of ``engine="auto"``, by test id, as the
#: seed a run passes.  A Generator is not kernel-seedable, so it routes
#: the run to the per-replica engine, on the same stream as the integer
#: seed; the integer seed takes the v6 epoch stack where the kernel is
#: built.
EXECUTOR_SEEDS = {"per-replica": generator_seed, "v6": int_seed}


def _kernel_built():
    from repro.engine.native import get_run_epoch_kernel

    return get_run_epoch_kernel() is not None


@pytest.fixture(params=sorted(EXECUTOR_SEEDS))
def executor_seed(request):
    """One compiled executor of ``engine="auto"`` (ids ``per-replica``
    and ``v6``), as the ``seed_of`` a run passes; ``v6`` skips where the
    kernel is not built."""
    if request.param == "v6" and not _kernel_built():
        pytest.skip("kernel v6 unavailable (no C compiler)")
    return EXECUTOR_SEEDS[request.param]


@pytest.fixture
def engine_variants():
    """Every executor of a run, as ``(engine, seed_of)`` pairs.

    A run passes ``seed_of(seed)`` as its scheduler seed.  The pairs are
    the reference interpreter with the integer seed (always first), then
    ``engine="auto"`` on each executor of :data:`EXECUTOR_SEEDS`: the
    per-replica engine, and, where the kernel is built, the v6 epoch
    stack.  The cross-engine tests loop over this one list.
    """
    variants = [("reference", int_seed)]
    for name in sorted(EXECUTOR_SEEDS):
        if name != "v6" or _kernel_built():
            variants.append(("auto", EXECUTOR_SEEDS[name]))
    return variants


@pytest.fixture
def small_clique():
    """Complete graph on 8 nodes."""
    return clique(8)


@pytest.fixture
def small_cycle():
    """Cycle on 10 nodes."""
    return cycle(10)


@pytest.fixture
def small_star():
    """Star on 12 nodes (centre 0)."""
    return star(12)


@pytest.fixture
def small_path():
    """Path on 9 nodes."""
    return path(9)


@pytest.fixture
def small_torus():
    """3x4 torus (12 nodes, 4-regular)."""
    return torus(3, 4)


@pytest.fixture
def small_dense_random():
    """Connected G(20, 0.4) with a fixed seed."""
    return erdos_renyi(20, p=0.4, rng=7)

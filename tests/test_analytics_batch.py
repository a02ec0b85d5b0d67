"""Tests for the replica-batched Monte-Carlo analytics engine.

The engine's contract (see :mod:`repro.analytics`):

* **width invariance** — every batched estimator returns bit-identical
  values for replica-batch widths 1, 3 and R;
* **path invariance** — the v6 epoch kernels, the epidemic's vectorized
  NumPy block and the scalar loops compute identical results;
* **kernel-resident streams** — on the kernel, private trajectory streams
  are seeded in C and never exist as Python generators, while a
  caller-held generator draws in NumPy and ends in the same state on
  every path;
* **seed purity** — a batched trajectory equals the standalone
  single-trajectory run with the same child seed;
* **distributional fidelity** — batched estimator means match the exact
  linear-algebra values / the pre-refactor trajectory-serial estimator's
  distribution on a seeded grid.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.estimators import summarize_samples
from repro.analytics import (
    batched_broadcast_estimates,
    resolve_base_seed,
    run_epidemic_batch,
    run_influence_batch,
    run_hitting_batch,
    run_meeting_batch,
    run_single_epidemic,
    run_single_hitting,
)
from repro.analytics import epidemics, estimators, streams
from repro.analytics.estimators import (
    FULL_INFORMATION_TAG,
    HITTING_TAG,
    MEETING_TAG,
    broadcast_trajectory_seed,
    batched_broadcast_samples,
    broadcast_trajectory_seed_array,
    broadcast_trajectory_seeds,
    select_sources,
)
from repro.core.scheduler import RandomScheduler
from repro.core.seeds import derive_seed
from repro.dynamics import StaticSchedule
from repro.engine.native import get_broadcast_epoch_kernel, reset_kernel_cache
from repro.experiments.workloads import get_workload
from repro.graphs import Graph, clique, cycle, path, star, torus
from repro.propagation import (
    broadcast_time_estimate,
    distance_k_propagation_steps,
    empirical_violation_rate,
    expected_broadcast_time_from,
    full_information_time,
    propagation_time_from,
    single_source_broadcast_steps,
)
from repro.propagation.broadcast import default_broadcast_budget
from repro.propagation.influence import InfluenceProcess
from repro.runtime.pairs import directed_tables
from repro.runtime.source import InteractionSource
from repro.walks import (
    exact_meeting_times,
    population_hitting_times_to,
    simulate_meeting_time,
    simulate_meeting_times,
    simulate_population_hitting_time,
    simulate_population_hitting_times,
)


@pytest.fixture
def no_native(monkeypatch):
    """Run the engine on its NumPy/scalar fallbacks."""
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    reset_kernel_cache()
    yield
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    reset_kernel_cache()


@pytest.fixture(params=["kernel", "no-kernel"])
def leg(request):
    """Run a test on the default leg, then once more without the kernel."""
    if request.param == "no-kernel":
        request.getfixturevalue("no_native")
    return request.param


class TestWidthInvariance:
    """Bit-identical results for replica-batch widths 1, 3 and R.

    Each case runs the chunking stack behind an estimator on that
    estimator's own trajectory seeds, at every width, and checks that
    the estimator (one full-width stack) returns the same values.
    """

    @staticmethod
    def _broadcast_per_source(g, repetitions, rng, width):
        """``broadcast_time_estimate``'s per-source means, from the stack."""
        base = resolve_base_seed(rng)
        sources = select_sources(g, 24, base)
        steps = run_epidemic_batch(
            g,
            [source for source in sources for _ in range(repetitions)],
            broadcast_trajectory_seed_array(base, sources, repetitions),
            default_broadcast_budget(g),
            replica_batch=width,
        )
        means = steps.reshape(-1, repetitions).mean(axis=1).tolist()
        return dict(zip(sources, means))

    def test_broadcast_time_estimate(self):
        g = cycle(20)
        full = self._broadcast_per_source(g, 4, 0, None)
        for width in (1, 3):
            assert self._broadcast_per_source(g, 4, 0, width) == full
        estimate = broadcast_time_estimate(g, repetitions=4, rng=0)
        assert estimate.per_source == full
        assert estimate.value == max(full.values())

    def test_expected_broadcast_time_from(self):
        g = torus(4, 4)
        base = resolve_base_seed(1)
        seeds = broadcast_trajectory_seed_array(base, [3], 6)
        budget = default_broadcast_budget(g)
        full = run_epidemic_batch(g, [3] * 6, seeds, budget)
        for width in (1, 3):
            other = run_epidemic_batch(g, [3] * 6, seeds, budget, replica_batch=width)
            assert other.tolist() == full.tolist()
        assert expected_broadcast_time_from(g, 3, repetitions=6, rng=1) == summarize_samples(
            [float(s) for s in full]
        )

    def test_full_information_time(self):
        g = clique(10)
        base = resolve_base_seed(2)
        seeds = [derive_seed(base, FULL_INFORMATION_TAG, t) for t in range(5)]
        budget = default_broadcast_budget(g)
        full = run_influence_batch(g, seeds, budget)
        for width in (1, 3):
            assert run_influence_batch(g, seeds, budget, replica_batch=width).tolist() == (
                full.tolist()
            )
        assert full_information_time(g, repetitions=5, rng=2) == summarize_samples(
            [float(s) for s in full]
        )

    def test_hitting_and_meeting_times(self):
        g = cycle(8)
        pairs = [(3, 0)] * 9
        seeds = [derive_seed(resolve_base_seed(3), HITTING_TAG, t) for t in range(9)]
        full = run_hitting_batch(g, pairs, seeds)
        for width in (1, 3):
            assert (run_hitting_batch(g, pairs, seeds, replica_batch=width) == full).all()
        assert (simulate_population_hitting_times(g, pairs, rng=3) == full).all()
        mpairs = [(0, 4)] * 9
        mseeds = [derive_seed(resolve_base_seed(4), MEETING_TAG, t) for t in range(9)]
        mfull = run_meeting_batch(g, mpairs, mseeds)
        for width in (1, 3):
            assert (run_meeting_batch(g, mpairs, mseeds, replica_batch=width) == mfull).all()
        assert (simulate_meeting_times(g, mpairs, rng=4) == mfull).all()

    def test_fallback_widths_match_native(self, no_native):
        g = cycle(20)
        native_free = self._broadcast_per_source(g, 4, 0, None)
        for width in (1, 3):
            assert self._broadcast_per_source(g, 4, 0, width) == native_free
        assert broadcast_time_estimate(g, repetitions=4, rng=0).per_source == native_free


class TestPathInvariance:
    """C kernel, NumPy block and scalar loop produce identical results."""

    def _epidemic_all_paths(self, stopmasks=None):
        g = torus(5, 5)
        sources = [0, 3, 7, 11, 17, 24, 0, 9]
        seeds = [500 + t for t in range(len(sources))]
        budget = default_broadcast_budget(g)
        native = run_epidemic_batch(g, sources, seeds, budget, stopmasks=stopmasks)
        return g, sources, seeds, budget, native

    def test_epidemic_paths(self, no_native, monkeypatch):
        """Without the kernel, the NumPy block (forced on every round, down
        to one row) equals the scalar loop, with and without stop masks."""
        reset_kernel_cache()
        assert get_broadcast_epoch_kernel() is None
        g = torus(5, 5)
        masks = (np.arange(g.n_nodes)[None, :] % 7 == np.arange(8)[:, None] % 7).astype(np.uint8)
        scalar = {
            index: self._epidemic_all_paths(stopmasks)[1:]
            for index, stopmasks in enumerate((None, masks))
        }
        monkeypatch.setattr(epidemics, "_SCALAR_MAX_REPLICAS", 1)
        for index, stopmasks in enumerate((None, masks)):
            sources, seeds, budget, expected = scalar[index]
            for width in (None, 2):
                vectorized = run_epidemic_batch(
                    g, sources, seeds, budget, stopmasks=stopmasks, replica_batch=width
                )
                assert vectorized.tolist() == expected.tolist()

    def test_epidemic_native_vs_fallback(self, monkeypatch):
        if get_broadcast_epoch_kernel() is None:
            pytest.skip("no C compiler available")
        g, sources, seeds, budget, native = self._epidemic_all_paths()
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        try:
            reset_kernel_cache()
            fallback = run_epidemic_batch(g, sources, seeds, budget)
            scalar = run_epidemic_batch(g, sources, seeds, budget, replica_batch=1)
        finally:
            monkeypatch.undo()
            reset_kernel_cache()
        assert native.tolist() == fallback.tolist() == scalar.tolist()

    def test_influence_native_vs_fallback(self, monkeypatch):
        g = clique(9)
        seeds = [31, 41, 59, 26, 53]
        budget = default_broadcast_budget(g)
        native = run_influence_batch(g, seeds, budget)
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        try:
            reset_kernel_cache()
            fallback = run_influence_batch(g, seeds, budget)
            scalar = run_influence_batch(g, seeds, budget, replica_batch=1)
        finally:
            monkeypatch.undo()
            reset_kernel_cache()
        assert native.tolist() == fallback.tolist() == scalar.tolist()
        # The packed-bitset engine must agree with a naive frozenset
        # implementation replaying the same trajectory streams.
        reference = [_reference_influence_steps(g, seed, budget) for seed in seeds]
        assert native.tolist() == reference


def _epidemic_legs(graph, sources, seeds, budget, stopmasks, widths):
    """Steps of every trajectory on every leg, as lists keyed by leg.

    ``one-call`` legs are private static stacks (one kernel call per width
    chunk on the kernel); ``rounds`` is the same stack under a
    single-epoch schedule (kernel rounds); ``caller-held`` replays each
    trajectory on its own stream (NumPy rounds).
    """
    legs = {}
    for width in widths:
        legs[f"one-call/{width}"] = run_epidemic_batch(
            graph, sources, seeds, budget, stopmasks=stopmasks, replica_batch=width
        ).tolist()
    legs["rounds"] = run_epidemic_batch(
        graph, sources, seeds, budget, stopmasks=stopmasks, schedule=StaticSchedule(graph)
    ).tolist()
    legs["caller-held"] = [
        epidemics.BUDGET_EXHAUSTED if steps is None else steps
        for steps in (
            run_single_epidemic(
                graph,
                source,
                InteractionSource(graph, seed),
                budget,
                None if stopmasks is None else stopmasks[index],
            )
            for index, (source, seed) in enumerate(zip(sources, seeds))
        )
    ]
    return legs


def _renitent_star():
    return get_workload("renitent-star").build(96, seed=0)


#: name -> (graph builder, sources, budget, stop-mask column or None).
#: The budget is None (the default budget), a step count, or "cut": one
#: draw before the median trajectory's finish.
_ONE_CALL_CASES = {
    "renitent-star-96": (_renitent_star, [0, 5, 50, 91, 17, 33], None, None),
    "renitent-star-96-cut": (_renitent_star, [0, 5, 50, 91, 17, 33], "cut", None),
    "cycle-24": (lambda: cycle(24), [0, 5, 11, 23, 7], None, None),
    "cycle-80": (lambda: cycle(80), [0, 40, 79], None, None),
    "cycle-80-budget": (lambda: cycle(80), [0, 40, 79, 12], 3400, None),
    "torus-5x5-stopmask": (lambda: torus(5, 5), [0, 3, 7, 11, 17, 24], None, 12),
}


@pytest.mark.parametrize("case", sorted(_ONE_CALL_CASES))
def test_one_call_stack_matches_rounds_and_fallback(case, monkeypatch):
    """Private static stacks run to finish or budget in one kernel call.

    The samples equal the kernel's round-by-round legs and the no-kernel
    leg for every width cap, including trajectories the budget cuts off
    (``BUDGET_EXHAUSTED``) and one that would finish one draw past it.
    """
    build, sources, budget, stop_column = _ONE_CALL_CASES[case]
    graph = build()
    seeds = [derive_seed(4242, case, index) for index in range(len(sources))]
    stopmasks = None
    if stop_column is not None:
        stopmasks = np.zeros((len(sources), graph.n_nodes), dtype=np.uint8)
        stopmasks[:, stop_column] = 1
    if budget is None:
        budget = default_broadcast_budget(graph)
    elif budget == "cut":
        finished = sorted(
            run_epidemic_batch(graph, sources, seeds, default_broadcast_budget(graph)).tolist()
        )
        budget = finished[len(finished) // 2] - 1
        assert budget >= 1024, "the cut should fall after the first round"
    widths = (None, 1, 4)
    native = _epidemic_legs(graph, sources, seeds, budget, stopmasks, widths)
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    reset_kernel_cache()
    try:
        fallback = _epidemic_legs(graph, sources, seeds, budget, stopmasks, widths)
    finally:
        monkeypatch.undo()
        reset_kernel_cache()
    expected = fallback["one-call/None"]
    for legs in (native, fallback):
        for leg, steps in legs.items():
            assert steps == expected, f"{case}: {leg} differs"
    if case.endswith(("-cut", "-budget")):
        assert epidemics.BUDGET_EXHAUSTED in expected
        assert any(steps > 0 for steps in expected)
    else:
        assert all(steps > 0 for steps in expected)


@pytest.mark.parametrize("cut", [False, True], ids=["full", "cut"])
def test_influence_one_call_matches_rounds_and_fallback(cut, monkeypatch):
    """Influence stacks take the one-call path too, budget cuts included."""
    graph = cycle(20)
    seeds = [derive_seed(4242, "influence", index) for index in range(5)]
    budget = default_broadcast_budget(graph)
    if cut:
        finished = sorted(run_influence_batch(graph, seeds, budget).tolist())
        budget = finished[len(finished) // 2] - 1

    def legs():
        runs = {
            f"one-call/{width}": run_influence_batch(graph, seeds, budget, replica_batch=width)
            for width in (None, 2)
        }
        runs["rounds"] = run_influence_batch(
            graph, seeds, budget, schedule=StaticSchedule(graph)
        )
        return {leg: steps.tolist() for leg, steps in runs.items()}

    native = legs()
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    reset_kernel_cache()
    try:
        fallback = legs()
    finally:
        monkeypatch.undo()
        reset_kernel_cache()
    expected = fallback["one-call/None"]
    assert native == fallback == {leg: expected for leg in native}
    assert (epidemics.BUDGET_EXHAUSTED in expected) == cut


class TestSeedPurity:
    """A batched trajectory equals the standalone run with its child seed."""

    def test_broadcast_trajectories_replayable(self):
        g = cycle(16)
        base = 1234
        estimate = broadcast_time_estimate(g, repetitions=3, max_sources=4, rng=base)
        for source in estimate.sources:
            replayed = [
                single_source_broadcast_steps(
                    g, source, rng=broadcast_trajectory_seed(base, source, rep)
                )
                for rep in range(3)
            ]
            assert estimate.per_source[source] == pytest.approx(
                sum(replayed) / len(replayed)
            )

    def test_walk_budget_exhaustion_marks_minus_one(self):
        g = cycle(12)
        steps = run_hitting_batch(g, [(0, 6)] * 4, [7, 8, 9, 10], max_steps=2)
        assert (steps == -1).all()

    def test_epidemic_budget_exhaustion(self):
        g = cycle(30)
        steps = run_epidemic_batch(g, [0, 1], [5, 6], max_steps=3)
        assert (steps == -1).all()

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.integers(min_value=-(2**64), max_value=2**65),
        sources=st.lists(st.integers(min_value=0, max_value=10**6), max_size=6),
        repetitions=st.integers(min_value=0, max_value=6),
    )
    def test_prefix_folded_seeds_match_derive_seed(self, base, sources, repetitions):
        """Folding ``(base, "bcast", source)`` once per source changes no seed."""
        assert broadcast_trajectory_seeds(base, sources, repetitions) == [
            derive_seed(base, "bcast", source, repetition)
            for source in sources
            for repetition in range(repetitions)
        ]

    @pytest.mark.parametrize("base", [0, 1, 2**62 + 7, 2**63, 2**63 + 12345, 2**64 - 1])
    def test_seed_array_matches_per_trajectory_seeds(self, base):
        """The one-pass ``uint64`` seeds equal :func:`broadcast_trajectory_seed`."""
        sources = [0, 3, 17, 2**40, 5]
        repetitions = 7
        seeds = broadcast_trajectory_seed_array(base, sources, repetitions)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [
            broadcast_trajectory_seed(base, source, repetition)
            for source in sources
            for repetition in range(repetitions)
        ]
        assert broadcast_trajectory_seed_array(base, [], repetitions).size == 0
        assert broadcast_trajectory_seed_array(base, sources, 0).size == 0

    @pytest.mark.parametrize(
        "graph, max_sources",
        [(cycle(6), 6), (cycle(5), 8), (torus(5, 5), 6)],
        ids=["n-equals-max", "n-below-max", "sampled"],
    )
    def test_batched_seeds_equal_the_per_base_concatenation(self, graph, max_sources, monkeypatch):
        """One grid over every base's sources seeds the ``B(G)`` stack with
        each base's own trajectory seeds, base after base."""
        bases = [0, 7, derive_seed(11, "bases"), 2**63 - 1, 2**64 - 1]
        repetitions = 3
        captured = []
        real = estimators.run_epidemic_batch

        def spy(graph, sources, seeds, *args, **kwargs):
            captured.append((list(sources), seeds))
            return real(graph, sources, seeds, *args, **kwargs)

        monkeypatch.setattr(estimators, "run_epidemic_batch", spy)
        batched_broadcast_estimates(
            graph, bases, repetitions, max_sources, default_broadcast_budget(graph)
        )
        (sources, seeds), = captured
        per_base = [select_sources(graph, max_sources, base) for base in bases]
        expected = [
            broadcast_trajectory_seed_array(base, base_sources, repetitions)
            for base, base_sources in zip(bases, per_base)
        ]
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == np.concatenate(expected).tolist()
        assert sources == [
            source for base_sources in per_base for source in base_sources
            for _ in range(repetitions)
        ]

    def test_wide_seeds_run_and_negative_seeds_raise(self):
        """Seeds outside ``[0, 2**64)`` keep the NumPy ``Generator`` leg."""
        g = torus(4, 4)
        budget = default_broadcast_budget(g)
        wide = [2**64 + 5, 2**70 + 1, 5]
        steps = run_epidemic_batch(g, [0, 6, 9], wide, budget)
        replayed = [
            run_single_epidemic(g, source, InteractionSource(g, seed), budget)
            for source, seed in zip([0, 6, 9], wide)
        ]
        assert steps.tolist() == replayed
        assert steps[2] == run_epidemic_batch(g, [9], [5], budget)[0]
        influence = run_influence_batch(g, wide, budget)
        assert influence.tolist() == [
            _reference_influence_steps(g, seed, budget) for seed in wide
        ]
        with pytest.raises(ValueError):
            run_epidemic_batch(g, [0, 1], [3, -1], budget)
        with pytest.raises(ValueError):
            run_influence_batch(g, [-3], budget)


def _select_sources_reference(graph, max_sources, base):
    """:func:`select_sources` as written before its graph-only part was memoised."""
    n = graph.n_nodes
    if n <= max_sources:
        return list(range(n))
    forced = {
        int(np.argmin(graph.degrees)),
        int(np.argmax(graph.degrees)),
        int(np.argmax(graph.eccentricities())),
    }
    remaining = [v for v in range(n) if v not in forced]
    extra_count = max(max_sources - len(forced), 0)
    extra = []
    if remaining and extra_count:
        rng = np.random.default_rng(derive_seed(base, estimators.SOURCES_TAG))
        extra = rng.choice(remaining, size=min(extra_count, len(remaining)), replace=False)
    return sorted(forced | {int(v) for v in extra})


def test_select_sources_memo_keeps_graphs_apart():
    """Alternating graphs of one size each get their own sample.

    clique-16 and cycle-16 force the same nodes; star-16 forces two, so a
    memo keyed by ``n`` rather than by the graph would hand it theirs.
    """
    graphs = [clique(16), cycle(16), star(16), path(16)]
    for round_index in range(3):
        for graph in graphs:
            for max_sources, base in ((6, round_index), (4, 2**63 + round_index), (40, 7)):
                assert select_sources(graph, max_sources, base) == _select_sources_reference(
                    graph, max_sources, base
                ), (graph.name, max_sources, base)
    assert len({id(graph._forced_sources_cache) for graph in graphs}) == len(graphs)


def test_select_sources_memo_survives_a_cycle_of_twenty_graphs(monkeypatch):
    """Each graph keeps its forced sources for as long as it lives.

    Twenty distinct connected graphs, more than a table1 sweep draws
    ``B(G)`` sources on, go through :func:`select_sources` in a cycle
    twice: the second pass recomputes nothing (no degree or
    eccentricity read), where a bounded LRU memo would miss every time.
    """
    graphs = [cycle(n) for n in range(7, 12)] + [path(n) for n in range(7, 12)]
    graphs += [star(n) for n in range(7, 12)] + [clique(n) for n in range(7, 12)]
    assert len({id(graph) for graph in graphs}) == 20
    first = [select_sources(graph, 4, 11) for graph in graphs]
    reads = []
    for name in ("eccentricities", "degrees"):
        original = getattr(Graph, name)
        if isinstance(original, property):
            spy = property(lambda graph, original=original: reads.append(graph) or original.fget(graph))
        else:
            spy = lambda graph, original=original: reads.append(graph) or original(graph)  # noqa: E731
        monkeypatch.setattr(Graph, name, spy)
    assert [select_sources(graph, 4, 11) for graph in graphs] == first
    assert reads == []


@pytest.mark.skipif(get_broadcast_epoch_kernel() is None, reason="no C compiler available")
def test_kernel_leg_builds_no_python_streams(monkeypatch):
    """On the kernel, private streams are seeded in C: no Generator exists.

    That holds for the integer-seeded broadcast wrappers too: they run on
    a private kernel row, never on a stream built from the seed.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("a Python stream was built on the kernel leg")

    monkeypatch.setattr(epidemics, "make_streams", refuse)
    monkeypatch.setattr(streams, "make_streams", refuse)
    monkeypatch.setattr(InteractionSource, "__init__", refuse)
    g = torus(5, 5)
    budget = default_broadcast_budget(g)
    assert broadcast_time_estimate(g, repetitions=3, max_sources=4, rng=9).value > 0
    assert len(batched_broadcast_estimates(g, [1, 2], 3, 4, budget)) == 2
    stopmasks = np.zeros((4, g.n_nodes), dtype=np.uint8)
    stopmasks[:, 12] = 1
    assert (run_epidemic_batch(g, [0, 3, 7, 24], [1, 2, 3, 4], budget) > 0).all()
    assert (
        run_epidemic_batch(g, [0, 3, 7, 24], [1, 2, 3, 4], budget, stopmasks=stopmasks) > 0
    ).all()
    for seeds in ([11, 12], [11, 12, 13, 14, 15]):
        assert (run_influence_batch(g, seeds, budget) > 0).all()
    for seed in (0, 5, 2**64 - 1):
        assert single_source_broadcast_steps(g, 3, rng=seed) > 0
        assert single_source_broadcast_steps(g, 3, rng=seed, max_steps=10) is None
        for distance in (1, 3):
            assert distance_k_propagation_steps(g, 3, distance, rng=seed) > 0


_WRAPPER_SEEDS = [0, 7, 2**63 + 5, 2**64 - 1, 2**70 + 1]


@pytest.mark.parametrize("budget", [None, "cut"])
@pytest.mark.parametrize("seed", _WRAPPER_SEEDS, ids=str)
def test_wrappers_read_the_same_stream_for_a_seed_and_its_generator(seed, budget):
    """``rng=seed`` and ``rng=np.random.default_rng(seed)`` give equal steps.

    The seed runs a width-1 batched stack (on a kernel row where the
    kernel can seed it), the Generator draws in NumPy: both read the
    stream of ``default_rng(seed)``, whether the run finishes or its
    budget cuts the broadcast one step short.  A bit generator or a
    ``SeedSequence`` over the seed is drawn in NumPy like the Generator,
    never reduced to a seed.
    """
    for graph, source in ((cycle(40), 3), (torus(6, 6), 0), (_renitent_star(), 5)):
        full = single_source_broadcast_steps(graph, source, rng=seed)
        assert full is not None
        max_steps = None if budget is None else full - 1

        def steps(make_rng):
            broadcast = single_source_broadcast_steps(
                graph, source, rng=make_rng(), max_steps=max_steps
            )
            return [broadcast] + [
                distance_k_propagation_steps(graph, source, k, rng=make_rng(), max_steps=max_steps)
                for k in (0, 1, 3)
            ]

        by_seed = steps(lambda: seed)
        for make_rng in (np.random.default_rng, np.random.PCG64, np.random.SeedSequence):
            assert by_seed == steps(lambda: make_rng(seed)), make_rng.__name__
        assert (by_seed[0] is None) == (budget is not None)


def test_seeds_that_are_not_integers_raise():
    """A float seed raises, as ``np.random.default_rng`` does; it is never truncated."""
    g = cycle(20)
    for call in (
        lambda: single_source_broadcast_steps(g, 0, rng=3.7),
        lambda: distance_k_propagation_steps(g, 0, 2, rng=3.0),
        lambda: broadcast_time_estimate(g, repetitions=2, rng=3.7),
    ):
        with pytest.raises(TypeError):
            call()


def test_batch_drivers_reject_float_seeds(leg):
    """Every batch driver raises on a float seed rather than truncating it,
    and runs NumPy integer seeds and ``uint64`` seed arrays as ints."""
    g = cycle(16)
    budget = default_broadcast_budget(g)
    drivers = {
        "epidemic": lambda seeds: run_epidemic_batch(g, [0] * len(seeds), seeds, budget),
        "influence": lambda seeds: run_influence_batch(g, seeds, budget),
        "hitting": lambda seeds: run_hitting_batch(g, [(3, 0)] * len(seeds), seeds),
        "meeting": lambda seeds: run_meeting_batch(g, [(0, 8)] * len(seeds), seeds),
    }
    for name, run in drivers.items():
        for seed in (3.7, np.float64(3.0)):
            with pytest.raises(TypeError):
                run([seed])
        expected = run([3, 4]).tolist()
        assert run([np.int64(3), np.uint32(4)]).tolist() == expected, name
        assert run(np.array([3, 4], dtype=np.uint64)).tolist() == expected, name


def test_epidemic_drivers_reject_bad_sources_and_budgets(leg):
    """Sources and budgets go through ``operator.index`` like seeds: a
    float raises ``TypeError`` rather than running as its floor (source
    3.7 used to run as source 3), and a source outside ``[0, n)`` or a
    negative budget raises ``ValueError``."""
    g = cycle(16)
    budget = default_broadcast_budget(g)
    for source in (3.7, np.float64(3.0)):
        with pytest.raises(TypeError):
            run_epidemic_batch(g, [source], [1], budget)
        with pytest.raises(TypeError):
            run_single_epidemic(g, source, InteractionSource(g, 1), budget)
    for source in (-1, 16):
        with pytest.raises(ValueError, match="out of range"):
            run_epidemic_batch(g, [source], [1], budget)
    drivers = {
        "epidemic": lambda steps: run_epidemic_batch(g, [0], [1], steps),
        "influence": lambda steps: run_influence_batch(g, [1], steps),
        "single": lambda steps: run_single_epidemic(g, 0, InteractionSource(g, 1), steps),
    }
    for name, run in drivers.items():
        with pytest.raises(ValueError, match="max_steps"):
            run(-1)
        with pytest.raises(TypeError):
            run(float(budget))
        assert run(np.int64(budget)) == run(budget), name
    expected = run_epidemic_batch(g, [3, 5], [1, 2], budget).tolist()
    assert run_epidemic_batch(g, [np.int64(3), np.uint8(5)], [1, 2], budget).tolist() == expected


def test_walk_drivers_reject_bad_ids_pairs_and_budgets(leg):
    """Walk node ids go through ``operator.index`` and a range check, in
    the batch drivers and in the single-trajectory wrappers: a float id
    raises ``TypeError`` (``(3.7, 0.2)`` used to run as ``(3, 0)``), an id
    outside ``[0, n)`` ``ValueError`` (it used to run the whole budget and
    report -1), a pair that is not two ids ``ValueError`` (a 3-tuple used
    to raise ``IndexError`` inside the stack), and so does a negative
    budget.  A walk that starts on its target checks its seed too."""
    g = cycle(16)
    for run in (run_hitting_batch, run_meeting_batch):
        for pair in ((3.7, 0.2), (3, np.float64(0.0))):
            with pytest.raises(TypeError):
                run(g, [pair], [1])
        for pair in ((0, 99), (-1, 3), (16, 0)):
            with pytest.raises(ValueError, match="out of range"):
                run(g, [(2, 5), pair], [1, 2])
        for pair in ((0, 1, 2), (0,), 5):
            with pytest.raises(ValueError, match="not two node ids"):
                run(g, [pair], [1])
        with pytest.raises(ValueError, match="max_steps"):
            run(g, [(3, 0)], [1], max_steps=-1)
        with pytest.raises(TypeError):
            run(g, [(3, 0)], [1], max_steps=1e6)
        expected = run(g, [(3, 0), (5, 9)], [1, 2]).tolist()
        assert run(g, [(np.int64(3), np.uint8(0)), (5, 9)], [1, 2]).tolist() == expected
        assert run(g, np.array([[3, 0], [5, 9]]), [1, 2]).tolist() == expected
    with pytest.raises(TypeError):
        run_hitting_batch(g, [(0, 0)], [3.7])
    with pytest.raises(TypeError):
        simulate_population_hitting_time(g, 3.7, 0.2, rng=1)
    with pytest.raises(TypeError):
        simulate_meeting_time(g, 0.5, 3, rng=1)
    for start, target in ((99, 99), (0, 99), (-1, 3)):
        with pytest.raises(ValueError, match="out of range"):
            simulate_population_hitting_time(g, start, target, rng=1)
        with pytest.raises(ValueError, match="out of range"):
            simulate_meeting_time(g, start, target, rng=1)
    with pytest.raises(ValueError, match="max_steps"):
        simulate_population_hitting_time(g, 3, 0, rng=1, max_steps=-1)
    with pytest.raises(ValueError, match="max_steps"):
        simulate_meeting_time(g, 3, 0, rng=1, max_steps=-1)
    assert simulate_population_hitting_time(g, np.int64(2), 2, rng=1) == 0


def test_single_hitting_walk_on_its_target_reports_zero(leg):
    """The single-stream hitting wrapper reports 0 for a walk that starts
    on its target and draws nothing, as the batch driver does (it used
    to run the walk to its first return: 18 steps on ``cycle(16)`` for
    seed 1).  Off the target both drivers agree on a seed's stream, and
    ids and budgets are checked either way."""
    g = cycle(16)
    for node in (2, np.int64(9)):
        stream = InteractionSource(g, 1)
        assert run_single_hitting(g, node, node, stream, 10**6) == 0
        assert stream.steps_emitted == 0
        assert run_hitting_batch(g, [(node, node)], [1]).tolist() == [0]
    single = run_single_hitting(g, 2, 5, InteractionSource(g, 1), 10**6)
    assert [single] == run_hitting_batch(g, [(2, 5)], [1]).tolist()
    stream = InteractionSource(g, 1)
    with pytest.raises(TypeError):
        run_single_hitting(g, 2.0, 2, stream, 10**6)
    with pytest.raises(ValueError, match="out of range"):
        run_single_hitting(g, 16, 16, stream, 10**6)
    with pytest.raises(ValueError, match="max_steps"):
        run_single_hitting(g, 2, 2, stream, -1)
    assert stream.steps_emitted == 0


def test_estimator_sources_are_checked_before_they_seed(leg):
    """The broadcast and distance-``k`` estimators pass every source
    through ``node_id`` before it seeds or indexes anything: a float
    raises ``TypeError`` (source 3.7 used to run as source 3, or raise
    ``IndexError`` from the BFS) and an id outside ``[0, n)``
    ``ValueError``.  Integer and NumPy-integer sources keep their seeds
    and results."""
    g = cycle(16)
    budget = default_broadcast_budget(g)
    runs = {
        "samples": lambda source: batched_broadcast_samples(g, [source], 2, 1, budget).tolist(),
        "expected": lambda source: expected_broadcast_time_from(
            g, source, repetitions=2, rng=1
        ).mean,
        "propagation": lambda source: propagation_time_from(
            g, source, 2, repetitions=2, rng=1
        ).mean,
        "violation": lambda source: empirical_violation_rate(
            g, 2, 40.0, trials=4, rng=1, sources=[source]
        ),
    }
    for name, run in runs.items():
        for source in (3.7, np.float64(3.0)):
            with pytest.raises(TypeError):
                run(source)
        for source in (-1, 16):
            with pytest.raises(ValueError, match="out of range"):
                run(source)
        assert run(np.int64(3)) == run(3), name
    assert runs["samples"](3) == [[100, 147]]
    assert runs["expected"](3) == 123.5
    # A one-node graph needs no draw, but its source is checked all the same.
    lone = Graph.from_edge_arrays(1, np.zeros(0, np.int32), np.zeros(0, np.int32))
    assert expected_broadcast_time_from(lone, 0, repetitions=2, rng=1).mean == 0.0
    with pytest.raises(TypeError):
        expected_broadcast_time_from(lone, 0.5, repetitions=2, rng=1)
    with pytest.raises(ValueError, match="out of range"):
        expected_broadcast_time_from(lone, 1, repetitions=2, rng=1)


def test_stop_masks_of_another_shape_raise(leg):
    """A batch takes ``(R, n)`` stop masks and a single epidemic an
    ``(n,)`` one; any other shape raises before anything is drawn."""
    g = cycle(64)
    for shape in ((3, 64), (2, 64, 2), (2, 3)):
        with pytest.raises(ValueError, match=re.escape(f"shape (2, 64), got {shape}")):
            run_epidemic_batch(g, [0, 5], [1, 2], 100_000, stopmasks=np.ones(shape, np.uint8))
    with pytest.raises(ValueError, match=re.escape("shape (64,), got (63,)")):
        run_single_epidemic(g, 0, InteractionSource(g, 1), 100_000, np.ones(63, np.uint8))


def test_stop_mask_entries_above_one_mark_targets(leg):
    """Any nonzero entry marks a target: masks marked 2 or 256 stop where
    their 0/1 form does, in stacks below and above the width at which the
    no-kernel leg switches from the scalar loop to the NumPy block."""
    g = cycle(16)
    count = epidemics._SCALAR_MAX_REPLICAS + 4
    sources = [t % 16 for t in range(count)]
    seeds = [derive_seed(4242, "marked", t) for t in range(count)]
    ones = np.zeros((count, 16), dtype=np.uint8)
    ones[np.arange(count), [(source + 5) % 16 for source in sources]] = 1
    budget = default_broadcast_budget(g)
    for width in (8, None):
        expected = run_epidemic_batch(
            g, sources, seeds, budget, stopmasks=ones, replica_batch=width
        ).tolist()
        assert all(steps > 0 for steps in expected)
        for marked in (2 * ones, 256 * ones.astype(np.int64)):
            steps = run_epidemic_batch(
                g, sources, seeds, budget, stopmasks=marked, replica_batch=width
            )
            assert steps.tolist() == expected, (width, int(marked.max()))


def _shared_generator_run(generator):
    """Shared-generator wrappers in a loop; returns results + final state.

    Covers epidemics that finish mid-block (in the first and in later
    blocks), distance-``k`` stops, budget exhaustion across several
    blocks, and the no-draw early returns.
    """
    outputs = []
    for graph in (cycle(40), torus(6, 6), clique(12)):
        for source in (0, graph.n_nodes // 2):
            outputs.append(single_source_broadcast_steps(graph, source, rng=generator))
            outputs.append(distance_k_propagation_steps(graph, source, 1, rng=generator))
            outputs.append(distance_k_propagation_steps(graph, source, 3, rng=generator))
            outputs.append(distance_k_propagation_steps(graph, source, 0, rng=generator))
            outputs.append(
                single_source_broadcast_steps(graph, source, rng=generator, max_steps=700)
            )
    outputs.append(single_source_broadcast_steps(cycle(80), 5, rng=generator))
    outputs.append(single_source_broadcast_steps(cycle(200), 5, rng=generator, max_steps=5000))
    return outputs, _plain(generator.bit_generator.state)


def _plain(value):
    """A bit-generator state with its arrays (Philox) as lists, for ``==``."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("bit_generator", ["pcg64", "philox"])
def test_caller_held_generator_matches_fallback(bit_generator, monkeypatch):
    """A shared Generator ends exactly where the NumPy leg leaves it.

    A caller-held generator always draws whole blocks in NumPy, kernel or
    not, so both the returned steps and the final ``bit_generator.state``
    equal the no-kernel run's.
    """

    def make():
        if bit_generator == "philox":
            return np.random.Generator(np.random.Philox(2024))
        return np.random.default_rng(2024)

    kernel_outputs, kernel_state = _shared_generator_run(make())
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    reset_kernel_cache()
    try:
        fallback_outputs, fallback_state = _shared_generator_run(make())
    finally:
        monkeypatch.undo()
        reset_kernel_cache()
    assert kernel_outputs == fallback_outputs
    assert kernel_outputs[-2] > 1024 and kernel_outputs[-1] is None
    assert kernel_state == fallback_state


class TestDistributionalFidelity:
    """Batched estimators match exact values / the serial estimator's
    distribution on a seeded grid."""

    def test_hitting_times_match_exact(self):
        g = cycle(6)
        exact = population_hitting_times_to(g, 0)[3]
        samples = simulate_population_hitting_times(g, [(3, 0)] * 60, rng=11)
        assert (samples >= 0).all()
        assert float(samples.mean()) == pytest.approx(exact, rel=0.35)

    def test_meeting_times_match_exact(self):
        g = path(4)
        exact = exact_meeting_times(g)[0, 3]
        samples = simulate_meeting_times(g, [(0, 3)] * 60, rng=12)
        assert (samples >= 0).all()
        assert float(samples.mean()) == pytest.approx(exact, rel=0.35)

    def test_broadcast_matches_trajectory_serial_distribution(self):
        """The batched estimator's mean matches the pre-refactor
        trajectory-serial estimator (re-implemented here verbatim) on a
        seeded grid of independent runs."""
        g = clique(16)
        serial_mean = float(
            np.mean([_serial_broadcast_steps(g, 0, seed) for seed in range(40)])
        )
        batched = expected_broadcast_time_from(g, 0, repetitions=40, rng=13)
        assert batched.mean == pytest.approx(serial_mean, rel=0.25)

    def test_full_information_dominates_single_source(self):
        g = clique(12)
        full = full_information_time(g, repetitions=3, rng=14)
        single = expected_broadcast_time_from(g, 0, repetitions=3, rng=14)
        assert full.mean >= single.mean * 0.8


def _reference_influence_steps(graph: Graph, seed: int, max_steps: int) -> int:
    """Naive set-based influence process on one trajectory stream.

    Replays the engine's exact stream/block schedule but tracks influencer
    sets as Python sets and re-scans all of them after every merge — the
    slowest, most obviously correct implementation.
    """
    from repro.analytics import block_size, make_streams

    n = graph.n_nodes
    stream = make_streams(graph, [seed])[0]
    directed_u, directed_v = directed_tables(graph)
    sets = [{v} for v in range(n)]
    everyone = set(range(n))
    consumed = 0
    round_index = 0
    while consumed < max_steps:
        block = min(block_size(round_index), max_steps - consumed)
        draws = np.empty(block, dtype=np.int64)
        stream.draw_pair_indices(draws)
        iu, iv = directed_u.take(draws), directed_v.take(draws)
        for i, (u, v) in enumerate(zip(iu.tolist(), iv.tolist()), start=1):
            merged = sets[u] | sets[v]
            sets[u] = merged
            sets[v] = set(merged)
            if all(s == everyone for s in sets):
                return consumed + i
        consumed += block
        round_index += 1
    return -1


def _serial_broadcast_steps(graph: Graph, source: int, seed: int) -> int:
    """The pre-refactor trajectory-serial epidemic loop (reference)."""
    n = graph.n_nodes
    scheduler = RandomScheduler(graph, rng=seed)
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    informed_count = 1
    step = 0
    while True:
        initiators, responders = scheduler.next_arrays(8192)
        for u, v in zip(initiators.tolist(), responders.tolist()):
            step += 1
            iu, iv = informed[u], informed[v]
            if iu != iv:
                informed[v if iu else u] = True
                informed_count += 1
                if informed_count == n:
                    return step


class TestInfluenceCountFix:
    """run_until_full's incremental fully-informed count is exact."""

    def test_matches_stepwise_scan(self):
        g = star(7)
        seed = 77
        fixed = InfluenceProcess(g, rng=np.random.default_rng(seed))
        steps = fixed.run_until_full(max_steps=100_000)
        # Replay the same stream one interaction at a time and find the
        # first step where a brute-force scan sees every bitset full.
        replay = InfluenceProcess(g, rng=np.random.default_rng(seed))
        full_mask = (1 << g.n_nodes) - 1
        brute = None
        for _ in range(steps + 10):
            replay.advance(1)
            if all(b == full_mask for b in replay._bitsets):
                brute = replay.step
                break
        assert brute == steps

    def test_already_full_returns_current_step(self):
        g = path(2)
        process = InfluenceProcess(g, rng=0)
        first = process.run_until_full(max_steps=100)
        assert first is not None
        assert process.run_until_full(max_steps=100) == process.step

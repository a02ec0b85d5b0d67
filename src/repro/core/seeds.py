"""Deterministic seed-stream derivation for Monte-Carlo experiments.

Every repeated measurement in this package draws its per-trial scheduler
seeds from one *base* seed.  The derivation scheme below is the single
source of truth for how that happens, and it is designed around one
invariant:

    **the seed of trial ``t`` is a pure function of (base seed, domain
    tag, trial index) — never of the batch size, the shard size, the
    number of worker processes, or how many trials run in total.**

This is what lets the parallel orchestrator
(:mod:`repro.orchestration.runner`) split a ``k``-trial measurement into
arbitrary shards and still produce results bit-identical to the serial
path: shard boundaries change which process *executes* trial ``t``, but
never which seed trial ``t`` receives.

Earlier revisions derived trial seeds as ``base + 7919 * t`` and graph
seeds as ``base + 101 * i``.  Those affine streams are batch-independent
but collide across purposes and across nearby base seeds (``base=0,
t=1`` equals ``base=7919, t=0``; a graph seed can equal a trial seed).
:func:`derive_seed` instead mixes the base seed, a domain tag and the
indices through SplitMix64, a 64-bit finalizer with full avalanche
(every input bit flips each output bit with probability ~1/2), so
streams for different purposes are statistically independent.

The scheme, documented also in ``docs/ARCHITECTURE.md``:

* graph build for size index ``i``:        ``derive_seed(base, "graph", i)``
* measurement base for size index ``i``:   ``derive_seed(base, "measure", i)``
* scheduler seed of trial ``t``:           ``derive_seed(measure_base, "trial", t)``

All derived seeds are integers in ``[0, 2^63)`` and feed
``numpy.random.default_rng`` directly.
"""

from __future__ import annotations

import zlib
from typing import Iterable, List, Sequence, Union

import numpy as np

_MASK64 = (1 << 64) - 1
_SEED_MASK = _MASK64 >> 1
_GOLDEN = 0x9E3779B97F4A7C15

SeedWord = Union[int, str]


def _splitmix64(x: int) -> int:
    """The SplitMix64 finalizer (Steele, Lea & Flood 2014)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` over a ``uint64`` array (array arithmetic wraps
    silently; numpy's *scalar* uint64 arithmetic would warn)."""
    shift30, shift27, shift31 = _U64_SHIFTS
    z = values + _U64_GOLDEN
    z ^= z >> shift30
    z *= _U64_MIX1
    z ^= z >> shift27
    z *= _U64_MIX2
    z ^= z >> shift31
    return z


def _word_to_int(word: SeedWord) -> int:
    if isinstance(word, str):
        # Stable across processes and Python versions (unlike hash()).
        return zlib.crc32(word.encode("utf-8"))
    return int(word) & _MASK64


def _fold(state: int, words: Iterable[SeedWord]) -> int:
    """Fold ``words`` into a SplitMix64 chain state (the one folding loop)."""
    for word in words:
        state = _splitmix64(state ^ _word_to_int(word))
    return state


def seed_prefix(base: SeedWord, *words: SeedWord) -> int:
    """The full 64-bit chain state after folding ``base`` and ``words``.

    ``derive_seed(base, *words, *more) == prefixed_seed(seed_prefix(base,
    *words), *more)``, so seeds that share a prefix (one estimate's
    trajectories, say) fold it once.
    """
    return _fold(_splitmix64(_word_to_int(base)), words)


def prefixed_seed(prefix: int, *words: SeedWord) -> int:
    """:func:`derive_seed` continued from a :func:`seed_prefix` state."""
    return _fold(prefix, words) & _SEED_MASK


def prefixed_seed_grid(
    prefix: Union[int, Sequence[int]], outer: Sequence[int], inner: int
) -> np.ndarray:
    """``prefixed_seed(prefix, a, b)`` for ``a`` in ``outer``, ``b`` in ``range(inner)``.

    Row-major (``outer``-major) as one ``uint64`` array, folded in a
    single vectorised pass: the same seeds as the scalar chain, without
    a Python fold per seed.  ``prefix`` is one chain state, or a sequence
    of states aligned with ``outer`` (row ``i`` continues ``prefix[i]``),
    so grids of several prefixes fold in one pass.
    """
    words = np.array([int(word) & _MASK64 for word in outer], dtype=np.uint64)
    rows = splitmix64_array(words ^ np.asarray(prefix, dtype=np.uint64))
    grid = splitmix64_array(rows[:, None] ^ np.arange(inner, dtype=np.uint64))
    return grid.ravel() & np.uint64(_SEED_MASK)


def derive_seed(base: SeedWord, *words: SeedWord) -> int:
    """Mix ``base`` and ``words`` into one well-spread 63-bit seed.

    ``words`` are domain tags (strings) and indices (integers); the result
    is a pure function of its arguments.  Clearing the top bit keeps the
    value a valid seed for every consumer (numpy accepts any non-negative
    integer).
    """
    return seed_prefix(base, *words) & _SEED_MASK


def trial_seed(measure_base: SeedWord, trial_index: int) -> int:
    """Scheduler seed for trial ``trial_index`` of one measurement.

    Depends only on ``(measure_base, trial_index)`` — the shard-invariance
    invariant the orchestrator relies on.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    return derive_seed(measure_base, "trial", trial_index)


def trial_seeds(measure_base: SeedWord, trial_indices: Iterable[int]) -> List[int]:
    """:func:`trial_seed` of every index in ``trial_indices`` (shard streams).

    The ``(measure_base, "trial")`` prefix is folded once; each seed then
    costs one SplitMix64 round.
    """
    prefix = seed_prefix(measure_base, "trial")
    seeds = []
    for index in trial_indices:
        if index < 0:
            raise ValueError("trial_index must be non-negative")
        seeds.append(prefixed_seed(prefix, index))
    return seeds


def graph_seed(base: SeedWord, size_index: int) -> int:
    """Seed used to build the (possibly random) graph for size index ``i``."""
    return derive_seed(base, "graph", size_index)


def measure_seed(base: SeedWord, size_index: int) -> int:
    """Per-size measurement base from which trial seeds are derived."""
    return derive_seed(base, "measure", size_index)

"""Tests for the deterministic seed-stream derivation (repro.core.seeds)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seeds import (
    derive_seed,
    graph_seed,
    measure_seed,
    prefixed_seed,
    seed_prefix,
    trial_seed,
    trial_seeds,
)

_WORDS = st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.text(max_size=8))


class TestDeriveSeed:
    def test_pure_function(self):
        assert derive_seed(0, "trial", 3) == derive_seed(0, "trial", 3)
        assert derive_seed(17, "graph") == derive_seed(17, "graph")

    def test_sensitive_to_every_word(self):
        base = derive_seed(0, "trial", 0)
        assert derive_seed(1, "trial", 0) != base
        assert derive_seed(0, "graph", 0) != base
        assert derive_seed(0, "trial", 1) != base

    def test_range(self):
        for value in (derive_seed(0), derive_seed(2**63, "x", 10**9), derive_seed(-1, 5)):
            assert 0 <= value < 2**63

    def test_negative_ints_fold_to_two_complement(self):
        # Negative words are masked to their 64-bit two's complement, so
        # the uint64 seed grids (prefixed_seed_grid) agree with the chain.
        assert derive_seed(-1) == derive_seed(2**64 - 1)
        assert derive_seed(0, -7, "tag") == derive_seed(0, 2**64 - 7, "tag")
        assert derive_seed(-1) != derive_seed(1)

    def test_oversized_words_fold_to_low_bits(self):
        # Words beyond 64 bits keep only their low 64 bits — anything
        # else could not fold in the uint64 seed grids.
        assert derive_seed(2**64 + 17) == derive_seed(17)
        assert derive_seed(0, 2**100 + 5) == derive_seed(0, (2**100 + 5) % 2**64)
        assert derive_seed(2**64) == derive_seed(0)

    def test_empty_word_list(self):
        # derive_seed(base) is one SplitMix64 pass over the folded base
        # with the top bit cleared; pin the exact values.
        from repro.core.seeds import _splitmix64, _word_to_int

        for base in (0, 1, 12345, -3, 2**64 + 9, "tag"):
            expected = _splitmix64(_word_to_int(base)) & (2**63 - 1)
            assert derive_seed(base) == expected
        assert derive_seed(0) == 16294208416658607535 & (2**63 - 1)

    @settings(max_examples=80, deadline=None)
    @given(base=_WORDS, head=st.lists(_WORDS, max_size=3), tail=st.lists(_WORDS, max_size=3))
    def test_prefix_then_suffix_equals_one_fold(self, base, head, tail):
        assert prefixed_seed(seed_prefix(base, *head), *tail) == derive_seed(
            base, *head, *tail
        )

    def test_feeds_numpy(self):
        rng = np.random.default_rng(derive_seed(0, "trial", 0))
        assert rng.integers(0, 100) >= 0

    def test_string_tags_stable_across_processes(self):
        # crc32-based, not hash()-based: the exact value is pinned so a
        # PYTHONHASHSEED change (or a worker process) can never shift it.
        assert derive_seed(0, "trial", 0) == derive_seed(0, "trial", 0)
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.core.seeds import derive_seed; print(derive_seed(0, 'trial', 0))"],
            capture_output=True, text=True, env=env,
        )
        assert int(out.stdout.strip()) == derive_seed(0, "trial", 0)


class TestTrialSeeds:
    def test_independent_of_batch_and_shard(self):
        """Seed of trial t depends only on (base, t) — the orchestrator invariant."""
        full = trial_seeds(42, range(12))
        shard_a = trial_seeds(42, range(0, 5))
        shard_b = trial_seeds(42, range(5, 12))
        assert shard_a + shard_b == full
        singles = [trial_seed(42, t) for t in range(12)]
        assert singles == full

    def test_no_collisions_across_streams(self):
        seeds = set()
        for t in range(2000):
            seeds.add(trial_seed(0, t))
        for i in range(100):
            seeds.add(graph_seed(0, i))
            seeds.add(measure_seed(0, i))
        assert len(seeds) == 2200

    def test_nearby_bases_do_not_alias(self):
        # The retired affine derivation (see repro.core.seeds) collided
        # across nearby bases — e.g. base 0 and base 7919 shared values;
        # the mixed scheme keeps such streams disjoint.
        stream_a = set(trial_seeds(0, range(500)))
        stream_b = set(trial_seeds(7919, range(500)))
        assert not (stream_a & stream_b)

    def test_negative_trial_index_rejected(self):
        with pytest.raises(ValueError):
            trial_seed(0, -1)
        with pytest.raises(ValueError):
            trial_seeds(0, [3, -1])

    @pytest.mark.parametrize("base", [0, 1, 2**62 + 7, 2**63, 2**64 - 1])
    def test_prefix_folded_once_equals_trial_seed(self, base):
        """One fold of the ``(base, "trial")`` prefix gives every seed
        :func:`trial_seed` gives, in the order of the indices."""
        indices = [0, 1, 2, 7, 0, 2**31, 2**32 + 5, 2**62, 2**63 + 1, 2**64 - 1, 2**70 + 3]
        assert trial_seeds(base, indices) == [trial_seed(base, t) for t in indices]
        assert trial_seeds(base, range(990)) == [trial_seed(base, t) for t in range(990)]
        assert trial_seeds(base, []) == []

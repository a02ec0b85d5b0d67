"""Tests for Configuration and initial-configuration helpers."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Configuration,
    initial_configuration_from_inputs,
    uniform_initial_configuration,
)
from repro.protocols import TokenLeaderElection


class TestBasics:
    def test_length_and_indexing(self):
        config = Configuration(["a", "b", "a"])
        assert len(config) == 3
        assert config[1] == "b"
        assert list(config) == ["a", "b", "a"]

    def test_step_recorded(self):
        config = Configuration(["x"], step=17)
        assert config.step == 17

    def test_states_immutable_tuple(self):
        config = Configuration(["a", "b"])
        assert isinstance(config.states, tuple)

    def test_equality_and_hash(self):
        assert Configuration(["a", "b"]) == Configuration(["a", "b"])
        assert hash(Configuration(["a"])) == hash(Configuration(["a"]))
        assert Configuration(["a", "b"]) != Configuration(["b", "a"])

    def test_equality_other_type(self):
        assert Configuration(["a"]) != ["a"]

    def test_repr_truncates(self):
        config = Configuration(list(range(20)))
        assert "..." in repr(config)


class TestAggregations:
    def test_state_counts(self):
        config = Configuration(["a", "b", "a", "c"])
        counts = config.state_counts()
        assert counts["a"] == 2
        assert counts["c"] == 1

    def test_count_and_density(self):
        config = Configuration(["a"] * 3 + ["b"])
        assert config.count("a") == 3
        assert config.density("a") == pytest.approx(0.75)
        assert config.density("missing") == 0.0

    def test_nodes_in_state(self):
        config = Configuration(["a", "b", "a"])
        assert config.nodes_in_state("a") == (0, 2)

    def test_distinct_states(self):
        assert Configuration(["a", "b", "a"]).distinct_states() == 2

    def test_alpha_density(self):
        config = Configuration(["a"] * 5 + ["b"] * 5)
        assert config.is_alpha_dense(["a", "b"], alpha=0.5)
        assert not config.is_alpha_dense(["a", "b"], alpha=0.6)

    def test_fully_alpha_dense(self):
        config = Configuration(["a"] * 5 + ["b"] * 5)
        assert config.is_fully_alpha_dense(["a", "b"], alpha=0.4)
        assert not config.is_fully_alpha_dense(["a"], alpha=0.4)

    def test_replace(self):
        config = Configuration(["a", "a", "a"])
        updated = config.replace({1: "b"}, step=5)
        assert updated[1] == "b"
        assert updated.step == 5
        assert config[1] == "a"  # original untouched

    def test_outputs(self):
        protocol = TokenLeaderElection()
        config = uniform_initial_configuration(protocol, 4)
        outputs = config.outputs(protocol)
        assert all(o == "leader" for o in outputs)


class TestInitialConfigurations:
    def test_uniform_initial(self):
        protocol = TokenLeaderElection()
        config = uniform_initial_configuration(protocol, 6)
        assert len(config) == 6
        assert config.distinct_states() == 1
        assert config.step == 0

    def test_from_inputs(self):
        protocol = TokenLeaderElection()
        config = initial_configuration_from_inputs(protocol, [True, False, True])
        assert config.count(protocol.initial_state(True)) == 2
        assert config.count(protocol.initial_state(False)) == 1


class TestLazyConfiguration:
    """``Configuration.from_codes``: a code row decoded on first use."""

    STATES = ("a", "b", "a", "c", "a", "b", "c", "a")

    def lazy(self, step=5):
        decodes = []

        def decode(codes):
            decodes.append(codes)
            return [self.STATES[c] for c in codes]

        return Configuration.from_codes(list(range(len(self.STATES))), decode, step), decodes

    def test_equals_its_eager_twin_under_every_public_method(self):
        eager = Configuration(self.STATES, step=5)
        protocol = TokenLeaderElection()
        probes = {
            "states": lambda c: c.states,
            "getitem": lambda c: (c[0], c[3], c[-1]),
            "len": len,
            "iter": list,
            "state_counts": lambda c: c.state_counts(),
            "count": lambda c: c.count("a"),
            "distinct_states": lambda c: c.distinct_states(),
            "nodes_in_state": lambda c: c.nodes_in_state("b"),
            "density": lambda c: c.density("a"),
            "is_alpha_dense": lambda c: c.is_alpha_dense(["a", "b"], 0.25),
            "is_fully_alpha_dense": lambda c: c.is_fully_alpha_dense(["a", "b", "c"], 0.2),
            "outputs": lambda c: c.outputs(protocol),
            "replace": lambda c: (c.replace({1: "z"}), c.replace({1: "z"}).step),
            "replace-step": lambda c: c.replace({}, step=9).step,
            "hash": hash,
            "repr": repr,
        }
        for name, probe in probes.items():
            lazy, decodes = self.lazy()
            assert probe(lazy) == probe(eager), name
            assert len(decodes) == 1, name

    def test_equality_both_ways(self):
        eager = Configuration(self.STATES, step=5)
        assert self.lazy()[0] == eager
        assert eager == self.lazy()[0]
        assert self.lazy()[0] == self.lazy()[0]
        assert self.lazy()[0] != Configuration(self.STATES[::-1])
        assert Configuration(self.STATES[::-1]) != self.lazy()[0]
        assert len({self.lazy()[0], eager}) == 1

    def test_pickle_round_trip_carries_decoded_states(self):
        lazy, decodes = self.lazy(step=12)
        restored = pickle.loads(pickle.dumps(lazy))
        assert len(decodes) == 1
        assert restored == Configuration(self.STATES)
        assert restored.step == 12
        assert restored._codes is None and restored._decode is None

    def test_decode_runs_at_most_once(self):
        lazy, decodes = self.lazy()
        assert decodes == []
        for _ in range(3):
            assert lazy.states == self.STATES
            assert len(lazy) == len(self.STATES)
            hash(lazy)
        assert len(decodes) == 1
        assert lazy._codes is None and lazy._decode is None

    def test_step_is_kept(self):
        lazy, decodes = self.lazy(step=17)
        assert lazy.step == 17 and decodes == []
        assert Configuration.from_codes([0], lambda codes: ["a"]).step == 0


@settings(max_examples=30, deadline=None)
@given(states=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30))
def test_counts_sum_to_population(states):
    config = Configuration(states)
    assert sum(config.state_counts().values()) == len(states)
    assert sum(config.density(s) for s in set(states)) == pytest.approx(1.0)

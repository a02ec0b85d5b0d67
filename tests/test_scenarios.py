"""Tests for the scenario schema and registry (repro.orchestration)."""

from __future__ import annotations

import pytest

from repro.orchestration import (
    ProtocolConfig,
    Scenario,
    ScenarioError,
    available_scenarios,
    get_scenario,
    register_scenario,
)


def tiny_scenario(**overrides):
    fields = dict(
        name="tiny",
        workload="star",
        sizes=(6, 10),
        protocols=(ProtocolConfig("star"),),
        repetitions=2,
        seed=0,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestProtocolConfig:
    def test_unknown_builder_rejected(self):
        with pytest.raises(ScenarioError):
            ProtocolConfig("bogus")

    def test_builds_spec(self):
        spec = ProtocolConfig("token").build_spec()
        assert spec.name == "token-6state"

    def test_params_travel(self):
        config = ProtocolConfig("identifier", (("identifier_bits", 6),))
        protocol = config.build_spec().factory(
            __import__("repro.graphs", fromlist=["clique"]).clique(8), 0
        )
        assert protocol.identifier_bits == 6

    def test_round_trip(self):
        config = ProtocolConfig("fast", (("tau", 0.7),))
        assert ProtocolConfig.from_dict(config.as_dict()) == config

    def test_from_spec_recovers_builder_params(self):
        from repro.experiments import identifier_protocol_spec

        config = ProtocolConfig.from_spec(identifier_protocol_spec(identifier_bits=5))
        assert config.builder == "identifier"
        assert dict(config.params)["identifier_bits"] == 5

    def test_params_canonicalised_against_builder_defaults(self):
        """Empty params and spelled-out defaults are the same config (and hash)."""
        from repro.experiments import fast_protocol_spec, identifier_protocol_spec

        assert ProtocolConfig("identifier") == ProtocolConfig.from_spec(
            identifier_protocol_spec()
        )
        assert ProtocolConfig("fast") == ProtocolConfig.from_spec(fast_protocol_spec())
        assert ProtocolConfig("fast", (("tau", 0.5),)) == ProtocolConfig("fast")

    def test_unknown_param_rejected(self):
        with pytest.raises(ScenarioError, match="no parameter"):
            ProtocolConfig("fast", (("bogus", 1),))

    def test_from_spec_rejects_raw_factory(self):
        from repro.experiments import ProtocolSpec

        raw = ProtocolSpec(name="custom", factory=lambda graph, seed: None)
        with pytest.raises(ScenarioError):
            ProtocolConfig.from_spec(raw)


class TestScenario:
    def test_validation(self):
        tiny_scenario().validate()
        with pytest.raises(KeyError):
            tiny_scenario(workload="bogus").validate()
        with pytest.raises(ScenarioError):
            tiny_scenario(sizes=())
        with pytest.raises(ScenarioError):
            tiny_scenario(repetitions=0)

    def test_config_round_trip(self):
        scenario = tiny_scenario()
        rebuilt = Scenario.from_config(scenario.config_dict())
        assert rebuilt.config_dict() == scenario.config_dict()
        assert rebuilt.content_hash() == scenario.content_hash()
        described = {**scenario.config_dict(), "description": "round trip"}
        assert Scenario.from_config(described).content_hash() == scenario.content_hash()

    def test_config_with_an_unknown_key_raises_naming_it(self):
        config = {**tiny_scenario().config_dict(), "threads": 2, "bogus": 1}
        with pytest.raises(ScenarioError, match="no field 'bogus', 'threads'; accepts: name, "):
            Scenario.from_config(config)

    def test_content_hash_stable(self):
        assert tiny_scenario().content_hash() == tiny_scenario().content_hash()

    def test_content_hash_covers_every_measured_field(self):
        base = tiny_scenario().content_hash()
        assert tiny_scenario(sizes=(6, 12)).content_hash() != base
        assert tiny_scenario(repetitions=3).content_hash() != base
        assert tiny_scenario(seed=1).content_hash() != base
        assert tiny_scenario(step_budget_multiplier=90.0).content_hash() != base
        assert tiny_scenario(protocols=(ProtocolConfig("token"),)).content_hash() != base
        assert (
            tiny_scenario(
                protocols=(ProtocolConfig("identifier", (("identifier_bits", 9),)),)
            ).content_hash()
            != tiny_scenario(protocols=(ProtocolConfig("identifier"),)).content_hash()
        )

    def test_description_not_in_hash(self):
        assert (
            tiny_scenario(description="a").content_hash()
            == tiny_scenario(description="b").content_hash()
        )

    def test_with_overrides(self):
        scenario = tiny_scenario().with_overrides(sizes=[8, 14], repetitions=4)
        assert scenario.sizes == (8, 14)
        assert scenario.repetitions == 4
        assert scenario.name == "tiny"

    @pytest.mark.parametrize("key", ["threads", "shards", "shard_workers"])
    def test_with_overrides_rejects_unknown_fields_by_name(self, key):
        with pytest.raises(ScenarioError, match=f"no field '{key}'.*accepts: name, "):
            tiny_scenario().with_overrides(**{key: 2})

    @pytest.mark.parametrize("backend", ["native", "scalar", "vector"])
    def test_backend_is_the_constant_auto(self, backend):
        """``backend`` stays in the canonical JSON as ``"auto"`` (hash
        continuity); any other value raises, naming the field, through
        the constructor, ``with_overrides`` and ``from_config``."""
        assert tiny_scenario().config_dict()["backend"] == "auto"
        message = f"backend must be 'auto', got '{backend}'"
        with pytest.raises(ScenarioError, match=message):
            tiny_scenario(backend=backend)
        with pytest.raises(ScenarioError, match=message):
            tiny_scenario().with_overrides(backend=backend)
        with pytest.raises(ScenarioError, match=message):
            Scenario.from_config({**tiny_scenario().config_dict(), "backend": backend})

    @pytest.mark.parametrize("engine", ["warp", "native", "", "compiled"])
    def test_unknown_engine_rejected_by_name(self, engine):
        """An ``engine`` outside ``ENGINES`` raises, naming the field and
        the accepted values, through the constructor, ``with_overrides``
        and ``from_config``."""
        message = f"engine must be one of 'reference', 'auto', got '{engine}'"
        with pytest.raises(ScenarioError, match=message):
            tiny_scenario(engine=engine)
        with pytest.raises(ScenarioError, match=message):
            tiny_scenario().with_overrides(engine=engine)
        with pytest.raises(ScenarioError, match=message):
            Scenario.from_config({**tiny_scenario().config_dict(), "engine": engine})


class TestRegistry:
    def test_table1_families_reregistered(self):
        names = available_scenarios()
        for name in (
            "table1-clique",
            "table1-cycle",
            "table1-dense-random",
            "table1-regular",
            "table1-torus",
            "table1-stars",
            "table1-renitent",
        ):
            assert name in names

    def test_at_least_three_scenarios_beyond_table1(self):
        beyond = [name for name in available_scenarios() if not name.startswith("table1-")]
        assert len(beyond) >= 3
        for name in ("hypercube-expander", "pref-attach-hubs", "geometric-sensors"):
            assert name in beyond

    def test_every_registered_scenario_validates(self):
        for name in available_scenarios():
            get_scenario(name).validate()

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(KeyError, match="table1-clique"):
            get_scenario("bogus")

    def test_no_silent_overwrite(self):
        scenario = get_scenario("table1-clique")
        with pytest.raises(ValueError):
            register_scenario(scenario)
        register_scenario(scenario, replace=True)  # idempotent with replace

"""Golden-value regression tests for seeded measurements (schema v2).

PRs 1–3 each changed every seeded trajectory as a *documented* side
effect of an engine refactor (scheduler refill size, SplitMix64 seed
derivation, per-trajectory child streams).  Those changes were
intentional — but nothing would have caught an *unintentional* one.
This module pins the current seeded values of a small scenario matrix as
JSON fixtures under ``tests/fixtures/``: a refactor that silently
changes seeded results now fails loudly here instead of shipping.

If a change to seeded values is *intended* (a schema bump), regenerate
the fixtures and say so in the commit::

    PYTHONPATH=src python tests/test_golden_regression.py regenerate

Values are compared exactly (``==`` on the parsed JSON): Python floats
round-trip through JSON losslessly, so these are bit-level pins.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.simulator import run_leader_election
from repro.dynamics import EpochSchedule
from repro.graphs import clique, cycle, star, torus
from repro.orchestration import get_scenario, run_scenario
from repro.propagation.broadcast import broadcast_time_estimate, full_information_time
from repro.protocols.identifier import IdentifierLeaderElection
from repro.protocols.star import StarLeaderElection
from repro.protocols.tokens import TokenLeaderElection

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_seeded_values.json"

#: Bump alongside RESULT_SCHEMA_VERSION when seeded values change by design.
GOLDEN_SCHEMA = 2


def _simulation_record(result):
    return {
        "stabilized": bool(result.stabilized),
        "stabilization_step": int(result.stabilization_step),
        "certified_step": int(result.certified_step),
        "last_output_change_step": int(result.last_output_change_step),
        "steps_executed": int(result.steps_executed),
        "leaders": int(result.leaders),
        "distinct_states": int(result.distinct_states_observed),
    }


def _broadcast_record(estimate):
    return {
        "value": float(estimate.value),
        "per_source": {str(k): float(v) for k, v in sorted(estimate.per_source.items())},
        "sources": [int(s) for s in estimate.sources],
    }


def _scenario_record(name, sizes, repetitions):
    scenario = get_scenario(name).with_overrides(sizes=sizes, repetitions=repetitions)
    result = run_scenario(scenario, jobs=1, cache=False)
    # Only the measured values are pinned — not the content hash, which
    # legitimately moves with package-version bumps.
    return {"scenario": name, "sweeps": result.to_canonical_dict()["sweeps"]}


def _dynamic_schedule(n):
    return EpochSchedule.from_graphs([cycle(n), clique(n)], epoch_length=64, repeat=True)


# Each case is (key, thunk).  Keep cases fast: the whole matrix must stay
# in the low seconds so the pin runs in every tier-1 invocation.
GOLDEN_CASES = (
    (
        "broadcast/clique16-r3-s7",
        lambda: _broadcast_record(broadcast_time_estimate(clique(16), repetitions=3, rng=7)),
    ),
    (
        "broadcast/cycle12-r3-s7",
        lambda: _broadcast_record(broadcast_time_estimate(cycle(12), repetitions=3, rng=7)),
    ),
    (
        "broadcast/torus16-r2-s3",
        lambda: _broadcast_record(broadcast_time_estimate(torus(4, 4), repetitions=2, rng=3)),
    ),
    (
        "broadcast/dynamic-clique16-r3-s7",
        lambda: _broadcast_record(
            broadcast_time_estimate(
                clique(16), repetitions=3, rng=7, schedule=_dynamic_schedule(16)
            )
        ),
    ),
    (
        "fullinfo/clique12-r3-s11",
        lambda: {
            "mean": float(full_information_time(clique(12), repetitions=3, rng=11).mean)
        },
    ),
    (
        "election/token-clique16-s5",
        lambda: _simulation_record(
            run_leader_election(TokenLeaderElection(), clique(16), rng=5, engine="auto")
        ),
    ),
    (
        "election/token-dynamic-clique16-s5",
        lambda: _simulation_record(
            run_leader_election(
                TokenLeaderElection(),
                clique(16),
                rng=5,
                engine="auto",
                schedule=_dynamic_schedule(16),
            )
        ),
    ),
    (
        "election/identifier-cycle12-s9",
        lambda: _simulation_record(
            run_leader_election(
                IdentifierLeaderElection(12, regular=True),
                cycle(12),
                rng=9,
                engine="auto",
            )
        ),
    ),
    (
        "election/star-star12-s1",
        lambda: _simulation_record(
            run_leader_election(StarLeaderElection(), star(12), rng=1, engine="auto")
        ),
    ),
    (
        "scenario/table1-stars-6x10-r2",
        lambda: _scenario_record("table1-stars", (6, 10), 2),
    ),
    (
        "scenario/table1-clique-8-r1",
        lambda: _scenario_record("table1-clique", (8,), 1),
    ),
    (
        "scenario/dynamic-epoch-mix-12-r2",
        lambda: _scenario_record("dynamic-epoch-mix", (12,), 2),
    ),
)


def _compute_all():
    return {key: thunk() for key, thunk in GOLDEN_CASES}


def _load_fixture():
    with open(FIXTURE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    if not FIXTURE_PATH.exists():  # pragma: no cover - setup error
        pytest.fail(
            f"missing golden fixture {FIXTURE_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_regression.py regenerate`"
        )
    return _load_fixture()


def test_fixture_schema_matches(golden):
    assert golden["schema"] == GOLDEN_SCHEMA
    assert sorted(golden["values"]) == sorted(key for key, _ in GOLDEN_CASES)


@pytest.mark.parametrize("key,thunk", GOLDEN_CASES, ids=[key for key, _ in GOLDEN_CASES])
def test_seeded_value_is_pinned(golden, key, thunk):
    expected = golden["values"][key]
    actual = json.loads(json.dumps(thunk()))  # normalise tuples/ints like the fixture
    assert actual == expected, (
        f"seeded value {key!r} drifted from the golden fixture.\n"
        f"expected: {json.dumps(expected, sort_keys=True)}\n"
        f"actual:   {json.dumps(actual, sort_keys=True)}\n"
        "If this change is intentional (engine-semantics change), bump "
        "RESULT_SCHEMA_VERSION and regenerate the fixture: "
        "PYTHONPATH=src python tests/test_golden_regression.py regenerate"
    )


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema": GOLDEN_SCHEMA, "values": _compute_all()}
    with open(FIXTURE_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(payload['values'])} golden values to {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    if len(sys.argv) == 2 and sys.argv[1] == "regenerate":
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)

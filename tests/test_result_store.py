"""Tests for the persistent result store (repro.orchestration.store)."""

from __future__ import annotations

import json

import pytest

from repro.orchestration import ProtocolConfig, ResultStore, Scenario
from repro.orchestration.scenario import RESULT_SCHEMA_VERSION
from repro.orchestration.store import (
    DEFAULT_LOCK_STALE_SECONDS,
    LOCK_TTL_ENV,
    unit_checksum,
)


@pytest.fixture
def scenario():
    return Scenario(
        name="store-test",
        workload="star",
        sizes=(6,),
        protocols=(ProtocolConfig("star"),),
        repetitions=2,
    )


def make_payload(unit_key="p00-s00-t0000", n_records=2):
    record = {
        "stabilization_step": 3,
        "certified_step": 4,
        "steps_executed": 4,
        "stabilized": True,
        "leaders": 1,
        "distinct_states": 3,
        "wall_time_seconds": 0.25,
    }
    return {
        "version": RESULT_SCHEMA_VERSION,
        "unit": unit_key,
        "trials": [0, n_records],
        "records": [dict(record) for _ in range(n_records)],
        "state_space": 3,
    }


class TestRoundTrip:
    def test_save_then_load(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        payload = make_payload()
        store.save_unit(scenario, "p00-s00-t0000", payload)
        loaded = store.load_unit(scenario, "p00-s00-t0000", n_trials=2)
        assert loaded == payload

    def test_miss_on_empty_store(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is None

    def test_scenario_provenance_written(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        store.save_unit(scenario, "p00-s00-t0000", make_payload())
        config_path = store.scenario_dir(scenario) / "scenario.json"
        provenance = json.loads(config_path.read_text())
        assert provenance["content_hash"] == scenario.content_hash()
        assert provenance["config"] == scenario.config_dict()

    def test_stored_unit_keys(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        store.save_unit(scenario, "p00-s00-t0001", make_payload("p00-s00-t0001"))
        store.save_unit(scenario, "p00-s00-t0000", make_payload())
        assert store.stored_unit_keys(scenario) == ["p00-s00-t0000", "p00-s00-t0001"]

    def test_discard_scenario(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        store.save_unit(scenario, "p00-s00-t0000", make_payload())
        store.discard_scenario(scenario)
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is None


class TestInvalidation:
    def test_config_change_changes_directory(self, tmp_path, scenario):
        """A config change can never be served a stale result."""
        store = ResultStore(tmp_path)
        store.save_unit(scenario, "p00-s00-t0000", make_payload())
        changed = scenario.with_overrides(seed=scenario.seed + 1)
        assert store.load_unit(changed, "p00-s00-t0000", n_trials=2) is None
        assert store.scenario_dir(changed) != store.scenario_dir(scenario)

    def test_corrupt_json_is_a_miss_and_deleted(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        path = store.save_unit(scenario, "p00-s00-t0000", make_payload())
        path.write_text("{ this is not json", encoding="utf-8")
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is None
        assert not path.exists()

    def test_truncated_write_is_a_miss(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        path = store.save_unit(scenario, "p00-s00-t0000", make_payload())
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is None

    def test_wrong_record_count_is_a_miss(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        store.save_unit(scenario, "p00-s00-t0000", make_payload(n_records=1))
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is None

    def test_missing_record_field_is_a_miss(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        payload = make_payload()
        del payload["records"][1]["leaders"]
        store.save_unit(scenario, "p00-s00-t0000", payload)
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        payload = make_payload()
        payload["version"] = RESULT_SCHEMA_VERSION + 1
        store.save_unit(scenario, "p00-s00-t0000", payload)
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is None

    def test_unit_key_mismatch_is_a_miss(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        store.save_unit(scenario, "p00-s00-t0001", make_payload("p00-s00-t0000"))
        assert store.load_unit(scenario, "p00-s00-t0001", n_trials=2) is None

    def test_no_temp_files_left_behind(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        store.save_unit(scenario, "p00-s00-t0000", make_payload())
        leftovers = [p for p in store.scenario_dir(scenario).rglob("*.tmp")]
        assert leftovers == []


class TestContentIntegrity:
    def test_on_disk_record_embeds_payload_checksum(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        payload = make_payload()
        path = store.save_unit(scenario, "p00-s00-t0000", payload)
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record.pop("sha256") == unit_checksum(payload)
        assert record == payload  # envelope is exactly payload + sha256

    def test_silent_tampering_is_a_miss(self, tmp_path, scenario):
        """Valid JSON with altered content but a stale checksum — the
        signature of bit rot or a buggy writer — must not be served."""
        store = ResultStore(tmp_path)
        path = store.save_unit(scenario, "p00-s00-t0000", make_payload())
        record = json.loads(path.read_text(encoding="utf-8"))
        record["records"][0]["leaders"] = 999
        path.write_text(json.dumps(record), encoding="utf-8")
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is None

    def test_missing_checksum_is_a_miss(self, tmp_path, scenario):
        """A pre-integrity-era file (no sha256 envelope) is recomputed,
        never trusted."""
        store = ResultStore(tmp_path)
        path = store.unit_path(scenario, "p00-s00-t0000")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(make_payload()), encoding="utf-8")
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is None

    def test_bad_files_are_quarantined_with_reasons(self, tmp_path, scenario):
        """Corruption is moved aside and logged, not silently deleted —
        the unit is recomputed while the evidence stays diagnosable."""
        store = ResultStore(tmp_path)
        path = store.save_unit(scenario, "p00-s00-t0000", make_payload())
        record = json.loads(path.read_text(encoding="utf-8"))
        record["records"][0]["leaders"] = 999
        path.write_text(json.dumps(record), encoding="utf-8")
        store.load_unit(scenario, "p00-s00-t0000", n_trials=2)
        other = store.save_unit(scenario, "p00-s00-t0001", make_payload("p00-s00-t0001"))
        other.write_text("{ torn", encoding="utf-8")
        store.load_unit(scenario, "p00-s00-t0001", n_trials=2)

        sidecar = store.quarantine_dir(scenario)
        assert sorted(p.name for p in sidecar.glob("*.json")) == [
            "p00-s00-t0000.json",
            "p00-s00-t0001.json",
        ]
        log = (sidecar / "quarantine.log").read_text(encoding="utf-8")
        assert "p00-s00-t0000.json\tcontent checksum mismatch" in log
        assert "p00-s00-t0001.json\tunparseable" in log

    def test_quarantined_unit_is_recomputable(self, tmp_path, scenario):
        """After quarantine the slot is writable again and round-trips."""
        store = ResultStore(tmp_path)
        payload = make_payload()
        path = store.save_unit(scenario, "p00-s00-t0000", payload)
        path.write_text("not json", encoding="utf-8")
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is None
        store.save_unit(scenario, "p00-s00-t0000", payload)
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) == payload


class TestLockTTLConfiguration:
    def test_default_ttl(self, monkeypatch, tmp_path):
        monkeypatch.delenv(LOCK_TTL_ENV, raising=False)
        assert ResultStore(tmp_path).lock_stale_seconds == DEFAULT_LOCK_STALE_SECONDS
        monkeypatch.setenv(LOCK_TTL_ENV, "")
        assert ResultStore(tmp_path).lock_stale_seconds == DEFAULT_LOCK_STALE_SECONDS

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LOCK_TTL_ENV, "7.5")
        assert ResultStore(tmp_path).lock_stale_seconds == 7.5

    def test_constructor_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LOCK_TTL_ENV, "7.5")
        assert ResultStore(tmp_path, lock_stale_seconds=120.0).lock_stale_seconds == 120.0

    def test_unparseable_env_rejected(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LOCK_TTL_ENV, "abc")
        with pytest.raises(ValueError, match=f"{LOCK_TTL_ENV}.*'abc'"):
            ResultStore(tmp_path)

    @pytest.mark.parametrize("raw", ["0", "-5"])
    def test_non_positive_env_rejected(self, monkeypatch, tmp_path, raw):
        monkeypatch.setenv(LOCK_TTL_ENV, raw)
        with pytest.raises(ValueError, match=f"{LOCK_TTL_ENV}.*{raw!r}"):
            ResultStore(tmp_path)

    def test_non_positive_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            ResultStore(tmp_path, lock_stale_seconds=0.0)


class TestConcurrentWriters:
    def _lock_path(self, store, scenario, unit_key):
        path = store.unit_path(scenario, unit_key)
        return path.parent / (path.name + ".lock")

    def test_lockfile_released_after_save(self, tmp_path, scenario):
        store = ResultStore(tmp_path)
        store.save_unit(scenario, "p00-s00-t0000", make_payload())
        assert not self._lock_path(store, scenario, "p00-s00-t0000").exists()
        leftovers = list(store.scenario_dir(scenario).rglob("*.lock"))
        assert leftovers == []

    def test_live_lock_skips_the_write(self, tmp_path, scenario):
        """The loser of a concurrent-writer race returns without writing."""
        store = ResultStore(tmp_path)
        target = store.unit_path(scenario, "p00-s00-t0000")
        target.parent.mkdir(parents=True, exist_ok=True)
        lock = self._lock_path(store, scenario, "p00-s00-t0000")
        lock.write_text("12345\n", encoding="ascii")
        returned = store.save_unit(scenario, "p00-s00-t0000", make_payload())
        assert returned == target
        assert not target.exists()  # skipped: another live writer owns it
        assert lock.exists()  # and its lock was left alone

    def test_stale_lock_is_broken(self, tmp_path, scenario):
        """A lockfile abandoned by a hard-killed writer does not wedge the unit."""
        import os
        import time

        store = ResultStore(tmp_path, lock_stale_seconds=60.0)
        target = store.unit_path(scenario, "p00-s00-t0000")
        target.parent.mkdir(parents=True, exist_ok=True)
        lock = self._lock_path(store, scenario, "p00-s00-t0000")
        lock.write_text("666\n", encoding="ascii")
        ancient = time.time() - 3600
        os.utime(lock, (ancient, ancient))
        store.save_unit(scenario, "p00-s00-t0000", make_payload())
        assert store.load_unit(scenario, "p00-s00-t0000", n_trials=2) is not None
        assert not lock.exists()

    def test_racing_writers_persist_one_valid_result(self, tmp_path, scenario):
        """Two store instances saving the same unit interleave safely."""
        payload = make_payload()
        for store in (ResultStore(tmp_path), ResultStore(tmp_path)):
            store.save_unit(scenario, "p00-s00-t0000", payload)
        loaded = ResultStore(tmp_path).load_unit(scenario, "p00-s00-t0000", n_trials=2)
        assert loaded == payload

"""Persistent result store for orchestrated sweeps.

Layout (everything lives under one cache root, ``.repro_cache/`` by
default)::

    .repro_cache/
      <scenario-name>-<hash12>/        # one directory per content hash
        scenario.json                  # full canonical config (provenance)
        units/
          p00-s00-t0000.json           # one work unit = one file
          p00-s00-t0001.json
          ...

The directory name embeds the first 12 hex digits of
:meth:`~repro.orchestration.scenario.Scenario.content_hash`, so *any*
config change (sizes, seeds, protocol parameters, engine, schema or
package version) lands in a fresh directory and can never be served a
stale result — invalidation is purely structural, there is no mtime or
dependency tracking to get wrong.

Each unit file carries the trial records of one shard plus enough
metadata to validate it, and a ``sha256`` checksum of the payload proper
so silent content corruption (bit rot, a buggy writer, deliberate chaos
injection) is detected on read, not trusted.  Files are written
atomically (temp file + ``fsync`` + ``os.replace``), so a sweep
interrupted mid-write — or a host losing power — leaves at worst one
missing unit; the next run recomputes exactly the missing shards and
reuses the finished ones.  A file that fails to parse, validate or
checksum is treated as a miss and *quarantined*: moved into the scenario
directory's ``quarantine/`` sidecar (with a line in ``quarantine.log``
saying why) rather than silently deleted, so corruption stays
diagnosable while the unit is transparently recomputed.

Concurrent writers are safe.  ``os.replace`` makes each individual write
atomic *within* a process, but the service layer can have several
independent processes (a job server and remote workers, or two servers
sharing one cache) complete the same unit at nearly the same time.  Each
unit write therefore takes a per-unit ``O_CREAT|O_EXCL`` lockfile first:
the loser of the race simply skips its write.  Skipping is sound because
unit payloads are a pure function of the content-hashed scenario config
and the unit key — whoever wins writes the same bytes.  A lockfile left
behind by a hard-killed writer is broken once it is older than
``lock_stale_seconds`` (constructor parameter, defaulting to the
``REPRO_STORE_LOCK_TTL`` environment variable when set).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..experiments.harness import TRIAL_RECORD_FIELDS
from .scenario import RESULT_SCHEMA_VERSION, Scenario

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Hex digits of the content hash used in directory names.
_HASH_PREFIX_LEN = 12

#: Age (seconds) past which another writer's lockfile is presumed dead
#: (its owner was hard-killed mid-write) and broken.  Unit writes take
#: well under a second, so a minute is conservative.
DEFAULT_LOCK_STALE_SECONDS = 60.0

#: Environment override for the lockfile TTL (seconds); lets deployments
#: with slow shared filesystems raise it without code changes.
LOCK_TTL_ENV = "REPRO_STORE_LOCK_TTL"


def unit_checksum(payload: Any) -> str:
    """Canonical sha256 of a unit payload (sorted, compact JSON).

    The single checksum definition shared by the store (at-rest
    integrity), the worker (checksumming result frames) and the server
    (verifying them): same payload, same digest, everywhere.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def valid_unit_payload(payload: Any, unit_key: str, n_trials: int) -> bool:
    """Whether ``payload`` is a well-formed stored/transmitted unit result.

    Shared by the store (validating files read back from disk) and the
    job server (validating payloads returned by remote workers before
    they are persisted or streamed to clients).
    """
    if not isinstance(payload, dict):
        return False
    if payload.get("version") != RESULT_SCHEMA_VERSION:
        return False
    if payload.get("unit") != unit_key:
        return False
    records = payload.get("records")
    if not isinstance(records, list) or len(records) != n_trials:
        return False
    for record in records:
        if not isinstance(record, dict):
            return False
        if any(fieldname not in record for fieldname in TRIAL_RECORD_FIELDS):
            return False
    return True


def _atomic_write_json(path: Path, payload: Any, prefix: str, **dump_kwargs: Any) -> None:
    """Write JSON via a same-directory temp file + ``fsync`` + ``os.replace``.

    The fsync pair (file data before the rename, directory entry after)
    is what upgrades "atomic against concurrent readers" to "durable
    against power loss": without it a crash shortly after ``os.replace``
    can surface a correctly-named file with truncated contents.
    """
    descriptor, temp_name = tempfile.mkstemp(prefix=prefix, suffix=".tmp", dir=str(path.parent))
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, **dump_kwargs)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
        try:
            dir_fd = os.open(str(path.parent), os.O_RDONLY)
        except OSError:
            return  # platform without directory fds: rename is still atomic
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)
    except BaseException:
        try:
            os.remove(temp_name)
        except OSError:
            pass
        raise


class ResultStore:
    """Filesystem-backed store of per-unit trial records.

    Parameters
    ----------
    root:
        Cache root directory.  Created lazily on the first write; reads
        from a non-existent root simply miss.
    lock_stale_seconds:
        Age past which a concurrent writer's per-unit lockfile is
        presumed abandoned (hard-killed owner) and broken.  ``None``
        (the default) reads the ``REPRO_STORE_LOCK_TTL`` environment
        variable, falling back to :data:`DEFAULT_LOCK_STALE_SECONDS` when
        it is unset or empty; any other value that is not a positive
        number raises ``ValueError``.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        lock_stale_seconds: Optional[float] = None,
    ) -> None:
        self.root = Path(root) if root is not None else Path(DEFAULT_CACHE_DIR)
        if lock_stale_seconds is None:
            raw = os.environ.get(LOCK_TTL_ENV, "").strip()
            lock_stale_seconds = DEFAULT_LOCK_STALE_SECONDS
            if raw:
                try:
                    lock_stale_seconds = float(raw)
                except ValueError:
                    lock_stale_seconds = 0.0
                if not lock_stale_seconds > 0:
                    raise ValueError(
                        f"{LOCK_TTL_ENV} must be a positive number of seconds, got {raw!r}"
                    )
        if lock_stale_seconds <= 0:
            raise ValueError("lock_stale_seconds must be positive")
        self.lock_stale_seconds = float(lock_stale_seconds)
        # Scenario dirs whose scenario.json this instance already verified,
        # so per-unit writes do not re-read the provenance file every time.
        self._config_written: set = set()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def scenario_dir(self, scenario: Scenario) -> Path:
        """Directory all of ``scenario``'s units live in."""
        digest = scenario.content_hash()[:_HASH_PREFIX_LEN]
        return self.root / f"{scenario.name}-{digest}"

    def unit_path(self, scenario: Scenario, unit_key: str) -> Path:
        """File path of one work unit's records."""
        return self.scenario_dir(scenario) / "units" / f"{unit_key}.json"

    def quarantine_dir(self, scenario: Scenario) -> Path:
        """Sidecar directory corrupt unit files are moved into."""
        return self.scenario_dir(scenario) / "quarantine"

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def load_unit(self, scenario: Scenario, unit_key: str, n_trials: int) -> Optional[Dict[str, Any]]:
        """The stored payload for ``unit_key``, or ``None`` on miss.

        A corrupt, checksum-mismatched or schema-invalid file is
        quarantined and reported as a miss, so callers recompute instead
        of crashing (or worse, trusting garbage).  The returned payload
        has the at-rest ``sha256`` envelope stripped — it is exactly the
        payload that was saved.
        """
        path = self.unit_path(scenario, unit_key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            self._quarantine(path, f"unparseable: {error}")
            return None
        if not isinstance(record, dict):
            self._quarantine(path, "not a JSON object")
            return None
        payload = dict(record)
        stored_digest = payload.pop("sha256", None)
        if stored_digest != unit_checksum(payload):
            reason = (
                "missing content checksum"
                if stored_digest is None
                else "content checksum mismatch"
            )
            self._quarantine(path, reason)
            return None
        if not self._valid_payload(payload, unit_key, n_trials):
            self._quarantine(path, "invalid unit payload")
            return None
        return payload

    @staticmethod
    def _valid_payload(payload: Any, unit_key: str, n_trials: int) -> bool:
        return valid_unit_payload(payload, unit_key, n_trials)

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad unit file into the sidecar dir, logging why.

        Unit files live in ``<scenario-dir>/units/``, so the sidecar is
        a sibling of ``units/``.  Falls back to plain deletion if the
        move itself fails (read-only sidecar, cross-device surprise) —
        a bad file must never be served again, diagnosability is the
        bonus, not the invariant.
        """
        sidecar = path.parent.parent / "quarantine"
        try:
            sidecar.mkdir(parents=True, exist_ok=True)
            os.replace(path, sidecar / path.name)
            with open(sidecar / "quarantine.log", "a", encoding="utf-8") as handle:
                handle.write(f"{path.name}\t{reason}\n")
        except OSError:
            self._discard(path)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def save_unit(self, scenario: Scenario, unit_key: str, payload: Dict[str, Any]) -> Path:
        """Atomically persist one unit's payload; returns the final path.

        Idempotent under concurrent writers: the write is guarded by a
        per-unit ``O_EXCL`` lockfile, and a process that loses the race
        returns without writing (the winner persists identical bytes —
        payloads are pure functions of the content-hashed config, which
        is also why two workers completing a re-queued unit can never
        tear the stored result).
        """
        path = self.unit_path(scenario, unit_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._write_scenario_config(scenario)
        lock_path = path.parent / (path.name + ".lock")
        if not self._acquire_lock(lock_path):
            return path
        # The at-rest record is the payload plus its own content
        # checksum; load_unit strips and verifies it symmetrically.
        record = dict(payload)
        record["sha256"] = unit_checksum(payload)
        try:
            _atomic_write_json(
                path, record, prefix=f".{unit_key}.", sort_keys=True, separators=(",", ":")
            )
        finally:
            self._release_lock(lock_path)
        return path

    def _acquire_lock(self, lock_path: Path) -> bool:
        """Take the per-unit write lock; ``False`` = a live writer owns it."""
        for attempt in range(2):
            try:
                descriptor = os.open(
                    lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                if attempt == 0 and self._lock_is_stale(lock_path):
                    # Abandoned by a hard-killed writer: break it and retry
                    # once (losing a second race to another breaker is fine
                    # — they will write the same bytes we would have).
                    self._discard(lock_path)
                    continue
                return False
            except OSError:
                # Unlockable filesystem: fall back to the plain atomic write.
                return True
            try:
                os.write(descriptor, f"{os.getpid()}\n".encode("ascii"))
            finally:
                os.close(descriptor)
            return True
        return False

    def _lock_is_stale(self, lock_path: Path) -> bool:
        try:
            age = time.time() - os.stat(lock_path).st_mtime
        except OSError:
            return False
        return age > self.lock_stale_seconds

    @staticmethod
    def _release_lock(lock_path: Path) -> None:
        try:
            os.remove(lock_path)
        except OSError:
            pass

    def _write_scenario_config(self, scenario: Scenario) -> None:
        path = self.scenario_dir(scenario) / "scenario.json"
        if path in self._config_written:
            return
        if path.exists():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    json.load(handle)
                self._config_written.add(path)
                return
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                pass  # truncated by a hard kill: rewrite below
        path.parent.mkdir(parents=True, exist_ok=True)
        provenance = {
            "config": scenario.config_dict(),
            "content_hash": scenario.content_hash(),
            "result_schema": RESULT_SCHEMA_VERSION,
        }
        _atomic_write_json(path, provenance, prefix=".scenario.", sort_keys=True, indent=2)
        self._config_written.add(path)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stored_unit_keys(self, scenario: Scenario) -> List[str]:
        """Unit keys currently on disk for ``scenario`` (no validation)."""
        units_dir = self.scenario_dir(scenario) / "units"
        if not units_dir.is_dir():
            return []
        return sorted(path.stem for path in units_dir.glob("*.json"))

    def discard_scenario(self, scenario: Scenario) -> None:
        """Drop every stored unit of ``scenario`` (force a full recompute)."""
        shutil.rmtree(self.scenario_dir(scenario), ignore_errors=True)

"""Run-provenance ledger: one appended JSONL record per runner invocation.

The takedown study compares measurement windows over time; this module
gives the reproduction the same discipline about *its own* runs. Every
``repro-experiments --ledger PATH`` invocation appends one
``repro.obs.run/1`` record capturing what produced the artifacts:

* identity — scenario config ``content_hash``, seed, preset, package
  version, platform;
* strategy — jobs, cache, experiment list;
* outcome — total and per-experiment wall time, the deterministic
  ``scenario.*``/``streaming.*``/``pipeline.*`` counters and their
  SHA-256 digest (bit-identical for any ``--jobs``/``--cache``
  combination, so two records with different digests differ in *logic*,
  not execution strategy), and SHA-256 digests of the written artifacts.

``repro-obs diff`` consumes these records (or raw metrics exports) to
classify run-to-run drift as logic change vs perf regression.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "RUN_SCHEMA",
    "DETERMINISTIC_PREFIXES",
    "EXCLUDED_PREFIXES",
    "deterministic_counters",
    "counter_digest",
    "artifact_digest",
    "build_run_record",
    "append_run_record",
    "read_ledger",
]

#: Schema tag of one ledger record.
RUN_SCHEMA = "repro.obs.run/1"

#: Counter families that measure *logical* work and must not depend on the
#: execution strategy (see :mod:`repro.obs.metrics` naming conventions).
#: ``econ.`` counts simulated market events (customer-days, signups,
#: churns, migrations, replicas) — identical for every ledger chunk size
#: and ``jobs`` value, so it belongs in the drift digest.
DETERMINISTIC_PREFIXES: tuple[str, ...] = (
    "scenario.",
    "streaming.",
    "pipeline.",
    "econ.",
)

#: Counter families that measure *physical* execution (strategy, load,
#: transport) and are therefore excluded from the drift digest. Every
#: recorded metric name must live under exactly one of these two prefix
#: lists — enforced by ``tests/test_obs_metric_hygiene.py`` so new
#: instrumentation cannot silently pollute the digest.
EXCLUDED_PREFIXES: tuple[str, ...] = (
    "cache.",
    "pool.",
    "serve.",
    "parallel.",
    "matrix.",
    # Market-plane execution strategy: ledger chunk fan-out and replica
    # dispatch counts vary with the chunk size and jobs, never with results.
    "market.",
)


def deterministic_counters(counters: Mapping[str, float]) -> dict[str, float]:
    """The strategy-independent subset of ``counters``, sorted by name."""
    return {
        name: counters[name]
        for name in sorted(counters)
        if name.startswith(DETERMINISTIC_PREFIXES)
    }


def counter_digest(counters: Mapping[str, float]) -> str:
    """SHA-256 over the canonical JSON of the deterministic counters.

    Canonical means sorted keys and no whitespace, so the digest is
    bit-identical whenever the deterministic counter values are — the
    run-ledger's one-line answer to "same logic?".
    """
    canonical = json.dumps(
        deterministic_counters(counters), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def artifact_digest(path: str | Path) -> str:
    """SHA-256 of a written artifact file (hex)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_run_record(
    *,
    config_hash: str,
    seed: int,
    preset: str,
    jobs: int,
    cache: bool,
    experiments: list[str],
    counters: Mapping[str, float],
    wall_s: float,
    experiment_wall_s: Mapping[str, float] | None = None,
    artifacts: Mapping[str, str | Path] | None = None,
    version: str | None = None,
) -> dict[str, Any]:
    """Assemble one ``repro.obs.run/1`` record (pure data, JSON-ready)."""
    if version is None:
        from repro import __version__ as version
    return {
        "schema": RUN_SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config_hash": config_hash,
        "seed": seed,
        "preset": preset,
        "jobs": jobs,
        "cache": cache,
        "experiments": list(experiments),
        "version": version,
        "platform": {
            "python": platform.python_version(),
            "system": platform.system(),
            "machine": platform.machine(),
        },
        "wall_s": round(float(wall_s), 4),
        "experiment_wall_s": {
            name: round(float(value), 4)
            for name, value in sorted((experiment_wall_s or {}).items())
        },
        "counters": deterministic_counters(counters),
        "counter_digest": counter_digest(counters),
        "artifacts": {
            name: {"path": str(path), "sha256": artifact_digest(path)}
            for name, path in sorted((artifacts or {}).items())
        },
    }


def append_run_record(path: str | Path, record: Mapping[str, Any]) -> Path:
    """Append one record to the JSONL ledger at ``path`` (created if new)."""
    if record.get("schema") != RUN_SCHEMA:
        raise ValueError(
            f"refusing to append a record with schema "
            f"{record.get('schema')!r} (expected {RUN_SCHEMA!r})"
        )
    out = Path(path)
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(dict(record), sort_keys=True) + "\n")
    return out


def read_ledger(path: str | Path) -> list[dict[str, Any]]:
    """All records of a JSONL ledger, oldest first, schema-validated.

    Raises :class:`ValueError` naming the file, line, and found schema
    when a line is not a ``repro.obs.run/1`` record, so a truncated or
    foreign file fails loudly instead of producing a silent bad diff.
    """
    records: list[dict[str, Any]] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        schema = record.get("schema") if isinstance(record, dict) else None
        if schema != RUN_SCHEMA:
            raise ValueError(
                f"{path}:{lineno}: unsupported run-ledger schema {schema!r} "
                f"(expected {RUN_SCHEMA!r})"
            )
        records.append(record)
    if not records:
        raise ValueError(f"{path}: ledger contains no records")
    return records

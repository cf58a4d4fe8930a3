"""Append-only registry of simulation runs (``runs/runs.jsonl``).

Every ``repro run`` / ``repro simulate`` invocation appends one
:class:`RunRecord` — config hash, git revision, seed, scale, wall time,
simulated cycles per second, the :class:`~repro.sim.stats.Stats` summary
and pointers to any telemetry artifacts — so a run's numbers never
evaporate with its process.  The store is a schema-versioned JSONL file:
one JSON document per line, never rewritten, trivially greppable and
mergeable across machines.

This module is pure stdlib and must stay free of ``repro.noc`` /
``repro.sim`` imports at module load (see the package initializer's
import note); it consumes :class:`~repro.sim.experiment.RunResult`
duck-typed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.experiment import RunResult
    from repro.topology.system import SystemSpec

#: Version of the run-record schema.  Bump on incompatible field changes;
#: :meth:`RunStore.load` rejects records written by a different version.
RUN_SCHEMA_VERSION = 1

#: Default store location, relative to the working directory.
DEFAULT_RUNS_DIR = "runs"


class RunStoreError(RuntimeError):
    """A run record could not be read (corrupt line or schema mismatch)."""


def git_revision(cwd: Optional[str | Path] = None) -> str:
    """The short git revision of ``cwd`` (``"unknown"`` outside a repo)."""
    import subprocess  # registry writes only: a run never loads it

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def config_digest(payload: Any) -> str:
    """A short stable hash of any JSON-serializable configuration payload."""
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def system_digest(
    spec: "SystemSpec", *, workload: str = "", policy: str = "", vct: bool = True
) -> str:
    """Hash of everything that determines a run's numbers except the seed.

    Covers the system family, the chiplet geometry, every
    :class:`~repro.sim.config.SimConfig` field, the workload descriptor,
    the scheduling policy and wormhole allocation (``vct=False``; a VCT
    run hashes as it always has) — two runs with equal digests and equal
    seeds must produce identical statistics.
    """
    grid = spec.grid
    payload = {
        "system": spec.name,
        "grid": [grid.chiplets_x, grid.chiplets_y, grid.nodes_x, grid.nodes_y],
        "config": dataclasses.asdict(spec.config),
        "workload": workload,
        "policy": policy,
    }
    if not vct:
        payload["vct"] = False
    return config_digest(payload)


@dataclass
class RunRecord:
    """One registered simulation run."""

    schema_version: int = RUN_SCHEMA_VERSION
    run_id: str = ""
    created: str = ""
    #: ``"experiment"`` (repro run), ``"simulate"`` or ``"prove"``
    #: (certification runs; their certificate path rides in ``artifacts``).
    kind: str = "simulate"
    #: Experiment name or system-family label.
    label: str = ""
    scale: Optional[str] = None
    seed: Optional[int] = None
    config_hash: str = ""
    git_rev: str = "unknown"
    workload: str = ""
    policy: str = ""
    n_nodes: int = 0
    cycles: int = 0
    wall_seconds: float = 0.0
    cycles_per_second: float = 0.0
    #: ``Stats.summary()`` of the run (empty for experiment-table runs).
    stats: dict[str, float] = field(default_factory=dict)
    #: Artifact pointers, e.g. ``{"metrics_dir": ..., "trace": ...}``.
    artifacts: dict[str, str] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    #: Compact latency-attribution summary (``LatencyLedger.record_summary``,
    #: empty unless the run collected a breakdown).  Optional with a default
    #: so records written before this field existed keep loading under
    #: schema v1.
    breakdown: dict[str, Any] = field(default_factory=dict)
    #: Compact forensics summary (``TelemetrySession.forensics_summary``:
    #: health flags, recorder stats, bundle path; empty unless the run
    #: attached forensics).  Defaulted for the same schema-v1 reason.
    forensics: dict[str, Any] = field(default_factory=dict)
    #: Deterministic event-digest block (``RunDigest.record_summary``:
    #: final chain, per-kind census, checkpoint chain, re-simulation
    #: meta; empty unless the run attached a digest).  ``repro diff``
    #: consumes it.  Defaulted for the same schema-v1 reason.
    digest: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        version = data.get("schema_version")
        if version != RUN_SCHEMA_VERSION:
            raise RunStoreError(
                f"run record schema v{version!r} is not supported "
                f"(this build reads v{RUN_SCHEMA_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise RunStoreError(
                f"run record has unknown fields: {', '.join(sorted(unknown))}"
            )
        return cls(**data)


def new_run_id() -> str:
    import uuid

    return uuid.uuid4().hex[:12]


def utc_now_iso() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def record_from_result(
    result: "RunResult",
    *,
    kind: str = "simulate",
    label: str = "",
    scale: Optional[str] = None,
    git_rev: Optional[str] = None,
    artifacts: Optional[dict[str, str]] = None,
    extras: Optional[dict[str, float]] = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from a finished ``RunResult``."""
    session = result.telemetry
    ledger = session.ledger if session is not None else None
    return RunRecord(
        run_id=new_run_id(),
        created=utc_now_iso(),
        kind=kind,
        label=label or result.system,
        scale=scale,
        seed=result.seed,
        config_hash=result.config_hash,
        git_rev=git_rev if git_rev is not None else git_revision(),
        workload=result.workload,
        policy=result.policy,
        n_nodes=result.n_nodes,
        cycles=result.cycles,
        wall_seconds=result.wall_seconds,
        cycles_per_second=result.cycles_per_second,
        stats=dict(result.stats.summary()),
        artifacts=dict(artifacts or {}),
        extras=dict(extras or {}),
        breakdown=ledger.record_summary() if ledger is not None else {},
        forensics=session.forensics_summary() if session is not None else {},
        digest=result.digest or {},
    )


class RunStore:
    """The append-only JSONL run registry under one directory."""

    def __init__(self, directory: str | Path = DEFAULT_RUNS_DIR) -> None:
        self.directory = Path(directory)
        self.path = self.directory / "runs.jsonl"
        #: Malformed lines skipped by the most recent lenient iteration
        #: (``iter_records(strict=False)``); surfaced as a warning by the
        #: ``repro watch`` fleet page so silent registry corruption cannot
        #: hide.
        self.skipped = 0

    def append(self, record: RunRecord) -> Path:
        """Append one record (creating the store on first use)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return self.path

    def iter_records(self, *, strict: bool = True) -> Iterator[RunRecord]:
        """Yield records in append order.

        With ``strict=False`` unreadable lines (corrupt JSON, foreign
        schema versions) are skipped instead of raising
        :class:`RunStoreError`; how many were skipped is recorded on
        :attr:`skipped` (reset at the start of each lenient iteration).
        """
        if not strict:
            self.skipped = 0
        if not self.path.is_file():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    if not isinstance(data, dict):
                        raise RunStoreError("record line is not a JSON object")
                    yield RunRecord.from_dict(data)
                except (json.JSONDecodeError, RunStoreError, TypeError) as exc:
                    if strict:
                        raise RunStoreError(
                            f"{self.path}:{number}: unreadable run record: {exc}"
                        ) from None
                    self.skipped += 1

    def load(self, *, strict: bool = True) -> list[RunRecord]:
        return list(self.iter_records(strict=strict))

    def __len__(self) -> int:
        return len(self.load(strict=False))

"""Schema-versioned certification artifacts (``runs/certificates/``).

A :class:`Certificate` is the durable output of one ``repro prove`` run
over one (system, mode) pair: the verdict, every finding, the pass
metrics, the fault-mask sweep summary and the model checker's verdict —
including the concrete counterexample trace when a deadlock was realized.
Downstream consumers (the future fast-kernel differential tests, topology
generators, CI) gate on ``certified`` without re-running the passes and
can re-validate a counterexample by replaying its trace.

Certificates are JSON files named ``CERT_<system>_<mode>.json`` under the
runs registry directory, so they travel with the ``runs.jsonl`` ledger.
The schema is versioned independently of the run-record schema;
:func:`load_certificate` rejects foreign versions rather than guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .report import Report

#: Bump on incompatible changes to the certificate layout.
CERT_SCHEMA_VERSION = 1

#: Subdirectory of the runs registry holding certificates.
CERT_SUBDIR = "certificates"


class CertificateError(RuntimeError):
    """A certificate could not be read (corrupt file or schema mismatch)."""


@dataclass
class Certificate:
    """The machine-checkable outcome of one certification run."""

    schema_version: int = CERT_SCHEMA_VERSION
    system: str = ""
    family: str = ""
    mode: str = "vct"
    #: (chiplets_x, chiplets_y, nodes_x, nodes_y) of the proved instance.
    grid: list[int] = field(default_factory=list)
    created: str = ""
    git_rev: str = "unknown"
    #: ``system_digest`` of the proved spec — consumers match on this.
    config_hash: str = ""
    certified: bool = False
    #: Full verification report (``Report.to_dict`` schema).
    report: dict[str, Any] = field(default_factory=dict)
    #: Fault sweep: {"swept": n, "links": [...], "broken": [...]}.
    fault_masks: dict[str, Any] = field(default_factory=dict)
    #: Model checker: {"verdict", "explored", "exhaustive", "cycle",
    #: "counterexample", "replay"} — empty when no CDG cycle needed
    #: adjudication.
    modelcheck: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "system": self.system,
            "family": self.family,
            "mode": self.mode,
            "grid": list(self.grid),
            "created": self.created,
            "git_rev": self.git_rev,
            "config_hash": self.config_hash,
            "certified": self.certified,
            "report": self.report,
            "fault_masks": self.fault_masks,
            "modelcheck": self.modelcheck,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Certificate":
        version = data.get("schema_version")
        if version != CERT_SCHEMA_VERSION:
            raise CertificateError(
                f"certificate schema v{version!r} is not supported "
                f"(this build reads v{CERT_SCHEMA_VERSION})"
            )
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise CertificateError(
                f"certificate has unknown fields: {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    @property
    def report_obj(self) -> Report:
        """The embedded report, rehydrated."""
        return Report.from_dict(self.report)

    def filename(self) -> str:
        return f"CERT_{self.system}_{self.mode}.json"


def certificate_dir(runs_dir: str | Path) -> Path:
    return Path(runs_dir) / CERT_SUBDIR


def write_certificate(cert: Certificate, runs_dir: str | Path) -> Path:
    """Persist one certificate; returns the file path."""
    directory = certificate_dir(runs_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / cert.filename()
    path.write_text(
        json.dumps(cert.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def load_certificate(path: str | Path) -> Certificate:
    """Read one certificate back, validating the schema."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CertificateError(f"{path}: unreadable certificate: {exc}") from None
    if not isinstance(data, dict):
        raise CertificateError(f"{path}: certificate is not a JSON object")
    try:
        return Certificate.from_dict(data)
    except TypeError as exc:
        raise CertificateError(f"{path}: malformed certificate: {exc}") from None


def load_certificates(runs_dir: str | Path) -> list[Certificate]:
    """All readable certificates under a runs directory, sorted by name."""
    directory = certificate_dir(runs_dir)
    if not directory.is_dir():
        return []
    certs = []
    for path in sorted(directory.glob("CERT_*.json")):
        certs.append(load_certificate(path))
    return certs

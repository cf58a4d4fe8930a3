"""Live run telemetry: schema-versioned JSONL feeds for ``repro watch``.

:class:`LiveFeed` appends line-delimited JSON events to
``runs/live/<run_id>.jsonl`` while a run is in flight: one ``start`` event
with the run's identity, one ``epoch`` event per closed
:class:`~repro.telemetry.metrics.EpochSample` (the sample plus smoothed
simulation speed, ETA and delivered fraction), every
:class:`~repro.telemetry.metrics.HealthMonitor` anomaly flag, and a
terminal ``finish`` or ``failure`` event (the latter written by
:meth:`~repro.telemetry.session.TelemetrySession.fail`, pointing at the
postmortem bundle when one was captured).  The feed is the write
side of the fleet view served by :mod:`repro.telemetry.server`.

The feed is opt-in (``TelemetryConfig.live`` / ``repro simulate --live``)
and has no clock of its own: it is a reader of the epoch sampler, called
after the health monitor at each epoch close, so each sample and each
anomaly is written exactly once and the bus carries nothing extra.

Like the registry and forensics bundles, the event stream is
schema-versioned: :func:`validate_live_event` checks one event,
:func:`read_feed` loads and validates a whole feed, and
:func:`feed_status` folds a feed into the compact per-run status dict the
fleet view renders.  This module is pure stdlib and must stay free of
``repro.noc`` / ``repro.sim`` imports at module load (see the package
initializer's import note).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from .progress import EtaEstimator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network

    from .digest import RunDigest
    from .metrics import EpochSample, HealthMonitor

#: Version of the live-feed event schema.  Bump on incompatible changes;
#: :func:`validate_live_event` rejects events written by other versions.
LIVE_SCHEMA_VERSION = 2

#: Default feed directory, relative to the run registry directory.
DEFAULT_LIVE_SUBDIR = "live"

_NUMBER, _NULL = (int, float), type(None)

#: Payload fields every event kind must carry (beyond the envelope), typed
#: as :func:`feed_status` and the pages read them (a dict types the keys
#: read below a field); a non-finite float is written as null.
EVENT_KINDS: dict[str, dict[str, Any]] = {
    "start": {"meta": dict},
    "epoch": {
        "cycle": int, "cps": (*_NUMBER, _NULL), "eta_seconds": (*_NUMBER, _NULL),
        "delivered_fraction": (*_NUMBER, _NULL),
        "epoch": dict.fromkeys(("index", "start", "end", "flits_injected", "packets_delivered",
                                "buffered", "in_flight"), _NUMBER),
    },
    "anomaly": {"cycle": int, "anomaly_kind": str, "detail": str},
    "finish": {"cycle": int, "wall_seconds": (*_NUMBER, _NULL), "stats": dict},
    "failure": {"cycle": int, "reason": str, "error": (str, _NULL), "bundle": (str, _NULL)},
}

#: Envelope fields every event carries, typed.
ENVELOPE_FIELDS: dict[str, Any] = {
    "schema_version": int, "run_id": str, "seq": int, "wall": _NUMBER, "kind": str}


class Row(tuple):
    """A :func:`fits` spec for a fixed-length list, typed item by item."""


def fits(value: Any, spec: Any) -> bool:
    """True when the JSON ``value`` has the shape ``spec`` gives: a type or
    tuple of types, a dict (an object whose keys fit theirs), ``[item]`` (a
    list of fitting items) or a :class:`Row`.  Live feeds and postmortem
    bundles are checked with it against what the pages read."""
    if isinstance(spec, dict):
        return isinstance(value, dict) and all(fits(value.get(k), s) for k, s in spec.items())
    if isinstance(spec, Row):
        return isinstance(value, list) and len(value) == len(spec) and all(map(fits, value, spec))
    if isinstance(spec, list):
        return isinstance(value, list) and all(fits(item, spec[0]) for item in value)
    return isinstance(value, spec)


class LiveFeedError(ValueError):
    """A live-feed event could not be validated or a feed line read."""


def live_feed_path(directory: str | Path, run_id: str) -> Path:
    """The feed path for one run id under a live-feed directory."""
    return Path(directory) / f"{run_id}.jsonl"


def _json_safe(value: Any) -> Any:
    """Replace non-finite floats with ``None`` so lines stay strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def validate_live_event(event: Any) -> dict[str, Any]:
    """Check one feed event against the schema; return it on success."""
    if not isinstance(event, dict):
        raise LiveFeedError(f"live event is not a JSON object: {type(event).__name__}")
    version = event.get("schema_version")
    if version != LIVE_SCHEMA_VERSION:
        raise LiveFeedError(
            f"live event schema v{version!r} is not supported "
            f"(this build reads v{LIVE_SCHEMA_VERSION})"
        )
    for name in ENVELOPE_FIELDS:
        if name not in event:
            raise LiveFeedError(f"live event is missing envelope field {name!r}")
    kind = event["kind"]
    required = EVENT_KINDS.get(kind) if isinstance(kind, str) else None
    if required is None:
        raise LiveFeedError(f"unknown live event kind {kind!r}")
    missing = [name for name in required if name not in event]
    if missing:
        raise LiveFeedError(
            f"live {kind!r} event is missing fields: {', '.join(missing)}"
        )
    wrong = [name for name, spec in {**ENVELOPE_FIELDS, **required}.items()
             if not fits(event[name], spec)]
    if not fits(event.get("digest") or {}, {"final": (str, _NULL)}):  # finish's chain
        wrong.append("digest")
    if wrong:
        raise LiveFeedError(f"live {kind!r} event has mistyped fields: {', '.join(wrong)}")
    return event


def read_feed(path: str | Path, *, strict: bool = True) -> list[dict[str, Any]]:
    """Load and validate one feed file.

    With ``strict=False`` unreadable lines (truncated tail of an in-flight
    run, corrupt JSON, foreign schema) are skipped instead of raising.
    """
    path = Path(path)
    events: list[dict[str, Any]] = []
    if not path.is_file():
        return events
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(validate_live_event(json.loads(line)))
            except (json.JSONDecodeError, LiveFeedError) as exc:
                if strict:
                    raise LiveFeedError(
                        f"{path}:{number}: unreadable live event: {exc}"
                    ) from None
    return events


def feed_status(
    events: list[dict[str, Any]], *, now: Optional[float] = None
) -> dict[str, Any]:
    """Fold a feed's events into the per-run status the fleet view shows."""
    status: dict[str, Any] = {
        "run_id": events[0].get("run_id", "") if events else "",
        "state": "pending",
        "meta": {},
        "cycle": 0,
        "total_cycles": None,
        "fraction": None,
        "cps": None,
        "eta_seconds": None,
        "delivered_fraction": None,
        "epochs": 0,
        "anomalies": [],
        "last_wall": None,
        "age_seconds": None,
        "wall_seconds": None,
        "stats": {},
        "digest": None,
        "reason": None,
        "bundle": None,
        "error": None,
    }
    for event in events:
        kind = event.get("kind")
        wall = event.get("wall")
        if isinstance(wall, (int, float)):
            status["last_wall"] = wall
        cycle = event.get("cycle")
        if isinstance(cycle, int):
            status["cycle"] = max(status["cycle"], cycle)
        if kind == "start":
            status["state"] = "running"
            status["meta"] = event.get("meta") or {}
            status["total_cycles"] = status["meta"].get("total_cycles")
        elif kind == "epoch":
            status["epochs"] += 1
            status["cps"] = event.get("cps")
            status["eta_seconds"] = event.get("eta_seconds")
            status["delivered_fraction"] = event.get("delivered_fraction")
        elif kind == "anomaly":
            status["anomalies"].append(
                {
                    "cycle": event.get("cycle"),
                    "kind": event.get("anomaly_kind"),
                    "detail": event.get("detail"),
                }
            )
        elif kind == "finish":
            status["state"] = "finished"
            status["stats"] = event.get("stats") or {}
            status["wall_seconds"] = event.get("wall_seconds")
            status["eta_seconds"] = 0.0
            status["digest"] = event.get("digest")
        elif kind == "failure":
            status["state"] = "failed"
            status["reason"] = event.get("reason")
            status["error"] = event.get("error")
            status["bundle"] = event.get("bundle")
    total = status["total_cycles"]
    if isinstance(total, int) and total > 0:
        status["fraction"] = min(1.0, status["cycle"] / total)
    if status["last_wall"] is not None:
        reference = time.time() if now is None else now
        status["age_seconds"] = max(0.0, reference - status["last_wall"])
    return status


class LiveFeed:
    """Streams one run's lifecycle, epochs and health flags to a feed.

    Parameters
    ----------
    network:
        The built network to observe.
    run_id:
        Registry run id the feed is keyed by (joins the feed to its
        :class:`~repro.telemetry.runstore.RunRecord` in the fleet view).
    directory:
        Directory the ``<run_id>.jsonl`` feed is appended under.
    monitor:
        The session's health monitor (optional): the anomalies it raised
        on an epoch follow that epoch's event.
    digest:
        Session run digest (optional); its final chain rides the terminal
        ``finish`` event as an **optional** payload key.
    eta:
        The speed / ETA estimator to share (default: a private one without
        a horizon); when it knows the horizon, epoch events carry an ETA.
    """

    def __init__(
        self,
        network: "Network",
        *,
        run_id: str,
        directory: str | Path = f"runs/{DEFAULT_LIVE_SUBDIR}",
        monitor: Optional["HealthMonitor"] = None,
        digest: Optional["RunDigest"] = None,
        eta: Optional[EtaEstimator] = None,
    ) -> None:
        self.network = network
        self.run_id = run_id
        self.monitor = monitor
        self.digest = digest
        self.eta = eta or EtaEstimator()
        self.events_written = 0
        self._closed = False
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.path = live_feed_path(directory, run_id)
        self._handle = self.path.open("w", encoding="utf-8")

    # -- event emission ------------------------------------------------------
    def _emit(self, kind: str, payload: dict[str, Any]) -> None:
        if self._closed:
            return
        event = {
            "schema_version": LIVE_SCHEMA_VERSION,
            "run_id": self.run_id,
            "seq": self.events_written,
            "wall": time.time(),
            "kind": kind,
        }
        event.update(_json_safe(payload))
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()
        self.events_written += 1

    def start(self, meta: dict[str, Any]) -> None:
        """Announce the run: identity, geometry, workload, horizon."""
        meta = dict(meta)
        meta.setdefault("total_cycles", self.eta.total_cycles)
        self._emit("start", {"meta": meta})

    def on_epoch(self, sample: "EpochSample") -> None:
        """Write one closed epoch, then the anomalies it raised."""
        cycle = sample.end
        self._emit(
            "epoch",
            {
                "cycle": cycle,
                "cps": self.eta.update(cycle),
                "eta_seconds": self.eta.eta_seconds(cycle),
                "delivered_fraction": self.network.stats.delivered_fraction,
                "epoch": sample.to_json(),
            },
        )
        for anomaly in self.monitor.raised if self.monitor is not None else ():
            self._emit(
                "anomaly",
                {"cycle": anomaly.cycle, "anomaly_kind": anomaly.kind, "detail": anomaly.detail},
            )

    # -- lifecycle -----------------------------------------------------------
    def finish(self, end_cycle: int) -> Path:
        """Emit the terminal ``finish`` event and close the feed."""
        if not self._closed:
            payload: dict[str, Any] = {
                "cycle": end_cycle,
                "wall_seconds": self.eta.wall_seconds,
                "stats": dict(self.network.stats.summary()),
            }
            if self.digest is not None:
                from .digest import DIGEST_ALGO

                payload["digest"] = {
                    "final": self.digest.final,
                    "algo": DIGEST_ALGO,
                    "events_total": self.digest.events_total,
                }
            self._emit("finish", payload)
            self.close()
        return self.path

    def fail(
        self,
        reason: str,
        cycle: int,
        *,
        error: Optional[str] = None,
        bundle: Optional[str] = None,
    ) -> Path:
        """Emit the terminal ``failure`` event and close the feed.

        ``bundle`` points at the postmortem bundle when forensics captured
        one, so the fleet view can link straight to ``repro postmortem``.
        """
        self._emit(
            "failure",
            {"cycle": cycle, "reason": reason, "error": error, "bundle": bundle},
        )
        self.close()
        return self.path

    def close(self) -> None:
        """Close the file; later events are dropped (idempotent)."""
        if not self._closed:
            self._closed = True
            self._handle.close()

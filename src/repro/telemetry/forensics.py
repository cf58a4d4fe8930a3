"""Flight recorder and postmortem forensics (see ``docs/observability.md``).

The static passes of :mod:`repro.analysis` *predict* deadlock and livelock;
this module is the runtime counterpart that *explains* one when it happens:

* :class:`FlightRecorder` — a bounded ring buffer of recent bus events
  (O(1) append, last ``window`` cycles retained).  The default ``"packet"``
  detail level records packet-lifecycle events only (injection, ejection,
  credit stalls), which keeps the measured overhead on the fig11 bench
  case within the 2% budget; ``"route"`` adds the per-hop routing and VC
  allocation events, and ``"full"`` records the flit-granular firehose.
* :func:`capture_bundle` — the black-box dump taken when a run wedges:
  full network snapshot (router/link/ROB/PHY ``snapshot_state`` hooks),
  an in-flight packet table with per-packet age and attribution-taxonomy
  stage, the run's health summary
  (:class:`~repro.telemetry.metrics.HealthMonitor`) and a **wait-for
  graph** extracted from blocked input VCs whose cycle (if any) names the
  deadlocked channel loop in the same ``(link index, vc)`` vocabulary as
  :func:`repro.routing.deadlock.build_cdg`, found by the static passes'
  own :func:`~repro.routing.deadlock.find_cycle` — so a runtime deadlock
  is mechanically cross-checkable against the static analysis.

:class:`~repro.telemetry.session.TelemetrySession` owns the recorder and
is the :class:`~repro.sim.engine.Engine`'s failure hook: its ``fail``
captures and writes a bundle, so every
:class:`~repro.sim.stats.DeadlockError`, drain timeout or
:class:`~repro.analysis.sanitizer.InvariantViolation` leaves one on disk.
``repro postmortem BUNDLE`` renders a validated bundle as a text report or
a self-contained HTML page (:mod:`repro.telemetry.dashboard`, which prints
recorded events with :func:`event_line`).

Import note: like every collector in this package, this module must not
import ``repro.noc`` / ``repro.core`` at module load (``repro.noc``
imports :mod:`repro.telemetry.bus`); simulator types appear only under
``typing.TYPE_CHECKING`` and simulator state is reached through duck
typing, :meth:`~repro.noc.link.Link.contents` and the ``snapshot_state``
hooks.  The VC states and their names (:mod:`repro.noc.vc`) and the cycle
finder are imported inside the functions that read them, so a run that
does not fail never loads :mod:`repro.routing.deadlock`.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from .bus import EVENT_NAMES
from .live import Row, fits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.flit import Packet
    from repro.noc.network import Network

    from .metrics import HealthMonitor

#: Version of the postmortem-bundle schema.  Bump on incompatible changes;
#: :func:`validate_bundle` rejects bundles written by a different version.
FORENSICS_SCHEMA_VERSION = 1

#: Event subsets selectable by :class:`FlightRecorder` detail level.
#: ``"packet"`` stays within the recorder's 2% overhead budget on the
#: fig11 bench case; ``"route"`` adds the per-hop routing/VC-allocation
#: events (a few percent more); ``"full"`` records the flit-granular
#: firehose (observability runs only, not perf-neutral).
RECORDER_PRESETS: dict[str, tuple[str, ...]] = {
    "packet": (
        "packet_inject",
        "packet_eject",
        "credit_stall",
    ),
    "route": (
        "packet_inject",
        "packet_eject",
        "route_compute",
        "vc_alloc",
        "credit_stall",
    ),
    "full": tuple(name for name in EVENT_NAMES if name != "cycle_end"),
}

#: Wait-for graph vertices: channels are ``("chan", link, vc)``; source
#: queues (which hold no upstream channel and thus never close a cycle)
#: are ``("inject", node, vc)``.
WaitVertex = tuple[str, int, int]


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


#: Each recordable event's argument names, in bus order (``now`` last, not
#: named); ``_`` marks an argument the record leaves out.
_EVENT_ARGS: dict[str, tuple[str, ...]] = {
    "packet_inject": ("_", "packet"),
    "packet_eject": ("node", "packet"),
    "route_compute": ("node", "packet", "in_port", "in_vc"),
    "vc_alloc": ("node", "packet", "in_port", "in_vc", "out_port", "out_vc"),
    "flit_send": ("node", "flit", "out_port", "out_vc"),
    "flit_recv": ("node", "port", "vc", "flit"),
    "link_accept": ("link", "flit", "vc"),
    "credit_return": ("link", "vc"),
    "credit_stall": ("node", "out_port", "vc"),
    "phy_dispatch": ("link", "flit", "vc", "phy"),
    "rob_insert": ("link", "flit", "vc"),
    "rob_release": ("link", "flit", "vc"),
}

#: How a named argument is recorded: routers by node, links by index,
#: packets and flits by reference; anything else as is.
_ARG_REFS: dict[str, Callable[[Any], Any]] = {
    "node": lambda router: router.node,
    "link": lambda link: link.index,
    "packet": lambda packet: {
        "pid": packet.pid, "src": packet.src, "dst": packet.dst, "len": packet.length},
    "flit": lambda flit: {"pid": flit.packet.pid, "flit": flit.index},
}


def _decode_event(name: str, args: tuple) -> dict[str, Any]:
    """One recorded ``(name, args)`` pair -> a JSON-serializable record."""
    out: dict[str, Any] = {"event": name, "cycle": _event_cycle(name, args)}
    for key, arg in zip(_EVENT_ARGS[name], args):
        if key != "_":
            ref = _ARG_REFS.get(key)
            out[key] = arg if ref is None else ref(arg)
    return out


def event_line(event: dict[str, Any]) -> str:
    """One decoded event as the postmortem report and ``repro diff`` print it."""
    fields = ", ".join(
        f"{key}={value}" for key, value in event.items() if key not in ("event", "cycle")
    )
    return f"cycle {event['cycle']:>8} {event['event']:<14} {fields}"


def _event_cycle(name: str, args: tuple) -> int:
    # Every catalogued event carries ``now`` as its last argument except
    # packet_inject, whose packet carries its creation cycle instead.
    if name == "packet_inject":
        return int(args[1].create_cycle)
    return int(args[-1])


def _make_tap(append: Callable[[tuple], None]) -> Callable[..., None]:
    # The hot path of the recorder: one call, one varargs pack, one deque
    # append.  The event name is implied by which deque ``append`` belongs
    # to, so no per-event tuple is allocated around the args.
    def tap(*args: Any) -> None:
        append(args)

    return tap


class FlightRecorder:
    """Bounded ring buffer of recent telemetry events.

    Parameters
    ----------
    network:
        The built network whose bus is recorded.
    window:
        Cycles of history retained; older events are evicted on a short
        trim stride (amortized O(1) per event) and before every read, so
        the view :meth:`events` / :meth:`tail` return is always exact.
    events:
        A preset name from :data:`RECORDER_PRESETS` or an explicit
        iterable of event names.
    max_events:
        Hard memory cap; crossing it evicts the oldest events and counts
        them in :attr:`dropped`.  Between trims the buffers may briefly
        overshoot the cap by up to one stride of events.
    """

    #: Cycles between in-run trims.  Reads always trim first, so the
    #: stride only bounds the transient memory overshoot, not accuracy.
    TRIM_STRIDE = 64

    def __init__(
        self,
        network: "Network",
        *,
        window: int = 4_096,
        events: str | Iterable[str] = "packet",
        max_events: int = 250_000,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        if isinstance(events, str):
            try:
                names = RECORDER_PRESETS[events]
            except KeyError:
                raise ValueError(
                    f"unknown recorder preset {events!r}; known: "
                    + ", ".join(RECORDER_PRESETS)
                ) from None
        else:
            names = tuple(events)
            # ``cycle_end`` is the recorder's own clock, never a recorded event.
            unknown = [n for n in names if n not in RECORDER_PRESETS["full"]]
            if unknown:
                raise ValueError(
                    f"unknown telemetry event(s): {', '.join(unknown)}; "
                    f"recordable: {', '.join(RECORDER_PRESETS['full'])}"
                )
        self.network = network
        self.window = window
        self.max_events = max_events
        self.event_names = names
        self.dropped = 0
        self.now = 0
        # One deque per event: the tap appends the raw args tuple and the
        # event name stays implicit, saving a tuple allocation per event.
        self._bufs: dict[str, deque[tuple]] = {name: deque() for name in names}
        self._cycles_until_trim = self.TRIM_STRIDE
        self._subscription = network.telemetry.attach({
            **{name: _make_tap(buf.append) for name, buf in self._bufs.items()},
            "cycle_end": self._on_cycle_end,
        })

    def _on_cycle_end(self, network: "Network", now: int) -> None:
        # This runs every simulated cycle even when no events fired, so the
        # common case must stay at a couple of attribute touches; the real
        # trimming work is amortized over TRIM_STRIDE cycles.
        self.now = now
        self._cycles_until_trim -= 1
        if self._cycles_until_trim <= 0:
            self._cycles_until_trim = self.TRIM_STRIDE
            self._trim()

    def _trim(self) -> None:
        horizon = self.now - self.window
        total = 0
        for name, buf in self._bufs.items():
            while buf and _event_cycle(name, buf[0]) < horizon:
                buf.popleft()
            total += len(buf)
        over = total - self.max_events
        if over > 0:
            self.dropped += over
            # Shed the overflow proportionally from each event's deque.  Each
            # deque is already in cycle order, so trimming its left end drops
            # that event type's oldest history; proportional quotas keep one
            # chatty event from starving the others, and the whole pass is
            # O(over) deque pops rather than a global oldest-first scan.
            bufs = [buf for buf in self._bufs.values() if buf]
            remaining = over
            for buf in bufs:
                quota = min(over * len(buf) // total, len(buf), remaining)
                for _ in range(quota):
                    buf.popleft()
                remaining -= quota
            while remaining > 0:
                # Rounding residue (< one event per deque) comes off the
                # largest survivor.
                buf = max(bufs, key=len)
                buf.popleft()
                remaining -= 1

    def detach(self) -> None:
        """Unsubscribe every tap; the bus reverts to the zero-cost path."""
        self._subscription.close()

    def __len__(self) -> int:
        self._trim()
        return sum(len(buf) for buf in self._bufs.values())

    def _merged(self) -> list[tuple[int, str, tuple]]:
        self._trim()
        rows = [
            (_event_cycle(name, args), name, args)
            for name, buf in self._bufs.items()
            for args in buf
        ]
        rows.sort(key=lambda row: row[0])
        return rows

    def summary(self) -> dict[str, int]:
        """Window and retained / dropped event counts (bundle, registry)."""
        return {"window": self.window, "events_recorded": len(self), "dropped": self.dropped}

    def events(self) -> list[dict[str, Any]]:
        """Every retained event, decoded, oldest first."""
        return [_decode_event(name, args) for _cycle, name, args in self._merged()]

    def tail(self, n: int) -> list[dict[str, Any]]:
        """The most recent ``n`` events, decoded, oldest first."""
        if n <= 0:
            return []
        rows = self._merged()
        return [_decode_event(name, args) for _cycle, name, args in rows[-n:]]


# ---------------------------------------------------------------------------
# wait-for graph extraction
# ---------------------------------------------------------------------------

def extract_wait_graph(network: "Network", now: int) -> dict[str, Any]:
    """The wait-for graph of blocked flits, with its cycle if one exists.

    Vertices are channels ``("chan", link index, vc)`` (plus
    ``("inject", node, vc)`` pseudo-vertices for source queues, which hold
    no channel and therefore never appear in a cycle).  An edge points
    from the channel a blocked packet *holds* (the input VC its flits
    occupy) to each channel it *requests*: every unallocable routing
    candidate for a VC stuck in VC allocation, or the granted output VC
    for an active VC stalled on zero downstream credits.

    The cycle is reported in the ``(link index, vc)`` vocabulary of
    :func:`repro.routing.deadlock.build_cdg`, so it can be checked edge by edge against
    the static channel dependency graph (see ``cycle_in_graph``).
    """
    from repro.noc.vc import VC_IDLE, VC_STATE_NAMES, VC_VA
    from repro.routing.deadlock import find_cycle

    edges: dict[WaitVertex, set[WaitVertex]] = {}
    blocked: list[dict[str, Any]] = []
    for router in network.routers:
        outputs = router.outputs
        for port in router.inputs:
            link = port.link
            for ivc in port.vcs:
                if not ivc.n or ivc.state == VC_IDLE:
                    continue
                packet = ivc.queue[0]
                wants: list[WaitVertex] = []
                why = VC_STATE_NAMES[ivc.state]
                if ivc.state == VC_VA:
                    for out_port, out_vc, _escape in ivc.candidates or ():
                        out_link = outputs[out_port].link
                        if out_link is None:
                            continue  # ejection never blocks VC allocation
                        wants.append(("chan", out_link.index, out_vc))
                else:  # VC_ACTIVE
                    out = outputs[ivc.out_port]
                    out_link = out.link
                    if out_link is None or out.credits[ivc.out_vc] > 0:
                        continue  # can still move; not blocked on a resource
                    why = "credit_stall"
                    wants.append(("chan", out_link.index, ivc.out_vc))
                if not wants:
                    continue
                holder: WaitVertex = (
                    ("inject", router.node, ivc.index)
                    if link is None
                    else ("chan", link.index, ivc.index)
                )
                edges.setdefault(holder, set()).update(wants)
                blocked.append({
                    "node": router.node,
                    "port": port.index,
                    "vc": ivc.index,
                    "pid": packet.pid,
                    "src": packet.src,
                    "dst": packet.dst,
                    "age": now - packet.create_cycle,
                    "state": why,
                    "holds": list(holder),
                    "wants": [list(want) for want in wants],
                })
    # The static passes' finder, over sorted adjacency; its closed walk
    # repeats the first vertex at the end.
    cycle = find_cycle({vertex: sorted(succ) for vertex, succ in edges.items()})[:-1]
    return {
        "blocked": blocked,
        "edges": [[list(a), list(b)] for a, bs in sorted(edges.items()) for b in sorted(bs)],
        "cycle": [[link, vc] for _tag, link, vc in cycle],
    }


def cycle_in_graph(
    cycle: Sequence[tuple[int, int]],
    edges: dict[tuple[int, int], set[tuple[int, int]]],
) -> bool:
    """True when ``cycle`` is a closed walk of the dependency graph.

    Used to cross-check a runtime wait-for cycle against the edge set of
    the static CDG (``build_cdg(network).edges``): every consecutive pair
    of the runtime cycle — including the wrap-around — must be a
    dependency the static analysis predicted.
    """
    if not cycle:
        return False
    closed = list(cycle) + [cycle[0]]
    return all(b in edges.get(a, set()) for a, b in zip(closed, closed[1:]))


# ---------------------------------------------------------------------------
# in-flight packet table
# ---------------------------------------------------------------------------


def inflight_packet_table(
    network: "Network", now: int, *, max_packets: int = 256
) -> dict[str, Any]:
    """Every packet with flits in the network: age, stage, positions.

    The ``stage`` column uses the attribution taxonomy of
    :data:`repro.telemetry.attribution.STAGES`, derived from where the
    packet's head-most in-network flit currently sits.
    """
    from repro.noc.vc import VC_ACTIVE, VC_IDLE, VC_VA

    entries: dict[int, dict[str, Any]] = {}

    def note(
        packet: "Packet", index: int, stage: str, position: dict[str, Any], flits: int = 1
    ) -> None:
        """Count ``flits`` flits of ``packet``, the head-most at ``index``."""
        entry = entries.get(packet.pid)
        if entry is None:
            entry = entries[packet.pid] = {
                "pid": packet.pid,
                "src": packet.src,
                "dst": packet.dst,
                "len": packet.length,
                "age": now - packet.create_cycle,
                "flits_in_network": 0,
                "stage": stage,
                "positions": [],
                "_head_index": index,
            }
        entry["flits_in_network"] += flits
        if len(entry["positions"]) < 4 and position not in entry["positions"]:
            entry["positions"].append(position)
        if index <= entry["_head_index"]:
            entry["_head_index"] = index
            entry["stage"] = stage

    for router in network.routers:
        for port in router.inputs:
            injection = port.link is None
            for ivc in port.vcs:
                if not ivc.n:
                    continue
                if injection:
                    stage = "source_queue" if ivc.state == VC_IDLE else "va_wait"
                elif ivc.state == VC_VA:
                    stage = "va_wait"
                elif ivc.state == VC_ACTIVE:
                    out = router.outputs[ivc.out_port]
                    stalled = (
                        out.link is not None and out.credits[ivc.out_vc] <= 0
                    )
                    stage = "credit_stall" if stalled else "switch_wait"
                else:
                    stage = "va_wait"
                position = {
                    "loc": "router",
                    "node": router.node,
                    "port": port.index,
                    "vc": ivc.index,
                }
                if injection:
                    # The source queue: the head packet at the VC's stage,
                    # the whole packets behind it waiting.
                    queue = ivc.queue
                    head = queue[0]
                    note(head, ivc.front, stage, position, head.length - ivc.front)
                    for packet in islice(queue, 1, None):
                        note(packet, 0, "source_queue", position, packet.length)
                else:
                    for packet, index in ivc.flits():
                        note(packet, index, stage, position)
    for link in network.links:
        position = {"loc": "link", "link": link.index}
        for packet, index, count, _vc, stage in link.contents():
            note(packet, index, stage, position, count)
    table = sorted(entries.values(), key=lambda e: (-e["age"], e["pid"]))
    for entry in table:
        del entry["_head_index"]
    return {"total": len(table), "table": table[:max_packets]}


# ---------------------------------------------------------------------------
# bundle capture
# ---------------------------------------------------------------------------


def capture_bundle(
    network: "Network",
    *,
    now: int,
    reason: str,
    error: Optional[BaseException] = None,
    recorder: Optional[FlightRecorder] = None,
    monitor: Optional[HealthMonitor] = None,
    recorder_tail: int = 200,
) -> dict[str, Any]:
    """Snapshot everything needed to explain a wedged run.

    ``reason`` is a short slug (``"deadlock"``, ``"drain-timeout"``,
    ``"invariant-violation"``, ``"manual"``...).  Only routers and links
    actually holding state are snapshotted in full; the channel table
    covers the whole topology so link indices stay resolvable.
    """
    routers = [
        router.snapshot_state()
        for router in network.routers
        if router.buffered_flits() > 0
    ]
    links = [
        link.snapshot_state()
        for link in network.links
        if getattr(link, "occupancy", 0) or any(
            link.pending_credits(vc) for vc in range(link.spec.n_vcs)
        )
    ]
    channels = [
        {
            "index": link.index,
            "src": link.spec.src,
            "dst": link.spec.dst,
            "kind": link.spec.kind.value,
            "n_vcs": link.spec.n_vcs,
            "interface": bool(link.spec.is_interface),
        }
        for link in network.links
    ]
    bundle: dict[str, Any] = {
        "schema_version": FORENSICS_SCHEMA_VERSION,
        "reason": reason,
        "cycle": now,
        "error": None if error is None else str(error),
        "error_type": None if error is None else type(error).__name__,
        "network": {
            "n_nodes": network.n_nodes,
            "n_links": len(network.links),
            "buffered_flits": network.buffered_flits(),
            "in_flight_flits": network.in_flight_flits(),
        },
        "channels": channels,
        "routers": routers,
        "links": links,
        "packets": inflight_packet_table(network, now),
        "waitfor": extract_wait_graph(network, now),
        "health": monitor.summary() if monitor is not None else None,
        "recorder": None,
    }
    if recorder is not None:
        bundle["recorder"] = {**recorder.summary(), "tail": recorder.tail(recorder_tail)}
    return bundle


def write_bundle(bundle: dict[str, Any], directory: str | Path) -> Path:
    """Write one bundle as pretty JSON; returns the written path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"BUNDLE_{bundle.get('reason', 'manual')}_{bundle.get('cycle', 0)}"
    path = directory / f"{stem}.json"
    serial = 1
    while path.exists():
        path = directory / f"{stem}_{serial}.json"
        serial += 1
    path.write_text(json.dumps(bundle, indent=1, sort_keys=True), encoding="utf-8")
    return path


def load_bundle(path: str | Path) -> dict[str, Any]:
    """Read and validate a bundle file."""
    try:
        bundle = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read bundle {path}: {exc}") from None
    validate_bundle(bundle)
    return bundle


_VERTEX = Row((str, int, int))  # a wait-for vertex: ("chan", link, vc) / ("inject", node, vc)

#: What the postmortem renderers read, section by section: key -> (name in
#: errors, :func:`~repro.telemetry.live.fits` spec).
_SECTIONS: dict[str, tuple[str, Any]] = {
    "network": ("network summary", {
        "n_nodes": int, "n_links": int, "buffered_flits": int, "in_flight_flits": int}),
    "channels": ("channel table", [{"index": int, "src": int, "dst": int, "kind": str}]),
    "routers": ("router table", [{"node": int, "buffered": int}]),
    "packets": ("packet table", {"total": int, "table": [{
        "pid": int, "src": int, "dst": int, "age": int, "flits_in_network": int, "stage": str}]}),
    "waitfor": ("wait-for graph", {
        "blocked": [{"node": int, "port": int, "vc": int, "state": str, "pid": int, "age": int,
                     "wants": [_VERTEX]}],
        "edges": [Row((_VERTEX, _VERTEX))], "cycle": [Row((int, int))]}),
    "health": ("health summary", {
        "probes": int, "anomaly_count": int, "flags": [str], "max_oldest_age": int,
        "anomalies": [{"cycle": int, "kind": str, "detail": str}]}),
    "recorder": ("recorder summary", {
        "window": int, "events_recorded": int, "dropped": int,
        "tail": [{"event": str, "cycle": int}]}),
}
#: Sections that are null when no monitor / recorder was attached.
_NULLABLE = ("health", "recorder")
#: Top-level keys every v1 bundle must carry.
_REQUIRED_KEYS = ("schema_version", "reason", "cycle", "links",
                  *(key for key in _SECTIONS if key not in _NULLABLE))


def validate_bundle(bundle: Any) -> None:
    """Raise :class:`ValueError` unless ``bundle`` is a readable v1 bundle.

    Checks every nested field the postmortem renderers
    (:mod:`repro.telemetry.dashboard`) read, so a bundle that validates
    renders.
    """
    if not isinstance(bundle, dict):
        raise ValueError("bundle is not a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in bundle]
    if missing:
        raise ValueError(f"bundle is missing keys: {', '.join(missing)}")
    version = bundle["schema_version"]
    if version != FORENSICS_SCHEMA_VERSION:
        raise ValueError(
            f"bundle schema v{version!r} is not supported "
            f"(this build reads v{FORENSICS_SCHEMA_VERSION})"
        )
    for key, (name, spec) in _SECTIONS.items():
        if not (key in _NULLABLE and bundle.get(key) is None or fits(bundle[key], spec)):
            raise ValueError(f"bundle {name} is malformed")
    if not isinstance(bundle["reason"], str) or bundle["network"]["n_nodes"] < 1:
        raise ValueError("bundle reason or node count is malformed")

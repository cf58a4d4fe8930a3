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
  :func:`repro.routing.deadlock.build_cdg` — so a runtime deadlock is
  mechanically cross-checkable against the static analysis.

:class:`~repro.telemetry.session.TelemetrySession` owns the recorder and
is the :class:`~repro.sim.engine.Engine`'s failure hook: its ``fail``
captures and writes a bundle, so every
:class:`~repro.sim.stats.DeadlockError`, drain timeout or
:class:`~repro.analysis.sanitizer.InvariantViolation` leaves one on disk.
``repro postmortem BUNDLE`` renders a bundle as a text report or a
self-contained HTML page.

Import note: like every collector in this package, this module must not
import ``repro.noc`` / ``repro.core`` at module load (``repro.noc``
imports :mod:`repro.telemetry.bus`); simulator types appear only under
``typing.TYPE_CHECKING`` and simulator state is reached through duck
typing and the ``snapshot_state`` hooks.
"""

from __future__ import annotations

import html as _html
import json
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from .bus import EVENT_NAMES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.flit import Flit, Packet
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


def _packet_ref(packet: "Packet") -> dict[str, int]:
    return {
        "pid": packet.pid,
        "src": packet.src,
        "dst": packet.dst,
        "len": packet.length,
    }


def _flit_ref(flit: "Flit") -> dict[str, int]:
    return {"pid": flit.packet.pid, "flit": flit.index}


def _decode_event(name: str, args: tuple) -> dict[str, Any]:
    """One recorded ``(name, args)`` pair -> a JSON-serializable record."""
    out: dict[str, Any] = {"event": name, "cycle": _event_cycle(name, args)}
    if name == "packet_inject":
        out["packet"] = _packet_ref(args[1])
    elif name == "packet_eject":
        out["node"] = args[0].node
        out["packet"] = _packet_ref(args[1])
    elif name == "route_compute":
        out.update(node=args[0].node, packet=_packet_ref(args[1]),
                   in_port=args[2], in_vc=args[3])
    elif name == "vc_alloc":
        out.update(node=args[0].node, packet=_packet_ref(args[1]),
                   in_port=args[2], in_vc=args[3],
                   out_port=args[4], out_vc=args[5])
    elif name == "flit_send":
        out.update(node=args[0].node, flit=_flit_ref(args[1]),
                   out_port=args[2], out_vc=args[3])
    elif name == "flit_recv":
        out.update(node=args[0].node, port=args[1], vc=args[2],
                   flit=_flit_ref(args[3]))
    elif name == "link_accept":
        out.update(link=args[0].index, flit=_flit_ref(args[1]), vc=args[2])
    elif name == "credit_return":
        out.update(link=args[0].index, vc=args[1])
    elif name == "credit_stall":
        out.update(node=args[0].node, out_port=args[1], vc=args[2])
    elif name == "phy_dispatch":
        out.update(link=args[0].index, flit=_flit_ref(args[1]),
                   vc=args[2], phy=args[3])
    elif name in ("rob_insert", "rob_release"):
        out.update(link=args[0].index, flit=_flit_ref(args[1]), vc=args[2])
    else:  # pragma: no cover - defensive
        out["args"] = repr(args)
    return out


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
            unknown = [n for n in names if n not in EVENT_NAMES]
            if unknown:
                raise ValueError(f"unknown telemetry event(s): {', '.join(unknown)}")
        self.network = network
        self.window = window
        self.max_events = max_events
        self.event_names = names
        self.dropped = 0
        self.now = 0
        # One deque per event: the tap appends the raw args tuple and the
        # event name stays implicit, saving a tuple allocation per event.
        self._bufs: dict[str, deque[tuple]] = {name: deque() for name in names}
        self._callbacks: dict[str, Callable[..., None]] = {}
        self._cycles_until_trim = self.TRIM_STRIDE
        self._attached = False
        bus = network.telemetry
        for name in names:
            callback = _make_tap(self._bufs[name].append)
            self._callbacks[name] = callback
            bus.subscribe(name, callback)
        bus.subscribe("cycle_end", self._on_cycle_end)
        self._attached = True

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
        if not self._attached:
            return
        bus = self.network.telemetry
        for name, callback in self._callbacks.items():
            bus.unsubscribe(name, callback)
        bus.unsubscribe("cycle_end", self._on_cycle_end)
        self._attached = False

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

# Input-VC pipeline states; values mirror repro.noc.router (asserted by
# tests so the two cannot drift apart without failing).
_VC_IDLE, _VC_VA, _VC_ACTIVE = 0, 1, 2
_STATE_NAMES = {_VC_IDLE: "idle", _VC_VA: "va_wait", _VC_ACTIVE: "active"}


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
    edges: dict[WaitVertex, set[WaitVertex]] = {}
    blocked: list[dict[str, Any]] = []
    for router in network.routers:
        outputs = router.outputs
        for port in router.inputs:
            link = port.link
            for ivc in port.vcs:
                if not ivc.queue or ivc.state == _VC_IDLE:
                    continue
                packet = ivc.queue[0].packet
                wants: list[WaitVertex] = []
                why = _STATE_NAMES[ivc.state]
                if ivc.state == _VC_VA:
                    for out_port, out_vc, _escape in ivc.candidates or ():
                        out_link = outputs[out_port].link
                        if out_link is None:
                            continue  # ejection never blocks VC allocation
                        wants.append(("chan", out_link.index, out_vc))
                else:  # _VC_ACTIVE
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
    cycle = _find_cycle(edges)
    return {
        "blocked": blocked,
        "edges": [[list(a), list(b)] for a, bs in sorted(edges.items()) for b in sorted(bs)],
        "cycle": [[link, vc] for _tag, link, vc in cycle],
    }


def _find_cycle(graph: dict[WaitVertex, set[WaitVertex]]) -> list[WaitVertex]:
    """A cycle in the wait-for graph, or ``[]`` (iterative 3-color DFS).

    Returned open: consecutive elements are edges, and so is last -> first
    (the wrap-around is implied, not repeated).
    """
    white, gray, black = 0, 1, 2
    color: dict[WaitVertex, int] = {}
    parent: dict[WaitVertex, WaitVertex] = {}
    for start in graph:
        if color.get(start, white) != white:
            continue
        stack: list[tuple[WaitVertex, Any]] = [(start, iter(sorted(graph.get(start, ()))))]
        color[start] = gray
        while stack:
            vertex, it = stack[-1]
            advanced = False
            for nxt in it:
                state = color.get(nxt, white)
                if state == gray:
                    cycle = [vertex]
                    walk = vertex
                    while walk != nxt:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return cycle
                if state == white:
                    color[nxt] = gray
                    parent[nxt] = vertex
                    stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[vertex] = black
                stack.pop()
    return []


def waitfor_cycle_channels(bundle: dict[str, Any]) -> list[tuple[int, int]]:
    """The bundle's wait-for cycle as ``(link index, vc)`` tuples."""
    return [tuple(entry) for entry in bundle.get("waitfor", {}).get("cycle", [])]


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
                if not ivc.queue:
                    continue
                if injection:
                    stage = "source_queue" if ivc.state == _VC_IDLE else "va_wait"
                elif ivc.state == _VC_VA:
                    stage = "va_wait"
                elif ivc.state == _VC_ACTIVE:
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
                for flit in ivc.queue:
                    note(flit.packet, flit.index, stage, position)
                # Source queue behind the head packet: whole packets, not
                # yet carved into flits.
                for packet in ivc.backlog or ():
                    note(packet, 0, "source_queue", position, packet.length)
    for link in network.links:
        position = {"loc": "link", "link": link.index}
        for flit, stage in _link_flit_stages(link):
            note(flit.packet, flit.index, stage, position)
    table = sorted(entries.values(), key=lambda e: (-e["age"], e["pid"]))
    for entry in table:
        del entry["_head_index"]
    return {"total": len(table), "table": table[:max_packets]}


def _link_flit_stages(link: Any) -> Iterable[tuple["Flit", str]]:
    """(flit, attribution stage) pairs for every flit inside one link."""
    pipe = getattr(link, "_pipe", None)
    if pipe is not None:  # PipelinedLink
        stage = link.traversal_stage or "link_onchip"
        for _due, flit, _vc in pipe:
            yield flit, stage
        return
    if getattr(link, "rob", None) is None:
        return
    # HeteroPhyLink: TX FIFO, bypass queue, both PHY pipelines, ROB.
    for flit, _vc in link._txq:
        yield flit, "phy_tx_queue"
    for flit, _vc in link._bypassq:
        yield flit, "phy_tx_queue"
    for _due, flit, _vc, _sn in link._par_pipe:
        yield flit, "phy_parallel"
    for _due, flit, _vc, _sn in link._ser_pipe:
        yield flit, "phy_serial"
    for flit in link.rob.waiting_flits():
        yield flit, "rob_wait"


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


#: Top-level keys every v1 bundle must carry.
_REQUIRED_KEYS = (
    "schema_version",
    "reason",
    "cycle",
    "network",
    "channels",
    "routers",
    "links",
    "packets",
    "waitfor",
)

#: What the renderers read below the top level: key -> (name in errors,
#: field types).  ``channels`` and ``routers`` hold lists of such records;
#: ``health`` and ``recorder`` may be null.
_SECTIONS: dict[str, tuple[str, dict[str, type]]] = {
    "network": ("network summary", {
        "n_nodes": int, "n_links": int, "buffered_flits": int, "in_flight_flits": int}),
    "channels": ("channel table", {"index": int, "src": int, "dst": int, "kind": str}),
    "routers": ("router table", {"node": int, "buffered": int}),
    "packets": ("packet table", {"total": int, "table": list}),
    "waitfor": ("wait-for graph", {"blocked": list, "edges": list, "cycle": list}),
    "health": ("health summary", {
        "probes": int, "anomaly_count": int, "flags": list, "max_oldest_age": int,
        "anomalies": list}),
    "recorder": ("recorder summary", {
        "window": int, "events_recorded": int, "dropped": int, "tail": list}),
}
#: The list of rows some sections carry: key -> (field, row field types).
_ROWS: dict[str, tuple[str, dict[str, type]]] = {
    "packets": ("table", {
        "pid": int, "src": int, "dst": int, "age": int, "flits_in_network": int, "stage": str}),
    "waitfor": ("blocked", {
        "node": int, "port": int, "vc": int, "state": str, "pid": int, "age": int, "wants": list}),
    "health": ("anomalies", {"cycle": int, "kind": str, "detail": str}),
    "recorder": ("tail", {"event": str, "cycle": int}),
}


def _fits(record: Any, fields: dict[str, type]) -> bool:
    """True when ``record`` is an object carrying every field, typed."""
    return isinstance(record, dict) and all(
        isinstance(record.get(key), kind) for key, kind in fields.items()
    )


def _typed(items: Any, *kinds: type) -> bool:
    """True when ``items`` is a list typed item by item like ``kinds``."""
    return isinstance(items, list) and len(items) == len(kinds) and all(
        isinstance(item, kind) for item, kind in zip(items, kinds)
    )


def validate_bundle(bundle: Any) -> None:
    """Raise :class:`ValueError` unless ``bundle`` is a readable v1 bundle.

    Checks every nested field :func:`render_bundle_text` and
    :func:`render_bundle_html` read, so a bundle that validates renders.
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
    for key, (name, fields) in _SECTIONS.items():
        section = bundle.get(key)
        if section is None and key in ("health", "recorder"):
            continue
        records = section if key in ("channels", "routers") else [section]
        ok = isinstance(records, list) and all(_fits(record, fields) for record in records)
        if ok and key in _ROWS:
            column, row = _ROWS[key]
            ok = all(_fits(entry, row) for entry in section[column])
        if not ok:
            raise ValueError(f"bundle {name} is malformed")
    waitfor, vertex = bundle["waitfor"], (str, int, int)
    if not (
        all(_typed(channel, int, int) for channel in waitfor["cycle"])
        and all(_typed(edge, list, list) and all(_typed(end, *vertex) for end in edge)
                for edge in waitfor["edges"])
        and all(_typed(want, *vertex) for entry in waitfor["blocked"] for want in entry["wants"])
    ):
        raise ValueError("bundle wait-for graph is malformed")
    if not all(isinstance(flag, str) for flag in (bundle.get("health") or {}).get("flags", ())):
        raise ValueError("bundle health summary is malformed")
    if not isinstance(bundle["reason"], str) or bundle["network"]["n_nodes"] < 1:
        raise ValueError("bundle reason or node count is malformed")


# ---------------------------------------------------------------------------
# rendering (repro postmortem)
# ---------------------------------------------------------------------------


def _channel_index(bundle: dict[str, Any]) -> dict[int, dict[str, Any]]:
    return {entry["index"]: entry for entry in bundle.get("channels", [])}


def _format_channel(channels: dict[int, dict[str, Any]], link: int, vc: int) -> str:
    info = channels.get(link)
    if info is None:
        return f"link {link} vc {vc}"
    return f"link {link} vc {vc} ({info['src']}->{info['dst']} {info['kind']})"


def render_bundle_text(bundle: dict[str, Any], *, tail: int = 20) -> str:
    """The human-readable postmortem report of one bundle."""
    channels = _channel_index(bundle)
    net = bundle["network"]
    lines = [
        f"postmortem: {bundle['reason']} at cycle {bundle['cycle']}",
        f"error     : {bundle.get('error_type') or '-'}"
        + (f": {bundle['error']}" if bundle.get("error") else ""),
        f"network   : {net['n_nodes']} nodes, {net['n_links']} links, "
        f"{net['buffered_flits']} flits buffered, "
        f"{net['in_flight_flits']} in flight",
        "",
    ]
    cycle = bundle["waitfor"]["cycle"]
    if cycle:
        lines.append(f"wait-for cycle ({len(cycle)} channels — deadlocked loop):")
        for link, vc in cycle:
            lines.append(f"  {_format_channel(channels, link, vc)}")
    else:
        lines.append("wait-for cycle: none found (stall, not a resource deadlock)")
    blocked = bundle["waitfor"]["blocked"]
    if blocked:
        lines.append("")
        lines.append(f"blocked input VCs ({len(blocked)}):")
        lines.append("  node port vc state         pid      age  waiting on")
        for entry in blocked[:20]:
            wants = ", ".join(
                _format_channel(channels, want[1], want[2])
                for want in entry["wants"][:3]
            )
            lines.append(
                f"  {entry['node']:>4d} {entry['port']:>4d} {entry['vc']:>2d} "
                f"{entry['state']:<13s} {entry['pid']:>6d} {entry['age']:>7d}  "
                f"{wants}"
            )
        if len(blocked) > 20:
            lines.append(f"  ... and {len(blocked) - 20} more")
    packets = bundle["packets"]
    lines.append("")
    lines.append(f"in-flight packets ({packets['total']}):")
    lines.append("    pid  src->dst      age  flits  stage")
    for entry in packets["table"][:15]:
        lines.append(
            f"  {entry['pid']:>5d}  {entry['src']:>3d}->{entry['dst']:<3d}  "
            f"{entry['age']:>7d}  {entry['flits_in_network']:>5d}  {entry['stage']}"
        )
    if packets["total"] > 15:
        lines.append(f"  ... and {packets['total'] - 15} more")
    health = bundle.get("health")
    if health:
        lines.append("")
        lines.append(
            f"health: {health['probes']} epochs checked, "
            f"{health['anomaly_count']} anomalies "
            f"(flags: {', '.join(health['flags']) or 'none'}), "
            f"max in-flight age {health['max_oldest_age']}"
        )
        for anomaly in health["anomalies"][:8]:
            lines.append(
                f"  cycle {anomaly['cycle']}: {anomaly['kind']}: {anomaly['detail']}"
            )
    recorder = bundle.get("recorder")
    if recorder:
        lines.append("")
        lines.append(
            f"flight recorder: {recorder['events_recorded']} events retained "
            f"(window {recorder['window']} cycles, {recorder['dropped']} dropped)"
        )
        for event in recorder["tail"][-tail:]:
            fields = ", ".join(
                f"{key}={value}"
                for key, value in event.items()
                if key not in ("event", "cycle")
            )
            lines.append(f"  cycle {event['cycle']:>8d} {event['event']:<14s} {fields}")
    return "\n".join(lines)


def render_bundle_html(bundle: dict[str, Any]) -> str:
    """A self-contained HTML postmortem page for one bundle."""
    from repro.viz import svg_node_heatmap, svg_waitfor_graph

    from .dashboard import html_table, render_page

    channels = _channel_index(bundle)
    waitfor = bundle["waitfor"]
    net = bundle["network"]
    esc = _html.escape

    nodes = sorted(
        {tuple(a) for a, _b in waitfor["edges"]}
        | {tuple(b) for _a, b in waitfor["edges"]}
    )
    labels = {}
    for vertex in nodes:
        tag, first, second = vertex
        if tag == "chan":
            info = channels.get(first)
            arrow = f"{info['src']}→{info['dst']}" if info else "?"
            labels[vertex] = f"L{first}v{second} {arrow}"
        else:
            labels[vertex] = f"inject n{first}v{second}"
    cycle_vertices = [("chan", link, vc) for link, vc in waitfor["cycle"]]
    graph_svg = (
        svg_waitfor_graph(
            nodes,
            [(tuple(a), tuple(b)) for a, b in waitfor["edges"]],
            cycle=cycle_vertices,
            labels=labels,
            title="wait-for graph (blocked flits; red loop = deadlock cycle)",
        )
        if nodes
        else '<p class="empty">no blocked flits — nothing waits on anything.</p>'
    )

    occupancy = {entry["node"]: entry["buffered"] for entry in bundle["routers"]}
    heatmap_svg = svg_node_heatmap(
        occupancy,
        net["n_nodes"],
        title="buffered flits per router",
    )

    packet_rows = [
        [
            str(entry["pid"]),
            f"{entry['src']}&rarr;{entry['dst']}",
            str(entry["age"]),
            str(entry["flits_in_network"]),
            esc(entry["stage"]),
        ]
        for entry in bundle["packets"]["table"][:40]
    ]
    packet_table = (
        html_table(["pid", "route", "age", "flits", "stage"], packet_rows)
        if packet_rows
        else '<p class="empty">no packets in flight.</p>'
    )

    health = bundle.get("health")
    if health:
        anomaly_rows = [
            [str(a["cycle"]), esc(a["kind"]), esc(a["detail"])]
            for a in health["anomalies"]
        ]
        health_html = (
            f"<p class=\"meta\">{health['probes']} epochs checked, "
            f"{health['anomaly_count']} anomalies, max in-flight age "
            f"{health['max_oldest_age']}</p>"
            + (
                html_table(["cycle", "kind", "detail"], anomaly_rows)
                if anomaly_rows
                else '<p class="empty">no anomalies flagged.</p>'
            )
        )
    else:
        health_html = '<p class="empty">no health monitor was attached.</p>'

    recorder = bundle.get("recorder")
    if recorder and recorder["tail"]:
        tail_text = "\n".join(
            f"cycle {event['cycle']:>8d} {event['event']:<14s} "
            + ", ".join(
                f"{key}={value}"
                for key, value in event.items()
                if key not in ("event", "cycle")
            )
            for event in recorder["tail"]
        )
        recorder_html = (
            f"<p class=\"meta\">{recorder['events_recorded']} events retained, "
            f"window {recorder['window']} cycles, {recorder['dropped']} "
            f"dropped</p><pre>{esc(tail_text)}</pre>"
        )
    else:
        recorder_html = '<p class="empty">no flight recorder was attached.</p>'

    error_line = (
        f"{esc(str(bundle.get('error_type')))}: {esc(str(bundle.get('error')))}"
        if bundle.get("error")
        else "no exception recorded"
    )
    sections = [
        f"<h1>postmortem — {esc(bundle['reason'])} at cycle {bundle['cycle']}</h1>",
        f'<p class="meta">{error_line} &middot; {net["n_nodes"]} nodes, '
        f"{net['n_links']} links &middot; {net['buffered_flits']} flits "
        f"buffered, {net['in_flight_flits']} in flight</p>",
        "<h2>Wait-for graph</h2>",
        f"<figure>{graph_svg}</figure>",
        "<h2>Router occupancy</h2>",
        f"<figure>{heatmap_svg}</figure>",
        "<h2>In-flight packets</h2>",
        packet_table,
        "<h2>Health</h2>",
        health_html,
        "<h2>Flight recorder tail</h2>",
        recorder_html,
    ]
    return render_page("repro postmortem", "".join(sections))

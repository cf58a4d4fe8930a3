"""Deterministic run digests (``repro diff`` / ``repro golden``).

:class:`RunDigest` folds every :class:`~repro.telemetry.bus.TelemetryBus`
event into one platform-stable 64-bit **chained hash**: each event's
fields are mixed into a per-cycle accumulator, and at ``cycle_end`` the
accumulator is folded into the running chain.  Two runs that emit the
same events in the same order — the bus's documented ordering guarantee —
produce byte-identical chains; the *first* cycle whose events differ
permanently diverges the chains from that cycle on.  That monotonicity is
what makes :mod:`repro.telemetry.diff` able to binary-search a divergence
down to its exact cycle.

This is the differential oracle ROADMAP item 1 (the batched fast-engine
rewrite) is gated on: any engine-core replacement must reproduce the
digest of the current reference engine on the fig11/fig14/table3 canonical
cases before it can land (see "Determinism & differential testing" in
``docs/observability.md``).

Design constraints, in order:

* **Platform stability.**  No ``hash()`` (salted per process), no
  pickling, no floats.  The mix is a pure-integer FNV-1a-style fold over
  small event fields, identical on every CPython/PyPy/OS/word size.
* **Process stability.**  Raw ``Packet.pid`` values come from a module
  global counter and differ between two runs in one process, so the
  digest canonicalizes them: packets are renumbered 0,1,2,… in injection
  order (which *is* deterministic) and every event hashes the canonical
  id, never the raw pid.
* **Zero cost when off.**  The digest is one more bus subscriber behind
  the zero-subscriber contract; plain runs never pay for it.

Artifacts:

* ``RunDigest.summary()`` — the schema-versioned ``digest`` block stored
  on :class:`~repro.telemetry.runstore.RunRecord`, in ``BENCH_*.json``
  cases and in the pin store: final chain, per-event-kind counters,
  periodic ``(cycle, chain)`` checkpoints and the run's re-simulation
  ``meta`` (family/geometry/pattern/rate/seed/horizon/policy).
* The pin store — ``benchmarks/goldens/PINS.json``, every pinned run of
  the repository in that block's shape (:mod:`repro.telemetry.pins`).

Import note: like every collector in this package, this module must not
import ``repro.noc`` / ``repro.sim`` at module load; simulator types
appear only under ``typing.TYPE_CHECKING``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .bus import EVENT_NAMES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.flit import Flit, Packet
    from repro.noc.network import Network

#: Version of the ``digest`` block schema (run records, pins).  Bump on incompatible changes; loaders reject blocks
#: written by a different version.
DIGEST_SCHEMA_VERSION = 1

#: Hash-algorithm tag carried by every digest block.  Two blocks are only
#: comparable when their tags match; the tag changes whenever the mix or
#: the per-event field encoding changes.
DIGEST_ALGO = "fnv64-chain-v1"

#: Default cycles between checkpoint samples — matches the default epoch
#: length so checkpoints line up with epoch boundaries in the live feed.
DEFAULT_CHECKPOINT_EVERY = 1_000

# FNV-1a 64-bit parameters; the fold below deviates from textbook FNV only
# in consuming whole small ints per step instead of bytes, which keeps the
# per-event cost at a handful of arithmetic ops.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

#: Event-kind tags mixed ahead of each event's fields, derived from the
#: bus catalogue order (stable: the catalogue is append-only).
_EVENT_TAG = {name: index + 1 for index, name in enumerate(EVENT_NAMES)}


class DigestError(ValueError):
    """A digest block or the pin store could not be validated."""


def chain_hex(value: int) -> str:
    """Canonical 16-digit hex rendering of one 64-bit chain value."""
    return f"{value & _MASK:016x}"


class RunDigest:
    """Streaming canonical digest of one run's telemetry event stream.

    Parameters
    ----------
    network:
        The built network whose bus is digested.
    checkpoint_every:
        Cycles between ``(cycle, chain)`` checkpoint samples.
    capture:
        Optional inclusive ``(lo, hi)`` cycle window; within it the
        per-cycle chain value is recorded in :attr:`captured`.  This is
        the re-simulation hook :mod:`repro.telemetry.diff` uses to narrow
        a divergent checkpoint interval to its exact cycle — leave it
        ``None`` for normal runs.
    """

    def __init__(
        self,
        network: "Network",
        *,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        capture: Optional[tuple[int, int]] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if capture is not None and capture[0] > capture[1]:
            raise ValueError("capture window must satisfy lo <= hi")
        self.network = network
        self.checkpoint_every = checkpoint_every
        self.capture = capture
        #: Per-cycle chain values inside the capture window (cycle -> int).
        self.captured: dict[int, int] = {}
        #: ``(cycle, chain)`` samples, one per ``checkpoint_every`` cycles.
        self.checkpoints: list[tuple[int, int]] = []
        #: Event counts by bus event name.
        self.counts: dict[str, int] = dict.fromkeys(EVENT_NAMES, 0)
        #: Re-simulation metadata, filled in by the experiment harness
        #: (family, geometry, pattern, rate, seed, horizon, policy).
        self.meta: dict[str, Any] = {}
        self.cycles = 0
        self._chain = _FNV_OFFSET
        self._acc = _FNV_OFFSET
        # Raw pid -> canonical injection-order id.  Raw pids come from a
        # process-global counter and are NOT stable across runs; injection
        # order is.
        self._pids: dict[int, int] = {}
        self._attached = False
        bus = network.telemetry
        self._handlers = {
            "packet_inject": self._on_packet_inject,
            "packet_eject": self._on_packet_eject,
            "route_compute": self._on_route_compute,
            "vc_alloc": self._on_vc_alloc,
            "flit_send": self._on_flit_send,
            "flit_recv": self._on_flit_recv,
            "link_accept": self._on_link_accept,
            "credit_return": self._on_credit_return,
            "credit_stall": self._on_credit_stall,
            "phy_dispatch": self._on_phy_dispatch,
            "rob_insert": self._on_rob,
            "rob_release": self._on_rob_release,
            "cycle_end": self._on_cycle_end,
        }
        for name, handler in self._handlers.items():
            bus.subscribe(name, handler)
        self._attached = True

    # -- canonical encoding --------------------------------------------------
    def _pid(self, packet: "Packet") -> int:
        pids = self._pids
        canon = pids.get(packet.pid)
        if canon is None:
            canon = pids[packet.pid] = len(pids)
        return canon

    def _mix(self, tag: int, *values: int) -> None:
        acc = ((self._acc ^ tag) * _FNV_PRIME) & _MASK
        for value in values:
            acc = ((acc ^ (value & _MASK)) * _FNV_PRIME) & _MASK
        self._acc = acc

    # -- event taps ----------------------------------------------------------
    # One tap per event, mixing exactly the fields that define simulated
    # behaviour (ids, ports, VCs) and never host-side state.  Argument
    # shapes follow the bus module's event catalogue.

    def _on_packet_inject(self, network: "Network", packet: "Packet") -> None:
        self.counts["packet_inject"] += 1
        self._mix(
            _EVENT_TAG["packet_inject"],
            self._pid(packet),
            packet.src,
            packet.dst,
            packet.length,
            packet.create_cycle,
        )

    def _on_packet_eject(self, router: Any, packet: "Packet", now: int) -> None:
        self.counts["packet_eject"] += 1
        self._mix(_EVENT_TAG["packet_eject"], router.node, self._pid(packet))

    def _on_route_compute(
        self, router: Any, packet: "Packet", in_port: int, in_vc: int, now: int
    ) -> None:
        self.counts["route_compute"] += 1
        self._mix(
            _EVENT_TAG["route_compute"],
            router.node,
            self._pid(packet),
            in_port,
            in_vc,
        )

    def _on_vc_alloc(
        self,
        router: Any,
        packet: "Packet",
        in_port: int,
        in_vc: int,
        out_port: int,
        out_vc: int,
        now: int,
    ) -> None:
        self.counts["vc_alloc"] += 1
        self._mix(
            _EVENT_TAG["vc_alloc"],
            router.node,
            self._pid(packet),
            in_port,
            in_vc,
            out_port,
            out_vc,
        )

    def _on_flit_send(
        self, router: Any, flit: "Flit", out_port: int, out_vc: int, now: int
    ) -> None:
        self.counts["flit_send"] += 1
        self._mix(
            _EVENT_TAG["flit_send"],
            router.node,
            self._pid(flit.packet),
            flit.index,
            out_port,
            out_vc,
        )

    def _on_flit_recv(
        self, router: Any, port: int, vc: int, flit: "Flit", now: int
    ) -> None:
        self.counts["flit_recv"] += 1
        self._mix(
            _EVENT_TAG["flit_recv"],
            router.node,
            port,
            vc,
            self._pid(flit.packet),
            flit.index,
        )

    def _on_link_accept(self, link: Any, flit: "Flit", vc: int, now: int) -> None:
        self.counts["link_accept"] += 1
        self._mix(
            _EVENT_TAG["link_accept"],
            link.index,
            self._pid(flit.packet),
            flit.index,
            vc,
        )

    def _on_credit_return(self, link: Any, vc: int, now: int) -> None:
        self.counts["credit_return"] += 1
        self._mix(_EVENT_TAG["credit_return"], link.index, vc)

    def _on_credit_stall(self, router: Any, out_port: int, vc: int, now: int) -> None:
        self.counts["credit_stall"] += 1
        self._mix(_EVENT_TAG["credit_stall"], router.node, out_port, vc)

    def _on_phy_dispatch(
        self, link: Any, flit: "Flit", vc: int, phy: str, now: int
    ) -> None:
        self.counts["phy_dispatch"] += 1
        self._mix(
            _EVENT_TAG["phy_dispatch"],
            link.index,
            self._pid(flit.packet),
            flit.index,
            vc,
            ord(phy[0]),
        )

    def _on_rob(self, link: Any, flit: "Flit", vc: int, now: int) -> None:
        self.counts["rob_insert"] += 1
        self._mix(
            _EVENT_TAG["rob_insert"],
            link.index,
            self._pid(flit.packet),
            flit.index,
            vc,
        )

    def _on_rob_release(self, link: Any, flit: "Flit", vc: int, now: int) -> None:
        self.counts["rob_release"] += 1
        self._mix(
            _EVENT_TAG["rob_release"],
            link.index,
            self._pid(flit.packet),
            flit.index,
            vc,
        )

    def _on_cycle_end(self, network: "Network", now: int) -> None:
        self.counts["cycle_end"] += 1
        # Fold this cycle's accumulator into the chain.  Once two runs'
        # chains differ they differ forever (the old chain feeds the new
        # value), which is the monotonicity the diff bisection relies on.
        chain = ((self._chain ^ now) * _FNV_PRIME) & _MASK
        chain = ((chain ^ self._acc) * _FNV_PRIME) & _MASK
        self._chain = chain
        self._acc = _FNV_OFFSET
        cycle = now + 1
        self.cycles = cycle
        capture = self.capture
        if capture is not None and capture[0] <= cycle <= capture[1]:
            self.captured[cycle] = chain
        if cycle % self.checkpoint_every == 0:
            self.checkpoints.append((cycle, chain))

    # -- lifecycle / output --------------------------------------------------
    @property
    def final(self) -> str:
        """The chain after the last folded cycle, canonical hex."""
        return chain_hex(self._chain)

    @property
    def events_total(self) -> int:
        """Events digested so far, ``cycle_end`` ticks excluded."""
        return sum(
            count for name, count in self.counts.items() if name != "cycle_end"
        )

    def detach(self) -> None:
        """Unsubscribe every tap; the bus reverts to the zero-cost path."""
        if not self._attached:
            return
        bus = self.network.telemetry
        for name, handler in self._handlers.items():
            bus.unsubscribe(name, handler)
        # The bound taps point back at this digest; dropping them leaves it
        # (and the network it names) to plain reference counting.
        self._handlers = {}
        self._attached = False

    def summary(self) -> dict[str, Any]:
        """The schema-versioned ``digest`` block for records and artifacts."""
        return {
            "schema_version": DIGEST_SCHEMA_VERSION,
            "algo": DIGEST_ALGO,
            "cycles": self.cycles,
            "final": self.final,
            "events_total": self.events_total,
            "events": {
                name: count
                for name, count in self.counts.items()
                if count and name != "cycle_end"
            },
            "checkpoint_every": self.checkpoint_every,
            "checkpoints": [
                [cycle, chain_hex(chain)] for cycle, chain in self.checkpoints
            ],
            "meta": dict(self.meta),
        }

    #: Run-record alias (the ``record_from_result`` harvest convention).
    record_summary = summary


def validate_digest_block(block: Any, *, where: str = "digest block") -> dict[str, Any]:
    """Schema-check one ``digest`` block; returns it on success."""
    if not isinstance(block, dict):
        raise DigestError(f"{where}: not a JSON object")
    version = block.get("schema_version")
    if version != DIGEST_SCHEMA_VERSION:
        raise DigestError(
            f"{where}: digest schema v{version!r} is not supported "
            f"(this build reads v{DIGEST_SCHEMA_VERSION})"
        )
    for name in ("algo", "cycles", "final", "events", "checkpoints"):
        if name not in block:
            raise DigestError(f"{where}: missing field {name!r}")
    if not isinstance(block["checkpoints"], list):
        raise DigestError(f"{where}: checkpoints is not a list")
    return block


def digests_comparable(a: dict[str, Any], b: dict[str, Any]) -> Optional[str]:
    """Why two digest blocks cannot be meaningfully compared (None: they can).

    Different hash algorithms or different simulated horizons make chain
    inequality expected rather than informative; callers render ``n/a``
    instead of a verdict.
    """
    if a.get("algo") != b.get("algo"):
        return f"digest algorithms differ ({a.get('algo')} vs {b.get('algo')})"
    if a.get("cycles") != b.get("cycles"):
        return f"simulated horizons differ ({a.get('cycles')} vs {b.get('cycles')} cycles)"
    return None


#: ``SimConfig`` fields a meta names as ``cycles`` and ``warmup`` instead.
_HORIZON_FIELDS = ("sim_cycles", "warmup_cycles")


def config_fields() -> dict[str, Any]:
    """The ``SimConfig`` fields a meta ``config`` block may set, with defaults."""
    from dataclasses import fields

    from repro.sim.config import SimConfig

    return {f.name: f.default for f in fields(SimConfig) if f.name not in _HORIZON_FIELDS}


def config_block(config: Any) -> Optional[dict[str, Any]]:
    """A meta's ``config`` block: the fields of ``config`` that differ from
    ``SimConfig()``, horizon aside (None when none does)."""
    block = {
        name: getattr(config, name)
        for name, default in config_fields().items()
        if getattr(config, name) != default
    }
    return block or None


def run_meta(
    family: str, chiplets: Any, nodes: Any, **described: Any
) -> dict[str, Any]:
    """The ``meta`` block of a digest — the one place its keys are spelled.

    ``described`` carries the workload (``pattern``/``rate``/``seed``/
    ``cycles`` for a synthetic run, which make the block re-simulable;
    ``workload`` for a trace) and whatever else names the run (``warmup``,
    ``policy``, ``perturb``, ``checkpoint_every``, ``system``,
    ``config_hash``, and ``config``, see :func:`config_block`).  Keys given
    as None are left out, so a run at ``SimConfig()`` has no ``config``.
    """
    return {
        "family": family,
        "chiplets": [int(c) for c in chiplets],
        "nodes": [int(n) for n in nodes],
        **{key: value for key, value in described.items() if value is not None},
    }

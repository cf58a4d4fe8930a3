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
    from repro.noc.flit import Packet
    from repro.noc.network import Network

#: Version of the ``digest`` block schema (run records, pins).  Bump on incompatible changes; loaders reject blocks
#: written by a different version.
DIGEST_SCHEMA_VERSION = 1

#: Hash-algorithm tag carried by every digest block.  Two blocks are only
#: comparable when their tags match; the tag changes whenever the mix or
#: the per-event field encoding changes.
DIGEST_ALGO = "fnv64-chain-v1"

#: Default cycles between checkpoint samples — matches the default epoch
#: length so checkpoints line up with the epoch sampler's boundaries.
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
        pid, mix = self._pid, self._mix
        # One row per bus event, mixing exactly the fields that define
        # simulated behaviour (ids, ports, VCs) and never host-side state.
        # Argument shapes follow the bus module's event catalogue.
        self._subscription = network.telemetry.attach({
            "packet_inject": lambda network, p: mix(
                "packet_inject", pid(p), p.src, p.dst, p.length, p.create_cycle
            ),
            "packet_eject": lambda router, p, now: mix("packet_eject", router.node, pid(p)),
            "route_compute": lambda router, p, in_port, in_vc, now: mix(
                "route_compute", router.node, pid(p), in_port, in_vc
            ),
            "vc_alloc": lambda router, p, in_port, in_vc, out_port, out_vc, now: mix(
                "vc_alloc", router.node, pid(p), in_port, in_vc, out_port, out_vc
            ),
            "flit_send": lambda router, f, out_port, out_vc, now: mix(
                "flit_send", router.node, pid(f.packet), f.index, out_port, out_vc
            ),
            "flit_recv": lambda router, port, vc, f, now: mix(
                "flit_recv", router.node, port, vc, pid(f.packet), f.index
            ),
            "link_accept": lambda link, f, vc, now: mix(
                "link_accept", link.index, pid(f.packet), f.index, vc
            ),
            "credit_return": lambda link, vc, now: mix("credit_return", link.index, vc),
            "credit_stall": lambda router, out_port, vc, now: mix(
                "credit_stall", router.node, out_port, vc
            ),
            "phy_dispatch": lambda link, f, vc, phy, now: mix(
                "phy_dispatch", link.index, pid(f.packet), f.index, vc, ord(phy[0])
            ),
            "rob_insert": lambda link, f, vc, now: mix(
                "rob_insert", link.index, pid(f.packet), f.index, vc
            ),
            "rob_release": lambda link, f, vc, now: mix(
                "rob_release", link.index, pid(f.packet), f.index, vc
            ),
            "cycle_end": self._on_cycle_end,
        })

    # -- canonical encoding --------------------------------------------------
    def _pid(self, packet: "Packet") -> int:
        pids = self._pids
        canon = pids.get(packet.pid)
        if canon is None:
            canon = pids[packet.pid] = len(pids)
        return canon

    def _mix(self, event: str, *values: int) -> None:
        self.counts[event] += 1
        acc = ((self._acc ^ _EVENT_TAG[event]) * _FNV_PRIME) & _MASK
        for value in values:
            acc = ((acc ^ (value & _MASK)) * _FNV_PRIME) & _MASK
        self._acc = acc

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
        """Unsubscribe every row; the bus reverts to the zero-cost path."""
        self._subscription.close()

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

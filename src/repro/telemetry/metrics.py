"""Per-epoch time-series metric collectors: the one periodic sampler.

:class:`EpochMetrics` subscribes to the network's telemetry bus and closes
one :class:`EpochSample` every ``epoch_length`` cycles.  Everything that
can be derived from counters the simulator already maintains is collected
by *differencing* those counters at epoch boundaries (per-link flits,
hetero-PHY dispatch split, injected/delivered totals), so steady-state
collection costs one sweep per epoch, not per cycle.  Only credit-stall
accounting listens to a per-event hook, and that event fires only under
congestion.

It is the only observer that samples network state on a clock: health
checks, the progress line and the Chrome trace's counter tracks are
*readers* of its closed samples (``readers``, called in order
at each epoch close), so one occupancy scan per epoch serves them all.
(The other ``cycle_end`` subscribers sample nothing: the flight recorder
trims its window, the run digest chains the cycle, the sanitizer checks
invariants.)  :class:`HealthMonitor` is the first such reader: it checks
each closed sample against :class:`HealthThresholds`.

Collected per epoch:

* per-link carried flits and utilization (flits / cycle / lane);
* per-(router, port, VC) buffer occupancy, sampled at the epoch boundary
  (non-zero entries only — queues are sparse in healthy runs);
* credit-stall cycles per (router, output port, VC);
* reorder-buffer occupancy sample + in-epoch peak per hetero-PHY link;
* hetero-PHY dispatch split (parallel / serial / bypassed flits);
* global progress: flits injected, measured packets delivered, router
  flit movements, and buffered / in-flight samples.

Epochs whose *start* falls inside the warm-up window are flagged
``warmup=True``; accessors exclude them by default, matching the
measured-population convention of :class:`repro.sim.stats.Stats`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.noc.router import Router


@dataclass
class EpochSample:
    """Everything measured over one epoch ``[start, end)``."""

    index: int
    start: int
    end: int
    warmup: bool
    flits_injected: int
    packets_delivered: int
    router_flits: int
    buffered: int
    in_flight: int
    #: link index -> flits carried this epoch (non-zero entries only).
    link_flits: dict[int, int] = field(default_factory=dict)
    #: (node, port, vc) -> flits buffered at the epoch boundary (non-zero).
    buffer_occupancy: dict[tuple[int, int, int], int] = field(default_factory=dict)
    #: (node, out_port, vc) -> cycles stalled on zero credits this epoch.
    credit_stalls: dict[tuple[int, int, int], int] = field(default_factory=dict)
    #: link index -> (occupancy sample, in-epoch peak) of the reorder buffer.
    rob: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: link index -> (parallel, serial, bypassed) flits dispatched this epoch.
    phy_split: dict[int, tuple[int, int, int]] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        """One JSON-serializable epoch document.

        The shape that lands in ``metrics.json`` (via
        :meth:`EpochMetrics.to_json`).
        """
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "warmup": self.warmup,
            "flits_injected": self.flits_injected,
            "packets_delivered": self.packets_delivered,
            "router_flits": self.router_flits,
            "buffered": self.buffered,
            "in_flight": self.in_flight,
            "link_flits": {str(k): v for k, v in self.link_flits.items()},
            "buffer_occupancy": [
                {"node": node, "port": port, "vc": vc, "flits": flits}
                for (node, port, vc), flits in self.buffer_occupancy.items()
            ],
            "credit_stalls": [
                {"node": node, "out_port": port, "vc": vc, "cycles": cycles}
                for (node, port, vc), cycles in self.credit_stalls.items()
            ],
            "rob": {
                str(index): {"occupancy": occ, "peak": peak}
                for index, (occ, peak) in self.rob.items()
            },
            "phy_split": {
                str(index): {"parallel": par, "serial": ser, "bypassed": byp}
                for index, (par, ser, byp) in self.phy_split.items()
            },
        }


class EpochMetrics:
    """Time-series collector attached to a network's telemetry bus.

    Parameters
    ----------
    network:
        The built network to observe.
    epoch_length:
        Cycles per epoch (>= 1).
    warmup:
        Epochs starting before this cycle are flagged as warm-up and
        excluded from :meth:`epochs` / :meth:`totals` by default.
    readers:
        Callables handed each :class:`EpochSample` as it closes, in order.
    """

    def __init__(
        self,
        network: "Network",
        *,
        epoch_length: int = 1_000,
        warmup: int = 0,
        readers: Iterable[Callable[[EpochSample], None]] = (),
    ) -> None:
        if epoch_length < 1:
            raise ValueError("epoch_length must be >= 1")
        self.network = network
        self.epoch_length = epoch_length
        self.warmup = warmup
        self.readers = list(readers)
        self.samples: list[EpochSample] = []
        self._stall_counts: dict[tuple[int, int, int], int] = {}
        self._epoch_start = 0
        self._next_boundary = epoch_length
        # Counter baselines for differencing at epoch boundaries.
        self._base_link_flits = [link.flits_carried for link in network.links]
        self._base_phy: dict[int, tuple[int, int, int]] = {
            index: split for index, split in self._phy_counters()
        }
        stats = network.stats
        self._base_injected = stats.flits_injected
        self._base_delivered = stats.packets_delivered
        self._base_router_flits = stats.router_flits
        self._subscription = network.telemetry.attach(
            {"cycle_end": self._on_cycle_end, "credit_stall": self._on_credit_stall}
        )

    # -- bus callbacks -----------------------------------------------------
    def _on_credit_stall(self, router: "Router", out_port: int, vc: int, now: int) -> None:
        key = (router.node, out_port, vc)
        self._stall_counts[key] = self._stall_counts.get(key, 0) + 1

    def _on_cycle_end(self, network: "Network", now: int) -> None:
        if now + 1 >= self._next_boundary:
            self._close_epoch(self._next_boundary)
            self._next_boundary += self.epoch_length

    # -- lifecycle ---------------------------------------------------------
    def finish(self, end_cycle: int) -> None:
        """Close a trailing partial epoch and detach from the bus."""
        if not self._subscription.closed and end_cycle > self._epoch_start:
            self._close_epoch(end_cycle)
        self.detach()

    def detach(self) -> None:
        self._subscription.close()

    # -- epoch assembly ----------------------------------------------------
    def _phy_counters(self) -> list[tuple[int, tuple[int, int, int]]]:
        counters = []
        for index, link in enumerate(self.network.links):
            parallel = getattr(link, "flits_parallel", None)
            if parallel is not None:
                counters.append(
                    (index, (parallel, link.flits_serial, link.flits_bypassed))  # type: ignore[attr-defined]
                )
        return counters

    def _close_epoch(self, end: int) -> None:
        network = self.network
        stats = network.stats
        links = network.links
        link_flits: dict[int, int] = {}
        for index, link in enumerate(links):
            delta = link.flits_carried - self._base_link_flits[index]
            if delta:
                link_flits[index] = delta
                self._base_link_flits[index] = link.flits_carried
        phy_split: dict[int, tuple[int, int, int]] = {}
        rob: dict[int, tuple[int, int]] = {}
        for index, counters in self._phy_counters():
            base = self._base_phy[index]
            delta3 = (
                counters[0] - base[0],
                counters[1] - base[1],
                counters[2] - base[2],
            )
            if any(delta3):
                phy_split[index] = delta3
                self._base_phy[index] = counters
            link = links[index]
            occupancy = link.rob.occupancy  # type: ignore[attr-defined]
            peak = link.rob.take_window_peak()  # type: ignore[attr-defined]
            if occupancy or peak:
                rob[index] = (occupancy, peak)
        buffer_occupancy: dict[tuple[int, int, int], int] = {}
        for router in network.routers:
            for port in router.inputs:
                for vc in port.vcs:
                    if vc.n:
                        buffer_occupancy[(router.node, port.index, vc.index)] = vc.n
        sample = EpochSample(
            index=len(self.samples),
            start=self._epoch_start,
            end=end,
            warmup=self._epoch_start < self.warmup,
            flits_injected=stats.flits_injected - self._base_injected,
            packets_delivered=stats.packets_delivered - self._base_delivered,
            router_flits=stats.router_flits - self._base_router_flits,
            buffered=network.buffered_flits(),
            in_flight=network.in_flight_flits(),
            link_flits=link_flits,
            buffer_occupancy=buffer_occupancy,
            credit_stalls=self._stall_counts,
            rob=rob,
            phy_split=phy_split,
        )
        self.samples.append(sample)
        self._stall_counts = {}
        self._base_injected = stats.flits_injected
        self._base_delivered = stats.packets_delivered
        self._base_router_flits = stats.router_flits
        self._epoch_start = end
        for reader in self.readers:
            reader(sample)

    # -- accessors ---------------------------------------------------------
    def epochs(self, *, include_warmup: bool = False) -> list[EpochSample]:
        """Closed epochs, excluding warm-up epochs unless asked."""
        if include_warmup:
            return list(self.samples)
        return [sample for sample in self.samples if not sample.warmup]

    def link_utilization(self, sample: EpochSample, link_index: int) -> float:
        """Utilization of one link over one epoch (flits / cycle / lane)."""
        spec = self.network.specs[link_index]
        flits = sample.link_flits.get(link_index, 0)
        return flits / (sample.cycles * spec.total_bandwidth)

    def link_series(
        self, *, top: int = 10, include_warmup: bool = True
    ) -> tuple[list[str], list[list[float]]]:
        """(labels, rows) of per-epoch utilization for the busiest links.

        Rows are aligned to :meth:`epochs` order and feed directly into
        :func:`repro.viz.timeseries_heatmap`.
        """
        samples = self.epochs(include_warmup=include_warmup)
        if not samples:
            return [], []
        totals: dict[int, int] = {}
        for sample in samples:
            for index, flits in sample.link_flits.items():
                totals[index] = totals.get(index, 0) + flits
        busiest = sorted(totals, key=lambda index: -totals[index])[:top]
        labels = []
        rows = []
        for index in busiest:
            spec = self.network.specs[index]
            labels.append(f"{spec.src}->{spec.dst} {spec.kind.value}")
            rows.append([self.link_utilization(sample, index) for sample in samples])
        return labels, rows

    def totals(self, *, include_warmup: bool = False) -> dict[str, int]:
        """Summed counters over the (measured) epochs."""
        samples = self.epochs(include_warmup=include_warmup)
        return {
            "epochs": len(samples),
            "cycles": sum(sample.cycles for sample in samples),
            "flits_injected": sum(sample.flits_injected for sample in samples),
            "packets_delivered": sum(sample.packets_delivered for sample in samples),
            "router_flits": sum(sample.router_flits for sample in samples),
            "credit_stall_cycles": sum(
                sum(sample.credit_stalls.values()) for sample in samples
            ),
        }

    # -- export ------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """The full series as one JSON-serializable document."""
        return {
            "epoch_length": self.epoch_length,
            "warmup": self.warmup,
            "links": [
                {
                    "index": index,
                    "src": spec.src,
                    "dst": spec.dst,
                    "kind": spec.kind.value,
                    "bandwidth": spec.total_bandwidth,
                }
                for index, spec in enumerate(self.network.specs)
            ],
            "epochs": [sample.to_json() for sample in self.samples],
        }

    def write(self, directory: str | Path) -> list[Path]:
        """Write the CSV files + ``metrics.json`` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        specs = self.network.specs
        samples = self.samples
        tables: list[tuple[str, list[str], Iterable[list[Any]]]] = [
            ("epochs.csv", [
                "epoch", "start", "end", "warmup", "flits_injected",
                "packets_delivered", "router_flits", "buffered", "in_flight",
            ], (
                [s.index, s.start, s.end, int(s.warmup), s.flits_injected,
                 s.packets_delivered, s.router_flits, s.buffered, s.in_flight]
                for s in samples
            )),
            ("link_util.csv", ["epoch", "link", "src", "dst", "kind", "flits", "util"], (
                [s.index, i, specs[i].src, specs[i].dst, specs[i].kind.value,
                 s.link_flits[i], f"{self.link_utilization(s, i):.6f}"]
                for s in samples for i in sorted(s.link_flits)
            )),
            ("buffer_occupancy.csv", ["epoch", "node", "port", "vc", "flits"], (
                [s.index, *key, s.buffer_occupancy[key]]
                for s in samples for key in sorted(s.buffer_occupancy)
            )),
            ("credit_stalls.csv", ["epoch", "node", "out_port", "vc", "stall_cycles"], (
                [s.index, *key, s.credit_stalls[key]]
                for s in samples for key in sorted(s.credit_stalls)
            )),
            ("rob.csv", ["epoch", "link", "occupancy", "peak"], (
                [s.index, i, *s.rob[i]] for s in samples for i in sorted(s.rob)
            )),
            ("phy_split.csv", ["epoch", "link", "parallel", "serial", "bypassed"], (
                [s.index, i, *s.phy_split[i]] for s in samples for i in sorted(s.phy_split)
            )),
        ]
        written = []
        for name, header, rows in tables:
            path = directory / name
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
            written.append(path)
        json_path = directory / "metrics.json"
        with json_path.open("w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1)
        written.append(json_path)
        return written


@dataclass(frozen=True)
class HealthThresholds:
    """When a probe reading becomes an anomaly."""

    #: Oldest in-flight packet age (cycles) before it is flagged.
    max_packet_age: int = 5_000
    #: Credit-stall events per cycle over a probe window before flagging.
    max_stall_rate: float = 2.0
    #: Flits buffered in the network before occupancy is flagged.
    max_buffered_flits: int = 50_000


@dataclass
class HealthAnomaly:
    """A threshold crossing (recorded on the rising edge only)."""

    cycle: int
    kind: str
    detail: str

    def to_json(self) -> dict[str, Any]:
        """JSON payload of a bundle's or the run registry's anomaly list."""
        return asdict(self)


class HealthMonitor:
    """Health checks over the sampler's closed epochs.

    A reader of :class:`EpochMetrics` with no bus subscription of its
    own: :meth:`on_epoch` checks each closed sample (delivered packets,
    buffered / in-flight flits, credit-stall rate) plus the oldest in-flight packet, read once at the boundary,
    against the :class:`HealthThresholds`.  A reading beyond a threshold
    raises a :class:`HealthAnomaly` flag, written to ``stream`` (when
    given) at the moment the condition first appears — the live early
    warning the postmortem bundle later confirms.  Warm-up epochs skip
    the no-throughput test: ``Stats.packets_delivered`` counts no
    warm-up packet by design.
    """

    def __init__(
        self,
        network: "Network",
        *,
        thresholds: Optional[HealthThresholds] = None,
        stream: Optional[IO[str]] = None,
    ) -> None:
        self.network = network
        self.thresholds = thresholds or HealthThresholds()
        self.stream = stream
        #: ``(cycle, oldest in-flight age)`` per sampled epoch.
        self.ages: list[tuple[int, int]] = []
        self.anomalies: list[HealthAnomaly] = []
        self._active_flags: set[str] = set()

    def on_epoch(self, sample: "EpochSample") -> None:
        """Check one closed epoch; flag the conditions that just appeared."""
        # The bundle's packet table names the oldest packet; the postmortem
        # module loads on the first health check, not with the sampler.
        from .forensics import inflight_packet_table

        cycle = sample.end - 1  # the last cycle the epoch simulated
        limits = self.thresholds
        in_network = sample.buffered + sample.in_flight
        stall_rate = sum(sample.credit_stalls.values()) / sample.cycles
        oldest = inflight_packet_table(self.network, cycle, max_packets=1)["table"]
        age = oldest[0]["age"] if oldest else 0
        self.ages.append((cycle, age))
        findings: list[tuple[str, str]] = []
        if age > limits.max_packet_age:
            findings.append((
                "packet-age",
                f"oldest in-flight packet {oldest[0]['pid']} "
                f"({oldest[0]['src']}->{oldest[0]['dst']}) is {age} cycles "
                f"old (limit {limits.max_packet_age})",
            ))
        if not sample.warmup and sample.packets_delivered == 0 and in_network > 0:
            findings.append((
                "no-throughput",
                f"{in_network} flits in the network but zero packets "
                f"delivered in the last {sample.cycles} cycles",
            ))
        if stall_rate > limits.max_stall_rate:
            findings.append((
                "credit-stall",
                f"credit-stall rate {stall_rate:.2f}/cycle "
                f"(limit {limits.max_stall_rate:g})",
            ))
        if sample.buffered > limits.max_buffered_flits:
            findings.append((
                "occupancy",
                f"{sample.buffered} flits buffered "
                f"(limit {limits.max_buffered_flits})",
            ))
        raised = [
            HealthAnomaly(cycle=cycle, kind=kind, detail=detail)
            for kind, detail in findings
            if kind not in self._active_flags  # report rising edges only
        ]
        self._active_flags = {kind for kind, _ in findings}
        self.anomalies.extend(raised)
        if self.stream is not None and raised:
            self.stream.writelines(
                f"[health] cycle {cycle}: {a.kind}: {a.detail}\n" for a in raised
            )
            self.stream.flush()

    def summary(self, *, max_anomalies: int = 20, max_series: int = 120) -> dict[str, Any]:
        """Compact JSON-ready digest for bundles and the run registry."""
        series = [list(entry) for entry in self.ages]
        if len(series) > max_series:
            stride = math.ceil(len(series) / max_series)
            series = series[::stride]
        return {
            "probes": len(self.ages),
            "anomaly_count": len(self.anomalies),
            "flags": sorted({a.kind for a in self.anomalies}),
            "max_oldest_age": max((age for _, age in self.ages), default=0),
            "anomalies": [a.to_json() for a in self.anomalies[:max_anomalies]],
            "oldest_age_series": series,
        }

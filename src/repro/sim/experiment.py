"""High-level experiment harness.

One-call helpers for the evaluation workflows of the paper: run a
synthetic pattern at a rate, replay a trace to completion, or sweep the
injection rate and report the latency curve (the structure of every
latency-vs-injection figure).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.phy import HeteroPhyLink
from repro.noc.network import Network
from repro.telemetry.runstore import system_digest
from repro.topology.system import SystemSpec
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import make_pattern
from .build import build_network
from .engine import Engine, Workload
from .stats import Stats

if TYPE_CHECKING:  # pragma: no cover - the observatory and traces load on demand
    from repro.telemetry.session import TelemetryConfig, TelemetrySession
    from repro.traffic.trace import Trace


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    system: str
    workload: str
    policy: str
    n_nodes: int
    cycles: int
    stats: Stats
    #: (parallel, serial) flit counts over all hetero-PHY links.
    phy_split: tuple[int, int] = (0, 0)
    #: Finalized telemetry session (set when ``telemetry=`` was requested).
    telemetry: Optional[TelemetrySession] = None
    #: Workload RNG seed (None for trace replays).
    seed: Optional[int] = None
    #: Wall-clock seconds the engine spent simulating (excludes build).
    wall_seconds: float = math.nan
    #: Digest of system + config + workload + policy (see
    #: :func:`repro.telemetry.runstore.system_digest`).
    config_hash: str = ""

    @property
    def avg_latency(self) -> float:
        return self.stats.avg_latency

    @property
    def stage_totals(self) -> Optional[dict[str, int]]:
        """Ledger stage totals (None unless ``latency_breakdown`` ran)."""
        if self.telemetry is None or self.telemetry.ledger is None:
            return None
        return self.telemetry.ledger.stage_totals()

    @property
    def latency_breakdown(self) -> Optional[dict]:
        """Full attribution summary (None unless ``latency_breakdown`` ran)."""
        if self.telemetry is None or self.telemetry.ledger is None:
            return None
        return self.telemetry.ledger.summary()

    @property
    def digest(self) -> Optional[dict]:
        """Digest block (``RunDigest.record_summary``; None unless collected)."""
        if self.telemetry is None or self.telemetry.digest is None:
            return None
        return self.telemetry.digest.record_summary()

    @property
    def host_phases(self) -> Optional[dict]:
        """Compact host-time attribution (None unless ``host_time`` ran)."""
        if self.telemetry is None or self.telemetry.hostprof is None:
            return None
        return self.telemetry.hostprof.record_summary()

    @property
    def cycles_per_second(self) -> float:
        """Simulation throughput in simulated cycles per wall-clock second."""
        if math.isnan(self.wall_seconds) or self.wall_seconds <= 0:
            return math.nan
        return self.cycles / self.wall_seconds

    @property
    def avg_energy_pj(self) -> float:
        return self.stats.avg_energy_pj

    @property
    def saturated(self) -> bool:
        """Heuristic: the network failed to deliver most measured packets."""
        return is_saturated(self.stats.delivered_fraction)


#: Delivered fraction of the measured packets below which a point counts
#: as saturated.
SATURATION_DELIVERED_FRACTION = 0.6


def is_saturated(delivered_fraction: float) -> bool:
    """The one saturation predicate (``RunResult`` and ``SweepPoint``).

    A run that injected no measured packet has a NaN delivered fraction:
    it is empty, not saturated.
    """
    return delivered_fraction < SATURATION_DELIVERED_FRACTION


def _collect_phy_split(network: Network) -> tuple[int, int]:
    par = ser = 0
    for link in network.links:
        if isinstance(link, HeteroPhyLink):
            par += link.flits_parallel
            ser += link.flits_serial
    return par, ser


def run_workload(
    spec: SystemSpec,
    workload: Workload,
    workload_name: str,
    descriptor: dict,
    horizon: int,
    *,
    drain: bool,
    policy: Optional[str],
    warmup: int,
    telemetry: Optional[TelemetryConfig],
    seed: Optional[int] = None,
    strict: bool = True,
    vct: bool = True,
) -> RunResult:
    """One run, start to end: build, attach, run, finalize, collect, close.

    The only such path outside ``repro.analysis``: ``run_synthetic``,
    ``run_trace`` and ``repro diff``'s re-simulation are thin callers.
    ``descriptor`` is the workload part of the digest ``meta`` block;
    ``drain`` selects run-until-drained (``horizon`` is then the deadline);
    ``vct=False`` builds wormhole routers and says so in the meta block.
    Whoever builds a network closes it (``Network.close``), so the run's
    routers, links and flits are freed by reference counting as soon as the
    caller drops the result — on the failure path too.
    """
    stats = Stats(measure_from=warmup)
    network = build_network(spec, stats, policy=policy, vct=vct)
    engine = Engine(network, workload, stats)
    resolved_policy = policy or spec.config.scheduling_policy
    config_hash = system_digest(spec, workload=workload_name, policy=resolved_policy, vct=vct)
    session: Optional[TelemetrySession] = None
    try:
        if telemetry is not None:
            from repro.telemetry.session import TelemetrySession

            session = TelemetrySession.attach(
                network,
                telemetry,
                warmup=warmup,
                total_cycles=None if drain else horizon,
            )
            engine.telemetry = session
            engine.hostprof = session.hostprof
            if session.digest is not None:
                from repro.telemetry.digest import config_block, run_meta

                grid = spec.grid
                session.digest.meta = run_meta(
                    spec.family,
                    (grid.chiplets_x, grid.chiplets_y),
                    (grid.nodes_x, grid.nodes_y),
                    system=spec.name,
                    **descriptor,
                    warmup=warmup,
                    policy=resolved_policy,
                    config_hash=config_hash,
                    vct=None if vct else False,
                    config=config_block(spec.config),
                )
            if session.live is not None:
                session.live.start(
                    {
                        "system": spec.name,
                        "workload": workload_name,
                        "policy": resolved_policy,
                        "n_nodes": spec.grid.n_nodes,
                        **({} if seed is None else {"seed": seed}),
                        "warmup": warmup,
                        "config_hash": config_hash,
                    }
                )
        run = engine.run_until_drained if drain else engine.run
        start = time.perf_counter()
        try:
            if session is not None and telemetry.profile:
                import cProfile

                profiler = session.profile = cProfile.Profile()
                profiler.runcall(run, horizon)
            else:
                run(horizon)
        except RuntimeError:
            if strict:
                raise
        wall_seconds = time.perf_counter() - start
    finally:
        if session is not None:
            session.finalize(engine.cycle)
        phy_split = _collect_phy_split(network)
        network.close()
    return RunResult(
        system=spec.name,
        workload=workload_name,
        policy=resolved_policy,
        n_nodes=spec.grid.n_nodes,
        cycles=engine.cycle,
        stats=stats,
        phy_split=phy_split,
        telemetry=session,
        seed=seed,
        wall_seconds=wall_seconds,
        config_hash=config_hash,
    )


def run_synthetic(
    spec: SystemSpec,
    pattern: str,
    rate: float,
    *,
    policy: Optional[str] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    seed: int = 1,
    pattern_kwargs: Optional[dict] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> RunResult:
    """Simulate one synthetic-pattern point (one marker of Fig 11/14).

    Pass a :class:`~repro.telemetry.TelemetryConfig` as ``telemetry`` to
    collect per-epoch metrics, a Chrome trace, live progress and/or a
    cProfile capture; the finalized session lands on ``RunResult.telemetry``.
    """
    config = spec.config
    cycles = cycles if cycles is not None else config.sim_cycles
    warmup = warmup if warmup is not None else config.warmup_cycles
    workload = SyntheticWorkload(
        make_pattern(pattern, spec.grid.n_nodes, **(pattern_kwargs or {})),
        spec.grid.n_nodes,
        rate,
        config.packet_length,
        until=cycles,
        seed=seed,
    )
    return run_workload(
        spec,
        workload,
        f"{pattern}@{rate:g}",
        {"pattern": pattern, "rate": rate, "seed": seed, "cycles": cycles},
        cycles,
        drain=False,
        policy=policy,
        warmup=warmup,
        telemetry=telemetry,
        seed=seed,
    )


#: Cycles a trace replay may run past the trace's last injection to drain.
TRACE_DRAIN_MARGIN = 200_000


def run_trace(
    spec: SystemSpec,
    trace: Trace,
    *,
    policy: Optional[str] = None,
    warmup: int = 0,
    drain_margin: int = TRACE_DRAIN_MARGIN,
    strict: bool = True,
    telemetry: Optional[TelemetryConfig] = None,
) -> RunResult:
    """Replay a trace to completion (Fig 12/13/15/17 methodology).

    With ``strict=False`` a network that cannot drain the trace within the
    margin (a saturated operating point) returns its partial statistics
    instead of raising; ``delivered_fraction`` then reflects the loss.
    Pass ``telemetry=`` exactly as in :func:`run_synthetic`.  A trace with
    an endpoint outside the system is rejected here, before the first cycle.
    """
    from repro.traffic.trace import TraceWorkload

    n_nodes = spec.grid.n_nodes
    for column in (trace.src, trace.dst):
        if len(column) and not (min(column) >= 0 and max(column) < n_nodes):
            row = next(row for row, node in enumerate(column) if not 0 <= node < n_nodes)
            raise ValueError(
                f"trace {trace.name!r} row {row} ({trace.src[row]} -> "
                f"{trace.dst[row]}): node {column[row]} is outside "
                f"{spec.name}, n_nodes={n_nodes}"
            )
    # The meta names the trace, not how it was made; a replay that re-runs from
    # its meta carries a ``trace`` block (``repro.telemetry.diff.run_described``).
    return run_workload(
        spec,
        TraceWorkload(trace),
        trace.name,
        {"workload": trace.name},
        trace.duration + drain_margin,
        drain=True,
        policy=policy,
        warmup=warmup,
        telemetry=telemetry,
        strict=strict,
    )


@dataclass
class SweepPoint:
    """One point of a latency-vs-injection-rate curve."""

    rate: float
    avg_latency: float
    delivered_fraction: float
    avg_energy_pj: float

    @property
    def saturated(self) -> bool:
        return is_saturated(self.delivered_fraction)


def latency_rate_sweep(
    spec: SystemSpec,
    pattern: str,
    rates: Sequence[float],
    *,
    policy: Optional[str] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    seed: int = 1,
    stop_after_saturation: bool = True,
    pattern_kwargs: Optional[dict] = None,
) -> list[SweepPoint]:
    """Latency curve over injection rates (one line of Fig 11/13/14/15).

    By default the sweep stops once a rate saturates (delivery collapses);
    the remaining points would only burn time confirming the cliff.
    """
    points: list[SweepPoint] = []
    for rate in rates:
        result = run_synthetic(
            spec,
            pattern,
            rate,
            policy=policy,
            cycles=cycles,
            warmup=warmup,
            seed=seed,
            pattern_kwargs=pattern_kwargs,
        )
        point = SweepPoint(
            rate=rate,
            avg_latency=result.avg_latency,
            delivered_fraction=result.stats.delivered_fraction,
            avg_energy_pj=result.avg_energy_pj,
        )
        points.append(point)
        if stop_after_saturation and point.saturated:
            break
    return points


def saturation_rate(points: Sequence[SweepPoint]) -> float:
    """The highest non-saturated rate of a sweep (nan if all saturated)."""
    best = float("nan")
    for point in points:
        if not point.saturated:
            best = point.rate
    return best

"""What the benchmark runs and what it reports.

Shared by the parent (``run.py``), the per-rep child (``child.py``) and the
smoke test.  Imports nothing from ``repro``: the parent never loads the
simulator, and the child must read its clock before it does.

Bounds and better/worse directions live in the root ``BENCHMARK.json``
only; the smoke test checks that the names and units there and here agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
#: Root of the checkout the benchmark measures (``benchmarks/perf`` -> root).
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"
#: The committed Fig 11 tiny-scale series ``fig11_cli_tiny`` must reproduce.
FIG11_CSV = ROOT / "benchmarks" / "results" / "fig11_tiny.csv"

#: Chiplets x nodes of the three single-point workloads: the Fig 11 paper
#: grid, 256 nodes.  Horizons may be shortened; this never is.
GRID = (4, 4, 4, 4)

#: Observer-overhead block: the ``phy_steady_256`` config at this horizon
#: (the ISSUE's 1500 halved like the others: a ``--trace 1`` run of the
#: figure must end within the contract's 180 s even when the box is 2x slow).
OVERHEAD_CYCLES = (750, 125)

#: ``--smoke`` divides every horizon by this.
SMOKE_DIVISOR = 10


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``kind`` selects the driver code in the child."""

    name: str
    kind: str  # "cli" | "synthetic" | "trace"
    #: Simulation points one rep runs (what ``failed_points`` is counted in).
    points: int
    family: str = ""
    rate: float = 0.0
    cycles: int = 0
    warmup: int = 0
    #: Trace workloads: ``generate_moc_trace(1024, iterations, sweep_bytes=...,
    #: partners_per_sweep=...)`` embedded on core nodes, dilated by ``time_scale``.
    iterations: int = 0
    sweep_bytes: int = 0
    partners_per_sweep: int = 0
    time_scale: float = 1.0


# Horizons are the ISSUE's (the Fig 11 `small` horizon, 6000/1000, and the
# tiny one, 2000/400) halved, so that three timed reps of a single-point
# workload fit in one contract run; node counts are untouched.  Halving
# the trace's iterations would drop one of the three burst->drain->idle
# phases it exists for, so its bursts are halved instead.  Its sweeps use
# all 10 hypercube strides: with the default 4 the generator draws *which*
# strides from the seed, and the work of one run then varies 2x from seed
# to seed (measured: 4.6-8.3 s), which no end-to-end bound survives.  With
# all 10 the seed moves only the per-rank injection jitter (flit-hops
# within 0.5% across seeds); 64 B messages (8-flit packets) keep a burst
# the size the ISSUE's 4 x 128 B would have had.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Seed is fixed by the program: `repro run` has no seed flag.
        Workload("fig11_cli_tiny", "cli", points=72),
        Workload(
            "phy_steady_256", "synthetic", points=1,
            family="hetero_phy_torus", rate=0.15, cycles=3000, warmup=500,
        ),
        Workload(
            "mesh_saturated_256", "synthetic", points=1,
            family="parallel_mesh", rate=0.6, cycles=1000, warmup=200,
        ),
        Workload(
            "channel_moc_trace_256", "trace", points=1,
            family="hetero_channel", iterations=3, sweep_bytes=64, partners_per_sweep=10,
            time_scale=0.5,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The ~1/10-horizon variant ``--smoke`` runs (schema check, not a measurement)."""
    if workload.kind == "synthetic":
        return replace(
            workload,
            cycles=workload.cycles // SMOKE_DIVISOR,
            warmup=workload.warmup // SMOKE_DIVISOR,
        )
    if workload.kind == "trace":
        return replace(workload, iterations=1, sweep_bytes=32)
    return workload  # "cli": the child shortens the tiny horizon instead


#: Fig 11 tiny horizon under ``--smoke`` (cycles, warm-up); the CSV then
#: differs from the committed one, so that check is skipped.
SMOKE_FIG11_HORIZON = (200, 40)

#: End-to-end metrics, in print order: name -> (unit, host/simulated note).
#: Host times are reference-host seconds (``child.HostSpeed``), not the
#: wall clock of a box that is 1.2-2x slow for minutes at a time.
#: ``failed_points`` is the fifth; it is the ``failed`` key of the contract
#: line, not a bounded metric (a metric that is always 0 cannot carry a
#: relative bound).
END_TO_END: dict[str, tuple[str, str]] = {
    "wall_s": ("s", "host: child t0 (before import repro) -> results written"),
    "setup_s": ("s", "host: everything before the first engine tick"),
    "flit_hops_per_s": ("hops/s", "simulated flit-hops per reference-host second of engine loop"),
    "peak_rss_mb": ("MB", "host: child ru_maxrss"),
}

# Per-layer metrics: name -> (unit, exact, "end-to-end metric it should
# move, and where").  `exact` marks seed-determined simulated counts that
# two runs of the same code must reproduce bit for bit.
_SETUP = "setup_s, all workloads"
_FIG = "wall_s on fig11_cli_tiny only (72 builds); <1% elsewhere"
_HOPS = "flit_hops_per_s"
_NONE = "none: any change under a perf PR is a behaviour change"
class LayerMetric(NamedTuple):
    unit: str
    exact: bool
    moves: str


_PER_LAYER: dict[str, tuple[str, bool, str]] = {
    "cli.import_s": ("s", False, _SETUP),
    "topology.build_system_s": ("s", False, _FIG),
    "sim.build.build_network_s": ("s", False, _FIG),
    "sim.build.calls": ("count", True, _FIG),
    "sim.build.routers": ("count", True, _FIG),
    "sim.build.links": ("count", True, _FIG),
    "routing.make_routing_s": ("s", False, _FIG),
    "traffic.generate_s": ("s", False, "setup_s on channel_moc_trace_256"),
    "traffic.records": ("count", True, "setup_s on channel_moc_trace_256"),
    "traffic.inject_ns_per_flit_hop": (
        "ns/hop", False,
        _HOPS + ": Bernoulli path (phy/mesh) vs bisect path (moc trace)",
    ),
    "traffic.packets_injected": ("count", True, _HOPS),
    "noc.router.sa_st_ns_per_flit_hop": ("ns/hop", False, _HOPS + ", every workload"),
    "noc.router.rc_va_ns_per_flit_hop": ("ns/hop", False, _HOPS + ", every workload"),
    "noc.router.flit_hops": ("count", True, _HOPS),
    "noc.router.vc_allocs": ("count", True, _HOPS),
    "noc.router.route_computes": ("count", True, _HOPS),
    "noc.router.flit_hops_per_router_cycle": (
        "hops/rtr-cycle", False, "separates flowing from back-pressured use",
    ),
    "noc.router.backlog_packets": (
        "count", True, "peak_rss_mb on mesh_saturated_256",
    ),
    "noc.link.step_ns_per_flit_hop": (
        "ns/hop", False, _HOPS + ", most on channel_moc_trace_256",
    ),
    "noc.link.accepts": ("count", True, _HOPS),
    "noc.link.credit_returns": ("count", True, _HOPS),
    "core.phy.rx_ns_per_flit_hop": ("ns/hop", False, _HOPS + " on phy_steady_256"),
    "core.phy.tx_ns_per_flit_hop": ("ns/hop", False, _HOPS + " on phy_steady_256"),
    "core.phy.dispatches": ("count", True, _HOPS + " on phy_steady_256"),
    "core.rob.inserts": ("count", True, _HOPS + " on phy_steady_256"),
    "core.rob.releases": ("count", True, _HOPS + " on phy_steady_256"),
    "sim.engine.ns_per_flit_hop": ("ns/hop", False, _HOPS),
    "sim.engine.ns_per_router_cycle": ("ns/rtr-cycle", False, _HOPS),
    "sim.engine.cycles": ("cycles", True, _HOPS),
    "sim.engine.idle_cycles": (
        "cycles", True, _HOPS + " on channel_moc_trace_256 (per-idle-cycle cost)",
    ),
    "sim.engine.cycles_per_s": ("cycles/s", False, _HOPS + "; continuity with repro bench"),
    "sim.engine.stats_ns_per_flit_hop": ("ns/hop", False, _HOPS),
    "sim.engine.ledger_conservation": ("ratio", False, "none: validity of the ns/hop split"),
    "exps.points": ("count", True, "wall_s on fig11_cli_tiny"),
    "exps.csv_s": ("s", False, "wall_s on fig11_cli_tiny"),
    "exps.table3_abs_err_pp": ("pp", False, "none: tiny-scale accuracy vs the paper"),
    "telemetry.runstore.append_s": ("s", False, "wall_s on fig11_cli_tiny"),
    "telemetry.overhead.digest": ("ratio", False, "none: cost of an opt-in observer"),
    "telemetry.overhead.epoch_metrics": ("ratio", False, "none: cost of an opt-in observer"),
    "telemetry.overhead.latency_ledger": ("ratio", False, "none: cost of an opt-in observer"),
    "telemetry.overhead.host_ledger": ("ratio", False, "none: cost of an opt-in observer"),
    "telemetry.overhead.recorder_full": ("ratio", False, "none: cost of an opt-in observer"),
    "sim.stats.avg_latency_cycles": ("cycles", True, _NONE),
    "sim.stats.delivered_fraction": ("ratio", True, _NONE),
    "sim.stats.packets_delivered": ("count", True, _NONE),
    "sim.stats.drain_cycle": ("cycles", True, _NONE),
    "sim.stats.fingerprint": ("hash48", True, _NONE),
    "sim.stats.digest_chain": ("hash48", True, _NONE),
    "sim.stats.matches_pinned": ("flag", True, _NONE),
    "proc.cpu_s": ("s", False, "wall_s, once a later PR parallelises"),
    "trace.overhead_ratio": ("ratio", False, "none: traced pass / timed wall_s"),
}
PER_LAYER = {name: LayerMetric(*cells) for name, cells in _PER_LAYER.items()}

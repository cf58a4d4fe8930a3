"""repro — heterogeneous die-to-die interfaces for chiplet systems.

A from-scratch reproduction of *"Heterogeneous Die-to-Die Interfaces:
Enabling More Flexible Chiplet Interconnection Systems"* (MICRO 2023):
a cycle-accurate multi-chiplet NoC simulator with hetero-PHY and
hetero-channel interface models, deadlock-free adaptive routing
(Algorithm 1), scheduling policies, workload generators and the full
evaluation harness.

Quickstart::

    from repro import ChipletGrid, SimConfig, build_system, run_synthetic

    grid = ChipletGrid(chiplets_x=2, chiplets_y=2, nodes_x=4, nodes_y=4)
    config = SimConfig().scaled(cycles=20_000)
    system = build_system("hetero_phy_torus", grid, config)
    result = run_synthetic(system, "uniform", rate=0.1)
    print(result.avg_latency, result.avg_energy_pj)
"""

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> the submodule that defines it.  Every name resolves on
#: first access (PEP 562): ``import repro`` loads no submodule, and a run
#: loads only what it executes (no static passes, trace generators, V-t
#: model or observatory collectors for a synthetic point).
_LAZY = {
    **dict.fromkeys(
        ("AIB", "BOW", "SERDES", "TABLE1", "UCIE_ADVANCED", "UCIE_STANDARD", "InterfaceSpec"),
        "core.interfaces",
    ),
    **dict.fromkeys(("HeteroPhyLink", "hetero_phy_link_factory"), "core.phy"),
    **dict.fromkeys(("ReorderBuffer", "rob_capacity"), "core.rob"),
    **dict.fromkeys(
        (
            "ApplicationAwarePolicy",
            "BalancedPolicy",
            "EnergyEfficientPolicy",
            "PerformanceFirstPolicy",
        ),
        "core.scheduling",
    ),
    **dict.fromkeys(
        ("HeteroVTCurve", "VTCurve", "hetero_curve", "pin_constrained_hetero"), "core.vt_model"
    ),
    "HopCostModel": "core.weighted_path",
    **dict.fromkeys(("ChannelKind", "ChannelSpec", "PhyParams"), "noc.channel"),
    **dict.fromkeys(("FLIT_BITS", "Flit", "Packet"), "noc.flit"),
    "Network": "noc.network",
    "Router": "noc.router",
    "analyse_escape": "routing.deadlock",
    "make_routing": "routing.functions",
    "build_network": "sim.build",
    **dict.fromkeys(("DEFAULT_CONFIG", "SimConfig"), "sim.config"),
    "Engine": "sim.engine",
    **dict.fromkeys(
        (
            "RunResult",
            "SweepPoint",
            "latency_rate_sweep",
            "run_synthetic",
            "run_trace",
            "saturation_rate",
        ),
        "sim.experiment",
    ),
    **dict.fromkeys(("DeadlockError", "Stats"), "sim.stats"),
    "TelemetryBus": "telemetry.bus",
    "ChromeTraceBuilder": "telemetry.trace",
    "EpochMetrics": "telemetry.metrics",
    "ProgressReporter": "telemetry.progress",
    **dict.fromkeys(("TelemetryConfig", "TelemetrySession"), "telemetry.session"),
    "ChipletGrid": "topology.grid",
    "build_hetero_channel_packages": "topology.multipackage",
    **dict.fromkeys(("FAMILIES", "SystemSpec", "build_system"), "topology.system"),
    **dict.fromkeys(
        ("embed_ranks", "generate_cns_trace", "generate_moc_trace"), "traffic.hpc"
    ),
    "SyntheticWorkload": "traffic.injection",
    **dict.fromkeys(("PARSEC_PROFILES", "generate_parsec_trace"), "traffic.parsec"),
    "RequestReplyWorkload": "traffic.reqreply",
    **dict.fromkeys(("PATTERNS", "make_pattern"), "traffic.patterns"),
    **dict.fromkeys(("Trace", "TraceRecord", "TraceWorkload"), "traffic.trace"),
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "AIB",
    "BOW",
    "SERDES",
    "TABLE1",
    "UCIE_ADVANCED",
    "UCIE_STANDARD",
    "ApplicationAwarePolicy",
    "BalancedPolicy",
    "ChannelKind",
    "ChannelSpec",
    "ChipletGrid",
    "ChromeTraceBuilder",
    "DEFAULT_CONFIG",
    "DeadlockError",
    "EnergyEfficientPolicy",
    "Engine",
    "EpochMetrics",
    "FAMILIES",
    "FLIT_BITS",
    "Flit",
    "HeteroPhyLink",
    "HeteroVTCurve",
    "HopCostModel",
    "InterfaceSpec",
    "Network",
    "PARSEC_PROFILES",
    "PATTERNS",
    "Packet",
    "PerformanceFirstPolicy",
    "PhyParams",
    "ProgressReporter",
    "ReorderBuffer",
    "RequestReplyWorkload",
    "Router",
    "RunResult",
    "SimConfig",
    "Stats",
    "SweepPoint",
    "SyntheticWorkload",
    "SystemSpec",
    "TelemetryBus",
    "TelemetryConfig",
    "TelemetrySession",
    "Trace",
    "TraceRecord",
    "TraceWorkload",
    "VTCurve",
    "analyse_escape",
    "build_hetero_channel_packages",
    "build_network",
    "build_system",
    "embed_ranks",
    "generate_cns_trace",
    "generate_moc_trace",
    "generate_parsec_trace",
    "hetero_curve",
    "hetero_phy_link_factory",
    "latency_rate_sweep",
    "make_pattern",
    "make_routing",
    "pin_constrained_hetero",
    "rob_capacity",
    "run_synthetic",
    "run_trace",
    "saturation_rate",
]

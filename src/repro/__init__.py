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

from .core.interfaces import AIB, BOW, SERDES, TABLE1, UCIE_ADVANCED, UCIE_STANDARD, InterfaceSpec
from .core.phy import HeteroPhyLink, hetero_phy_link_factory
from .core.rob import ReorderBuffer, rob_capacity
from .core.scheduling import (
    ApplicationAwarePolicy,
    BalancedPolicy,
    EnergyEfficientPolicy,
    PerformanceFirstPolicy,
    make_dispatch_policy,
)
from .core.vt_model import HeteroVTCurve, VTCurve, hetero_curve, pin_constrained_hetero
from .core.weighted_path import HopCostModel, make_cost_model
from .noc.channel import ChannelKind, ChannelSpec, PhyParams
from .noc.flit import FLIT_BITS, Flit, Packet
from .noc.network import Network
from .noc.router import Router
from .routing.deadlock import analyse_escape
from .routing.functions import make_routing
from .sim.build import build_network
from .sim.config import DEFAULT_CONFIG, SimConfig
from .sim.engine import Engine
from .sim.experiment import (
    RunResult,
    SweepPoint,
    latency_rate_sweep,
    run_synthetic,
    run_trace,
    saturation_rate,
)
from .sim.stats import DeadlockError, Stats
from .telemetry.bus import TelemetryBus
from .topology.grid import ChipletGrid
from .topology.multipackage import build_hetero_channel_packages
from .topology.system import FAMILIES, SystemSpec, build_system
from .traffic.hpc import embed_ranks, generate_cns_trace, generate_moc_trace
from .traffic.injection import SyntheticWorkload
from .traffic.parsec import PARSEC_PROFILES, generate_parsec_trace
from .traffic.reqreply import RequestReplyWorkload
from .traffic.patterns import PATTERNS, make_pattern
from .traffic.trace import Trace, TraceRecord, TraceWorkload

__version__ = "1.0.0"

#: Names resolved on first access (PEP 562): ``import repro`` and a run
#: load none of the observatory's collectors.
_LAZY = dict.fromkeys(
    (
        "ChromeTraceBuilder",
        "EpochMetrics",
        "ProgressReporter",
        "TelemetryConfig",
        "TelemetrySession",
    ),
    "telemetry",
)


def __getattr__(name: str):
    try:
        package = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{package}"), name)
    return value


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
    "make_cost_model",
    "make_dispatch_policy",
    "make_pattern",
    "make_routing",
    "pin_constrained_hetero",
    "rob_capacity",
    "run_synthetic",
    "run_trace",
    "saturation_rate",
]

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


def _lazy_exports(namespace: dict[str, object], table: dict) -> tuple:
    """The PEP 562 ``__getattr__``, ``__dir__`` and ``__all__`` of a package
    whose public names all resolve on first access.

    ``table`` maps each submodule (relative to the package) to a tuple of
    the names it contributes (a bare ``dict``, so that a table whose tuples
    all have one length type-checks too); an entry ``"ALIAS=attr"`` exports
    the submodule's ``attr`` as ``ALIAS``.  Every lazy initialiser is a docstring plus this call, so
    importing a package loads none of its submodules, and a run loads only
    what it executes.
    """
    package = namespace["__name__"]
    where: dict[str, tuple[str, str]] = {}
    for submodule, entries in table.items():
        for entry in entries:
            name, _, attr = entry.partition("=")
            where[name] = (submodule, attr or name)

    def __getattr__(name: str):
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(f"{package}.{module}"), attr)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, sorted(where)


#: Submodule -> the public names it contributes.  ``import repro`` loads no
#: submodule; a synthetic point loads no static pass, trace generator, V-t
#: model or observatory collector.
_EXPORTS = {
    "core.interfaces": (
        "AIB", "BOW", "SERDES", "TABLE1", "UCIE_ADVANCED", "UCIE_STANDARD", "InterfaceSpec",
    ),
    "core.phy": ("HeteroPhyLink", "hetero_phy_link_factory"),
    "core.rob": ("ReorderBuffer", "rob_capacity"),
    "core.scheduling": (
        "ApplicationAwarePolicy", "BalancedPolicy", "EnergyEfficientPolicy",
        "PerformanceFirstPolicy",
    ),
    "core.vt_model": ("HeteroVTCurve", "VTCurve", "hetero_curve", "pin_constrained_hetero"),
    "core.weighted_path": ("HopCostModel",),
    "noc.channel": ("ChannelKind", "ChannelSpec", "PhyParams"),
    "noc.flit": ("FLIT_BITS", "Flit", "Packet"),
    "noc.network": ("Network",),
    "noc.router": ("Router",),
    "routing.deadlock": ("analyse_escape",),
    "routing.functions": ("make_routing",),
    "sim.build": ("build_network",),
    "sim.config": ("DEFAULT_CONFIG", "SimConfig"),
    "sim.engine": ("Engine",),
    "sim.experiment": (
        "RunResult", "SweepPoint", "latency_rate_sweep", "run_synthetic", "run_trace",
        "saturation_rate",
    ),
    "sim.stats": ("DeadlockError", "Stats"),
    "telemetry.bus": ("TelemetryBus",),
    "telemetry.metrics": ("EpochMetrics",),
    "telemetry.progress": ("ProgressReporter",),
    "telemetry.session": ("TelemetryConfig", "TelemetrySession"),
    "telemetry.trace": ("ChromeTraceBuilder",),
    "topology.grid": ("ChipletGrid",),
    "topology.multipackage": ("build_hetero_channel_packages",),
    "topology.system": ("FAMILIES", "SystemSpec", "build_system"),
    "traffic.hpc": ("embed_ranks", "generate_cns_trace", "generate_moc_trace"),
    "traffic.injection": ("SyntheticWorkload",),
    "traffic.parsec": ("PARSEC_PROFILES", "generate_parsec_trace"),
    "traffic.patterns": ("PATTERNS", "make_pattern"),
    "traffic.reqreply": ("RequestReplyWorkload",),
    "traffic.trace": ("Trace", "TraceRecord", "TraceWorkload"),
}
__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)

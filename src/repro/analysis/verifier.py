"""The static verification passes: lint, deadlock and livelock.

Runs the three static passes over a built network and folds their output
into one :class:`~repro.analysis.report.Report`:

1. **lint** — topology/config well-formedness (:mod:`repro.analysis.lint`);
2. **deadlock** — escape-subnetwork connectivity plus acyclicity of the
   channel dependency graph, direct-only under ``vct`` or Duato's
   extended graph under ``wormhole`` (:mod:`repro.routing.deadlock`);
3. **livelock** — acyclicity of the routing state graph and the implied
   worst-case hop / misroute bounds (:mod:`repro.analysis.reachability`).

All three read one :class:`~repro.routing.deadlock.RouteTable`, so each
routing question is asked once; :func:`check_passes` hands the table's
routing-state analysis on to :func:`~repro.analysis.prove.prove_network`,
which runs these passes first (``repro prove`` is their command).

:func:`verify_family` builds a representative small instance of a
registered system family and verifies it; passing a different grid
verifies any other instance.  Nothing here, in routing or in the linter
reads the family label — routing, escape structure and lint rules are
derived from the ``SystemSpec``'s channel list — so any topology that can
be written as a ``SystemSpec`` is checkable with :func:`verify_network`.
"""

from __future__ import annotations

from typing import Optional

from repro.noc.network import Network
from repro.routing.deadlock import MODES, RouteTable, build_cdg, escape_connectivity
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.system import SystemSpec, build_system
from .lint import lint_network, lint_spec
from .reachability import ReachabilityAnalysis, analyse_reachability, render_states
from .report import Report

#: Default verification geometry: smallest grid valid for every family
#: (hypercube families need a power-of-two chiplet count).
DEFAULT_CHIPLETS = (2, 2)
DEFAULT_NODES = (3, 3)


def verify_network(spec: SystemSpec, network: Network, *, mode: str = "vct") -> Report:
    """Run all static passes on a built network."""
    report = Report(system=spec.name, mode=mode)
    check_passes(spec, RouteTable(network), mode, report)
    return report


def check_passes(
    spec: SystemSpec, table: RouteTable, mode: str, report: Report
) -> ReachabilityAnalysis:
    """Fold lint, deadlock and livelock into ``report``; return the
    routing-state analysis the livelock pass read."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    report.passes.append("lint")
    lint_spec(spec, report)
    lint_network(spec, table, report)

    report.passes.append("deadlock")
    _deadlock_pass(table, mode, report)

    report.passes.append("livelock")
    analysis = analyse_reachability(table)
    _livelock_pass(analysis, report)
    return analysis


def _deadlock_pass(table: RouteTable, mode: str, report: Report) -> None:
    unreachable = escape_connectivity(table)
    if unreachable:
        sample = ", ".join(f"{s}->{d}" for s, d in unreachable[:5])
        report.error(
            "ESC-UNREACHABLE",
            f"{len(unreachable)} node pair(s)",
            f"escape subnetwork is not connected (e.g. {sample}); "
            "Lemma 1's connectivity condition fails",
        )
    graph = build_cdg(table, mode)
    report.metrics["escape_channels"] = graph.n_channels
    report.metrics["direct_deps"] = graph.n_direct
    if mode == "wormhole":
        report.metrics["indirect_deps"] = graph.n_indirect
    cycle = graph.cycle()  # a closed walk: the first channel repeats at the end
    if cycle:
        shown = " -> ".join(f"(link {link}, vc {vc})" for link, vc in cycle[:8])
        if mode == "wormhole" and graph.cycle_uses_indirect(cycle):
            report.error(
                "CDG-CYCLE-EXTENDED",
                f"{len(cycle) - 1}-channel cycle",
                f"extended dependency cycle {shown}; the escape discipline is "
                "deadlock-free only under virtual cut-through, not plain "
                "wormhole (an indirect dependency through adaptive channels "
                "closes the cycle)",
            )
        else:
            report.error(
                "CDG-CYCLE",
                f"{len(cycle) - 1}-channel cycle",
                f"direct dependency cycle {shown}; Lemma 1's acyclicity "
                "condition fails",
            )


def _livelock_pass(analysis: ReachabilityAnalysis, report: Report) -> None:
    report.metrics["routing_states"] = analysis.n_states
    if analysis.cycle:
        report.error(
            "LIVELOCK-CYCLE",
            f"dst {analysis.cycle_dst}",
            f"routing state cycle {render_states(analysis.cycle)}; a packet can "
            "revisit a routing state, so its hop count is unbounded",
        )
    else:
        report.metrics["max_hops_bound"] = analysis.max_hops
        report.metrics["max_misroute"] = analysis.max_misroute


def verify_family(
    family: str,
    *,
    chiplets: tuple[int, int] = DEFAULT_CHIPLETS,
    nodes: tuple[int, int] = DEFAULT_NODES,
    config: Optional[SimConfig] = None,
    mode: str = "vct",
    routing=None,
) -> Report:
    """Build a representative instance of ``family`` and verify it.

    ``routing`` overrides the family's routing function (used by the
    negative-path tests to inject known-bad routing).
    """
    config = config or SimConfig()
    grid = ChipletGrid(chiplets[0], chiplets[1], nodes[0], nodes[1])
    spec = build_system(family, grid, config)
    stats = Stats()
    network = build_network(spec, stats, routing=routing)
    try:
        return verify_network(spec, network, mode=mode)
    finally:
        network.close()


"""Certification: the one static-verification path (``repro prove``).

One :func:`prove_network` run puts every static pass the repository has
over one built system, each property owned by one pass, and adjudicates
the result into a :class:`~repro.analysis.certificate.Certificate`.  The
passes, in run order (``Report.passes`` lists those that ran):

1. **lint** — the system description and, in one walk over the built
   network, each link's endpoint contract and reorder buffer, then the
   well-formedness of every routing candidate (:mod:`repro.analysis.lint`);
2. **deadlock** — escape-subnetwork connectivity plus acyclicity of the
   channel dependency graph, direct-only under ``vct`` or Duato's
   extended graph under ``wormhole`` (:mod:`repro.routing.deadlock`);
3. **reachability** — dead-end freedom, escape coverage and bounded
   delivery (the livelock bound) on every destination's routing-state
   graph (:mod:`repro.analysis.reachability`);
4. **fault-sweep** — the reachability proof again under every single-link
   fault mask of the family's safe-to-fail links;
5. **modelcheck** — bounded model checking (:mod:`repro.analysis.modelcheck`)
   whenever the deadlock pass reported a cycle.  The certificate's
   ``modelcheck.verdict`` names the outcome:

   * ``deadlock`` — a concrete counterexample trace, validated by
     replaying it in the cycle-accurate simulator, adds ``MC-DEADLOCK``;
   * ``refuted-exhaustive`` — the model was explored completely, up to its
     in-flight packet bound, without a deadlock, and the CDG error becomes
     a ``CDG-CYCLE-REFUTED`` warning;
   * ``refuted-bounded`` — the search hit its budget first.  That proves
     nothing, so the CDG error stands (its message gives the states
     explored and the budget) and the system is not certified.

All passes read one :class:`~repro.routing.deadlock.RouteTable`, so each
routing question is asked once.  The network is built with the mode's
allocation (``vct=False`` for wormhole, which takes any buffer depth).
The model checker models virtual cut-through allocation whatever the
mode, so a cycle through a channel that holds less than one packet is
not put to it: the CDG error stands and says why.  At the default budget
and geometry every adaptive family's wormhole-mode cycle ends
``refuted-bounded``, so ``repro prove --mode wormhole`` refuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.noc.network import Network
from repro.routing.deadlock import (
    MODES,
    EscapeChannel,
    RouteTable,
    build_cdg,
    escape_connectivity,
)
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.stats import Stats
from repro.telemetry.runstore import git_revision, system_digest, utc_now_iso
from repro.topology.grid import ChipletGrid
from repro.topology.system import FAMILIES, SystemSpec, build_system
from .certificate import Certificate
from .lint import lint_network, lint_spec
from .modelcheck import (
    ModelCheckResult,
    check_network,
    cycle_feed_pool,
    replay_counterexample,
)
from .reachability import (
    analyse_destinations,
    fold_reachability,
    merge_destinations,
    sweep_fault_masks,
)
from .report import Finding, Report, Severity

#: Default verification geometry: smallest grid valid for every family
#: (hypercube families need a power-of-two chiplet count).
DEFAULT_CHIPLETS = (2, 2)
DEFAULT_NODES = (3, 3)

#: CDG findings the model checker may adjudicate.
_CYCLE_CODES = ("CDG-CYCLE", "CDG-CYCLE-EXTENDED")


@dataclass
class ProveResult:
    """Everything one certification run produced."""

    report: Report
    certificate: Certificate
    modelcheck: Optional[ModelCheckResult] = None

    @property
    def certified(self) -> bool:
        return self.certificate.certified


def prove_network(
    spec: SystemSpec,
    factory: Callable[[], Network],
    *,
    mode: str = "vct",
    fault_masks: bool = True,
    max_states: int = 4_000,
    max_packets: Optional[int] = None,
    replay: bool = True,
) -> ProveResult:
    """Run every certification pass over one system and adjudicate.

    ``factory`` must build a fresh network per call (fault injection and
    counterexample replay both consume one).  ``fault_masks=False`` skips
    the per-link sweep; ``max_states`` / ``max_packets`` bound the model
    checker; ``replay=False`` trusts an abstract deadlock verdict without
    simulator validation (faster, used by tests that replay separately).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    network = factory()
    try:
        table = RouteTable(network)
        report = Report(system=spec.name, mode=mode)
        report.passes.append("lint")
        lint_spec(spec, report)
        lint_network(spec, table, report)

        report.passes.append("deadlock")
        cycle = _deadlock_pass(table, mode, report)

        report.passes.append("reachability")
        fault_free = analyse_destinations(table)
        fold_reachability(merge_destinations(fault_free), report)

        sweep_info: dict = {"swept": 0, "links": [], "broken": []}
        if fault_masks:
            report.passes.append("fault-sweep")
            sweep = sweep_fault_masks(factory, spec, table, fault_free)
            sweep_info = {
                "swept": sweep.swept,
                "links": list(sweep.links),
                "broken": list(sweep.broken),
            }
            report.metrics["fault_masks"] = sweep.swept
            for link, masked in zip(sweep.links, sweep.analyses):
                if not masked.ok:
                    fold_reachability(
                        masked, report, fault_target=f"fault link {link}: "
                    )

        mc_result: Optional[ModelCheckResult] = None
        mc_info: dict = {}
        note = _sub_packet_note(table, cycle, spec.config.packet_length)
        if note:
            _settle_cycle_findings(report, note, refuted=False)
        elif cycle:
            report.passes.append("modelcheck")
            mc_result, mc_info = _adjudicate(
                spec,
                table,
                cycle,
                factory,
                report,
                max_states=max_states,
                max_packets=max_packets,
                replay=replay,
            )
    finally:
        network.close()

    certificate = Certificate(
        system=spec.name,
        family=spec.family,
        mode=mode,
        grid=[
            spec.grid.chiplets_x,
            spec.grid.chiplets_y,
            spec.grid.nodes_x,
            spec.grid.nodes_y,
        ],
        created=utc_now_iso(),
        git_rev=git_revision(),
        config_hash=system_digest(spec),
        certified=report.ok,
        report=report.to_dict(),
        fault_masks=sweep_info,
        modelcheck=mc_info,
    )
    return ProveResult(report=report, certificate=certificate, modelcheck=mc_result)


def _deadlock_pass(table: RouteTable, mode: str, report: Report) -> list[EscapeChannel]:
    """Lemma 1's two conditions; returns the CDG cycle found, if any."""
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
    return cycle


def _sub_packet_note(
    table: RouteTable, cycle: list[EscapeChannel], packet_length: int
) -> str:
    """Why the model checker cannot judge ``cycle``: a channel on it whose
    credits hold less than one packet (its model has no room for one);
    empty when every channel holds a packet."""
    for link_index, vc in cycle:
        link = table.network.links[link_index]
        assert link.src_router is not None
        credits = link.src_router.outputs[link.src_port].credits[vc]
        if credits < packet_length:
            return (
                f"the model checker's virtual cut-through model was not "
                f"consulted: channel (link {link_index}, vc {vc}) on the cycle "
                f"holds {credits} flits, less than one {packet_length}-flit "
                "packet, so the model cannot place a packet there; the cycle "
                "stands"
            )
    return ""


def _adjudicate(
    spec: SystemSpec,
    table: RouteTable,
    cycle: list[EscapeChannel],
    factory: Callable[[], Network],
    report: Report,
    *,
    max_states: int,
    max_packets: Optional[int],
    replay: bool,
) -> tuple[ModelCheckResult, dict]:
    """Model-check the reported CDG cycle and settle its findings."""
    packet_length = spec.config.packet_length
    pool = cycle_feed_pool(table, cycle, packet_length=packet_length)
    result = check_network(
        table,
        packet_length=packet_length,
        pool=pool,
        focus_cycle=cycle,
        max_states=max_states,
        max_packets=max_packets,
    )
    info: dict = {
        "verdict": result.verdict,
        "explored": result.explored,
        "exhaustive": result.exhaustive,
        "max_states": result.max_states,
        "max_packets": result.max_packets,
        "cycle": [list(c) for c in cycle],
        "pool_size": len(pool),
    }
    report.metrics["mc_explored"] = result.explored
    if result.deadlock:
        trace = result.counterexample
        assert trace is not None
        info["counterexample"] = trace.to_dict()
        replay_note = "replay not attempted"
        if replay:
            replay_network = factory()
            stats = replay_network.stats
            if not isinstance(stats, Stats):  # pragma: no cover - custom sinks
                stats = Stats()
                replay_network.stats = stats
                for router in replay_network.routers:
                    router._stats = stats
            try:
                outcome = replay_counterexample(replay_network, stats, trace)
            finally:
                replay_network.close()
            info["replay"] = {
                "deadlocked": outcome.deadlocked,
                "cycles": outcome.cycles,
            }
            if outcome.deadlocked:
                replay_note = (
                    f"replay wedged the simulator at cycle {outcome.cycles}"
                )
            else:
                replay_note = "replay did NOT wedge the simulator"
                report.warning(
                    "MC-UNCONFIRMED",
                    "modelcheck",
                    "abstract deadlock state was not reproduced by trace "
                    "replay; treating the CDG cycle as unresolved",
                )
        report.error(
            "MC-DEADLOCK",
            f"{len(trace.injections)}-packet trace",
            f"the reported CDG cycle is realizable: bounded search reached "
            f"a deadlock state after exploring {result.explored} states "
            f"({replay_note})",
        )
    else:
        _settle_cycle_findings(report, _search_note(result), refuted=result.exhaustive)
    return result, info


def _search_note(result: ModelCheckResult) -> str:
    """How far a refuting search got, for the CDG finding's message."""
    model = "the model checker's virtual cut-through allocation model"
    if result.exhaustive:
        searched = (
            f"{model} was explored exhaustively ({result.explored} states, at "
            f"most {result.max_packets} packets in flight) without a deadlock"
        )
    else:
        searched = (
            f"{result.explored} states of {model} explored (budget "
            f"{result.max_states}) without a deadlock; the search was bounded, "
            "not exhaustive, so the cycle stands"
        )
    return f"model checker verdict {result.verdict}: {searched}"


def _settle_cycle_findings(report: Report, note: str, *, refuted: bool) -> None:
    """Append ``note`` to the CDG cycle error.  Only an exhaustive
    refutation (``refuted``) downgrades it, to a ``CDG-CYCLE-REFUTED``
    warning; otherwise the error stands."""
    for i, finding in enumerate(report.findings):
        if finding.severity is Severity.ERROR and finding.code in _CYCLE_CODES:
            message = f"{finding.message} — {note}"
            report.findings[i] = (
                Finding(Severity.WARNING, "CDG-CYCLE-REFUTED", finding.target, message)
                if refuted
                else replace(finding, message=message)
            )


def prove_family(
    family: str,
    *,
    chiplets: tuple[int, int] = DEFAULT_CHIPLETS,
    nodes: tuple[int, int] = DEFAULT_NODES,
    config: Optional[SimConfig] = None,
    mode: str = "vct",
    fault_masks: bool = True,
    max_states: int = 4_000,
    max_packets: Optional[int] = None,
    routing=None,
) -> ProveResult:
    """Certify a representative instance of a registered family."""
    config = config or SimConfig()
    grid = ChipletGrid(chiplets[0], chiplets[1], nodes[0], nodes[1])
    spec = build_system(family, grid, config)

    def factory() -> Network:
        return build_network(spec, Stats(), routing=routing, vct=mode == "vct")

    return prove_network(
        spec,
        factory,
        mode=mode,
        fault_masks=fault_masks,
        max_states=max_states,
        max_packets=max_packets,
    )


def prove_all(
    *,
    chiplets: tuple[int, int] = DEFAULT_CHIPLETS,
    nodes: tuple[int, int] = DEFAULT_NODES,
    config: Optional[SimConfig] = None,
    modes: tuple[str, ...] = MODES,
    fault_masks: bool = True,
    max_states: int = 4_000,
    max_packets: Optional[int] = None,
) -> list[ProveResult]:
    """Certify every registered family under every requested mode."""
    results = []
    for family in FAMILIES:
        for mode in modes:
            results.append(
                prove_family(
                    family,
                    chiplets=chiplets,
                    nodes=nodes,
                    config=config,
                    mode=mode,
                    fault_masks=fault_masks,
                    max_states=max_states,
                    max_packets=max_packets,
                )
            )
    return results

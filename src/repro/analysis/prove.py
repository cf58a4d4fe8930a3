"""Certification orchestration: the ``repro prove`` backend.

``repro prove`` is the one static-verification command.  One
:func:`prove_network` run stacks every static pass the repository has
over one built system and adjudicates the result into a
:class:`~repro.analysis.certificate.Certificate`:

1. lint, deadlock/CDG and livelock via
   :func:`~repro.analysis.verifier.check_passes`;
2. interface contracts (:mod:`repro.analysis.contracts`);
3. exhaustive reachability (:mod:`repro.analysis.reachability`) — the
   livelock pass's analysis, folded again — repeated under every
   single-link fault mask of the family's safe-to-fail links;
4. bounded model checking (:mod:`repro.analysis.modelcheck`) whenever the
   CDG pass reported a cycle.  The certificate's ``modelcheck.verdict``
   names the outcome:

   * ``deadlock`` — a concrete counterexample trace, validated by
     replaying it in the cycle-accurate simulator, adds ``MC-DEADLOCK``;
   * ``refuted-exhaustive`` — the model was explored completely, up to its
     in-flight packet bound, without a deadlock, and the CDG error becomes
     a ``CDG-CYCLE-REFUTED`` warning;
   * ``refuted-bounded`` — the search hit its budget first.  That proves
     nothing, so the CDG error stands (its message gives the states
     explored and the budget) and the system is not certified.

The model checker models virtual cut-through allocation whatever the mode.
At the default budget and geometry every adaptive family's wormhole-mode
cycle ends ``refuted-bounded``, so ``repro prove --mode wormhole`` refuses
them, with the same finding codes the deadlock pass reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.noc.network import Network
from repro.routing.deadlock import MODES, RouteTable, build_cdg
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.stats import Stats
from repro.telemetry.runstore import git_revision, system_digest, utc_now_iso
from repro.topology.grid import ChipletGrid
from repro.topology.system import FAMILIES, SystemSpec, build_system
from .certificate import Certificate
from .contracts import check_contracts
from .modelcheck import (
    ModelCheckResult,
    check_network,
    cycle_feed_pool,
    replay_counterexample,
)
from .reachability import fold_reachability, sweep_fault_masks
from .report import Finding, Report, Severity
from .verifier import DEFAULT_CHIPLETS, DEFAULT_NODES, check_passes

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
        analysis = check_passes(spec, table, mode, report)

        report.passes.append("contracts")
        check_contracts(spec, network, report)

        report.passes.append("reachability")
        fold_reachability(analysis, report)

        sweep_info: dict = {"swept": 0, "links": [], "broken": []}
        if fault_masks:
            report.passes.append("fault-sweep")
            sweep = sweep_fault_masks(factory, spec)
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
        if any(f.code in _CYCLE_CODES for f in report.errors):
            report.passes.append("modelcheck")
            mc_result, mc_info = _adjudicate(
                spec,
                table,
                factory,
                report,
                mode=mode,
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


def _adjudicate(
    spec: SystemSpec,
    table: RouteTable,
    factory: Callable[[], Network],
    report: Report,
    *,
    mode: str,
    max_states: int,
    max_packets: Optional[int],
    replay: bool,
) -> tuple[ModelCheckResult, dict]:
    """Model-check the reported CDG cycle and settle its findings."""
    cycle = build_cdg(table, mode).cycle()
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
        _settle_cycle_findings(report, result)
    return result, info


def _settle_cycle_findings(report: Report, result: ModelCheckResult) -> None:
    """Only an exhaustive refutation downgrades a CDG cycle error, to a
    ``CDG-CYCLE-REFUTED`` warning; a bounded one keeps the error and says
    how far the search got."""
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
    verdict = f"model checker verdict {result.verdict}: {searched}"
    for i, finding in enumerate(report.findings):
        if finding.severity is Severity.ERROR and finding.code in _CYCLE_CODES:
            message = f"{finding.message} — {verdict}"
            report.findings[i] = (
                Finding(Severity.WARNING, "CDG-CYCLE-REFUTED", finding.target, message)
                if result.exhaustive
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
        return build_network(spec, Stats(), routing=routing)

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

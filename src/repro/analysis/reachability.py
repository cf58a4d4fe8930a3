"""Delivery and livelock proofs over the routing-state graph.

The routing functions guarantee livelock freedom through two mechanisms
(Sec 6.2 / 8.1.2 of the paper): adaptive candidates are *profitable* (they
strictly decrease a per-family progress measure), and a packet that falls
back to escape under congestion is *banned* from further free adaptive
use.  Delivery needs more: a routing function could still strand a packet
in a state with no usable candidate, or leave a blocking state without an
escape candidate — and then the Lemma 1 deadlock argument, which assumes
every blocked packet can fall back to the escape subnetwork, does not
apply.  :func:`analyse_reachability` checks all of it on the reachable
routing-state graph of every destination
(:meth:`~repro.routing.deadlock.RouteTable.states`),

    state = (node, adaptive_banned, subnet_choice)
    edge  = one forwarding candidate, carrying the packet state forward

and proves:

1. **no dead-ends** — every reachable non-terminal state offers at least
   one forwarding candidate (and the routing function never raises);
2. **escape coverage** — every reachable non-terminal state offers at
   least one escape candidate, so a packet whose adaptive candidates are
   all blocked can always fall back to C0 (the premise of Theorem 1);
3. **bounded delivery** — the graph is acyclic, so no packet revisits a
   routing state and its hops are bounded by the longest path
   (``max_hops``); ``max_misroute`` is the worst bound minus the shortest
   achievable distance.  A cycle is reported with its witness states.

``repro prove``'s reachability pass, the one owner of delivery and
livelock findings, folds the analysis into the report with
:func:`fold_reachability`: the bound metrics, and one finding per
defective routing state or witness cycle.  :func:`sweep_fault_masks`
repeats the proof under every single-link fault mask (each safe-to-fail
link from :func:`repro.routing.fault.adaptive_link_indices` failed on its
own; only the destinations a mask can touch are re-explored), which turns
the paper's Sec 9 fault-tolerance claim — hetero interfaces keep an
intact escape under adaptive-link failures — into a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.noc.network import Network
from repro.routing.deadlock import (
    RouteTable,
    RoutingState,
    distances_to,
    find_cycle,
    route_table,
)
from repro.routing.fault import adaptive_link_indices, apply_faults
from repro.topology.system import SystemSpec
from .report import Report

#: Builds a fresh network (routing functions are mutated by fault masks).
NetworkFactory = Callable[[], Network]


@dataclass
class ReachabilityAnalysis:
    """Result of the per-destination routing-state exploration."""

    n_states: int = 0
    #: Worst-case hops of any packet over all (src, dst) pairs; -1 while unbounded.
    max_hops: int = -1
    #: Worst-case (hop bound - shortest path) over all pairs; -1 while unbounded.
    max_misroute: int = -1
    #: (dst, state) pairs whose candidate set is empty or ejection-only.
    dead_ends: list[tuple[int, RoutingState]] = field(default_factory=list)
    #: (dst, state) pairs offering no escape candidate.
    uncovered: list[tuple[int, RoutingState]] = field(default_factory=list)
    #: (dst, state, error) triples where the routing function raised.
    failures: list[tuple[int, RoutingState, str]] = field(default_factory=list)
    #: Witness state cycle (delivery unprovable), when one exists.
    cycle: list[RoutingState] = field(default_factory=list)
    cycle_dst: int = -1

    @property
    def ok(self) -> bool:
        return not (self.dead_ends or self.uncovered or self.failures or self.cycle)


def analyse_reachability(network: Union[Network, RouteTable]) -> ReachabilityAnalysis:
    """Fold every destination's routing-state graph into one analysis."""
    return merge_destinations(analyse_destinations(network))


def analyse_destinations(network: Union[Network, RouteTable]) -> list[ReachabilityAnalysis]:
    """Each destination's share of :func:`analyse_reachability`, in
    destination order (what :func:`sweep_fault_masks` reuses)."""
    table = route_table(network)
    return [_analyse_destination(table, dst) for dst in range(table.network.n_nodes)]


def _analyse_destination(table: RouteTable, dst: int) -> ReachabilityAnalysis:
    graph = table.states(dst)
    analysis = ReachabilityAnalysis(
        n_states=len(graph.edges),
        dead_ends=[(dst, state) for state in graph.dead_ends],
        uncovered=[(dst, state) for state in graph.uncovered],
        failures=[(dst, state, error) for state, error in graph.failures],
        cycle=find_cycle(graph.edges),
    )
    if analysis.cycle:
        analysis.cycle_dst = dst
        return analysis
    depth = _longest_paths(graph.edges, dst)
    shortest = distances_to(table, dst)
    analysis.max_hops = analysis.max_misroute = 0
    for src in range(table.network.n_nodes):
        if src == dst:
            continue
        bound = depth[src, False, None]
        analysis.max_hops = max(analysis.max_hops, bound)
        if src in shortest:
            analysis.max_misroute = max(analysis.max_misroute, bound - shortest[src])
    return analysis


def merge_destinations(parts: Sequence[ReachabilityAnalysis]) -> ReachabilityAnalysis:
    """The per-destination analyses, in destination order, as one: the first
    cycle is the witness, and the bounds hold only without one."""
    analysis = ReachabilityAnalysis()
    max_hops = max_misroute = 0
    for part in parts:
        analysis.n_states += part.n_states
        analysis.dead_ends += part.dead_ends
        analysis.uncovered += part.uncovered
        analysis.failures += part.failures
        if analysis.cycle:
            continue
        if part.cycle:
            analysis.cycle, analysis.cycle_dst = part.cycle, part.cycle_dst
            continue
        max_hops = max(max_hops, part.max_hops)
        max_misroute = max(max_misroute, part.max_misroute)
    if not analysis.cycle:
        analysis.max_hops, analysis.max_misroute = max_hops, max_misroute
    return analysis


def _longest_paths(
    graph: dict[RoutingState, tuple[RoutingState, ...]], dst: int
) -> dict[RoutingState, int]:
    """Longest hop count from each state to ejection (graph must be a DAG)."""
    depth: dict[RoutingState, int] = {}
    for start in graph:
        # Iterative post-order to survive deep graphs without recursion.
        stack = [start]
        while stack:
            current = stack[-1]
            if current[0] == dst or current in depth:
                stack.pop()
                continue
            missing = [
                s for s in graph.get(current, ()) if s[0] != dst and s not in depth
            ]
            if missing:
                stack.extend(missing)
                continue
            best = 0
            for succ in graph.get(current, ()):
                best = max(best, (0 if succ[0] == dst else depth[succ]) + 1)
            depth[current] = best
            stack.pop()
    return depth


@dataclass
class FaultSweep:
    """Reachability verdicts under every swept single-link fault mask."""

    #: Link indices swept (each failed on its own).
    links: list[int] = field(default_factory=list)
    #: Links whose failure broke a reachability property.
    broken: list[int] = field(default_factory=list)
    #: Per-link analyses, in :attr:`links` order.
    analyses: list[ReachabilityAnalysis] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.broken

    @property
    def swept(self) -> int:
        return len(self.links)


def sweep_fault_masks(
    factory: NetworkFactory,
    spec: SystemSpec,
    table: RouteTable,
    fault_free: Sequence[ReachabilityAnalysis],
    *,
    links: Optional[Sequence[int]] = None,
) -> FaultSweep:
    """Re-prove reachability with each safe-to-fail link failed on its own.

    ``table`` is the fault-free :class:`~repro.routing.deadlock.RouteTable`
    and ``fault_free`` its :func:`analyse_destinations`.  A mask changes an
    answer only where :class:`~repro.routing.fault.FaultTolerantRouting`
    drops a candidate over the failed link.  So a destination's faulted
    routing-state graph is its fault-free one unless some explored
    fault-free state is offered a hop over that link, and only such
    destinations are re-explored; the others keep their ``fault_free``
    analysis.  ``factory`` must build a fresh network per mask that touches
    a destination (fault injection wraps the installed routing functions
    in place); a mask that touches none builds nothing.  ``links``
    overrides the default mask set of
    :func:`~repro.routing.fault.adaptive_link_indices`.
    """
    network = table.network
    if links is None:
        links = adaptive_link_indices(network, spec)
    for link in links:
        if not 0 <= link < len(network.links):
            raise ValueError(f"no link with index {link}")
    # Per destination: every link an explored fault-free state is offered.
    offered = [
        {
            hop[0]
            for node, banned, choice in table.states(dst).edges
            for hop in table.query(node, dst, banned, choice).hops
        }
        for dst in range(network.n_nodes)
    ]
    sweep = FaultSweep()
    for link in links:
        touched = [dst for dst, hops in enumerate(offered) if link in hops]
        parts = list(fault_free)
        if touched:
            faulted = factory()
            apply_faults(faulted, [link])
            try:
                faulted_table = RouteTable(faulted)
                for dst in touched:
                    parts[dst] = _analyse_destination(faulted_table, dst)
            finally:
                faulted.close()
        analysis = merge_destinations(parts)
        sweep.links.append(link)
        sweep.analyses.append(analysis)
        if not analysis.ok:
            sweep.broken.append(link)
    return sweep


#: Defective states listed per finding code before the rest are summarized.
_REACH_CAP = 8
_DEADEND = (
    "reachable routing state has no usable forwarding candidate; "
    "a packet in this state strands"
)
_UNCOVERED = (
    "reachable routing state offers no escape candidate; the "
    "Lemma 1 fallback argument does not cover this blocking state"
)


def fold_reachability(
    analysis: ReachabilityAnalysis,
    report: Report,
    *,
    fault_target: str = "",
) -> None:
    """Translate a :class:`ReachabilityAnalysis` into report findings.

    The fault-free fold (no ``fault_target``) also records the analysis's
    metrics: ``routing_states``, and the delivery bounds ``max_hops_bound``
    / ``max_misroute`` when the state graph is acyclic.  ``fault_target``
    prefixes finding targets (e.g. ``"fault link 12: "``) so one report can
    hold the fault-free pass plus the whole mask sweep.  Each kind of
    defective state is listed up to eight times, then summarized.
    """
    if not fault_target:
        report.metrics["routing_states"] = analysis.n_states
        if not analysis.cycle:
            report.metrics["max_hops_bound"] = analysis.max_hops
            report.metrics["max_misroute"] = analysis.max_misroute
    for code, found in (
        ("REACH-DEADEND", [(d, s, _DEADEND) for d, s in analysis.dead_ends]),
        ("REACH-UNCOVERED", [(d, s, _UNCOVERED) for d, s in analysis.uncovered]),
        ("REACH-RAISES", [(d, s, f"routing function raised {e}") for d, s, e in analysis.failures]),
    ):
        for dst, state, message in found[:_REACH_CAP]:
            report.error(code, f"{fault_target}dst {dst} state {state}", message)
        if len(found) > _REACH_CAP:
            report.warning(
                "REACH-TRUNCATED",
                f"{fault_target}{code}",
                f"{len(found) - _REACH_CAP} further {code} states suppressed",
            )
    if analysis.cycle:
        report.error(
            "REACH-CYCLE",
            f"{fault_target}dst {analysis.cycle_dst}",
            f"routing state cycle {render_states(analysis.cycle)}; a packet can "
            "revisit a routing state, so neither delivery nor its hop count "
            "is bounded",
        )


def render_states(cycle: list[RoutingState]) -> str:
    """The first eight states of a witness cycle, for a finding message."""
    return " -> ".join(f"(node {node}, banned={banned})" for node, banned, _c in cycle[:8])

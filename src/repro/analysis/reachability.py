"""Exhaustive reachability proofs over the routing function.

The livelock pass (:mod:`repro.analysis.livelock`) proves that no packet
can revisit a routing state.  That alone does not prove *delivery*: a
routing function could still strand a packet in a state with no usable
candidate (a dead-end), or leave a blocking state without an escape
candidate — in which case the Lemma 1 deadlock argument, which assumes
every blocked packet can always fall back to the escape subnetwork, does
not apply.  This pass closes both gaps by exhaustive exploration of every
reachable routing state

    state = (node, adaptive_banned, subnet_choice)

for every destination, proving three properties:

1. **no dead-ends** — every reachable non-terminal state offers at least
   one non-ejection candidate (and the routing function never raises);
2. **escape coverage** — every reachable non-terminal state offers at
   least one escape candidate, so a packet whose adaptive candidates are
   all blocked can always fall back to C0 (the premise of Theorem 1);
3. **delivery** — the reachable state graph is acyclic, which together
   with (1) bounds every packet's hop count by the longest path through
   the graph: every packet is delivered within ``max_hops`` hops.

:func:`sweep_fault_masks` repeats the proof under every single-link fault
mask (each safe-to-fail link from
:func:`repro.routing.fault.adaptive_link_indices` failed on its own),
which turns the paper's Sec 9 fault-tolerance claim — hetero interfaces
keep an intact escape under adaptive-link failures — into a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.routing.deadlock import find_cycle
from repro.routing.fault import UnroutableError, adaptive_link_indices, apply_faults
from repro.topology.system import SystemSpec
from .report import Report

#: A routing state, as in :mod:`repro.analysis.livelock`.
RoutingState = tuple[int, bool, Optional[str]]

#: Builds a fresh network (routing functions are mutated by fault masks).
NetworkFactory = Callable[[], Network]


@dataclass
class ReachabilityAnalysis:
    """Result of the per-destination routing-state exploration."""

    n_states: int = 0
    #: Longest delivery path over all reachable states; -1 while unbounded.
    max_hops: int = -1
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


def _probe(node: int, dst: int, state: RoutingState) -> Packet:
    packet = Packet(node, dst, length=1, create_cycle=0)
    packet.adaptive_banned = state[1]
    packet.subnet_choice = state[2]
    return packet


def analyse_reachability(network: Network) -> ReachabilityAnalysis:
    """Explore every reachable routing state of every destination."""
    analysis = ReachabilityAnalysis()
    max_hops = 0
    bounded = True
    for dst in range(network.n_nodes):
        graph = _explore(network, dst, analysis)
        analysis.n_states += len(graph)
        if not analysis.cycle:
            cycle = find_cycle(graph)
            if cycle:
                analysis.cycle = cycle
                analysis.cycle_dst = dst
        if analysis.cycle:
            bounded = False
            continue
        max_hops = max(max_hops, _longest_path(graph, dst))
    if bounded:
        analysis.max_hops = max_hops
    return analysis


def _explore(
    network: Network, dst: int, analysis: ReachabilityAnalysis
) -> dict[RoutingState, set[RoutingState]]:
    """One destination's reachable state graph, recording violations."""
    graph: dict[RoutingState, set[RoutingState]] = {}
    frontier: list[RoutingState] = [
        (src, False, None) for src in range(network.n_nodes) if src != dst
    ]
    while frontier:
        state = frontier.pop()
        if state in graph:
            continue
        successors: set[RoutingState] = set()
        graph[state] = successors
        node, banned, _choice = state
        router = network.routers[node]
        probe = _probe(node, dst, state)
        try:
            candidates = router.routing_fn(router, probe)
        except UnroutableError as exc:
            analysis.dead_ends.append((dst, state))
            del exc
            continue
        except Exception as exc:  # noqa: BLE001 - surfaced as a finding
            analysis.failures.append((dst, state, repr(exc)))
            continue
        choice_after = probe.subnet_choice
        # Routing may itself ban the packet (fault detours, Sec 6.2).
        route_banned = banned or probe.adaptive_banned
        forwarding = [c for c in candidates if router.outputs[c[0]].link is not None]
        if not forwarding:
            analysis.dead_ends.append((dst, state))
            continue
        if not any(is_escape for _p, _v, is_escape in forwarding):
            analysis.uncovered.append((dst, state))
        saw_adaptive = any(not is_escape for _p, _v, is_escape in forwarding)
        for port, _vc, is_escape in forwarding:
            link = router.outputs[port].link
            assert link is not None
            next_node = link.dst_router.node
            next_banned = route_banned or (is_escape and saw_adaptive)
            succ = (next_node, next_banned, choice_after)
            successors.add(succ)
            if next_node != dst and succ not in graph:
                frontier.append(succ)
    return graph


def _longest_path(graph: dict[RoutingState, set[RoutingState]], dst: int) -> int:
    """Longest hop count from any state to ejection (graph must be a DAG)."""
    depth: dict[RoutingState, int] = {}
    for start in graph:
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
    return max(depth.values(), default=0)


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
    *,
    links: Optional[Sequence[int]] = None,
) -> FaultSweep:
    """Re-prove reachability with each safe-to-fail link failed on its own.

    ``factory`` must build a fresh network per mask (fault injection wraps
    the installed routing functions in place).  ``links`` overrides the
    default mask set of :func:`~repro.routing.fault.adaptive_link_indices`.
    """
    sweep = FaultSweep()
    if links is None:
        probe = factory()
        links = adaptive_link_indices(probe, spec)
        probe.close()
    for link in links:
        network = factory()
        apply_faults(network, [link])
        try:
            analysis = analyse_reachability(network)
        finally:
            network.close()
        sweep.links.append(link)
        sweep.analyses.append(analysis)
        if not analysis.ok:
            sweep.broken.append(link)
    return sweep


def reachability_pass(
    network: Network,
    report: Report,
    *,
    fault_target: str = "",
) -> ReachabilityAnalysis:
    """Run :func:`analyse_reachability` and fold findings into ``report``.

    ``fault_target`` prefixes finding targets (e.g. ``"fault link 12: "``)
    so one report can hold the fault-free pass plus the whole mask sweep.
    """
    analysis = analyse_reachability(network)
    fold_reachability(analysis, report, fault_target=fault_target)
    return analysis


def fold_reachability(
    analysis: ReachabilityAnalysis,
    report: Report,
    *,
    fault_target: str = "",
) -> None:
    """Translate a :class:`ReachabilityAnalysis` into report findings."""
    for dst, state in analysis.dead_ends[:8]:
        report.error(
            "REACH-DEADEND",
            f"{fault_target}dst {dst} state {state}",
            "reachable routing state has no usable forwarding candidate; "
            "a packet in this state strands",
        )
    if len(analysis.dead_ends) > 8:
        report.warning(
            "REACH-TRUNCATED",
            f"{fault_target}reachability",
            f"{len(analysis.dead_ends) - 8} further dead-end states suppressed",
        )
    for dst, state in analysis.uncovered[:8]:
        report.error(
            "REACH-UNCOVERED",
            f"{fault_target}dst {dst} state {state}",
            "reachable routing state offers no escape candidate; the "
            "Lemma 1 fallback argument does not cover this blocking state",
        )
    for dst, state, error in analysis.failures[:8]:
        report.error(
            "REACH-RAISES",
            f"{fault_target}dst {dst} state {state}",
            f"routing function raised {error}",
        )
    if analysis.cycle:
        shown = " -> ".join(
            f"(node {node}, banned={banned})"
            for node, banned, _c in analysis.cycle[:8]
        )
        report.error(
            "REACH-CYCLE",
            f"{fault_target}dst {analysis.cycle_dst}",
            f"routing state cycle {shown}; delivery within a hop bound "
            "cannot be proven",
        )

"""The route table, and the channel-dependency-graph checks built on it.

Lemma 1 (after Dally [20] and Duato [25]) reduces deadlock freedom of the
full adaptive routing function to two properties of the escape routing
subfunction R0 on the channel subset C0: *connectivity* (every pair of
nodes is linked by an escape-only path) and *acyclicity* of the channel
dependency graph of R0.  This module verifies both properties for a built
network by exhaustive enumeration — it is how the tests mechanically check
Theorem 1 for every system family.

Every static pass asks the routing function one question: what does it
offer a packet for ``dst`` at ``node`` in routing state (``banned``,
subnet ``choice``)?  :class:`RouteTable` asks each question once and keeps
the answer, and explores from those answers the reachable routing-state
graph of each destination.  The dependency graph, the connectivity check,
and in :mod:`repro.analysis` the linter, the delivery/livelock proof and
the model checker all read the table; those that take a ``network``
accept its :class:`RouteTable` too, and then share its answers.

The graph comes in two modes.  Under virtual cut-through (``"vct"``, exact
for this repository's routers, which allocate whole-packet buffers) a
packet holds at most its current channel while requesting the next, so
only *direct* dependencies between consecutive escape channels matter.
Under plain wormhole (``"wormhole"``) a blocked packet holds every channel
back to its tail: an escape channel also acquires *indirect* dependencies
on every escape channel the packet may request after a chain of adaptive
channels — Duato's extended graph, whose acyclicity proves deadlock
freedom even without the VCT discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional, TypeVar, Union

from repro.noc.flit import Packet
from repro.noc.network import Network
from .fault import UnroutableError

#: A dependency-graph vertex: (link index, virtual channel index).
EscapeChannel = tuple[int, int]
#: A vertex of any graph :func:`find_cycle` searches.
V = TypeVar("V")
#: A routing state: (node, adaptive_banned, subnet_choice).
RoutingState = tuple[int, bool, Optional[str]]
#: A forwarding candidate: (link index, vc, is_escape, next node).
Hop = tuple[int, int, bool, int]

#: Analysis modes understood by :func:`build_cdg`.
MODES = ("vct", "wormhole")


class Route(NamedTuple):
    """The routing function's answer to one question."""

    #: The (port, vc, is_escape) candidates as returned.
    candidates: tuple
    #: The candidates that leave the node over a link of the router.
    hops: tuple[Hop, ...]
    #: Subnet choice and ban flag the routing function wrote back.
    choice: Optional[str]
    banned: bool
    #: What the routing function raised instead of answering, if anything.
    error: Optional[Exception] = None


@dataclass
class StateGraph:
    """One destination's reachable routing states, from fresh injections."""

    #: state -> successor states (a state at the destination is terminal);
    #: tuples, which the garbage collector stops tracking once scanned.
    edges: dict[RoutingState, tuple[RoutingState, ...]] = field(default_factory=dict)
    #: States with no forwarding candidate, or whose routing raised
    #: :class:`~repro.routing.fault.UnroutableError`.
    dead_ends: list[RoutingState] = field(default_factory=list)
    #: States offering no escape candidate.
    uncovered: list[RoutingState] = field(default_factory=list)
    #: (state, repr of the error) where the routing function raised.
    failures: list[tuple[RoutingState, str]] = field(default_factory=list)


class RouteTable:
    """Each routing question of one network, asked once."""

    def __init__(self, network: Network) -> None:
        self.network = network
        #: Per node: output port -> (link index, next node), ejection left out.
        self._links = [
            {
                out.index: (out.link.index, out.link.spec.dst)
                for out in router.outputs
                if out.link is not None
            }
            for router in network.routers
        ]
        #: Per destination: routing state -> answer.
        self._routes: list[dict[RoutingState, Route]] = [
            {} for _ in range(network.n_nodes)
        ]
        #: Each distinct answer once: questions at one node mostly share one.
        self._answers: dict[tuple, Route] = {}
        self._states: dict[int, StateGraph] = {}
        #: One probe packet, re-aimed at each question.
        self._probe = Packet(0, 1, length=1, create_cycle=0)

    def query(
        self, node: int, dst: int, banned: bool = False, choice: Optional[str] = None
    ) -> Route:
        """What routing offers a packet for ``dst != node`` at ``node``."""
        return self._route(dst, (node, banned, choice))

    def _route(self, dst: int, state: RoutingState) -> Route:
        routes = self._routes[dst]
        route = routes.get(state)
        if route is None:
            route = routes[state] = self._ask(dst, *state)
        return route

    def _ask(self, dst: int, node: int, banned: bool, choice: Optional[str]) -> Route:
        probe = self._probe
        probe.src, probe.dst = node, dst
        probe.adaptive_banned, probe.subnet_choice = banned, choice
        try:
            router = self.network.routers[node]
            candidates = tuple(router.routing_fn(router, probe))
            answer = (node, candidates, probe.subnet_choice, probe.adaptive_banned)
            route = self._answers.get(answer)
            if route is None:
                links = self._links[node]
                hops = [
                    (link[0], vc, is_escape, link[1])
                    for port, vc, is_escape in candidates
                    if (link := links.get(port)) is not None
                ]
                route = self._answers[answer] = Route(candidates, tuple(hops), *answer[2:])
        except Exception as exc:  # noqa: BLE001 - the answer, reported as a finding
            # Without its traceback, whose frames would hold this table.
            return Route((), (), choice, banned, exc.with_traceback(None))
        return route

    def states(self, dst: int) -> StateGraph:
        """The reachable routing-state graph of ``dst``, explored once.

        Exploration starts from the fresh-injection state of every source
        and follows forwarding candidates.  Ban transitions follow the VC
        allocator: taking an escape candidate while adaptive candidates were
        on offer bans the packet, and routing may ban it itself (fault
        detours, Sec 6.2); the subnet choice the routing function writes
        back rides along, so Eq (5)'s absorbing cube->mesh switch is exact.
        """
        graph = self._states.get(dst)
        if graph is None:
            graph = self._states[dst] = self._explore(dst)
        return graph

    def _explore(self, dst: int) -> StateGraph:
        graph = StateGraph()
        edges = graph.edges
        frontier: list[RoutingState] = [
            (src, False, None) for src in range(self.network.n_nodes) if src != dst
        ]
        seen = {state: state for state in frontier}  # one tuple per state
        while frontier:
            state = frontier.pop()
            if state in edges:
                continue
            edges[state] = ()
            route = self._route(dst, state)
            if route.error is not None and not isinstance(route.error, UnroutableError):
                graph.failures.append((state, repr(route.error)))
                continue
            if not route.hops:
                graph.dead_ends.append(state)
                continue
            if not any(hop[2] for hop in route.hops):
                graph.uncovered.append(state)
            saw_adaptive = not all(hop[2] for hop in route.hops)
            banned = state[1] or route.banned
            successors: set[RoutingState] = set()
            for _link, _vc, is_escape, next_node in route.hops:
                succ = (next_node, banned or (is_escape and saw_adaptive), route.choice)
                succ = seen.setdefault(succ, succ)
                successors.add(succ)
                if next_node != dst and succ not in edges:
                    frontier.append(succ)
            edges[state] = tuple(successors)
        return graph


def route_table(network: Union[Network, RouteTable]) -> RouteTable:
    """A table for ``network``; a table passed in is used as it is."""
    return network if isinstance(network, RouteTable) else RouteTable(network)


def distances_to(
    table: RouteTable, dst: int, *, escape_only: bool = False
) -> dict[int, int]:
    """Fewest hops to ``dst`` from each node that can reach it along fresh
    packets' candidates (escape candidates only, if asked)."""
    reverse: dict[int, set[int]] = {}
    for node in range(table.network.n_nodes):
        if node != dst:
            for _link, _vc, is_escape, next_node in table.query(node, dst).hops:
                if is_escape or not escape_only:
                    reverse.setdefault(next_node, set()).add(node)
    dist = {dst: 0}
    frontier = [dst]
    for node in frontier:
        for prev in reverse.get(node, ()):
            if prev not in dist:
                dist[prev] = dist[node] + 1
                frontier.append(prev)
    return dist


def find_cycle(graph: Mapping[V, Iterable[V]]) -> list[V]:
    """A cycle in a directed graph, or [] if acyclic (iterative DFS).

    The cycle is a closed walk: its first vertex is repeated at the end, so
    an n-vertex cycle is n + 1 long.  Vertices are visited in the graph's
    key order and successors in their iteration order.  The one cycle
    finder of the static CDG passes and of the runtime wait-for graph
    (:func:`repro.telemetry.forensics.extract_wait_graph`).
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[V, int] = {}
    parent: dict[V, V] = {}
    for start in graph:
        if color.get(start, WHITE) != WHITE:
            continue
        stack: list[tuple[V, object]] = [(start, iter(graph.get(start, ())))]
        color[start] = GRAY
        while stack:
            vertex, it = stack[-1]
            advanced = False
            for nxt in it:
                state = color.get(nxt, WHITE)
                if state == GRAY:
                    # reconstruct the cycle nxt -> ... -> vertex -> nxt
                    cycle = [nxt, vertex]
                    walk = vertex
                    while walk != nxt:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return cycle
                if state == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = vertex
                    stack.append((nxt, iter(graph.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[vertex] = BLACK
                stack.pop()
    return []


@dataclass
class ChannelDependencyGraph:
    """Escape-channel dependency graph with direct/indirect edge split."""

    #: vertex -> all successors (direct + indirect).
    edges: dict[EscapeChannel, set[EscapeChannel]] = field(default_factory=dict)
    #: vertex -> successors reached only through an adaptive chain.
    indirect: dict[EscapeChannel, set[EscapeChannel]] = field(default_factory=dict)
    mode: str = "vct"

    @property
    def n_channels(self) -> int:
        return len(self.edges)

    @property
    def n_direct(self) -> int:
        total = sum(len(v) for v in self.edges.values())
        return total - self.n_indirect

    @property
    def n_indirect(self) -> int:
        return sum(len(v) for v in self.indirect.values())

    def cycle(self) -> list[EscapeChannel]:
        """A dependency cycle, or ``[]`` if the graph is acyclic."""
        return find_cycle(self.edges)

    def cycle_uses_indirect(self, cycle: list[EscapeChannel]) -> bool:
        """True if the given cycle needs at least one indirect edge."""
        for a, b in zip(cycle, cycle[1:]):
            if b in self.indirect.get(a, ()):
                return True
        return False


def build_cdg(
    network: Union[Network, RouteTable], mode: str = "vct"
) -> ChannelDependencyGraph:
    """The (extended) channel dependency graph of the escape subfunction.

    For every destination, the escape and adaptive channels offered at each
    node are the union over the fresh questions (unbanned and banned) and
    every reachable routing state, so the graph over-approximates any
    packet's state and its acyclicity is a sound certificate.  Direct
    dependencies connect an escape channel to the escape channels offered
    at its downstream node; in ``wormhole`` mode, indirect dependencies
    additionally connect it to escape channels offered at any node
    reachable from there through one or more adaptive hops.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    table = route_table(network)
    links = table.network.links
    n = table.network.n_nodes
    graph = ChannelDependencyGraph(mode=mode)
    edges = graph.edges
    for dst in range(n):
        asked = {node: [(False, None), (True, None)] for node in range(n) if node != dst}
        for node, banned, choice in table.states(dst).edges:
            asked[node].append((banned, choice))
        escape_at: dict[int, list[EscapeChannel]] = {dst: []}
        adaptive_next: dict[int, set[int]] = {dst: set()}
        for node, states in asked.items():
            escape: dict[EscapeChannel, None] = {}
            nexts = adaptive_next[node] = set()
            for banned, choice in states:
                for link, vc, is_escape, next_node in table.query(
                    node, dst, banned, choice
                ).hops:
                    if is_escape:
                        escape[link, vc] = None
                    else:
                        nexts.add(next_node)
            escape_at[node] = list(escape)
        for node in asked:
            for channel in escape_at[node]:
                deps = edges.setdefault(channel, set())
                downstream = links[channel[0]].spec.dst
                deps.update(escape_at[downstream])
                if mode == "wormhole":
                    for via in _adaptive_reachable(adaptive_next, downstream, dst):
                        fresh = [c for c in escape_at[via] if c not in deps]
                        if fresh:
                            deps.update(fresh)
                            graph.indirect.setdefault(channel, set()).update(fresh)
    return graph


def _adaptive_reachable(
    adaptive_next: dict[int, set[int]], start: int, dst: int
) -> set[int]:
    """Nodes reachable from ``start`` via >= 1 adaptive hop (``dst`` excluded)."""
    seen: set[int] = set()
    frontier = [n for n in adaptive_next[start] if n != dst]
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(n for n in adaptive_next[node] if n != dst and n not in seen)
    return seen


@dataclass
class EscapeAnalysis:
    """Result of analysing one network's escape subfunction."""

    connected: bool
    acyclic: bool
    n_channels: int
    n_dependencies: int
    cycle: list[EscapeChannel] = field(default_factory=list)
    unreachable: list[tuple[int, int]] = field(default_factory=list)

    @property
    def deadlock_free(self) -> bool:
        """Lemma 1's sufficient condition."""
        return self.connected and self.acyclic


def escape_connectivity(table: RouteTable) -> list[tuple[int, int]]:
    """(src, dst) pairs NOT reachable via escape-only hops (should be empty).

    One reverse breadth-first search per destination over the escape
    candidates fresh packets are offered; connectivity of R0 means every
    source is reached.
    """
    n = table.network.n_nodes
    reached = [distances_to(table, dst, escape_only=True) for dst in range(n)]
    return [
        (src, dst)
        for src in range(n)
        for dst in range(n)
        if src != dst and src not in reached[dst]
    ]


def analyse_escape(network: Network) -> EscapeAnalysis:
    """Run the full Lemma 1 check on a built network."""
    table = RouteTable(network)
    graph = build_cdg(table, "vct")
    cycle = graph.cycle()
    unreachable = escape_connectivity(table)
    return EscapeAnalysis(
        connected=not unreachable,
        acyclic=not cycle,
        n_channels=graph.n_channels,
        n_dependencies=graph.n_direct,
        cycle=cycle,
        unreachable=unreachable,
    )

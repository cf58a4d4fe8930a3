"""Bounded explicit-state model checking of the credit/VC state space.

The CDG passes (:func:`repro.routing.deadlock.build_cdg`) are
*conservative*: a cycle in the (extended) dependency graph means deadlock
**cannot be ruled out** by Duato's condition, not that one is reachable.
Under plain-wormhole assumptions most adaptive families report extended
cycles even though the routers' virtual cut-through allocation makes those
cycles unrealizable.
This module adjudicates: it exhaustively explores (up to explicit bounds)
an abstract credit/VC-occupancy state space of the built network and
either

* **realizes** a deadlock — emitting a :class:`CounterexampleTrace` of
  concrete packet injections that replays in the cycle-accurate simulator
  and reproduces a :class:`~repro.sim.stats.DeadlockError`; or
* **refutes** the cycle — ``refuted-exhaustive`` when the bounded state
  space was explored completely, ``refuted-bounded`` when an exploration
  cap was hit first.

Abstraction (sound for counterexample *generation*, since every trace is
re-validated by replay): each ``(link, vc)`` pair is a FIFO **channel**
holding whole packets, with capacity ``credits // packet_length`` — the
router's virtual cut-through allocation rule (`needed = packet.length`)
made exact.  A packet at the head of a channel sits at the link's
downstream router and moves by the real VC-allocator's preference: any
free adaptive target first; the escape fallback only when no adaptive
target has room, setting ``adaptive_banned`` exactly like
``Router._try_vc_allocate``.  A state is a **deadlock** when some packet
is buffered and no channel head can move (ejection included).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.routing.deadlock import EscapeChannel, RouteTable, route_table
from repro.sim.stats import DeadlockError, Stats

#: Abstract packet: (destination node, adaptive_banned, subnet_choice).
AbstractPacket = tuple[int, bool, Optional[str]]
#: Channel occupancies: one FIFO tuple of abstract packets per channel.
State = tuple[tuple[AbstractPacket, ...], ...]

VERDICT_DEADLOCK = "deadlock"
VERDICT_REFUTED_EXHAUSTIVE = "refuted-exhaustive"
VERDICT_REFUTED_BOUNDED = "refuted-bounded"


@dataclass
class CounterexampleTrace:
    """A concrete injection sequence driving the network into deadlock.

    Replaying the injections (in order, all at cycle 0) in the
    cycle-accurate simulator reproduces the deadlock as a
    :class:`~repro.sim.stats.DeadlockError`; see
    :func:`replay_counterexample`.
    """

    #: (src, dst) per injected packet, in injection order.
    injections: list[tuple[int, int]]
    packet_length: int
    #: Occupied channels of the deadlock state: (link, vc, n_packets).
    deadlock_channels: list[tuple[int, int, int]]

    def to_dict(self) -> dict:
        return {
            "injections": [list(pair) for pair in self.injections],
            "packet_length": self.packet_length,
            "deadlock_channels": [list(c) for c in self.deadlock_channels],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CounterexampleTrace":
        return cls(
            injections=[(int(s), int(d)) for s, d in data["injections"]],
            packet_length=int(data["packet_length"]),
            deadlock_channels=[
                (int(link), int(vc), int(n))
                for link, vc, n in data["deadlock_channels"]
            ],
        )

    def render(self) -> str:
        """Forensics-style multi-line description of the counterexample."""
        lines = [
            f"== deadlock counterexample: {len(self.injections)} packet(s), "
            f"{self.packet_length} flits each =="
        ]
        lines.extend(
            f"  inject #{i}: node {src} -> node {dst}"
            for i, (src, dst) in enumerate(self.injections)
        )
        lines.append("  wedged channels (link, vc, packets):")
        lines.extend(
            f"    link {link} vc {vc}: {n} packet(s)"
            for link, vc, n in self.deadlock_channels
        )
        return "\n".join(lines)


@dataclass
class ModelCheckResult:
    """Outcome of one bounded exploration."""

    verdict: str
    explored: int
    #: True iff the frontier emptied before any cap was hit.
    exhaustive: bool
    max_states: int
    max_packets: int
    counterexample: Optional[CounterexampleTrace] = None
    #: Channels whose occupancy the search prioritized (the CDG cycle).
    focus: list[EscapeChannel] = field(default_factory=list)

    @property
    def deadlock(self) -> bool:
        return self.verdict == VERDICT_DEADLOCK


class _Model:
    """Channel view of the network used by the explorer."""

    def __init__(self, network: Union[Network, RouteTable], packet_length: int) -> None:
        self.table = route_table(network)
        network = self.table.network
        self.packet_length = packet_length
        self.n_channels = 0
        #: (link, vc) -> channel id, and the inverses.
        self.channel_id: dict[EscapeChannel, int] = {}
        self.channel_key: list[EscapeChannel] = []
        self.capacity: list[int] = []
        #: channel id -> node holding the channel's head packet.
        self.holder: list[int] = []
        for link in network.links:
            assert link.src_router is not None and link.dst_router is not None
            out = link.src_router.outputs[link.src_port]
            for vc in range(out.n_vcs):
                cid = self.n_channels
                self.n_channels += 1
                self.channel_id[(link.index, vc)] = cid
                self.channel_key.append((link.index, vc))
                self.capacity.append(max(0, out.credits[vc] // packet_length))
                self.holder.append(link.dst_router.node)
        #: (node, dst, banned, choice) -> ([(channel, is_escape)], choice',
        #: banned') — routing may itself set the ban (fault detours).
        self._routes: dict[
            tuple[int, int, bool, Optional[str]],
            tuple[list[tuple[int, bool]], Optional[str], bool],
        ] = {}

    def routes(
        self, node: int, dst: int, banned: bool, choice: Optional[str]
    ) -> tuple[list[tuple[int, bool]], Optional[str], bool]:
        key = (node, dst, banned, choice)
        cached = self._routes.get(key)
        if cached is None:
            route = self.table.query(*key)
            targets = [(self.channel_id[link, vc], esc) for link, vc, esc, _n in route.hops]
            cached = self._routes[key] = (targets, route.choice, route.banned)
        return cached


def _allocable(
    model: _Model, state: State, targets: list[tuple[int, bool]], banned: bool
) -> tuple[list[int], bool]:
    """Channels the VC allocator could grant, plus the resulting ban flag.

    Mirrors ``Router._try_vc_allocate``: adaptive targets with room are
    preferred (all are explored — the credit-count tiebreak is
    nondeterminism here); the escape fallback applies only when no
    adaptive target has room and bans the packet if adaptive candidates
    existed at all.
    """
    adaptive = [
        cid
        for cid, is_escape in targets
        if not is_escape and len(state[cid]) < model.capacity[cid]
    ]
    if adaptive:
        return adaptive, banned
    saw_adaptive = any(not is_escape for _cid, is_escape in targets)
    escape = [
        cid
        for cid, is_escape in targets
        if is_escape and len(state[cid]) < model.capacity[cid]
    ]
    return escape, banned or saw_adaptive


#: A move: ("hop", src_channel, dst_channel) | ("eject", channel) |
#:         ("inject", src, dst, first_channel).
Move = tuple


def _channel_moves(model: _Model, state: State) -> list[Move]:
    moves: list[Move] = []
    for cid, fifo in enumerate(state):
        if not fifo:
            continue
        dst, banned, choice = fifo[0]
        node = model.holder[cid]
        if node == dst:
            moves.append(("eject", cid))
            continue
        targets, _choice_after, route_banned = model.routes(node, dst, banned, choice)
        allocable, _new_banned = _allocable(model, state, targets, route_banned)
        moves.extend(("hop", cid, target) for target in allocable)
    return moves


def _apply(model: _Model, state: State, move: Move) -> State:
    channels = list(state)
    if move[0] == "eject":
        cid = move[1]
        channels[cid] = channels[cid][1:]
        return tuple(channels)
    if move[0] == "hop":
        src_cid, dst_cid = move[1], move[2]
        dst, banned, choice = channels[src_cid][0]
        node = model.holder[src_cid]
        targets, choice_after, route_banned = model.routes(node, dst, banned, choice)
        _allocable_targets, new_banned = _allocable(model, state, targets, route_banned)
        channels[src_cid] = channels[src_cid][1:]
        channels[dst_cid] = channels[dst_cid] + ((dst, new_banned, choice_after),)
        return tuple(channels)
    # ("inject", src, dst, first_channel)
    _kind, src, dst, cid = move
    targets, choice_after, route_banned = model.routes(src, dst, False, None)
    _allocable_targets, inject_banned = _allocable(model, state, targets, route_banned)
    channels[cid] = channels[cid] + ((dst, inject_banned, choice_after),)
    return tuple(channels)


def cycle_feed_pool(
    network: Union[Network, RouteTable],
    cycle: Sequence[EscapeChannel],
    *,
    packet_length: int,
) -> list[tuple[int, int]]:
    """(src, dst) pairs whose very first hop can land on a cycle channel.

    This is the injection pool used when adjudicating a CDG cycle: traffic
    that cannot even enter the suspect channels cannot be part of a
    minimal deadlock over them.
    """
    model = _Model(network, packet_length)
    n = model.table.network.n_nodes
    focus = {model.channel_id[c] for c in cycle if c in model.channel_id}
    pool: list[tuple[int, int]] = []
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            targets, _choice, _banned = model.routes(src, dst, False, None)
            if any(cid in focus for cid, _esc in targets):
                pool.append((src, dst))
    return pool


def check_network(
    network: Union[Network, RouteTable],
    *,
    packet_length: int,
    pool: Optional[Sequence[tuple[int, int]]] = None,
    focus_cycle: Sequence[EscapeChannel] = (),
    max_states: int = 20_000,
    max_packets: Optional[int] = None,
) -> ModelCheckResult:
    """Bounded best-first search for a reachable deadlock state.

    ``pool`` is the set of (src, dst) injections the adversary may use
    (default: every pair — prefer :func:`cycle_feed_pool` when
    adjudicating a specific CDG cycle).  ``focus_cycle`` steers the search
    toward states that fill the given channels.  ``max_packets`` bounds
    simultaneous in-network packets; ``None`` sizes it from the focus
    cycle — a deadlock over the cycle needs every cycle channel full, so
    the bound must at least cover their summed capacity (falling back to
    64 without a focus).  ``max_states`` bounds explored states.
    Injections are replenishable, so a state is fully described by its
    channel occupancies.  Both budgets must be at least 1: an empty search
    proves nothing.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    if max_packets is not None and max_packets < 1:
        raise ValueError(f"max_packets must be >= 1, got {max_packets}")
    model = _Model(network, packet_length)
    if max_packets is None:
        in_focus = [
            model.capacity[model.channel_id[c]]
            for c in focus_cycle
            if c in model.channel_id
        ]
        max_packets = sum(in_focus) + 2 if in_focus else 64
    if pool is None:
        n = model.table.network.n_nodes
        pool = [(s, d) for s in range(n) for d in range(n) if s != d]
    # A state's priority is (-focus fill, -occupancy), kept incrementally:
    # each move changes both by the weights of the channels it touches (a
    # channel counts once per appearance on the closed-walk focus cycle).
    weight = [0] * model.n_channels
    for c in focus_cycle:
        if c in model.channel_id:
            weight[model.channel_id[c]] += 1
    initial: State = tuple(() for _ in range(model.n_channels))

    # Tie-break newest-first: among equally full states the search dives
    # (depth-first) instead of sweeping the whole equal-priority plateau,
    # which is what actually reaches "all suspect channels full" states.
    counter = 0
    frontier: list[tuple[tuple[int, int], int, State]] = [((0, 0), 0, initial)]
    seen: set[State] = {initial}
    parents: dict[State, tuple[State, Move]] = {}
    explored = 0
    truncated = False
    while frontier:
        if explored >= max_states:
            truncated = True
            break
        (focus_fill, total), _tick, state = heapq.heappop(frontier)
        explored += 1
        moves = _channel_moves(model, state)
        occupancy = -total
        if occupancy and not moves:
            trace = _build_trace(model, state, parents)
            return ModelCheckResult(
                verdict=VERDICT_DEADLOCK,
                explored=explored,
                exhaustive=False,
                max_states=max_states,
                max_packets=max_packets,
                counterexample=trace,
                focus=list(focus_cycle),
            )
        if occupancy < max_packets:
            for src, dst in pool:
                targets, _choice, route_banned = model.routes(src, dst, False, None)
                allocable, _banned = _allocable(model, state, targets, route_banned)
                moves.extend(("inject", src, dst, cid) for cid in allocable)
        for move in moves:
            successor = _apply(model, state, move)
            if successor in seen:
                continue
            seen.add(successor)
            parents[successor] = (state, move)
            counter += 1
            kind = move[0]
            if kind == "hop":
                priority = (focus_fill - weight[move[2]] + weight[move[1]], total)
            elif kind == "eject":
                priority = (focus_fill + weight[move[1]], total + 1)
            else:
                priority = (focus_fill - weight[move[3]], total - 1)
            heapq.heappush(frontier, (priority, -counter, successor))
    return ModelCheckResult(
        verdict=VERDICT_REFUTED_BOUNDED if truncated else VERDICT_REFUTED_EXHAUSTIVE,
        explored=explored,
        exhaustive=not truncated,
        max_states=max_states,
        max_packets=max_packets,
        focus=list(focus_cycle),
    )


def _build_trace(
    model: _Model, deadlock: State, parents: dict[State, tuple[State, Move]]
) -> CounterexampleTrace:
    moves: list[Move] = []
    state = deadlock
    while state in parents:
        state, move = parents[state]
        moves.append(move)
    moves.reverse()
    injections = [
        (move[1], move[2]) for move in moves if move[0] == "inject"
    ]
    occupied = [
        (*model.channel_key[cid], len(fifo))
        for cid, fifo in enumerate(deadlock)
        if fifo
    ]
    return CounterexampleTrace(
        injections=injections,
        packet_length=model.packet_length,
        deadlock_channels=occupied,
    )


# -- replay ------------------------------------------------------------------


class _TraceWorkload:
    """Re-issues the counterexample's injection pattern for ``rounds`` cycles.

    The abstract deadlock state fixes *which* packets occupy *which*
    channels, but the cycle-accurate simulator schedules arrivals itself —
    a single-shot injection need not land in the adversarial FIFO order.
    Sustained pressure does not have that problem: repeating the pattern
    keeps the suspect channels saturated, so a network that can wedge on
    this pattern does, while a sound escape discipline keeps draining it.
    """

    def __init__(self, trace: CounterexampleTrace, rounds: int) -> None:
        self._trace = trace
        self._rounds = rounds

    def step(self, now: int) -> list[Packet]:
        if now >= self._rounds:
            return []
        return [
            Packet(src, dst, self._trace.packet_length, now)
            for src, dst in self._trace.injections
        ]

    def done(self, now: int) -> bool:
        return now >= self._rounds


@dataclass
class ReplayResult:
    """Outcome of replaying a counterexample in the real simulator."""

    deadlocked: bool
    cycles: int
    error: Optional[DeadlockError] = None
    #: Path of the forensics bundle, when a session captured one.
    bundle_path: Optional[str] = None


def replay_counterexample(
    network: Network,
    stats: Stats,
    trace: CounterexampleTrace,
    *,
    rounds: int = 50,
    deadlock_threshold: int = 500,
    max_cycles: int = 50_000,
    telemetry=None,
) -> ReplayResult:
    """Replay a counterexample trace in the cycle-accurate simulator.

    Returns whether the network actually wedged (``DeadlockError``) — the
    ground truth the model checker's verdict is validated against.  Pass a
    ``TelemetrySession`` with ``forensics`` on as ``telemetry`` to capture
    a postmortem bundle of the wedged state, exactly like a production
    deadlock would.
    """
    from repro.sim.engine import Engine

    engine = Engine(
        network,
        _TraceWorkload(trace, rounds),
        stats,
        deadlock_threshold=deadlock_threshold,
    )
    engine.telemetry = telemetry
    from repro.sim.stats import DrainTimeoutError

    try:
        engine.run_until_drained(max_cycles)
    except DrainTimeoutError:
        # Traffic still moving at the deadline: slow, but not a deadlock.
        return ReplayResult(deadlocked=False, cycles=engine.cycle)
    except DeadlockError as exc:
        return ReplayResult(
            deadlocked=True,
            cycles=engine.cycle,
            error=exc,
            bundle_path=getattr(exc, "bundle_path", None),
        )
    return ReplayResult(deadlocked=False, cycles=engine.cycle)

"""Bounded model checker: realized deadlocks, refutations, trace replay.

The ring fixture (a cyclic *escape* discipline on a 4-node torus row,
also shipped as ``examples/broken_escape.py``) must be driven into a
concrete deadlock whose counterexample trace reproduces a real
:class:`DeadlockError` in the cycle-accurate simulator.  The shipped
families' wormhole-mode CDG cycles must instead be refuted.
"""

from repro.analysis import (
    CounterexampleTrace,
    build_cdg,
    check_network,
    cycle_feed_pool,
    replay_counterexample,
)
from repro.analysis.modelcheck import (
    VERDICT_DEADLOCK,
    VERDICT_REFUTED_BOUNDED,
    VERDICT_REFUTED_EXHAUSTIVE,
)
from repro.sim.config import SimConfig
from repro.sim.stats import DeadlockError, Stats
from repro.topology.grid import ChipletGrid

from .conftest import make_network
from .helpers import ring_routing

#: One 4-node torus row — the smallest grid with a wraparound ring.
RING_GRID = ChipletGrid(2, 1, 2, 1)


def _ring_network(stats=None):
    config = SimConfig()
    spec, network, built_stats = make_network(
        "serial_torus", RING_GRID, config, routing=ring_routing
    )
    return spec, network, stats or built_stats


def _ring_deadlock():
    spec, network, _ = _ring_network()
    cycle = build_cdg(network, "vct").cycle()
    assert cycle, "ring routing must produce a cyclic escape CDG"
    packet_length = spec.config.packet_length
    pool = cycle_feed_pool(network, cycle, packet_length=packet_length)
    assert pool, "traffic must be able to enter the cycle channels"
    result = check_network(
        network,
        packet_length=packet_length,
        pool=pool,
        focus_cycle=cycle,
        max_states=4_000,
    )
    return spec, cycle, result


def test_ring_cycle_is_realized_as_deadlock():
    _spec, cycle, result = _ring_deadlock()
    assert result.verdict == VERDICT_DEADLOCK
    assert result.deadlock
    assert result.explored > 0
    trace = result.counterexample
    assert trace is not None
    assert trace.injections
    # Every wedged channel lies on the reported CDG cycle: the search
    # realized *that* cycle, not some unrelated congestion.
    assert {(link, vc) for link, vc, _n in trace.deadlock_channels} <= set(cycle)


def test_counterexample_replays_as_real_deadlock():
    _spec, _cycle, result = _ring_deadlock()
    trace = result.counterexample
    stats = Stats()
    _spec2, network, _ = _ring_network(stats)
    outcome = replay_counterexample(network, stats, trace)
    assert outcome.deadlocked, "abstract deadlock must reproduce in the simulator"
    assert isinstance(outcome.error, DeadlockError)
    assert outcome.cycles > 0


def test_wormhole_cycles_of_shipped_families_are_refuted():
    spec, network, _ = make_network(
        "serial_torus", ChipletGrid(2, 2, 3, 3), SimConfig()
    )
    cycle = build_cdg(network, "wormhole").cycle()
    assert cycle, "wormhole-mode CDG of the adaptive torus is cyclic"
    packet_length = spec.config.packet_length
    pool = cycle_feed_pool(network, cycle, packet_length=packet_length)
    result = check_network(
        network,
        packet_length=packet_length,
        pool=pool,
        focus_cycle=cycle,
        max_states=1_500,
    )
    assert not result.deadlock
    assert result.verdict in (VERDICT_REFUTED_BOUNDED, VERDICT_REFUTED_EXHAUSTIVE)


def test_small_clean_search_is_exhaustive():
    _spec, network, _ = make_network(
        "parallel_mesh", ChipletGrid(1, 1, 2, 2), SimConfig()
    )
    result = check_network(
        network,
        packet_length=SimConfig().packet_length,
        pool=[(0, 3)],
        max_states=20_000,
        max_packets=4,
    )
    assert result.verdict == VERDICT_REFUTED_EXHAUSTIVE
    assert result.exhaustive
    assert result.counterexample is None


def test_trace_round_trips_through_json_dict():
    trace = CounterexampleTrace(
        injections=[(1, 3), (3, 2)],
        packet_length=16,
        deadlock_channels=[(0, 0, 2), (4, 0, 14)],
    )
    restored = CounterexampleTrace.from_dict(trace.to_dict())
    assert restored == trace
    text = trace.render()
    assert "node 1 -> node 3" in text
    assert "link 4 vc 0: 14 packet(s)" in text

"""Tests for network construction and the activity scheduler."""

import pytest

from repro.noc.channel import ChannelKind
from repro.noc.flit import Packet
from repro.noc.network import Network, default_link_factory
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.patterns import make_pattern
from repro.traffic.trace import TraceWorkload

from .helpers import build_chain, chain_spec, forward_routing, run_cycles


def test_requires_positive_size():
    with pytest.raises(ValueError):
        Network(0, Stats())


def test_default_factory_rejects_hetero():
    spec = chain_spec(0, 1, ChannelKind.HETERO_PHY)
    with pytest.raises(ValueError, match="HeteroPhyLink"):
        default_link_factory(spec)


def test_step_requires_finalize():
    network = Network(2, Stats())
    network.add_channel(chain_spec(0, 1))
    network.set_routing(forward_routing)
    with pytest.raises(RuntimeError, match="finalize"):
        network.step(0)


def test_add_channel_after_finalize_rejected():
    network, _ = build_chain(2)
    with pytest.raises(RuntimeError):
        network.add_channel(chain_spec(1, 0))


def test_interface_credit_slack_applied():
    """Interface channels get bandwidth x round-trip extra credits."""
    network = Network(2, Stats())
    onchip_spec = chain_spec(0, 1, ChannelKind.ONCHIP, buffer_depth=32)
    network.add_channel(onchip_spec)
    serial_spec = chain_spec(1, 0, ChannelKind.SERIAL, bandwidth=4, delay=20, buffer_depth=64)
    network.add_channel(serial_spec)
    onchip_credits = network.routers[0].outputs[1].credits[0]
    serial_credits = network.routers[1].outputs[1].credits[0]
    assert onchip_credits == 32  # on-chip: plain buffer depth
    assert serial_credits == 64 + 4 * (20 + 20)  # buffer + bw * (delay + credit delay)


def test_idle_network_deactivates_everything():
    network, _ = build_chain(3)
    network.inject(Packet(0, 2, 4, 0))
    run_cycles(network, 50)
    # After draining, further steps should find no active work.
    assert network.buffered_flits() == 0
    assert network.in_flight_flits() == 0
    assert not network._router_work
    assert not network._link_work


def test_idle_entities_clear_their_active_flag():
    network, _ = build_chain(3)
    network.inject(Packet(0, 2, 4, 0))
    assert network.routers[0].active
    run_cycles(network, 50)
    assert not any(router.active for router in network.routers)
    assert not any(link.active for link in network.links)


@pytest.mark.parametrize("src, dst", [(0, 2), (0, -1), (2, 0), (-1, 0)])
def test_inject_rejects_endpoints_outside_the_network(src, dst):
    """A bad endpoint fails at injection, naming the packet.

    Routing indexes per-node tables, so a negative destination would
    otherwise wrap around silently and a large one would only surface
    mid-run inside the routing function.
    """
    network, _ = build_chain(2)
    packet = Packet(src, dst, 4, 0)
    with pytest.raises(ValueError, match=rf"pid={packet.pid}.*nodes 0\.\.1"):
        network.inject(packet)
    assert not network._router_work
    assert network.buffered_flits() == 0


def _assert_work_lists_cover_every_flit(network, now):
    full_scan = network.buffered_flits() + network.in_flight_flits() > 0
    assert network.holds_flits() == full_scan, f"cycle {now}"


def test_work_lists_cover_every_flit_synthetic(family):
    """``holds_flits`` (work lists only) agrees with the full scan, every cycle."""
    config = SimConfig(sim_cycles=400, warmup_cycles=0)
    spec = build_system(family, ChipletGrid(2, 2, 3, 3), config)
    stats = Stats()
    network = build_network(spec, stats)
    network.telemetry.subscribe("cycle_end", _assert_work_lists_cover_every_flit)
    workload = SyntheticWorkload(
        make_pattern("uniform", spec.grid.n_nodes),
        spec.grid.n_nodes,
        0.2,
        config.packet_length,
        until=300,
        seed=4,
    )
    engine = Engine(network, workload, stats)
    engine.run_until_drained(5_000)
    assert not network.holds_flits()
    assert stats.packets_delivered == stats.packets_injected > 0


def test_work_lists_cover_every_flit_trace_drain():
    """Burst / drain / idle phases of a trace replay, hetero-PHY bypass included."""
    grid = ChipletGrid(2, 2, 3, 3)
    trace = generate_parsec_trace("canneal", grid, 300, seed=4)
    spec = build_system("hetero_phy_torus", grid, SimConfig())
    stats = Stats()
    network = build_network(spec, stats)
    checked = []

    def check(net, now):
        _assert_work_lists_cover_every_flit(net, now)
        checked.append(now)

    network.telemetry.subscribe("cycle_end", check)
    engine = Engine(network, TraceWorkload(trace), stats)
    engine.run_until_drained(trace.duration + 5_000)
    assert len(checked) == engine.cycle
    # Drained means drained: the full scans agree at the stopping cycle.
    assert network.buffered_flits() == 0 and network.in_flight_flits() == 0


def test_activity_wakes_on_injection():
    network, _ = build_chain(2)
    run_cycles(network, 5)
    assert not network._router_work
    network.inject(Packet(0, 1, 1, 5))
    assert network._router_work
    run_cycles(network, 10, start=5)
    assert network.buffered_flits() == 0


def test_serial_full_throughput_not_credit_limited():
    """The 'additional buffer' (Sec 7.1) lets a serial link stream at 4/cy."""
    network, stats = build_chain(
        2, ChannelKind.SERIAL, bandwidth=4, delay=20, buffer_depth=64
    )
    # 25 packets of 16 flits = 400 flits; at 4 flits/cycle that is 100
    # cycles of streaming + pipeline fill.
    packets = [Packet(0, 1, 16, 0) for _ in range(25)]
    for packet in packets:
        network.inject(packet)
    run_cycles(network, 200)
    assert all(p.arrive_cycle is not None for p in packets)
    last = max(p.arrive_cycle for p in packets)
    # Without the slack, 64 credits over a ~40-cycle round trip cap
    # the link at ~1.6 flits/cycle (>= 250 cycles for 400 flits).
    assert last <= 150


def test_stats_flow_from_network():
    network, stats = build_chain(2)
    packet = Packet(0, 1, 4, 0)
    network.inject(packet)
    stats.note_packet_injected(packet)
    run_cycles(network, 20)
    assert stats.packets_delivered == 1
    assert stats.router_flits > 0


# -- closed-network contract ------------------------------------------------
def _saturated(family):
    """A network stopped mid-flight with full buffers and busy links."""
    config = SimConfig(sim_cycles=300, warmup_cycles=0)
    spec = build_system(family, ChipletGrid(2, 2, 3, 3), config)
    stats = Stats()
    network = build_network(spec, stats)
    workload = SyntheticWorkload(
        make_pattern("uniform", spec.grid.n_nodes),
        spec.grid.n_nodes,
        0.8,
        config.packet_length,
        until=300,
        seed=2,
    )
    Engine(network, workload, stats).run(300)
    return network


def test_closed_network_reads_like_the_open_one(family):
    network = _saturated(family)

    def reading():
        return (
            network.buffered_flits(),
            network.in_flight_flits(),
            network.holds_flits(),
            [router.snapshot_state() for router in network.routers],
            [link.snapshot_state() for link in network.links],
            [link.flits_carried for link in network.links],
        )

    before = reading()
    assert before[0] > 0 and before[1] > 0 and before[2]
    network.close()
    assert network.closed
    assert reading() == before
    network.close()  # idempotent
    assert reading() == before


def test_close_cuts_the_back_references():
    network = _saturated("hetero_phy_torus")
    network.close()
    assert not network._router_work and not network._link_work
    assert all(router.network is None for router in network.routers)
    for link in network.links:
        assert link.network is None
        assert link.src_router is None and link.dst_router is None
        assert link._dst_vcs is None
    # What the post-run reports read stays in place.
    assert len(network.links) == len(network.specs) > 0


def test_closed_network_refuses_to_run():
    network, _ = build_chain(2)
    network.inject(Packet(0, 1, 4, 0))
    run_cycles(network, 2)
    network.close()
    with pytest.raises(RuntimeError, match="network is closed"):
        network.step(2)
    with pytest.raises(RuntimeError, match="network is closed"):
        network.inject(Packet(0, 1, 1, 2))

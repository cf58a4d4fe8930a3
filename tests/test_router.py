"""Tests for the virtual-channel router: pipeline, wormhole, VCT, fairness."""

import pytest

from repro.noc.flit import Packet
from repro.noc.router import Router

from .helpers import build_chain, run_cycles


def test_zero_load_per_hop_latency():
    """Each on-chip hop costs 2 cycles (1 router + 1 wire) at zero load."""
    arrivals = {}
    for nodes in (2, 3, 4):
        network, _ = build_chain(nodes, bandwidth=2, delay=1)
        packet = Packet(0, nodes - 1, 1, 0)
        network.inject(packet)
        run_cycles(network, 40)
        arrivals[nodes] = packet.arrive_cycle
    assert arrivals[3] - arrivals[2] == 2
    assert arrivals[4] - arrivals[3] == 2


def test_wormhole_packets_stay_contiguous_per_vc():
    """Two packets on the same path do not interleave flits at delivery."""
    network, _ = build_chain(2, bandwidth=2, delay=1)
    delivered: list[int] = []

    def spy(router, flit, out_port, out_vc, now):
        if out_port == Router.EJECT_PORT:
            delivered.append(flit.packet.pid)

    network.telemetry.subscribe("flit_send", spy)
    a = Packet(0, 1, 8, 0)
    b = Packet(0, 1, 8, 0)
    network.inject(a)
    network.inject(b)
    run_cycles(network, 60)
    assert a.arrive_cycle is not None and b.arrive_cycle is not None
    # With 2 injection VCs both packets are in flight concurrently, but
    # each packet's flits are delivered in order.
    positions_a = [i for i, pid in enumerate(delivered) if pid == a.pid]
    positions_b = [i for i, pid in enumerate(delivered) if pid == b.pid]
    assert len(positions_a) == len(positions_b) == 8


def test_vct_blocks_allocation_without_whole_packet_credit():
    """A 16-flit packet cannot allocate a VC whose buffer holds only 8."""
    network, _ = build_chain(2, bandwidth=2, delay=1, buffer_depth=8)
    packet = Packet(0, 1, 16, 0)
    network.inject(packet)
    run_cycles(network, 50)
    # The head can never win VC allocation: all flits stay at the source.
    assert packet.arrive_cycle is None
    assert network.routers[0].buffered_flits() == 16


def test_non_vct_router_allows_partial_buffering():
    from repro.noc.network import Network
    from repro.sim.stats import Stats

    from .helpers import chain_spec, forward_routing

    stats = Stats()
    network = Network(2, stats, vct=False)
    network.add_channel(chain_spec(0, 1, buffer_depth=8))
    network.set_routing(forward_routing)
    network.finalize()
    packet = Packet(0, 1, 16, 0)
    network.inject(packet)
    run_cycles(network, 60)
    assert packet.arrive_cycle is not None


def test_misrouted_flit_raises_at_ejection():
    network, _ = build_chain(3, bandwidth=2, delay=1)

    def bad_routing(router, packet):
        return [(Router.EJECT_PORT, 0, True)]  # eject everywhere

    network.set_routing(bad_routing)
    packet = Packet(0, 2, 1, 0)
    network.inject(packet)
    with pytest.raises(RuntimeError, match="ejected at node"):
        run_cycles(network, 10)


def test_empty_routing_candidates_rejected():
    network, _ = build_chain(2)

    def no_candidates(router, packet):
        return []

    network.set_routing(no_candidates)
    network.inject(Packet(0, 1, 1, 0))
    with pytest.raises(RuntimeError, match="no candidates"):
        run_cycles(network, 5)


def test_missing_routing_function_rejected():
    from repro.noc.network import Network
    from repro.sim.stats import Stats

    network = Network(1, Stats())
    with pytest.raises(RuntimeError, match="no routing function"):
        network.finalize()


def test_duplicate_channel_tag_rejected():
    from repro.noc.network import Network
    from repro.sim.stats import Stats

    from .helpers import chain_spec

    network = Network(2, Stats())
    spec_a = chain_spec(0, 1)
    spec_b = chain_spec(0, 1)
    spec_a.tag = ("mesh", "E")
    spec_b.tag = ("mesh", "E")
    network.add_channel(spec_a)
    with pytest.raises(ValueError, match="duplicate channel tag"):
        network.add_channel(spec_b)


def test_two_packets_different_vcs_share_link_bandwidth():
    """Packets on different VCs interleave on the link but both complete."""
    network, _ = build_chain(2, bandwidth=2, delay=1)
    a = Packet(0, 1, 16, 0)
    b = Packet(0, 1, 16, 0)
    network.inject(a)  # injection VC 0
    network.inject(b)  # injection VC 1
    run_cycles(network, 80)
    # 32 flits over a 2-flit/cycle link: about 16 send cycles.
    assert a.arrive_cycle is not None and b.arrive_cycle is not None
    assert max(a.arrive_cycle, b.arrive_cycle) <= 25


def test_injection_round_robins_over_vcs():
    network, _ = build_chain(2)
    router = network.routers[0]
    packets = [Packet(0, 1, 1, 0) for _ in range(4)]
    for packet in packets:
        network.inject(packet)
    vcs = router.inputs[Router.INJECT_PORT].vcs
    assert vcs[0].queue == [packets[0], packets[2]]
    assert vcs[1].queue == [packets[1], packets[3]]
    # Each packet is listed once; the flit count covers all of them.
    assert [vc.n for vc in vcs] == [2, 2]


def test_next_source_packet_is_routed_when_the_tail_ahead_leaves():
    network, _ = build_chain(2, bandwidth=2, delay=1)
    router = network.routers[0]
    first, other, second = Packet(0, 1, 6, 0), Packet(0, 1, 6, 0), Packet(0, 1, 4, 0)
    tail_left: list[int] = []

    def spy(sender, flit, out_port, out_vc, now):
        if sender is router and flit.packet is first and flit.is_tail:
            tail_left.append(now)

    network.telemetry.subscribe("flit_send", spy)
    for packet in (first, other, second):  # VC 0, VC 1, VC 0 again
        network.inject(packet)
    vc = router.inputs[Router.INJECT_PORT].vcs[0]
    for now in range(40):
        assert vc.queue == [first, second]
        assert vc.n == 6 - vc.front + 4
        run_cycles(network, 1, start=now)
        if tail_left:
            break
    assert tail_left == [now]
    # Same pass: the first packet is popped and the next waits for its route.
    assert vc.queue == [second] and vc.front == 0 and vc.n == 4
    assert list(vc.flits()) == [(second, i) for i in range(4)]
    assert vc.queued and vc in router._pending
    run_cycles(network, 40, start=now + 1)
    assert second.arrive_cycle is not None
    assert router.buffered_flits() == 0


def test_buffered_flits_counts_all_queues():
    network, _ = build_chain(2)
    network.inject(Packet(0, 1, 5, 0))
    assert network.routers[0].buffered_flits() == 5

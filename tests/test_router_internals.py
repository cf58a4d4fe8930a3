"""Deeper router-internals tests: allocation fairness, credits, ejection."""

from repro.noc.channel import ChannelKind
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.router import VC_ACTIVE, VC_IDLE, VC_VA, Router
from repro.sim.stats import Stats

from .helpers import build_chain, chain_spec, forward_routing, run_cycles


def test_vc_state_machine_lifecycle():
    network, _ = build_chain(2)
    router = network.routers[0]
    packet = Packet(0, 1, 2, 0)
    network.inject(packet)
    ivc = router.inputs[Router.INJECT_PORT].vcs[0]
    assert ivc.state == VC_IDLE
    network.step(0)  # RC + VA complete within the cycle
    assert ivc.state == VC_ACTIVE
    assert ivc.out_port == 1
    run_cycles(network, 10, start=1)
    assert ivc.state == VC_IDLE  # tail sent, route released
    assert ivc.out_port == -1


def both_vc_routing(router, packet):
    if packet.dst == router.node:
        return [(Router.EJECT_PORT, 0, True)]
    return [(1, 0, True), (1, 1, True)]


def test_output_vc_exclusive_ownership():
    """Two packets on different injection VCs cannot share an output VC."""
    network, _ = build_chain(2)
    network.set_routing(both_vc_routing)
    router = network.routers[0]
    a = Packet(0, 1, 8, 0)
    b = Packet(0, 1, 8, 0)
    network.inject(a)
    network.inject(b)
    network.step(0)
    out = router.outputs[1]
    owners = [owner for owner in out.vc_owner if owner is not None]
    assert len(owners) == len({id(o) for o in owners})
    assert len(owners) == 2  # each claimed a distinct VC


def test_third_packet_waits_for_free_vc():
    """With 2 output VCs and injection_vcs=3, the third packet waits in VA."""
    stats = Stats()
    network = Network(2, stats, injection_vcs=3)
    network.add_channel(chain_spec(0, 1, n_vcs=2))
    network.set_routing(both_vc_routing)
    network.finalize()
    for _ in range(3):
        network.inject(Packet(0, 1, 8, 0))
    network.step(0)
    router = network.routers[0]
    states = sorted(vc.state for vc in router.inputs[0].vcs)
    assert states == [VC_VA, VC_ACTIVE, VC_ACTIVE]
    # the waiting packet eventually gets through
    run_cycles(network, 60, start=1)
    assert network.buffered_flits() == 0


def test_sa_round_robin_shares_output_bandwidth():
    """Two active VCs sharing one output alternate grants fairly."""
    network, _ = build_chain(2, bandwidth=1, delay=1)
    network.set_routing(both_vc_routing)
    a = Packet(0, 1, 10, 0)
    b = Packet(0, 1, 10, 0)
    network.inject(a)
    network.inject(b)
    run_cycles(network, 60)
    # both complete, neither starves: arrival cycles within a few cycles
    assert a.arrive_cycle is not None and b.arrive_cycle is not None
    assert abs(a.arrive_cycle - b.arrive_cycle) <= 4


def test_ejection_bandwidth_limits_sink_rate():
    stats = Stats()
    network = Network(2, stats, ejection_bandwidth=1)
    network.add_channel(chain_spec(0, 1, bandwidth=4, delay=1))
    network.set_routing(forward_routing)
    network.finalize()
    packet = Packet(0, 1, 12, 0)
    network.inject(packet)
    run_cycles(network, 60)
    # 12 flits at 1 flit/cycle ejection: tail no earlier than cycle 13.
    assert packet.arrive_cycle >= 13


def test_credit_return_frees_upstream():
    network, _ = build_chain(3, bandwidth=2, delay=1, buffer_depth=16)
    router0 = network.routers[0]
    out = router0.outputs[1]
    initial = out.credits[0] + out.credits[1]
    for _ in range(4):
        network.inject(Packet(0, 2, 8, 0))
    run_cycles(network, 100)
    # all credits returned once the network drained
    assert out.credits[0] + out.credits[1] == initial


def test_injection_cycle_recorded():
    """Two packets injected together sit on separate injection VCs, so the
    ``route_compute`` events record both leaving the source at cycle 0."""
    network, _ = build_chain(2)
    routed: list[tuple[int, int, int, int, int]] = []
    network.telemetry.subscribe(
        "route_compute",
        lambda router, packet, port, vc, now: routed.append(
            (packet.pid, router.node, port, vc, now)
        ),
    )
    a = Packet(0, 1, 4, 0)
    b = Packet(0, 1, 4, 0)
    network.inject(a)
    network.inject(b)
    run_cycles(network, 30)
    at_source = [entry for entry in routed if entry[1] == 0]
    assert at_source == [
        (a.pid, 0, Router.INJECT_PORT, 0, 0),
        (b.pid, 0, Router.INJECT_PORT, 1, 0),
    ]


def test_hetero_budget_respected_by_sa():
    """SA never grants more flits than the hetero link can accept."""
    network, _ = build_chain(
        2, ChannelKind.HETERO_PHY, policy="performance", bandwidth=2,
        serial_bandwidth=4,
    )
    accepts: list[int] = []
    network.telemetry.subscribe(
        "link_accept", lambda link, flit, vc, now: accepts.append(now)
    )
    for _ in range(6):
        network.inject(Packet(0, 1, 16, 0))
    for now in range(200):
        network.step(now)
        assert accepts.count(now) <= 6
    assert len(accepts) == 6 * 16
    assert network.buffered_flits() == 0

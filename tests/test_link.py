"""Tests for pipelined links: timing, bandwidth, credits, energy."""

import pytest

from repro.noc.channel import ChannelKind, ChannelSpec, PhyParams
from repro.noc.flit import FLIT_BITS, Packet
from repro.noc.link import PipelinedLink

from .helpers import build_chain, run_cycles


def test_pipelined_link_rejects_hetero_spec():
    spec = ChannelSpec(
        0,
        1,
        ChannelKind.HETERO_PHY,
        PhyParams(2, 5, 1.0),
        serial_phy=PhyParams(4, 20, 2.4),
    )
    with pytest.raises(ValueError):
        PipelinedLink(spec)


def test_single_flit_crosses_onchip_link():
    network, stats = build_chain(2, bandwidth=2, delay=1)
    packet = Packet(0, 1, 1, 0)
    network.inject(packet)
    run_cycles(network, 10)
    assert packet.arrive_cycle is not None
    # RC/VA at 0, switch at 1, wire 1 cycle, downstream RC/VA at 2, eject 3.
    assert packet.arrive_cycle == 3


def test_link_delay_adds_to_latency():
    results = {}
    for delay in (1, 5, 20):
        network, _ = build_chain(2, ChannelKind.SERIAL if delay == 20 else ChannelKind.PARALLEL, delay=delay, bandwidth=2)
        packet = Packet(0, 1, 1, 0)
        network.inject(packet)
        run_cycles(network, 60)
        results[delay] = packet.arrive_cycle
    assert results[5] - results[1] == 4
    assert results[20] - results[1] == 19


def test_bandwidth_limits_flits_per_cycle():
    """A 16-flit packet over a bandwidth-2 link drains 2 flits/cycle."""
    network, _ = build_chain(2, bandwidth=2, delay=1)
    packet = Packet(0, 1, 16, 0)
    network.inject(packet)
    run_cycles(network, 30)
    # sends start at 1, 2 flits/cycle: the tail crosses at cycle 8 and
    # arrives (delay 1) at cycle 9, ejected the same cycle.
    assert packet.arrive_cycle == 9


def test_wider_link_drains_faster():
    network, _ = build_chain(2, bandwidth=4, delay=1)
    packet = Packet(0, 1, 16, 0)
    network.inject(packet)
    run_cycles(network, 30)
    # sends start at 1, 4 flits/cycle: the tail arrives at cycle 5, but the
    # head's RC/VA cycle delays ejection one cycle behind the 4-flit/cycle
    # arrival stream, so the tail leaves the ejection queue at cycle 6.
    assert packet.arrive_cycle == 6


def test_energy_accounting_per_flit():
    network, stats = build_chain(2, bandwidth=2, delay=1)
    packet = Packet(0, 1, 4, 0)
    network.inject(packet)
    run_cycles(network, 20)
    # on-chip chain_spec energy is 1.0 pJ/bit.
    assert packet.energy_onchip_pj == pytest.approx(4 * FLIT_BITS * 1.0)
    assert packet.energy_interface_pj == 0.0
    assert stats.link_flits[ChannelKind.ONCHIP] == 4


def test_hop_counted_once_per_packet():
    network, _ = build_chain(3, bandwidth=2, delay=1)
    packet = Packet(0, 2, 8, 0)
    network.inject(packet)
    run_cycles(network, 40)
    assert packet.hops_onchip == 2
    assert packet.hops_interface == 0


def test_interface_hop_classified_separately():
    network, _ = build_chain(2, ChannelKind.PARALLEL, bandwidth=2, delay=5)
    packet = Packet(0, 1, 2, 0)
    network.inject(packet)
    run_cycles(network, 30)
    assert packet.hops_interface == 1
    assert packet.hops_onchip == 0
    assert packet.energy_interface_pj > 0


def test_credits_throttle_when_downstream_blocked():
    """With a tiny downstream buffer, the sender cannot overrun it.

    Node 1's input buffer has 4 slots; since node 1 forwards to node 2,
    flits drain, but in-flight occupancy never exceeds buffer + slack.
    """
    network, _ = build_chain(3, bandwidth=2, delay=1, buffer_depth=4)
    # VCT needs whole-packet credit; use packets of length <= 4.
    for i in range(4):
        network.inject(Packet(0, 2, 4, 0))
    max_occupancy = 0
    for now in range(60):
        network.stats.now = now
        network.step(now)
        occupancy = network.routers[1].buffered_flits()
        max_occupancy = max(max_occupancy, occupancy)
    assert max_occupancy <= 4 * 2  # per-VC depth x 2 VCs
    assert network.buffered_flits() == 0


def test_occupancy_tracks_in_flight():
    network, _ = build_chain(2, ChannelKind.PARALLEL, bandwidth=2, delay=5)
    link = network.links[0]
    packet = Packet(0, 1, 8, 0)
    network.inject(packet)
    peak = 0
    for now in range(30):
        network.stats.now = now
        network.step(now)
        peak = max(peak, link.occupancy)
    assert peak > 0
    assert link.occupancy == 0


# -- delivery loops vs. the routers' one-call entry points ---------------------
def _downstream_state(network):
    """Everything a delivery can touch, in comparable (object-free) form."""
    src, dst = network.routers
    position = {id(ivc): (ivc.port, ivc.index) for port in dst.inputs for ivc in port.vcs}
    return {
        "vcs": [
            (
                ivc.port,
                ivc.index,
                [(packet.length, index) for packet, index in ivc.flits()],
                ivc.state,
                ivc.queued,
            )
            for port in dst.inputs
            for ivc in port.vcs
        ],
        "pending": [position[id(ivc)] for ivc in dst._pending],
        "credits": [list(out.credits) for out in src.outputs],
        "active": [router.active for router in network.routers],
        "work": [router.node for router in network._router_work],
    }


@pytest.mark.parametrize("kind", [ChannelKind.PARALLEL, ChannelKind.HETERO_PHY])
def test_delivery_loops_match_single_item_entry_points(kind):
    """A link's delivery loops and ``Router.receive_flit`` / ``credit_arrive``
    are two forms of one bookkeeping.

    Network A pushes runs of flits and credits through the link and steps
    it; network B is handed the same flits and credits, at the same cycles,
    by calling the router methods directly, one call per run of consecutive
    flits.  Both must end in the same input-VC state, ``_pending`` order,
    credit counts, activation and ``flit_recv`` event stream.
    """
    driven, _ = build_chain(2, kind, bandwidth=2, delay=3)
    by_hand, _ = build_chain(2, kind, bandwidth=2, delay=3)
    link = driven.links[0]

    def flit_recv_log(network):
        log: list[tuple] = []
        network.telemetry.subscribe(
            "flit_recv",
            lambda router, port, vc, flit, now: log.append(
                (router.node, port, vc, flit.packet.length, flit.index, now)
            ),
        )
        return log

    driven_events, hand_events = flit_recv_log(driven), flit_recv_log(by_hand)

    # Two packets of distinct lengths (length doubles as the packet's name)
    # on two VCs, fed at the link's width as runs (packet, first flit,
    # flits, vc) and single flits; credits on both VCs, singly and in runs.
    def make_feed():
        a, b = Packet(0, 1, 3, 0), Packet(0, 1, 4, 0)
        return {
            0: [(a, 0, 2, 0)],
            1: [(b, 0, 2, 1)],
            2: [(a, 2, 1, 0), (b, 2, 1, 1)],
            4: [(b, 3, 1, 1)],
        }

    credit_returns = {0: [(1, 2)], 1: [(0, 1), (1, 1)], 5: [(0, 2)]}
    credit_arrivals: dict[int, list[int]] = {}
    feed = make_feed()
    for now in range(40):
        for packet, index, count, vc in feed.get(now, []):
            link.accept(packet, index, count, vc, now)
        for vc, count in credit_returns.get(now, []):
            link.return_credit(vc, now, count)
            credit_arrivals.setdefault(now + link.credit_delay, []).extend([vc] * count)
        link.step(now)
    assert len(driven_events) == 7 and link.occupancy == 0

    replay = {
        packet.length: packet
        for flits in make_feed().values()
        for packet, _index, _count, _vc in flits
    }
    # The driven arrivals as runs: consecutive flits of one packet, on one
    # VC, in one cycle.
    runs: list[list] = []  # [cycle, port, vc, length, first index, flits]
    for _node, port, vc, length, index, when in driven_events:
        last = runs[-1] if runs else None
        if last and last[:4] == [when, port, vc, length] and last[4] + last[5] == index:
            last[5] += 1
        else:
            runs.append([when, port, vc, length, index, 1])
    assert any(run[5] > 1 for run in runs)
    src, dst = by_hand.routers
    for now in range(40):
        for when, port, vc, length, index, count in runs:
            if when == now:
                dst.receive_flit(port, vc, replay[length], index, count, now)
        for vc in credit_arrivals.get(now, []):
            src.credit_arrive(by_hand.links[0].src_port, vc)

    assert hand_events == driven_events
    assert _downstream_state(by_hand) == _downstream_state(driven)
    # The heads found idle VCs, so both forms queued them for RC, in order.
    assert _downstream_state(driven)["pending"] == [(1, 0), (1, 1)]
    assert _downstream_state(driven)["work"] == [1, 0]

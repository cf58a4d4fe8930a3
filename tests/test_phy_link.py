"""Tests for the hetero-PHY link and adapter (Sec 4.2)."""

import pytest

from repro.core.phy import HeteroPhyLink
from repro.core.scheduling import PARALLEL, SERIAL, PerformanceFirstPolicy
from repro.noc.channel import ChannelKind
from repro.noc.flit import Packet
from repro.noc.router import Router
from repro.sim.config import SimConfig

from .helpers import build_chain, chain_spec, run_cycles


def hetero_chain(policy="performance", **kwargs):
    return build_chain(2, ChannelKind.HETERO_PHY, policy=policy, **kwargs)


def test_requires_hetero_spec():
    with pytest.raises(ValueError):
        HeteroPhyLink(chain_spec(0, 1), PerformanceFirstPolicy())


def test_single_flit_uses_parallel_phy():
    network, _ = hetero_chain(policy="balanced", bandwidth=2, delay=5)
    link = network.links[0]
    packet = Packet(0, 1, 1, 0)
    network.inject(packet)
    run_cycles(network, 40)
    assert packet.arrive_cycle is not None
    assert link.flits_parallel == 1
    assert link.flits_serial == 0
    # adapter adds one cycle on top of the parallel link's delay (Sec 8.2).
    # chain with delay 1 gives arrival 3; parallel delay 5 adds 4; +1 adapter.
    assert packet.arrive_cycle == 3 + 4 + 1


def test_balanced_policy_keeps_single_packet_parallel():
    network, _ = hetero_chain(policy="balanced")
    link = network.links[0]
    packet = Packet(0, 1, 16, 0)
    network.inject(packet)
    run_cycles(network, 60)
    assert link.flits_serial == 0
    assert link.flits_parallel == 16


def test_balanced_policy_engages_serial_under_pressure():
    network, _ = hetero_chain(policy="balanced")
    link = network.links[0]
    for _ in range(6):
        network.inject(Packet(0, 1, 16, 0))
    run_cycles(network, 200)
    assert link.flits_serial > 0
    assert link.flits_parallel > 0
    assert link.flits_parallel + link.flits_serial == 96


def test_performance_policy_uses_both_phys():
    network, _ = hetero_chain(policy="performance")
    link = network.links[0]
    for _ in range(3):
        network.inject(Packet(0, 1, 16, 0))
    run_cycles(network, 100)
    assert link.flits_serial > 0


def test_energy_efficient_policy_never_uses_serial():
    network, _ = hetero_chain(policy="energy_efficient")
    link = network.links[0]
    for _ in range(6):
        network.inject(Packet(0, 1, 16, 0))
    run_cycles(network, 300)
    assert link.flits_serial == 0
    assert link.flits_parallel == 96


def test_flits_delivered_in_order_despite_phy_split():
    """The reorder buffer restores per-VC transmit order (SN order)."""
    network, _ = hetero_chain(policy="performance")
    delivered: list[tuple[int, int]] = []

    def spy(router, flit, out_port, out_vc, now):
        if out_port == Router.EJECT_PORT:
            delivered.append((flit.packet.pid, flit.index))

    network.telemetry.subscribe("flit_send", spy)
    packets = [Packet(0, 1, 16, 0) for _ in range(4)]
    for packet in packets:
        network.inject(packet)
    run_cycles(network, 300)
    assert all(p.arrive_cycle is not None for p in packets)
    # per-packet flit order is strictly increasing
    by_packet: dict[int, list[int]] = {}
    for pid, index in delivered:
        by_packet.setdefault(pid, []).append(index)
    for indices in by_packet.values():
        assert indices == sorted(indices)
        assert indices == list(range(16))


def test_rob_occupancy_bounded_by_eq1():
    """Eq (1): ROB occupancy never exceeds B_p * (D_s - D_p)."""
    network, _ = hetero_chain(policy="performance", bandwidth=2, delay=5)
    link = network.links[0]
    for _ in range(8):
        network.inject(Packet(0, 1, 16, 0))
    peak = 0
    for now in range(400):
        network.stats.now = now
        network.step(now)
        peak = max(peak, link.rob.occupancy)
    bound = 2 * (20 - 5)
    assert 0 < link.rob.max_occupancy <= bound


def test_bypass_jumps_queue_for_priority_packet():
    """A high-priority packet overtakes an identical plain packet (Sec 4.2).

    The link bandwidth is halved so the adapter's dispatch queue backs up;
    the priority packet skips that queue through the parallel-PHY bypass
    while the plain packet waits behind the bulk flits.
    """
    network, _ = hetero_chain(
        policy="performance", bandwidth=1, serial_bandwidth=2
    )
    bulk = [Packet(0, 1, 16, 0) for _ in range(4)]
    for packet in bulk:
        network.inject(packet)
    urgent = Packet(0, 1, 1, 0, priority=5)
    plain = Packet(0, 1, 1, 0)
    network.inject(urgent)
    network.inject(plain)
    run_cycles(network, 600)
    link = network.links[0]
    assert urgent.arrive_cycle is not None and plain.arrive_cycle is not None
    assert link.flits_bypassed >= 1
    assert urgent.arrive_cycle < plain.arrive_cycle


def test_bypass_disabled_under_energy_efficient_policy():
    network, _ = hetero_chain(policy="energy_efficient")
    for _ in range(2):
        network.inject(Packet(0, 1, 16, 0))
    network.inject(Packet(0, 1, 1, 0, priority=5))
    run_cycles(network, 300)
    assert network.links[0].flits_bypassed == 0


def test_phy_split_property():
    network, _ = hetero_chain(policy="performance")
    link = network.links[0]
    for _ in range(2):
        network.inject(Packet(0, 1, 16, 0))
    run_cycles(network, 100)
    par, ser = link.phy_split
    assert par == link.flits_parallel
    assert ser == link.flits_serial
    assert par + ser == 32


def test_energy_charged_per_phy():
    network, stats = hetero_chain(policy="energy_efficient", bandwidth=2, delay=5)
    packet = Packet(0, 1, 4, 0)
    network.inject(packet)
    run_cycles(network, 60)
    # chain_spec hetero: parallel energy 1.0 pJ/bit -> 64 pJ per flit.
    assert packet.energy_interface_pj == pytest.approx(4 * 64 * 1.0)


def test_accept_budget_respects_tx_fifo():
    config = SimConfig(tx_fifo_depth=8)
    network, _ = build_chain(
        2, ChannelKind.HETERO_PHY, policy="energy_efficient", config=config
    )
    link = network.links[0]
    assert link.tx_fifo_depth == 8
    assert link.accept_budget(0) <= 6  # total bandwidth cap


# -- adapter datapath contracts: event order, activation, liveness ----------------
class ScriptedPolicy:
    """Dispatch by a script, one PHY per dispatched flit in FIFO order; past
    its end every flit rides the parallel PHY."""

    bypass_enabled = False

    def __init__(self, script=(), hold=False):
        self.script = list(script)
        self.hold = hold

    def choose_phy(self, packet, queue_len, par_free, ser_free):
        if self.hold:
            return None
        phy = self.script[0] if self.script else PARALLEL
        if (par_free if phy == PARALLEL else ser_free) <= 0:
            return None  # the same flit asks again next cycle
        del self.script[:1]
        return phy


def adapter_event_log(network):
    """(event, vc, packet length, flit index, cycle) for the three RX events."""
    log: list[tuple] = []

    def tap(name, flit_at, vc_at):
        def handler(*args):
            flit = args[flit_at]
            log.append((name, args[vc_at], flit.packet.length, flit.index, args[-1]))

        network.telemetry.subscribe(name, handler)

    tap("rob_insert", 1, 2)  # (link, flit, vc, now)
    tap("rob_release", 1, 2)
    tap("flit_recv", 3, 2)  # (router, port, vc, flit, now)
    return log


@pytest.mark.parametrize("second_vc", [0, 1])
def test_same_cycle_arrivals_insert_first_then_release_and_deliver(second_vc):
    """Bus order within a cycle: every ``rob_insert``, then ``rob_release`` ->
    ``flit_recv`` per released flit, VCs taking turns in ascending order."""
    network, _ = hetero_chain(policy="performance", bandwidth=2, delay=3)
    link = network.links[0]
    log = adapter_event_log(network)
    if second_vc == 0:
        a = Packet(0, 1, 2, 0)
        feed = [(a, 0, 0), (a, 1, 0)]
        released = [(0, 2, 0), (0, 2, 1)]
    else:
        # Accepted (and so inserted) VC 1 first; released lowest VC first.
        a, b = Packet(0, 1, 2, 0), Packet(0, 1, 3, 0)
        feed = [(b, 0, 1), (a, 0, 0)]
        released = [(0, 2, 0), (1, 3, 0)]
    for packet, index, vc in feed:
        link.accept(packet, index, 1, vc, 0)
    for now in range(3):
        link.step(now)
    assert log == [] and link.flits_parallel == 2
    link.step(3)
    inserted = [(vc, packet.length, index) for packet, index, vc in feed]
    expected = [("rob_insert", *entry, 3) for entry in inserted]
    for entry in released:
        expected += [("rob_release", *entry, 3), ("flit_recv", *entry, 3)]
    assert log == expected
    assert network._router_work == [network.routers[1]]


def test_parallel_flit_ahead_of_serial_predecessor_parks_without_waking_router():
    network, _ = hetero_chain(bandwidth=2, delay=3)
    link = network.links[0]
    link.policy = ScriptedPolicy([SERIAL])  # the head; the tail rides parallel
    log = adapter_event_log(network)
    packet = Packet(0, 1, 2, 0)
    link.accept(packet, 0, 2, 0, 0)  # one run: the TX FIFO holds both
    for now in range(20):
        assert link.step(now)
    assert (link.flits_serial, link.flits_parallel) == (1, 1)
    # The tail overtook the head on the parallel PHY and waits in the ROB:
    # nothing was delivered, so the downstream router was not put to work.
    assert log == [("rob_insert", 0, 2, 1, 3)]
    assert link.rob.occupancy == 1
    downstream = network.routers[1]
    assert not downstream.active and network._router_work == []
    assert not link.step(20)  # the head arrives, both leave, the link drains
    assert log[1:] == [
        ("rob_insert", 0, 2, 0, 20),
        ("rob_release", 0, 2, 0, 20),
        ("flit_recv", 0, 2, 0, 20),
        ("rob_release", 0, 2, 1, 20),
        ("flit_recv", 0, 2, 1, 20),
    ]
    assert downstream.active and network._router_work == [downstream]
    assert link.rob.max_occupancy == 1 and link.rob.occupancy == 0


@pytest.mark.parametrize("holding", ["credit", "rob", "tx_fifo"])
def test_link_with_a_single_live_item_stays_on_the_work_list(holding):
    """Each term of the liveness test alone keeps the link stepped."""
    network, _ = hetero_chain(bandwidth=2, delay=3)
    link = network.links[0]
    packet = Packet(0, 1, 1, 0)
    if holding == "credit":
        link.return_credit(0, 0, 1)
        wait = link.credit_delay  # delivered in that cycle's step
    elif holding == "rob":
        link._next_sn[0] = 1  # the flit's predecessor never shows up
        link.accept(packet, 0, 1, 0, 0)
        wait = 12
    else:
        link.policy = ScriptedPolicy(hold=True)
        link.accept(packet, 0, 1, 0, 0)
        wait = 12
    assert link.active and network._link_work == [link]
    for now in range(wait):
        network.step(now)
        assert link.active and network._link_work == [link], (holding, now)
    if holding == "credit":
        before = network.routers[0].outputs[link.src_port].credits[0]
        network.step(wait)
        assert network.routers[0].outputs[link.src_port].credits[0] == before + 1
        assert not link.active and network._link_work == []
    elif holding == "rob":
        assert link.rob.occupancy == 1 and link.occupancy == 1
        assert network.holds_flits()
    else:
        assert link.occupancy == 1 and link.rob.occupancy == 0
        link.policy.hold = False
        for now in range(wait, wait + 16):  # cross, eject, and the credit's way back
            network.step(now)
        assert not link.active and link.occupancy == 0

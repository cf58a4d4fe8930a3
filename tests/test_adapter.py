"""Tests for the stage-explicit adapter pipeline (Fig 7b)."""

import pytest

from repro.core.adapter import TxAdapterPipeline
from repro.core.scheduling import (
    SERIAL,
    ApplicationAwarePolicy,
    BalancedPolicy,
    EnergyEfficientPolicy,
    PerformanceFirstPolicy,
    make_dispatch_policy,
)
from repro.noc.channel import ChannelKind
from repro.noc.flit import Flit, Packet
from repro.sim.config import SimConfig

from .helpers import build_chain, run_cycles


def flits(n, **kwargs):
    packet = Packet(0, 1, n, 0, **kwargs)
    return packet.make_flits()


def drain(pipe, start=0, max_cycles=100):
    """Tick until empty; return list of (cycle, IssueRecord)."""
    out = []
    for now in range(start, start + max_cycles):
        for record in pipe.tick(now):
            out.append((now, record))
        if pipe.drained():
            break
    return out


def test_three_cycle_traversal():
    pipe = TxAdapterPipeline(PerformanceFirstPolicy())
    flit = flits(1)[0]
    pipe.fetch(flit, vc=0)
    assert pipe.tick(0) == []  # fetch -> decode
    assert pipe.tick(1) == []  # decode -> dispatch queue
    issued = pipe.tick(2)  # issue
    assert len(issued) == 1
    assert issued[0].cycle == 2
    assert pipe.drained()


def test_fetch_width_enforced():
    pipe = TxAdapterPipeline(PerformanceFirstPolicy(), fetch_width=2)
    for flit in flits(2):
        pipe.fetch(flit, vc=0)
    with pytest.raises(OverflowError):
        pipe.fetch(flits(1)[0], vc=1)


def test_fetch_budget_tracks_occupancy():
    pipe = TxAdapterPipeline(PerformanceFirstPolicy(), fetch_width=4, queue_depth=6)
    assert pipe.fetch_budget() == 4
    for flit in flits(4):
        pipe.fetch(flit, vc=0)
    assert pipe.fetch_budget() == 0  # fetch latch full this cycle
    pipe.tick(0)
    assert pipe.fetch_budget() == 2  # queue_depth 6 - 4 in flight


def test_performance_policy_uses_both_phys():
    pipe = TxAdapterPipeline(
        PerformanceFirstPolicy(), parallel_width=2, serial_width=4
    )
    pending = flits(12)
    now = 0
    while pending:
        while pending and pipe.fetch_budget() > 0:
            pipe.fetch(pending.pop(0), vc=0)
        pipe.tick(now)
        now += 1
    records = drain(pipe, start=now)
    phys = {record.phy for _now, record in records}
    assert phys == {"P", "S"}
    assert pipe.stats.issued_parallel > 0
    assert pipe.stats.issued_serial > 0


def test_energy_efficient_only_parallel():
    pipe = TxAdapterPipeline(EnergyEfficientPolicy(), parallel_width=2, fetch_width=6)
    for flit in flits(6):
        pipe.fetch(flit, vc=0)
    records = drain(pipe, start=1)
    assert all(record.phy == "P" for _now, record in records)
    assert pipe.stats.issued_serial == 0


def test_balanced_threshold_behaviour():
    pipe = TxAdapterPipeline(
        BalancedPolicy(threshold=4), parallel_width=1, serial_width=2
    )
    for batch_start in range(0, 6, 3):
        for flit in flits(3):
            pipe.fetch(flit, vc=0)
        pipe.tick(batch_start)
    records = drain(pipe, start=10)
    # queue exceeded the threshold at some point -> serial engaged
    assert pipe.stats.issued_serial > 0


def test_sequence_numbers_monotone_per_vc():
    pipe = TxAdapterPipeline(PerformanceFirstPolicy(), fetch_width=8)
    a = flits(4)
    b = flits(4)
    for fa, fb in zip(a, b):
        pipe.fetch(fa, vc=0)
        pipe.fetch(fb, vc=1)
    records = drain(pipe)
    sns = {0: [], 1: []}
    for _now, record in records:
        sns[record.vc].append(record.sequence_number)
    assert sns[0] == list(range(4))
    assert sns[1] == list(range(4))


def test_priority_waits_for_parallel_and_stalls_pipeline():
    """An application-aware priority flit never takes the serial PHY."""
    pipe = TxAdapterPipeline(
        ApplicationAwarePolicy(), parallel_width=1, serial_width=4, fetch_width=8
    )
    urgent = flits(6, priority=3)
    for flit in urgent:
        pipe.fetch(flit, vc=0)
    records = drain(pipe)
    assert all(record.phy == "P" for _now, record in records)
    # one flit per cycle through the single parallel lane
    cycles = [now for now, _record in records]
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == 6


def test_stats_and_peak_tracking():
    pipe = TxAdapterPipeline(PerformanceFirstPolicy(), fetch_width=6)
    for flit in flits(6):
        pipe.fetch(flit, vc=0)
    drain(pipe)
    assert pipe.stats.fetched == 6
    assert pipe.stats.decoded == 6
    assert pipe.stats.issued_parallel + pipe.stats.issued_serial == 6
    assert pipe.stats.peak_dispatch_queue >= 1


def test_validation():
    with pytest.raises(ValueError):
        TxAdapterPipeline(PerformanceFirstPolicy(), fetch_width=0)


#: The names ``make_dispatch_policy`` builds.
SHIPPED_POLICIES = (
    "performance", "energy_efficient", "balanced", "application_aware", "passive_aware"
)
#: Non-bypass packets (priority 0, ordered) of mixed lengths and classes, so
#: the threshold, length and message-class rules all get a say.
CROSS_CHECK_PACKETS = [(16, "data"), (2, "data"), (16, "bulk"), (1, "data"),
                       (8, "data"), (16, "data"), (2, "bulk"), (16, "data")]


@pytest.mark.parametrize("policy", SHIPPED_POLICIES)
def test_pipeline_issues_what_the_collapsed_link_dispatches(policy):
    """Fed the flits a ``HeteroPhyLink`` accepted, in the cycles it accepted
    them, the stage-explicit pipeline issues the same flits in the same
    order on the same PHYs with the same per-VC sequence numbers: the
    collapsed model is the pipeline minus one latch."""
    network, _stats = build_chain(2, ChannelKind.HETERO_PHY, policy=policy)
    link = network.links[0]
    accepted: list[tuple[int, Flit, int]] = []
    link_accept, link_reorder = link.accept, link.rob.reorder

    def accept(packet, index, count, vc, now):
        accepted.extend((now, Flit(packet, i), vc) for i in range(index, index + count))
        link_accept(packet, index, count, vc, now)

    sequence_numbers: dict[tuple[int, int], int] = {}

    def reorder(arrivals):
        for packet, index, _vc, sn in arrivals:
            sequence_numbers[packet.pid, index] = sn
        return link_reorder(arrivals)

    link.accept, link.rob.reorder = accept, reorder
    dispatched: list[tuple[int, str, int, int, int]] = []
    network.telemetry.subscribe(
        "phy_dispatch",
        lambda _link, flit, vc, phy, now: dispatched.append(
            (now + 1, phy, vc, flit.packet.pid, flit.index)
        ),
    )
    for length, msg_class in CROSS_CHECK_PACKETS:
        network.inject(Packet(0, 1, length, 0, msg_class=msg_class))
    cycles = run_cycles(network, 400)
    n_flits = sum(length for length, _ in CROSS_CHECK_PACKETS)
    assert len(dispatched) == len(accepted) == n_flits

    config = SimConfig()
    pipe = TxAdapterPipeline(
        make_dispatch_policy(policy, config),
        fetch_width=link.parallel.bandwidth + link.serial.bandwidth,
        parallel_width=link.parallel.bandwidth,
        serial_width=link.serial.bandwidth,
        queue_depth=n_flits,
    )
    issued = []
    pending = iter(accepted)
    following = next(pending, None)
    for now in range(cycles):
        while following is not None and following[0] == now:
            _cycle, flit, vc = following
            pipe.fetch(flit, vc)
            following = next(pending, None)
        issued.extend(pipe.tick(now))
    assert pipe.drained()

    # The pipeline issues each flit one cycle after the link dispatches it:
    # its decode latch is the extra stage.
    link_order = [
        (cycle, phy, vc, sequence_numbers[pid, index], pid, index)
        for cycle, phy, vc, pid, index in dispatched
    ]
    pipe_order = [
        (r.cycle, r.phy, r.vc, r.sequence_number, r.flit.packet.pid, r.flit.index)
        for r in issued
    ]
    assert pipe_order == link_order
    serial = sum(phy == SERIAL for _cycle, phy, *_ in link_order)
    assert (serial == 0) == (policy == "energy_efficient")

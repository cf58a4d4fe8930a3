"""Input buffers list packets and count flits; every other FIFO is bounded.

Two guarantees the cycle kernel's containers rest on: observers count a
packet waiting whole in an injection VC's source queue exactly as if its
flits were queued one by one (nothing else pins that — the digests never
see the source queue), and every list used first-in first-out stays
short, so no ``pop(0)`` is ever long: a link-fed input VC lists at most
``max(n, 1)`` packets for its ``n <= buffer_depth`` buffered flits.
"""

from __future__ import annotations

import pytest

from repro.analysis import InvariantChecker
from repro.core.phy import HeteroPhyLink
from repro.noc.router import Router
from repro.telemetry import EpochMetrics
from repro.telemetry.forensics import inflight_packet_table
from repro.topology.grid import ChipletGrid

from .helpers import uniform_engine


def backlog_packets(network) -> list:
    """Packets waiting in a source queue behind the one their VC routes."""
    return [
        packet
        for router in network.routers
        for vc in router.inputs[Router.INJECT_PORT].vcs
        for packet in vc.queue[1:]
    ]


def test_observers_count_backlog_packets_as_queued_flits():
    network, engine = uniform_engine(
        "parallel_mesh", ChipletGrid(2, 2, 4, 4), cycles=400, rate=0.8, seed=2
    )
    checker = InvariantChecker(network)  # flit conservation, every cycle
    metrics = EpochMetrics(network, epoch_length=50)
    scans = []

    def work_lists_agree_with_full_scans(net, now):
        full_scan = net.buffered_flits() + net.in_flight_flits() > 0
        assert net.holds_flits() == full_scan, f"cycle {now}"
        scans.append(bool(backlog_packets(net)))

    network.telemetry.subscribe("cycle_end", work_lists_agree_with_full_scans)
    engine.run(200)

    parked = backlog_packets(network)
    assert parked, "the run never backed a source queue up"
    table = inflight_packet_table(network, engine.cycle, max_packets=1 << 30)
    rows = {row["pid"]: row for row in table["table"]}
    for packet in parked:
        row = rows[packet.pid]
        assert row["stage"] == "source_queue"
        assert row["flits_in_network"] == row["len"] == packet.length
        (position,) = row["positions"]
        assert (position["loc"], position["node"], position["port"]) == (
            "router", packet.src, Router.INJECT_PORT
        )
    assert sum(row["flits_in_network"] for row in rows.values()) == (
        network.buffered_flits() + network.in_flight_flits()
    )
    for router in network.routers:
        snapshot = router.snapshot_state()
        assert snapshot["buffered"] == router.buffered_flits()
        assert snapshot["buffered"] == sum(
            vc["occupancy"] for port in snapshot["inputs"] for vc in port["vcs"]
        )

    engine.run(200)
    metrics.finish(engine.cycle)
    assert len(metrics.samples) == 8
    for sample in metrics.samples:
        assert sum(sample.buffer_occupancy.values()) == sample.buffered > 0
    assert any(scans) and checker.checks_run == 400
    network.close()


@pytest.mark.parametrize("vct", [True, False], ids=["vct", "wormhole"])
def test_list_fifos_stay_bounded(family, vct):
    """No list that is popped at the front ever grows past a fixed bound."""
    network, engine = uniform_engine(
        family, ChipletGrid(2, 2, 3, 3), cycles=300, rate=0.8, seed=2, vct=vct
    )
    # Credits in flight towards a transmitter: what the receiving buffer can
    # hold, all freed and none delivered yet.
    credit_bound = {
        link.index: link.spec.n_vcs * link.dst_router.inputs[link.dst_port].buffer_depth
        for link in network.links
    }
    longest = {"vc": 0, "pipe": 0, "tx": 0, "backlog": 0}

    def check(net, now):
        for router in net.routers:
            for port in router.inputs:
                for vc in port.vcs:
                    if port.is_injection:
                        assert vc.n == sum(p.length for p in vc.queue) - vc.front
                        longest["backlog"] = max(longest["backlog"], len(vc.queue) - 1)
                    else:
                        assert vc.n <= port.buffer_depth
                        assert len(vc.queue) <= max(vc.n, 1)
                        longest["vc"] = max(longest["vc"], vc.n)
        for link in net.links:
            # Queue and pipe entries are runs: bound the credits and flits.
            credits = sum(count for _due, _vc, count in link._credit_queue)
            assert credits <= credit_bound[link.index]
            if isinstance(link, HeteroPhyLink):
                assert len(link._txq) + len(link._bypassq) <= link.tx_fifo_depth
                assert len(link._par_pipe) <= link._par_bw * link._par_delay
                assert len(link._ser_pipe) <= link._ser_bw * link._ser_delay
                longest["tx"] = max(longest["tx"], len(link._txq) + len(link._bypassq))
            else:
                assert link.occupancy <= link.spec.phy.bandwidth * link._delay
                longest["pipe"] = max(longest["pipe"], link.occupancy)

    network.telemetry.subscribe("cycle_end", check)
    engine.run(300)
    # The run did press on every kind of FIFO it has.
    assert longest["vc"] >= 16 and longest["backlog"] > 0
    assert longest["pipe"] > 0
    assert (longest["tx"] > 0) == (family == "hetero_phy_torus")
    network.close()


def test_a_saturated_mesh_lists_each_buffered_packet_once():
    """Buffers are run-length: after a saturated 256-node mesh point no input
    VC lists a packet twice, so the lists hold fewer entries than flits."""
    network, engine = uniform_engine(
        "parallel_mesh", ChipletGrid(4, 4, 4, 4), cycles=300, rate=0.6, seed=1, warmup=60
    )
    engine.run(300)
    entries = flits = 0
    for router in network.routers:
        for port in router.inputs:
            for vc in port.vcs:
                assert len({id(packet) for packet in vc.queue}) == len(vc.queue)
                entries += len(vc.queue)
                flits += vc.n
    assert flits > entries > 0
    network.close()

"""Tests for the closed-loop request/reply workload."""

import math

import pytest

from repro.noc.network import Network
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.telemetry.digest import RunDigest
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic.reqreply import REPLY_FLITS, REQUEST_FLITS, RequestReplyWorkload

GRID = ChipletGrid(2, 2, 3, 3)
CONFIG = SimConfig(sim_cycles=3_000, warmup_cycles=300)


def run_closed_loop(family="hetero_phy_torus", *, digest=False, **kwargs):
    spec = build_system(family, GRID, CONFIG)
    stats = Stats(measure_from=CONFIG.warmup_cycles)
    network = build_network(spec, stats)
    if digest:
        RunDigest(network)  # subscribes to packet_eject ahead of the workload
    workload = RequestReplyWorkload(network, until=CONFIG.sim_cycles - 800, **kwargs)
    engine = Engine(network, workload, stats)
    engine.run_until_drained(CONFIG.sim_cycles + 100_000)
    return workload, stats


def test_validation():
    with pytest.raises(ValueError):
        RequestReplyWorkload(Network(1, Stats()))
    network = Network(8, Stats())
    with pytest.raises(ValueError):
        RequestReplyWorkload(network, issue_rate=1.5)
    with pytest.raises(ValueError):
        RequestReplyWorkload(network, mshrs=0)
    assert network.telemetry.packet_eject is None  # a rejected workload subscribes nothing


def test_a_second_packet_eject_subscriber_changes_nothing():
    """The workload is one ``packet_eject`` subscriber among others: with a
    digest on the bus too, every transaction takes the same cycles."""
    plain, plain_stats = run_closed_loop(issue_rate=0.05)
    digested, digested_stats = run_closed_loop(issue_rate=0.05, digest=True)
    assert len(plain.transaction_latencies) == plain.requests_issued > 50
    assert digested.transaction_latencies == plain.transaction_latencies
    assert digested_stats.latencies == plain_stats.latencies


def test_every_request_gets_exactly_one_reply():
    workload, stats = run_closed_loop(issue_rate=0.05)
    assert workload.requests_issued > 50
    assert workload.replies_delivered == workload.requests_issued
    assert workload.outstanding_total == 0
    assert len(workload.transaction_latencies) == workload.requests_issued


def test_transaction_latency_includes_both_legs():
    workload, _ = run_closed_loop(issue_rate=0.03, service_delay=30)
    avg = workload.avg_transaction_latency
    assert not math.isnan(avg)
    # two network traversals + 30 cycles of service is a hard lower bound
    assert avg > 30


def test_mshr_limit_respected():
    spec = build_system("hetero_phy_torus", GRID, CONFIG)
    stats = Stats(measure_from=CONFIG.warmup_cycles)
    network = build_network(spec, stats)
    workload = RequestReplyWorkload(network, issue_rate=1.0, mshrs=2, until=2_000)
    engine = Engine(network, workload, stats)
    peak = 0
    for _ in range(60):
        engine.run(10)
        peak = max(peak, max(workload._outstanding))
    assert peak <= 2


def test_closed_loop_self_throttles():
    """High issue rate saturates issue, not source queues: outstanding is
    capped, so total issued requests are bounded by the reply round-trip."""
    eager, _ = run_closed_loop(issue_rate=1.0, mshrs=2)
    calm, _ = run_closed_loop(issue_rate=0.01, mshrs=2)
    assert eager.requests_issued > calm.requests_issued
    # even at issue_rate=1, throughput is bounded by round-trip/mshrs:
    upper = GRID.n_nodes * 2 * (CONFIG.sim_cycles)  # loose sanity bound
    assert eager.requests_issued < upper


def test_packet_sizes_match_netrace():
    spec = build_system("parallel_mesh", GRID, CONFIG)
    stats = Stats(measure_from=0)
    network = build_network(spec, stats)
    workload = RequestReplyWorkload(network, issue_rate=0.05, until=300)
    sizes = set()
    for now in range(300):
        for packet in workload.step(now):
            sizes.add(packet.length)
            network.inject(packet)
            stats.note_packet_injected(packet)
        network.step(now)
    assert sizes <= {REQUEST_FLITS, REPLY_FLITS}
    assert REQUEST_FLITS in sizes


def test_faster_network_yields_lower_transaction_latency():
    fast, _ = run_closed_loop(family="hetero_phy_torus", issue_rate=0.04)
    slow, _ = run_closed_loop(family="serial_torus", issue_rate=0.04)
    assert fast.avg_transaction_latency < slow.avg_transaction_latency

"""Tests for the statistics collector."""

import math

import pytest

from repro.noc.channel import ChannelKind, ChannelSpec, PhyParams
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import DeadlockError, Stats, percentile
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic import SyntheticWorkload
from repro.traffic.patterns import make_pattern

from .helpers import ring_routing, uniform_engine


def delivered_packet(create=0, arrive=30, length=4):
    packet = Packet(0, 1, length, create)
    packet.arrive_cycle = arrive
    packet.hops_onchip = 3
    packet.hops_interface = 1
    packet.energy_onchip_pj = 10.0
    packet.energy_interface_pj = 20.0
    return packet


def test_empty_stats_are_nan():
    stats = Stats()
    assert math.isnan(stats.avg_latency)
    assert math.isnan(stats.avg_energy_pj)
    assert math.isnan(stats.latency_variance)
    assert math.isnan(stats.delivered_fraction)
    assert math.isnan(stats.latency_percentile(50))


def test_latency_accounting():
    stats = Stats()
    for arrive in (10, 20, 30):
        packet = delivered_packet(arrive=arrive)
        stats.note_packet_injected(packet)
        stats.note_packet_delivered(packet, arrive)
    assert stats.avg_latency == pytest.approx(20)
    assert stats.latency_variance == pytest.approx(200 / 3)
    assert stats.latency_stddev == pytest.approx(math.sqrt(200 / 3))
    assert stats.packets_delivered == 3
    assert stats.delivered_fraction == pytest.approx(1.0)


def test_warmup_packets_excluded():
    stats = Stats(measure_from=100)
    early = delivered_packet(create=50, arrive=80)
    late = delivered_packet(create=150, arrive=190)
    for packet in (early, late):
        stats.note_packet_injected(packet)
        stats.note_packet_delivered(packet, packet.arrive_cycle)
    assert stats.packets_delivered == 1
    assert stats.measured_injected == 1
    assert stats.avg_latency == pytest.approx(40)


def test_energy_split():
    stats = Stats()
    packet = delivered_packet()
    stats.note_packet_injected(packet)
    stats.note_packet_delivered(packet, packet.arrive_cycle)
    assert stats.avg_energy_onchip_pj == pytest.approx(10)
    assert stats.avg_energy_interface_pj == pytest.approx(20)
    assert stats.avg_energy_pj == pytest.approx(30)
    assert stats.avg_hops == pytest.approx(4)


def attached_links(stats, *phys):
    """One attached :class:`PipelinedLink` per ``(kind, pJ/bit)``, chained
    0 -> 1 -> ... in a network whose statistics sink is ``stats``."""
    network = Network(len(phys) + 1, stats)
    return [
        network.add_channel(ChannelSpec(node, node + 1, kind, PhyParams(4, 1, pj_per_bit)))
        for node, (kind, pj_per_bit) in enumerate(phys)
    ]


def test_link_counters_by_kind():
    stats = Stats()
    serial, onchip = attached_links(
        stats, (ChannelKind.SERIAL, 2.4), (ChannelKind.ONCHIP, 0.1)
    )
    packet = Packet(0, 2, 2, 0)
    serial.accept(packet, 0, 1, 0, 0)
    serial.accept(packet, 1, 1, 0, 0)
    onchip.accept(packet, 0, 1, 0, 1)
    assert stats.link_flits[ChannelKind.SERIAL] == 2
    assert stats.link_flits[ChannelKind.ONCHIP] == 1
    assert stats.link_flits[ChannelKind.PARALLEL] == 0
    assert stats.link_energy_pj[ChannelKind.SERIAL] == pytest.approx(307.2)
    assert stats.link_energy_pj[ChannelKind.ONCHIP] == pytest.approx(6.4)
    assert (packet.hops_interface, packet.hops_onchip) == (1, 1)


@pytest.mark.parametrize("count", [2, 3, 5])
def test_a_run_of_flits_adds_energy_as_single_flits_do(count):
    """A run's energy is added once per flit, to the packet and to its
    link kind's tally: ``x + e + e`` is not always ``x + 2e`` in floats,
    and the fingerprint pins every bit."""
    # 64-bit flits: 0.1 and 0.7 pJ per flit.
    phys = ((ChannelKind.PARALLEL, 0.1 / 64), (ChannelKind.PARALLEL, 0.7 / 64))
    singles, run = Stats(), Stats()
    packets = []
    for stats in (singles, run):
        first, second = attached_links(stats, *phys)
        packet = Packet(0, 2, count, 0)
        packets.append(packet)
        first.accept(packet, 0, 1, 0, 0)  # so neither sum starts at 0.0
        if stats is singles:
            for index in range(count):
                second.accept(packet, index, 1, 0, 1)
        else:
            second.accept(packet, 0, count, 0, 1)
    assert run.link_flits == singles.link_flits
    assert repr(run.link_energy_pj[ChannelKind.PARALLEL]) == repr(
        singles.link_energy_pj[ChannelKind.PARALLEL]
    )
    assert repr(packets[1].energy_interface_pj) == repr(packets[0].energy_interface_pj)


def test_percentiles():
    stats = Stats()
    for arrive in range(1, 101):
        packet = delivered_packet(arrive=arrive)
        stats.note_packet_injected(packet)
        stats.note_packet_delivered(packet, arrive)
    assert stats.latency_percentile(50) == pytest.approx(50)
    assert stats.latency_percentile(99) == pytest.approx(99)
    with pytest.raises(ValueError):
        stats.latency_percentile(0)


def test_percentile_bounds_and_single_sample():
    stats = Stats()
    packet = delivered_packet(arrive=37)
    stats.note_packet_injected(packet)
    stats.note_packet_delivered(packet, 37)
    # With n=1, every percentile collapses to the one observation.
    for pct in (0.1, 1, 50, 99, 100):
        assert stats.latency_percentile(pct) == pytest.approx(37)
    for bad in (0, -1, 100.5, 101):
        with pytest.raises(ValueError, match="pct"):
            stats.latency_percentile(bad)


def test_percentile_interpolation_boundaries():
    stats = Stats()
    for arrive in (10, 20):
        packet = delivered_packet(arrive=arrive)
        stats.note_packet_injected(packet)
        stats.note_packet_delivered(packet, arrive)
    # Ceil-rank convention: the 50th percentile of {10, 20} is the first
    # order statistic; anything above 50 moves to the second.
    assert stats.latency_percentile(50) == pytest.approx(10)
    assert stats.latency_percentile(50.1) == pytest.approx(20)
    assert stats.latency_percentile(100) == pytest.approx(20)


def test_percentile_helper_validation_names_offending_value():
    # The module helper backs both Stats.latency_percentile and the
    # latency ledger's aggregates; its error names the bad input.
    for bad in (0, -1, 100.5, 101):
        with pytest.raises(ValueError, match=rf"\(0, 100\], got {bad}"):
            percentile([1, 2, 3], bad)
    with pytest.raises(ValueError, match="got nan"):
        percentile([1, 2, 3], math.nan)
    assert math.isnan(percentile([], 50))


def test_percentile_helper_presorted_skips_sorting():
    values = [30, 10, 20]
    assert percentile(values, 100) == pytest.approx(30)
    # presorted=True trusts the caller's order: the last element wins p100.
    assert percentile(values, 100, presorted=True) == pytest.approx(20)
    assert values == [30, 10, 20]  # never mutated either way


def test_throughput():
    stats = Stats()
    packet = delivered_packet(length=8)
    stats.note_packet_injected(packet)
    stats.note_packet_delivered(packet, 30)
    assert stats.throughput(n_nodes=4, measured_cycles=10) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        stats.throughput(0, 10)


def test_throughput_rejects_nonpositive_windows():
    stats = Stats()
    for n_nodes, cycles in ((0, 10), (-4, 10), (4, 0), (4, -1)):
        with pytest.raises(ValueError, match="positive"):
            stats.throughput(n_nodes, cycles)


def _stepped(engine, cycles, grew):
    """Run ``engine`` one cycle at a time, listing in ``grew`` each cycle
    ``router_flits`` grew."""
    for _ in range(cycles):
        before = engine.stats.router_flits
        engine.run(1)
        if engine.stats.router_flits > before:
            grew.append(engine.cycle - 1)


def test_progress_tracking():
    """The engine alone keeps the stall clock: ``last_movement_cycle`` is
    the last cycle ``router_flits`` grew, and a wedge's ``stalled_for``
    counts from it."""
    # Traffic that stops at cycle 200, then a hundred idle cycles or more.
    network, engine = uniform_engine(
        "parallel_mesh", ChipletGrid(2, 1, 2, 2), cycles=200, rate=0.1, seed=5
    )
    grew: list[int] = []
    _stepped(engine, 400, grew)
    assert network.buffered_flits() == 0 and grew[-1] < 300
    assert engine.stats.last_movement_cycle == grew[-1]

    # Eastward ring routing at rate 1.0 wedges: the watchdog fires once the
    # clock is ``deadlock_threshold`` cycles stale.
    config = SimConfig(sim_cycles=4_000, warmup_cycles=0)
    grid = ChipletGrid(2, 1, 2, 2)
    stats = Stats()
    network = build_network(
        build_system("serial_torus", grid, config), stats, routing=ring_routing
    )
    source = SyntheticWorkload(make_pattern("uniform", grid.n_nodes), grid.n_nodes, 1.0, 16, seed=3)
    engine = Engine(network, source, stats, deadlock_threshold=300)
    grew.clear()
    with pytest.raises(DeadlockError) as excinfo:
        _stepped(engine, 4_000, grew)
    error = excinfo.value
    assert stats.last_movement_cycle == grew[-1]
    assert error.stalled_for == error.cycle - grew[-1] == 301


def test_summary_keys():
    stats = Stats()
    summary = stats.summary()
    assert "avg_latency" in summary
    assert "avg_energy_pj" in summary
    assert "p99_latency" in summary


def test_summary_empty_run_is_nan_with_integer_counters():
    summary = Stats().summary()
    assert summary["packets_delivered"] == 0
    assert isinstance(summary["packets_delivered"], int)
    for key, value in summary.items():
        if key != "packets_delivered":
            assert math.isnan(value), key


def test_deadlock_error_message():
    err = DeadlockError(cycle=500, buffered=12, stalled_for=100)
    assert "500" in str(err)
    assert err.buffered == 12

"""The energy model's per-packet report (Sec 8.3): the links charge each
flit as they carry it, and ``Stats`` reports the measured packets' mean
split on-chip / interface."""

import pytest

from repro.noc.flit import Packet
from repro.sim.stats import Stats


def test_report_from_stats():
    stats = Stats()
    packet = Packet(0, 1, 4, 0)
    packet.arrive_cycle = 10
    packet.energy_onchip_pj = 12.0
    packet.energy_interface_pj = 36.0
    stats.note_packet_injected(packet)
    stats.note_packet_delivered(packet, 10)
    report = stats.summary()
    assert report["avg_energy_onchip_pj"] == pytest.approx(12.0)
    assert report["avg_energy_interface_pj"] == pytest.approx(36.0)
    assert report["avg_energy_pj"] == pytest.approx(48.0)
    assert report["packets_delivered"] == 1


def test_end_to_end_energy_report():
    from repro.sim.config import SimConfig
    from repro.sim.experiment import run_synthetic
    from repro.topology.grid import ChipletGrid
    from repro.topology.system import build_system

    spec = build_system(
        "hetero_phy_torus", ChipletGrid(2, 2, 3, 3), SimConfig(sim_cycles=1_200, warmup_cycles=200)
    )
    stats = run_synthetic(spec, "uniform", 0.1, seed=2).stats
    total = stats.avg_energy_pj
    assert total == pytest.approx(stats.avg_energy_onchip_pj + stats.avg_energy_interface_pj)
    assert total > 0
    assert 0 < stats.avg_energy_interface_pj / total < 1

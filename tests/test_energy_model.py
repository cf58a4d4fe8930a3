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


@pytest.mark.parametrize(
    "family, grid",
    [("hetero_phy_torus", (2, 2, 3, 3)), ("hetero_channel", (4, 2, 2, 3))],
    ids=["hetero_phy_torus", "hetero_channel"],
)
def test_link_tallies_equal_a_bus_rebuilt_sum(family, grid):
    """The links' per-kind tallies in ``Stats`` are, bit for bit, the sum a
    bus subscriber rebuilds by adding each flit's energy in event order:
    per ``link_accept`` on a plain link, per ``phy_dispatch`` on a
    hetero-PHY link (where the PHY that carries the flit sets its price)."""
    from repro.core.scheduling import PARALLEL
    from repro.noc.channel import ChannelKind
    from repro.noc.flit import FLIT_BITS
    from repro.topology.grid import ChipletGrid

    from .helpers import uniform_engine

    network, engine = uniform_engine(
        family, ChipletGrid(*grid), cycles=600, rate=0.3, seed=7
    )
    flits = dict.fromkeys(ChannelKind, 0)
    energy = dict.fromkeys(ChannelKind, 0.0)

    def on_accept(link, _flit, _vc, _now):
        kind = link.spec.kind
        if kind is not ChannelKind.HETERO_PHY:
            flits[kind] += 1
            energy[kind] += FLIT_BITS * link.spec.phy.energy_pj_per_bit

    def on_dispatch(link, _flit, _vc, phy, _now):
        params = link.spec.phy if phy == PARALLEL else link.spec.serial_phy
        flits[ChannelKind.HETERO_PHY] += 1
        energy[ChannelKind.HETERO_PHY] += FLIT_BITS * params.energy_pj_per_bit

    network.telemetry.subscribe("link_accept", on_accept)
    network.telemetry.subscribe("phy_dispatch", on_dispatch)
    stats = engine.run(600)
    assert stats.link_flits == flits
    assert {kind: repr(pj) for kind, pj in stats.link_energy_pj.items()} == {
        kind: repr(pj) for kind, pj in energy.items()
    }
    carried = [kind for kind, n in flits.items() if n]
    assert len(carried) >= 2, carried  # more than the on-chip links carried flits

"""Livelock and progress guarantees under stress (Sec 6.2).

The channel-switching restriction (packets banned from adaptive channels
after falling back to escape under congestion) must guarantee that every
packet still reaches its destination in bounded steps.  These tests drive
the adversarial patterns hard and verify global progress, bounded hop
counts, and that the ban mechanism actually engages.
"""

import pytest

from repro.noc.flit import Packet
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.topology.grid import ChipletGrid
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import make_pattern

from .conftest import make_network

CONFIG = SimConfig(sim_cycles=2_500, warmup_cycles=300)
GRID = ChipletGrid(2, 2, 4, 4)


@pytest.mark.parametrize(
    "family", ["serial_torus", "hetero_phy_torus", "serial_hypercube", "hetero_channel"]
)
def test_overload_makes_progress_without_deadlock(family):
    """Far-over-saturation traffic keeps moving (deadlock watchdog armed)."""
    spec, network, stats = make_network(family, GRID, CONFIG)
    pattern = make_pattern("complement", GRID.n_nodes)
    workload = SyntheticWorkload(
        pattern, GRID.n_nodes, 1.5, 16, until=CONFIG.sim_cycles, seed=1
    )
    engine = Engine(network, workload, stats, deadlock_threshold=1_000)
    engine.run(CONFIG.sim_cycles)  # DeadlockError would propagate
    assert stats.packets_delivered > 100


def test_ban_mechanism_engages_under_congestion():
    spec, network, stats = make_network("hetero_channel", ChipletGrid(4, 4, 2, 2), CONFIG)
    banned_seen = 0

    def on_eject(router, packet, now):
        nonlocal banned_seen
        if packet.adaptive_banned:
            banned_seen += 1

    network.telemetry.subscribe("packet_eject", on_eject)
    pattern = make_pattern("complement", 64)
    workload = SyntheticWorkload(pattern, 64, 0.8, 16, until=CONFIG.sim_cycles, seed=2)
    Engine(network, workload, stats).run(CONFIG.sim_cycles)
    # Banned packets exist under this load AND they were all delivered.
    assert banned_seen > 0


@pytest.mark.parametrize("family", ["hetero_phy_torus", "hetero_channel"])
def test_hop_counts_bounded(family):
    """No packet wanders: hop counts stay within a small multiple of the
    network diameter even under congestion (livelock freedom)."""
    spec, network, stats = make_network(family, GRID, CONFIG)
    max_hops = 0

    def on_eject(router, packet, now):
        nonlocal max_hops
        max_hops = max(max_hops, packet.hops_onchip + packet.hops_interface)

    network.telemetry.subscribe("packet_eject", on_eject)
    pattern = make_pattern("uniform", GRID.n_nodes)
    workload = SyntheticWorkload(pattern, GRID.n_nodes, 0.5, 16, until=CONFIG.sim_cycles, seed=3)
    Engine(network, workload, stats).run(CONFIG.sim_cycles)
    diameter = GRID.width + GRID.height
    assert 0 < max_hops <= diameter + 4  # minimal-ish paths only


def test_single_packet_under_background_noise_arrives():
    """A tagged packet crosses a congested network in bounded time."""
    spec, network, stats = make_network("hetero_phy_torus", GRID, CONFIG)
    probe = Packet(0, GRID.n_nodes - 1, 16, 400)

    class Noisy:
        def __init__(self):
            self.bg = SyntheticWorkload(
                make_pattern("uniform", GRID.n_nodes),
                GRID.n_nodes,
                0.6,
                16,
                until=CONFIG.sim_cycles,
                seed=4,
            )
            self.sent = False

        def step(self, now):
            packets = list(self.bg.step(now))
            if now == 400 and not self.sent:
                packets.append(probe)
                self.sent = True
            return packets

        def done(self, now):
            return False

    Engine(network, Noisy(), stats).run(CONFIG.sim_cycles)
    assert probe.arrive_cycle is not None
    assert probe.latency < CONFIG.sim_cycles / 2

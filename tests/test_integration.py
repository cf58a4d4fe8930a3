"""End-to-end integration invariants across all system families.

These run real traffic through every built system and check conservation
properties: every measured packet is delivered exactly once and intact,
energy totals are consistent, and runs are deterministic given a seed.
"""

import pytest

from repro.sim.config import SimConfig
from repro.sim.experiment import run_synthetic, run_trace
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic.trace import Trace, TraceRecord

CONFIG = SimConfig(sim_cycles=1_500, warmup_cycles=200)
GRID = ChipletGrid(2, 2, 3, 3)


@pytest.fixture(params=["parallel_mesh", "serial_torus", "hetero_phy_torus",
                        "serial_hypercube", "hetero_channel"])
def spec(request):
    return build_system(request.param, GRID, CONFIG)


def test_uniform_traffic_delivers(spec):
    result = run_synthetic(spec, "uniform", 0.1, seed=3)
    stats = result.stats
    assert stats.packets_delivered > 50
    assert stats.delivered_fraction > 0.9
    assert stats.avg_latency > 0
    assert stats.avg_hops >= 1


def test_trace_replay_delivers_everything(spec):
    records = []
    rng_nodes = [(1, 20), (5, 30), (12, 2), (30, 7), (17, 33), (8, 35)]
    for t in range(0, 300, 10):
        src, dst = rng_nodes[(t // 10) % len(rng_nodes)]
        records.append(TraceRecord(t, src, dst, 9))
    trace = Trace(records, name="it")
    result = run_trace(spec, trace)
    assert result.stats.packets_delivered == len(records)
    assert result.stats.delivered_fraction == pytest.approx(1.0)


def test_energy_totals_consistent(spec):
    """Per-packet energy sums match the link-level energy counters."""
    result = run_synthetic(spec, "uniform", 0.05, seed=9)
    stats = result.stats
    link_total = sum(stats.link_energy_pj.values())
    packet_total = stats.energy_onchip_pj + stats.energy_interface_pj
    # Link counters include warm-up and in-flight packets, so they bound
    # the measured per-packet total from above.
    assert packet_total <= link_total + 1e-6
    assert packet_total > 0


def test_determinism_same_seed(spec):
    a = run_synthetic(spec, "uniform", 0.1, seed=11)
    b = run_synthetic(spec, "uniform", 0.1, seed=11)
    assert a.stats.packets_delivered == b.stats.packets_delivered
    assert a.stats.avg_latency == b.stats.avg_latency
    assert a.stats.energy_interface_pj == b.stats.energy_interface_pj


def test_different_seeds_differ(spec):
    a = run_synthetic(spec, "uniform", 0.1, seed=11)
    b = run_synthetic(spec, "uniform", 0.1, seed=12)
    assert a.stats.avg_latency != b.stats.avg_latency


@pytest.mark.parametrize("pattern", ["uniform", "hotspot", "shuffle", "complement", "transpose", "reverse"])
def test_all_patterns_run_on_hetero_phy(pattern):
    spec = build_system("hetero_phy_torus", GRID, CONFIG)
    result = run_synthetic(spec, pattern, 0.1, seed=5)
    assert result.stats.packets_delivered > 10
    assert result.stats.delivered_fraction > 0.8


def test_policies_change_behaviour():
    spec = build_system("hetero_phy_torus", GRID, CONFIG)
    balanced = run_synthetic(spec, "uniform", 0.35, policy="balanced", seed=4)
    efficient = run_synthetic(spec, "uniform", 0.35, policy="energy_efficient", seed=4)
    # Energy-efficient dispatch never uses the serial PHY.
    assert efficient.phy_split[1] == 0
    assert balanced.phy_split[0] > 0
    # and consequently uses less interface energy per packet.
    if balanced.phy_split[1] > 0:
        assert (
            efficient.stats.avg_energy_interface_pj
            < balanced.stats.avg_energy_interface_pj
        )


def test_halved_config_reduces_throughput():
    spec_full = build_system("hetero_phy_torus", GRID, CONFIG)
    spec_half = build_system("hetero_phy_torus", GRID, CONFIG.halved())
    full = run_synthetic(spec_full, "uniform", 0.4, seed=6)
    half = run_synthetic(spec_half, "uniform", 0.4, seed=6)
    assert half.stats.avg_latency >= full.stats.avg_latency


def test_hetero_channel_beats_hypercube_on_uniform():
    """The headline hetero-channel result at a 16-chiplet scale."""
    grid = ChipletGrid(4, 4, 2, 2)
    config = SimConfig(sim_cycles=1_500, warmup_cycles=200)
    cube = run_synthetic(build_system("serial_hypercube", grid, config), "uniform", 0.1, seed=2)
    hetero = run_synthetic(build_system("hetero_channel", grid, config), "uniform", 0.1, seed=2)
    assert hetero.stats.avg_latency < cube.stats.avg_latency


def test_hetero_phy_beats_serial_torus_on_uniform():
    grid = ChipletGrid(2, 2, 4, 4)
    config = SimConfig(sim_cycles=1_500, warmup_cycles=200)
    serial = run_synthetic(build_system("serial_torus", grid, config), "uniform", 0.1, seed=2)
    hetero = run_synthetic(build_system("hetero_phy_torus", grid, config), "uniform", 0.1, seed=2)
    assert hetero.stats.avg_latency < serial.stats.avg_latency

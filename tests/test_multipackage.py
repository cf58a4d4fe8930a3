"""Tests for multi-package hetero-channel systems (Sec 3.2 / Fig 6b)."""

import pytest

from repro.noc.channel import ChannelKind
from repro.routing.deadlock import analyse_escape
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.experiment import run_synthetic
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.multipackage import build_hetero_channel_packages, package_of
from repro.topology.system import build_system

GRID = ChipletGrid(4, 2, 3, 3)  # 8 chiplets -> 3 cube dims
CONFIG = SimConfig(sim_cycles=1_500, warmup_cycles=200)


def test_package_of_tiles_grid():
    packages = (2, 1)
    left = {c for c in range(GRID.n_chiplets) if package_of(GRID, c, packages) == 0}
    right = {c for c in range(GRID.n_chiplets) if package_of(GRID, c, packages) == 1}
    assert len(left) == len(right) == 4
    for chiplet in left:
        cx, _ = GRID.chiplet_coords(chiplet)
        assert cx < 2


def test_package_split_must_tile():
    with pytest.raises(ValueError):
        package_of(GRID, 0, (3, 1))


def test_builder_validation():
    with pytest.raises(ValueError):
        build_hetero_channel_packages(GRID, CONFIG, packages=(0, 1))
    with pytest.raises(ValueError):
        build_hetero_channel_packages(
            GRID, CONFIG, packages=(2, 1), off_package_delay_factor=0.5
        )


def test_off_package_links_become_slow_serial():
    spec = build_hetero_channel_packages(
        GRID, CONFIG, packages=(2, 1), off_package_delay_factor=2.0
    )
    base = build_system("hetero_channel", GRID, CONFIG)
    assert len(spec.channels) == len(base.channels)  # topology preserved
    slow = [
        c for c in spec.channels if c.phy.delay == CONFIG.serial_delay * 2
    ]
    assert slow
    for channel in slow:
        assert channel.kind is ChannelKind.SERIAL
        src_pkg = package_of(GRID, GRID.chiplet_of(channel.src), (2, 1))
        dst_pkg = package_of(GRID, GRID.chiplet_of(channel.dst), (2, 1))
        assert src_pkg != dst_pkg
    # no parallel channel crosses a package boundary
    for channel in spec.channels:
        if channel.kind is ChannelKind.PARALLEL:
            src_pkg = package_of(GRID, GRID.chiplet_of(channel.src), (2, 1))
            dst_pkg = package_of(GRID, GRID.chiplet_of(channel.dst), (2, 1))
            assert src_pkg == dst_pkg


def test_escape_still_deadlock_free():
    spec = build_hetero_channel_packages(GRID, CONFIG, packages=(2, 1))
    network = build_network(spec, Stats())
    analysis = analyse_escape(network)
    assert analysis.deadlock_free


def test_traffic_flows_across_packages():
    spec = build_hetero_channel_packages(GRID, CONFIG, packages=(2, 2))
    result = run_synthetic(spec, "uniform", 0.1, seed=6)
    assert result.stats.delivered_fraction > 0.9


def test_package_boundary_costs_latency():
    single = build_system("hetero_channel", GRID, CONFIG)
    multi = build_hetero_channel_packages(
        GRID, CONFIG, packages=(2, 1), off_package_delay_factor=3.0
    )
    lat_single = run_synthetic(single, "uniform", 0.05, seed=7).avg_latency
    lat_multi = run_synthetic(multi, "uniform", 0.05, seed=7).avg_latency
    assert lat_multi > lat_single

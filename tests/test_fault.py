"""Tests for fault injection and the channel-diversity claim (Sec 9)."""

import pytest

from repro.noc.flit import Packet
from repro.routing.deadlock import analyse_escape
from repro.routing.fault import (
    UnroutableError,
    adaptive_link_indices,
    apply_faults,
    fail_random_links,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import make_pattern

from .conftest import make_network

CONFIG = SimConfig(sim_cycles=1_500, warmup_cycles=200)
GRID = ChipletGrid(2, 2, 3, 3)


def run_uniform(network, stats, n_nodes, rate=0.1, cycles=1_500, seed=3):
    pattern = make_pattern("uniform", n_nodes)
    workload = SyntheticWorkload(pattern, n_nodes, rate, 16, until=cycles, seed=seed)
    Engine(network, workload, stats).run(cycles)
    return stats


def test_adaptive_links_identified_per_family():
    expectations = {
        "parallel_mesh": 0,
        "serial_torus": 24,  # the wraparound channels
        "hetero_phy_torus": 24,
        "serial_hypercube": 0,
        "hetero_channel": 32,  # 2 dims x 2 pairs x 4 links x 2 directions
    }
    for family, expected in expectations.items():
        spec, network, _ = make_network(family, GRID, CONFIG)
        assert len(adaptive_link_indices(network, spec)) == expected, family


def test_apply_faults_validates_indices():
    spec, network, _ = make_network("serial_torus", GRID, CONFIG)
    with pytest.raises(ValueError):
        apply_faults(network, [10**6])


def test_fail_random_links_count_check():
    spec, network, _ = make_network("serial_torus", GRID, CONFIG)
    safe = adaptive_link_indices(network, spec)
    with pytest.raises(ValueError):
        fail_random_links(network, safe, len(safe) + 1)


def test_failed_adaptive_links_keep_lemma1():
    """Failing wraparounds leaves the escape mesh untouched (still safe)."""
    spec, network, _ = make_network("hetero_phy_torus", GRID, CONFIG)
    safe = adaptive_link_indices(network, spec)
    fail_random_links(network, safe, len(safe) // 2, seed=1)
    analysis = analyse_escape(network)
    assert analysis.deadlock_free


def test_traffic_survives_wraparound_failures():
    spec, network, stats = make_network("hetero_phy_torus", GRID, CONFIG)
    safe = adaptive_link_indices(network, spec)
    failed = fail_random_links(network, safe, len(safe) // 2, seed=2)
    run_uniform(network, stats, GRID.n_nodes)
    assert stats.packets_delivered > 50
    assert stats.delivered_fraction > 0.9
    # no flit ever crossed a failed link
    for index in failed:
        assert network.links[index].occupancy == 0


def test_hetero_channel_survives_all_cube_failures():
    """Killing the entire hypercube leaves a working parallel mesh."""
    spec, network, stats = make_network("hetero_channel", GRID, CONFIG)
    cube = adaptive_link_indices(network, spec)
    apply_faults(network, cube)
    analysis = analyse_escape(network)
    assert analysis.deadlock_free
    run_uniform(network, stats, GRID.n_nodes)
    assert stats.delivered_fraction > 0.9


def test_hypercube_breaks_under_cube_failure():
    """The uniform hypercube has no redundant escape: a failed cube link
    strands packets (channel diversity is what hetero-IF adds)."""
    spec, network, _ = make_network("serial_hypercube", GRID, CONFIG)
    cube_links = [
        i for i, c in enumerate(network.specs) if c.tag is not None and c.tag[0] == "cube"
    ]
    apply_faults(network, cube_links[:2])
    stats = Stats(measure_from=0)
    with pytest.raises(UnroutableError):
        # drive enough traffic that some packet needs the failed link
        pattern = make_pattern("uniform", GRID.n_nodes)
        workload = SyntheticWorkload(pattern, GRID.n_nodes, 0.2, 4, until=800, seed=5)
        network.stats = stats  # keep counters local to this run
        for router in network.routers:
            router._stats = stats
        Engine(network, workload, stats).run(800)


def test_fault_wrapper_filters_only_failed():
    spec, network, _ = make_network("serial_torus", GRID, CONFIG)
    router = network.routers[0]
    base = router.routing_fn
    packet = Packet(0, GRID.n_nodes - 1, 16, 0)
    before = base(router, packet)
    safe = adaptive_link_indices(network, spec)
    apply_faults(network, safe)
    packet2 = Packet(0, GRID.n_nodes - 1, 16, 0)
    after = router.routing_fn(router, packet2)
    assert set(after) <= set(before)
    for cand in after:
        link = router.outputs[cand[0]].link
        assert link is None or link.index not in set(safe)

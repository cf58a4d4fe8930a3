"""Deadlock analysis: Lemma 1 verification for every system family.

``analyse_escape`` enumerates the escape routing subfunction's channel
dependency graph and checks connectivity and acyclicity — the two
conditions of Lemma 1.  Theorem 1 (Algorithm 1 is deadlock-free) is
verified mechanically here for concrete instances of each family.
"""

import pytest

from repro.routing.deadlock import analyse_escape, build_cdg, find_cycle
from repro.sim.config import SimConfig
from repro.topology.grid import ChipletGrid

from .conftest import make_network
from .helpers import ring_routing


@pytest.mark.parametrize(
    "family",
    ["parallel_mesh", "serial_torus", "hetero_phy_torus", "serial_hypercube", "hetero_channel"],
)
def test_escape_subfunction_satisfies_lemma1(family):
    config = SimConfig()
    _, network, _ = make_network(family, ChipletGrid(2, 2, 3, 3), config)
    analysis = analyse_escape(network)
    assert analysis.connected, f"unreachable pairs: {analysis.unreachable[:5]}"
    assert analysis.acyclic, f"dependency cycle: {analysis.cycle[:8]}"
    assert analysis.deadlock_free
    assert analysis.n_channels > 0
    assert analysis.n_dependencies > 0


def test_lemma1_holds_on_asymmetric_grid():
    config = SimConfig()
    _, network, _ = make_network("hetero_phy_torus", ChipletGrid(3, 2, 2, 4), config)
    analysis = analyse_escape(network)
    assert analysis.deadlock_free


def test_lemma1_holds_on_larger_hetero_channel():
    config = SimConfig()
    _, network, _ = make_network("hetero_channel", ChipletGrid(4, 2, 2, 2), config)
    analysis = analyse_escape(network)
    assert analysis.deadlock_free


def test_find_cycle_detects_simple_loop():
    graph = {("a", 0): {("b", 0)}, ("b", 0): {("a", 0)}}
    cycle = find_cycle(graph)
    assert cycle
    assert cycle[0] == cycle[-1] or set(cycle) <= {("a", 0), ("b", 0)}


def test_find_cycle_on_dag_returns_empty():
    graph = {
        ("a", 0): {("b", 0), ("c", 0)},
        ("b", 0): {("c", 0)},
        ("c", 0): set(),
    }
    assert find_cycle(graph) == []


def test_find_cycle_self_loop():
    graph = {("x", 1): {("x", 1)}}
    assert find_cycle(graph)


def test_broken_routing_detected_as_cyclic():
    """A torus routed with wraps in the escape set must show a cycle.

    This guards the analyser itself: if we (wrongly) put the wraparound
    channels into C0 as a ring, the dependency graph contains the classic
    torus cycle.
    """
    config = SimConfig()
    spec, network, _ = make_network("serial_torus", ChipletGrid(2, 1, 2, 2), config)
    grid = spec.grid
    network.set_routing(ring_routing)  # everything eastwards around the row ring
    analysis = analyse_escape(network)
    assert not analysis.acyclic and analysis.cycle, "ring routing should produce a cyclic CDG"
    assert find_cycle(build_cdg(network, "vct").edges)

"""Tests for the per-family routing functions (Algorithm 1 structure)."""

import pytest

from repro.noc.channel import ChannelKind
from repro.noc.flit import Packet
from repro.routing.functions import (
    HeteroChannelRouting,
    HypercubeRouting,
    MeshRouting,
    TorusRouting,
    make_routing,
)
from repro.routing.policies import CUBE, MESH, FixedSelector, HopCountSelector
from repro.sim.config import SimConfig
from repro.topology.grid import ChipletGrid

from .conftest import make_network


def probe(src: int, dst: int, **kwargs) -> Packet:
    return Packet(src, dst, 16, 0, **kwargs)


def candidates_at(network, node, dst, **kwargs):
    router = network.routers[node]
    return router.routing_fn(router, probe(node, dst, **kwargs))


def link_of(network, node, candidate):
    port = candidate[0]
    return network.routers[node].outputs[port].link


def test_eject_candidate_at_destination(config, small_grid, family):
    _, network, _ = make_network(family, small_grid, config)
    cands = candidates_at(network, 5, 5) if False else None
    # routing functions are only called for dst != node via probe src != dst;
    # ejection is signalled by port 0:
    router = network.routers[5]
    packet = probe(4, 5)
    result = router.routing_fn(network.routers[5], packet)
    assert result == [(0, 0, True)]


def test_candidates_reference_real_ports(config, small_grid, family):
    _, network, _ = make_network(family, small_grid, config)
    n = small_grid.n_nodes
    for node in range(0, n, 5):
        for dst in range(0, n, 7):
            if node == dst:
                continue
            for port, vc, _esc in candidates_at(network, node, dst):
                out = network.routers[node].outputs[port]
                assert out.link is not None
                assert 0 <= vc < out.n_vcs


def test_every_pair_has_escape_candidate(config, small_grid, family):
    _, network, _ = make_network(family, small_grid, config)
    n = small_grid.n_nodes
    for node in range(n):
        for dst in range(n):
            if node == dst:
                continue
            cands = candidates_at(network, node, dst)
            assert any(esc for _p, _v, esc in cands), (node, dst)


def test_mesh_escape_moves_reduce_distance(config, small_grid):
    spec, network, _ = make_network("parallel_mesh", small_grid, config)
    grid = small_grid
    for node in range(grid.n_nodes):
        for dst in range(grid.n_nodes):
            if node == dst:
                continue
            for port, _vc, esc in candidates_at(network, node, dst):
                link = link_of(network, node, (port, 0, esc))
                nxt = link.dst_router.node
                d_now = sum(
                    abs(a - b) for a, b in zip(grid.coords(node), grid.coords(dst))
                )
                d_next = sum(
                    abs(a - b) for a, b in zip(grid.coords(nxt), grid.coords(dst))
                )
                assert d_next == d_now - 1  # mesh candidates are minimal


def test_banned_packet_restricted_to_escape_directions(config, small_grid):
    _, network, _ = make_network("parallel_mesh", small_grid, config)
    free = candidates_at(network, 0, 35)
    banned_packet = probe(0, 35)
    banned_packet.adaptive_banned = True
    router = network.routers[0]
    banned = router.routing_fn(router, banned_packet)
    banned_ports = {port for port, _v, _e in banned}
    free_escape_ports = {port for port, _v, esc in free if esc}
    assert banned_ports == free_escape_ports


def test_torus_uses_wrap_for_far_pairs(config):
    grid = ChipletGrid(4, 4, 2, 2)  # width 8: wraps pay off at distance >= ~6
    _, network, _ = make_network("serial_torus", grid, config)
    node = grid.node_at(0, 0)
    dst = grid.node_at(7, 0)
    cands = candidates_at(network, node, dst)
    kinds = {link_of(network, node, c).spec.tag[0] for c in cands if not c[2]}
    assert "wrap" in kinds


def test_torus_escape_never_uses_wrap(config):
    grid = ChipletGrid(4, 4, 2, 2)
    _, network, _ = make_network("serial_torus", grid, config)
    for node in range(0, grid.n_nodes, 3):
        for dst in range(0, grid.n_nodes, 5):
            if node == dst:
                continue
            for cand in candidates_at(network, node, dst):
                if cand[2]:
                    tag = link_of(network, node, cand).spec.tag
                    assert tag[0] == "mesh"
                    assert cand[1] == 0  # escape is VC0


def test_hypercube_phase_vcs(config):
    grid = ChipletGrid(2, 2, 3, 3)
    spec, network, _ = make_network("serial_hypercube", grid, config)
    # source chiplet 3 (0b11) -> chiplet 0: both dims are minus moves.
    src = grid.node_of(3, 1, 1)
    dst = grid.node_of(0, 1, 1)
    for cand in candidates_at(network, src, dst):
        if cand[2]:
            assert cand[1] == HypercubeRouting.MINUS_VC
    # chiplet 0 -> chiplet 3: both dims are plus moves.
    for cand in candidates_at(network, dst, src):
        if cand[2]:
            assert cand[1] == HypercubeRouting.PLUS_VC


def test_hypercube_requires_two_vcs():
    config = SimConfig(n_vcs=1)
    grid = ChipletGrid(2, 2, 3, 3)
    from repro.topology.system import build_system

    spec = build_system("serial_hypercube", grid, config)
    with pytest.raises(ValueError, match="virtual channels"):
        HypercubeRouting(spec)


def test_hetero_channel_subnet_choice_sticky(config):
    grid = ChipletGrid(4, 4, 2, 2)
    spec, network, _ = make_network("hetero_channel", grid, config)
    src = grid.node_of(0, 0, 0)
    dst = grid.node_of(15, 1, 1)  # H_P = 6 > H_S = 4 -> cube
    packet = probe(src, dst)
    router = network.routers[src]
    router.routing_fn(router, packet)
    assert packet.subnet_choice == CUBE


def test_hetero_channel_mesh_for_adjacent_chiplets(config):
    grid = ChipletGrid(4, 4, 2, 2)
    spec, network, _ = make_network("hetero_channel", grid, config)
    src = grid.node_of(0, 0, 0)
    dst = grid.node_of(1, 1, 1)  # adjacent chiplet: H_P = 1 <= H_S
    packet = probe(src, dst)
    router = network.routers[src]
    router.routing_fn(router, packet)
    assert packet.subnet_choice == MESH


def test_hetero_channel_serial_candidates_all_vcs(config):
    grid = ChipletGrid(4, 4, 2, 2)
    spec, network, _ = make_network("hetero_channel", grid, config)
    # Find a node hosting a cube link and a far destination needing it.
    from repro.routing.cube_moves import CubeHostIndex

    index = CubeHostIndex(spec)
    host = spec.cube_hosts[0][0][0]
    dst = grid.node_of(15, 0, 0)
    packet = probe(host, dst)
    router = network.routers[host]
    cands = router.routing_fn(router, packet)
    serial_vcs = {
        vc
        for port, vc, esc in cands
        if not esc and link_of(network, host, (port, vc, esc)).spec.kind is ChannelKind.SERIAL
    }
    if packet.subnet_choice == CUBE and serial_vcs:
        assert serial_vcs == set(range(config.n_vcs))  # Algorithm 1 line 8


def test_fixed_selector_exclusive_modes():
    assert FixedSelector(MESH).select(0, 5) == MESH
    assert FixedSelector(CUBE).select(0, 5) == CUBE
    with pytest.raises(ValueError):
        FixedSelector("ring")


def test_hop_count_selector_eq5():
    grid = ChipletGrid(4, 4, 2, 2)
    selector = HopCountSelector(grid)
    assert selector.select(0, 15) == CUBE  # H_P=6 > H_S=4
    assert selector.select(0, 1) == MESH  # H_P=1, H_S=1
    assert selector.select(0, 0) == MESH


def test_make_routing_dispatch(config, small_grid):
    """The routing class follows the links, never the family label."""
    from repro.topology.multipackage import build_hetero_channel_packages
    from repro.topology.system import build_system

    for family, cls in [
        ("parallel_mesh", MeshRouting),
        ("serial_torus", TorusRouting),
        ("hetero_phy_torus", TorusRouting),
        ("serial_hypercube", HypercubeRouting),
        ("hetero_channel", HeteroChannelRouting),
    ]:
        spec = build_system(family, small_grid, config)
        assert isinstance(make_routing(spec), cls)
    # Serial links in the mesh positions: still a cube beside a global mesh.
    packages = build_hetero_channel_packages(ChipletGrid(4, 2, 2, 3), config, packages=(2, 1))
    assert isinstance(make_routing(packages), HeteroChannelRouting)
    # One chiplet: no wrap and no interface link, so nothing but a mesh.
    single = ChipletGrid(1, 1, 4, 3)
    _, mesh, _ = make_network("parallel_mesh", single, config)
    for family in ("serial_torus", "hetero_phy_torus"):
        _, torus, _ = make_network(family, single, config)
        assert type(torus.routers[0].routing_fn) is MeshRouting
        for node in range(single.n_nodes):
            for dst in range(single.n_nodes):
                for banned in (False, True):
                    if node != dst:
                        packet = probe(node, dst)
                        packet.adaptive_banned = banned
                        routes = [n.routers[node].routing_fn(n.routers[node], packet) for n in (torus, mesh)]
                        assert routes[0] == routes[1]

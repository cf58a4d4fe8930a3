"""Tests for hypercube move math and host lookup."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.routing.cube_moves import CubeHostIndex, split_dims
from repro.routing.mesh_moves import manhattan
from repro.sim.config import SimConfig
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system


@given(st.integers(0, 63), st.integers(0, 63))
def test_split_dims_partition(cur, dst):
    minus, plus = split_dims(cur, dst)
    assert set(minus).isdisjoint(plus)
    diff = cur ^ dst
    assert sorted(minus + plus) == [d for d in range(6) if diff >> d & 1]
    for dim in minus:
        assert cur >> dim & 1 == 1
    for dim in plus:
        assert cur >> dim & 1 == 0


@given(st.integers(0, 63), st.integers(0, 63))
def test_split_dims_moves_converge(cur, dst):
    """Correcting minus dims then plus dims reaches the destination."""
    minus, plus = split_dims(cur, dst)
    pos = cur
    for dim in minus:
        assert pos > (pos ^ (1 << dim))  # minus moves decrease the id
        pos ^= 1 << dim
    for dim in plus:
        assert pos < (pos ^ (1 << dim))  # plus moves increase the id
        pos ^= 1 << dim
    assert pos == dst


@pytest.fixture(scope="module")
def host_index():
    grid = ChipletGrid(4, 4, 4, 4)  # 16 chiplets -> 4 cube dims
    spec = build_system("serial_hypercube", grid, SimConfig())
    return spec, CubeHostIndex(spec)


def test_every_dim_hosted_in_every_chiplet(host_index):
    spec, index = host_index
    for chiplet in range(spec.grid.n_chiplets):
        for dim in range(spec.n_cube_dims):
            hosts = index.hosts(chiplet, dim)
            assert hosts
            assert all(spec.grid.chiplet_of(h) == chiplet for h in hosts)
            assert all(spec.grid.is_interface_node(h) for h in hosts)


def test_hosted_dims_inverse_of_hosts(host_index):
    spec, index = host_index
    for chiplet in range(spec.grid.n_chiplets):
        for dim in range(spec.n_cube_dims):
            for host in index.hosts(chiplet, dim):
                assert dim in index.hosted_dims(host)


def test_nearest_host_in_same_chiplet(host_index):
    spec, index = host_index
    grid = spec.grid
    for node in range(0, grid.n_nodes, 7):
        host, dim = index.nearest_host(node, [0, 1, 2, 3])
        assert grid.chiplet_of(host) == grid.chiplet_of(node)
        assert dim in index.hosted_dims(host)


def test_nearest_host_is_minimal(host_index):
    spec, index = host_index
    grid = spec.grid
    node = grid.node_of(3, 1, 1)
    dims = [0, 2]
    host, _ = index.nearest_host(node, dims)
    best = min(
        manhattan(grid.coords(node), grid.coords(h))
        for d in dims
        for h in index.hosts(grid.chiplet_of(node), d)
    )
    assert manhattan(grid.coords(node), grid.coords(host)) == best


def test_nearest_host_stable_along_path(host_index):
    """Moving one hop toward the chosen host keeps it the chosen host."""
    spec, index = host_index
    grid = spec.grid
    for node in range(0, grid.n_nodes, 11):
        dims = [1, 3]
        host, dim = index.nearest_host(node, dims)
        if host == node:
            continue
        hx, hy = grid.coords(host)
        gx, gy = grid.coords(node)
        step_x = gx + (1 if hx > gx else -1 if hx < gx else 0)
        nxt = grid.node_at(step_x, gy) if hx != gx else grid.node_at(gx, gy + (1 if hy > gy else -1))
        assert index.nearest_host(nxt, dims) == (host, dim)


def test_nearest_host_requires_dims(host_index):
    _, index = host_index
    with pytest.raises(ValueError):
        index.nearest_host(0, [])


def test_requires_cube_system():
    spec = build_system("parallel_mesh", ChipletGrid(2, 2, 2, 2), SimConfig())
    with pytest.raises(ValueError):
        CubeHostIndex(spec)

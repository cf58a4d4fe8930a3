"""Tests for multi-chiplet system builders and the facts read off their links."""

import re
from pathlib import Path

import pytest

from repro.noc.channel import ChannelKind
from repro.sim.config import SimConfig
from repro.topology import system
from repro.topology.grid import ChipletGrid
from repro.topology.multipackage import build_hetero_channel_packages
from repro.topology.system import FAMILIES, build_system


@pytest.fixture
def config():
    return SimConfig()


def directed_edges(spec):
    return {(c.src, c.dst) for c in spec.channels}


def test_all_families_build(config):
    grid = ChipletGrid(2, 2, 3, 3)
    for family in FAMILIES:
        spec = build_system(family, grid, config)
        assert spec.family == family
        assert spec.channels


def test_unknown_family_rejected(config):
    with pytest.raises(ValueError):
        build_system("ring", ChipletGrid(2, 2, 2, 2), config)


def test_channels_are_symmetric(config, family):
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system(family, grid, config)
    edges = directed_edges(spec)
    assert all((dst, src) in edges for src, dst in edges)


def test_parallel_mesh_channel_counts(config):
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system("parallel_mesh", grid, config)
    counts = spec.channels_by_kind()
    # Global 6x6 mesh: 2 * 6 * 5 undirected edges = 120 directed channels.
    assert counts[ChannelKind.ONCHIP] + counts[ChannelKind.PARALLEL] == 120
    # Boundary crossings: 6 per vertical seam + 6 per horizontal = 12
    # undirected -> 24 directed.
    assert counts[ChannelKind.PARALLEL] == 24
    assert ChannelKind.SERIAL not in counts


def test_serial_torus_adds_wraparound(config):
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system("serial_torus", grid, config)
    counts = spec.channels_by_kind()
    # 6 rows + 6 columns of wraps, 2 directions each = 24 serial wraps,
    # plus 24 serial boundary channels.
    assert counts[ChannelKind.SERIAL] == 48
    wrap_tags = [c for c in spec.channels if c.tag[0] == "wrap"]
    assert len(wrap_tags) == 24


def test_hetero_phy_torus_kinds(config):
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system("hetero_phy_torus", grid, config)
    counts = spec.channels_by_kind()
    assert counts[ChannelKind.HETERO_PHY] == 24  # boundary links bonded
    assert counts[ChannelKind.SERIAL] == 24  # wraps serial-only
    hetero = [c for c in spec.channels if c.kind is ChannelKind.HETERO_PHY]
    assert all(c.serial_phy is not None for c in hetero)
    assert all(c.tag[0] == "mesh" for c in hetero)


def test_hypercube_requires_power_of_two_chiplets(config):
    grid = ChipletGrid(3, 1, 2, 2)
    with pytest.raises(ValueError, match="power-of-two"):
        build_system("serial_hypercube", grid, config)


@pytest.mark.parametrize("family", ["serial_hypercube", "hetero_channel"])
@pytest.mark.parametrize("chiplets", [(1, 1), (3, 2)], ids=["1-chiplet", "6-chiplets"])
def test_hypercube_error_names_the_requirement_family_and_grid(config, family, chiplets):
    grid = ChipletGrid(*chiplets, 4, 4)
    n = chiplets[0] * chiplets[1]
    with pytest.raises(ValueError) as caught:
        build_system(family, grid, config)
    message = str(caught.value)
    assert family in message
    assert "at least 2 chiplets" in message and "power-of-two" in message
    assert f"got {n} (grid: {chiplets[0]}x{chiplets[1]} chiplets of 4x4 nodes)" in message


@pytest.mark.parametrize("family", ["parallel_mesh", "serial_torus", "hetero_phy_torus"])
def test_single_chiplet_mesh_families_stay_legal(config, family):
    spec = build_system(family, ChipletGrid(1, 1, 3, 3), config)
    assert spec.grid.n_chiplets == 1


def test_hypercube_edges_match_hamming(config):
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system("serial_hypercube", grid, config)
    assert spec.n_cube_dims == 2
    for channel in spec.channels:
        if channel.tag[0] != "cube":
            continue
        c1 = grid.chiplet_of(channel.src)
        c2 = grid.chiplet_of(channel.dst)
        assert grid.cube_distance(c1, c2) == 1
        assert c1 ^ c2 == 1 << channel.tag[1]


def test_hypercube_hosts_recorded(config):
    grid = ChipletGrid(4, 4, 4, 4)
    spec = build_system("serial_hypercube", grid, config)
    assert spec.n_cube_dims == 4
    assert set(spec.cube_hosts) == set(range(16))
    perimeter = len(grid.perimeter_nodes(0))
    links_per_dim = perimeter // 4
    for by_dim in spec.cube_hosts.values():
        assert set(by_dim) == {0, 1, 2, 3}
        assert all(len(hosts) == links_per_dim for hosts in by_dim.values())


def test_hetero_channel_combines_mesh_and_cube(config):
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system("hetero_channel", grid, config)
    counts = spec.channels_by_kind()
    assert counts[ChannelKind.PARALLEL] == 24
    assert counts[ChannelKind.SERIAL] > 0
    assert spec.has_cube and not spec.has_wraparound


def test_onchip_channels_never_cross_chiplets(config, family):
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system(family, grid, config)
    for channel in spec.channels:
        crosses = grid.chiplet_of(channel.src) != grid.chiplet_of(channel.dst)
        if channel.kind is ChannelKind.ONCHIP:
            assert not crosses
        else:
            assert crosses


def test_channel_parameters_follow_config(family):
    config = SimConfig(onchip_buffer=24, interface_buffer=48, n_vcs=3)
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system(family, grid, config)
    for channel in spec.channels:
        assert channel.n_vcs == 3
        expected = 48 if channel.is_interface else 24
        assert channel.buffer_depth == expected


def test_single_chiplet_torus_has_no_wraps(config):
    grid = ChipletGrid(1, 1, 4, 4)
    spec = build_system("serial_torus", grid, config)
    assert not any(c.tag[0] == "wrap" for c in spec.channels)


def test_mesh_tags_unique_per_node(config, family):
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system(family, grid, config)
    seen: dict[tuple, int] = {}
    for channel in spec.channels:
        key = (channel.src, channel.tag)
        assert key not in seen, f"duplicate tag {channel.tag} at node {channel.src}"
        seen[key] = 1


def test_capabilities_are_read_off_the_links(config):
    grid = ChipletGrid(2, 2, 3, 3)
    expected = {  # family -> (wraparound, cube, global mesh)
        "parallel_mesh": (False, False, True),
        "serial_torus": (True, False, True),
        "hetero_phy_torus": (True, False, True),
        "serial_hypercube": (False, True, False),
        "hetero_channel": (False, True, True),
    }
    for family, flags in expected.items():
        spec = build_system(family, grid, config)
        assert (spec.has_wraparound, spec.has_cube, spec.has_global_mesh) == flags, family
        assert spec.has_subnet_choice == (flags[1] and flags[2])
    torus = build_system("hetero_phy_torus", grid, config)
    assert (torus.neighbor_kind, torus.wrap_kind) == (ChannelKind.HETERO_PHY, ChannelKind.SERIAL)


def test_multipackage_label_and_links_disagree(config):
    """Serial links in mesh positions still make a global mesh."""
    spec = build_hetero_channel_packages(ChipletGrid(4, 2, 2, 3), config, packages=(2, 1))
    serial_mesh = [c for c in spec.channels if c.tag[0] == "mesh" and c.kind is ChannelKind.SERIAL]
    assert serial_mesh and spec.has_global_mesh and spec.has_subnet_choice
    assert spec.cube_hosts == build_system("hetero_channel", spec.grid, config).cube_hosts


def test_mixed_torus_link_kinds_are_named(config):
    spec = build_system("serial_torus", ChipletGrid(2, 2, 3, 3), config)
    crossing = next(c for c in spec.channels if c.tag[0] == "mesh" and c.kind is ChannelKind.SERIAL)
    crossing.kind = ChannelKind.PARALLEL
    with pytest.raises(ValueError, match=r"\['parallel', 'serial'\]"):
        spec.neighbor_kind


#: A family compared to a literal, or a table indexed by one.
NAME_KEYED = re.compile(
    r"""\bfamily\b\s*(?:==|!=|\bnot\s+in\b|\bin\b)\s*["'(\[{]"""
    r"""|["')\]}]\s*(?:==|!=|\bin\b)\s*[\w.]*\bfamily\b"""
    r"""|(?<=[\w)\]}])\[\s*[\w.]*\bfamily\s*\]"""
    r"""|\.get\(\s*[\w.]*\bfamily\b"""
)


def test_only_the_builder_reads_family_names():
    """Routing, selector, lint and fault sets decide from the links."""
    for keyed in (
        'if spec.family == "hetero_channel":',
        'if family in ("serial_torus", "hetero_phy_torus"):',
        '    }[spec.family]',
        '"serial_hypercube" != spec.family',
    ):
        assert NAME_KEYED.search(keyed), keyed
    assert not NAME_KEYED.search("families = list(FAMILIES) if args.all else [args.family]")
    assert not NAME_KEYED.search('spec = build_system(meta["family"], grid, config)')
    builder = Path(system.__file__).resolve()
    src = builder.parents[1]
    offenders = [
        f"{path.relative_to(src)}:{number}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        if path != builder
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if NAME_KEYED.search(line)
    ]
    assert offenders == []

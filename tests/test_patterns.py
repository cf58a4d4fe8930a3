"""Tests for synthetic traffic patterns."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.topology.grid import ChipletGrid
from repro.traffic.patterns import (
    FIGURE_PATTERNS,
    PATTERNS,
    BitComplement,
    BitReverse,
    BitShuffle,
    BitTranspose,
    LocalUniform,
    UniformHotspot,
    UniformRandom,
    make_pattern,
)
from repro.traffic.rng import Stream

RNG = Stream(0)


def test_registry_covers_figure_patterns():
    for name in FIGURE_PATTERNS:
        assert name in PATTERNS


def test_make_pattern_unknown():
    with pytest.raises(ValueError):
        make_pattern("zipf", 16)


def test_patterns_need_two_nodes():
    with pytest.raises(ValueError):
        UniformRandom(1)


@given(st.integers(2, 300), st.data())
def test_uniform_never_self(n, data):
    pattern = UniformRandom(n)
    src = data.draw(st.integers(0, n - 1))
    rng = Stream(data.draw(st.integers(0, 1000)))
    for _ in range(5):
        assert pattern.dest(src, rng) != src


def test_uniform_covers_all_destinations():
    pattern = UniformRandom(8)
    rng = Stream(1)
    seen = {pattern.dest(3, rng) for _ in range(500)}
    assert seen == set(range(8)) - {3}


def test_hotspot_sources_restricted():
    pattern = UniformHotspot(100, fraction=0.1, seed=4)
    sources = pattern.sources()
    assert len(sources) == 10
    for src in sources:
        dst = pattern.dest(src, RNG)
        assert dst != src
        # fixed partner: deterministic
        assert pattern.dest(src, RNG) == dst


def test_hotspot_rejects_non_participant():
    pattern = UniformHotspot(100, fraction=0.1, seed=4)
    outsider = next(n for n in range(100) if n not in set(pattern.sources()))
    with pytest.raises(ValueError):
        pattern.dest(outsider, RNG)


def test_hotspot_fraction_validation():
    with pytest.raises(ValueError):
        UniformHotspot(10, fraction=0.0)


@pytest.mark.parametrize("cls", [BitShuffle, BitComplement, BitTranspose, BitReverse])
def test_bit_patterns_deterministic_and_not_self(cls):
    pattern = cls(64)
    for src in range(64):
        dst = pattern.dest(src, RNG)
        assert dst == pattern.dest(src, RNG)
        assert 0 <= dst < 64
        assert dst != src


@pytest.mark.parametrize("cls", [BitShuffle, BitComplement, BitTranspose, BitReverse])
def test_bit_patterns_bijective_on_power_of_two(cls):
    """On 2^b nodes the raw permutation is a bijection."""
    pattern = cls(64)
    images = {pattern._permute(src) for src in range(64)}
    assert images == set(range(64))


def test_bit_complement_definition():
    pattern = BitComplement(64)
    assert pattern._permute(0b000000) == 0b111111
    assert pattern._permute(0b101010) == 0b010101


def test_bit_shuffle_definition():
    pattern = BitShuffle(64)  # rotate left on 6 bits
    assert pattern._permute(0b100000) == 0b000001
    assert pattern._permute(0b000001) == 0b000010


def test_bit_reverse_definition():
    pattern = BitReverse(64)
    assert pattern._permute(0b100010) == 0b010001
    assert pattern._permute(0b111000) == 0b000111


def test_bit_transpose_definition():
    pattern = BitTranspose(64)  # rotate by b/2 = 3
    assert pattern._permute(0b111000) == 0b000111


@pytest.mark.parametrize("cls", [BitShuffle, BitComplement, BitTranspose, BitReverse])
def test_bit_patterns_handle_non_power_of_two(cls):
    pattern = cls(3136)  # the Fig 14 node count
    for src in (0, 1, 1000, 3135):
        dst = pattern.dest(src, RNG)
        assert 0 <= dst < 3136
        assert dst != src


def test_local_pattern_stays_in_tile():
    grid = ChipletGrid(2, 2, 4, 4)
    pattern = LocalUniform(grid.n_nodes, grid=grid, span=4)
    rng = Stream(2)
    for src in range(grid.n_nodes):
        gx, gy = grid.coords(src)
        for _ in range(5):
            dst = pattern.dest(src, rng)
            dx, dy = grid.coords(dst)
            assert dst != src
            # same offset tile
            off = pattern._offset
            assert (gx + off) // 4 == (dx + off) // 4
            assert (gy + off) // 4 == (dy + off) // 4


def test_local_pattern_tiles_straddle_chiplets():
    """Offset tiles must contain nodes from more than one chiplet."""
    grid = ChipletGrid(2, 2, 4, 4)
    pattern = LocalUniform(grid.n_nodes, grid=grid, span=4)
    straddling = 0
    for nodes in pattern._tiles.values():
        chiplets = {grid.chiplet_of(n) for n in nodes}
        if len(chiplets) > 1:
            straddling += 1
    assert straddling > 0


def test_local_pattern_validation():
    grid = ChipletGrid(2, 2, 4, 4)
    with pytest.raises(ValueError):
        LocalUniform(10, grid=grid, span=4)
    with pytest.raises(ValueError):
        LocalUniform(grid.n_nodes, grid=grid, span=0)


def test_local_pattern_excludes_partnerless_border_nodes():
    """Half-span offsetting can create single-node corner tiles; those
    nodes simply do not inject."""
    grid = ChipletGrid(2, 2, 4, 4)
    pattern = LocalUniform(grid.n_nodes, grid=grid, span=2)
    sources = set(pattern.sources())
    assert sources  # most nodes still communicate
    rng = Stream(0)
    for src in sources:
        assert pattern.dest(src, rng) != src

"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system


@pytest.fixture
def config() -> SimConfig:
    """A fast Table-2 configuration for unit tests."""
    return SimConfig(sim_cycles=2_000, warmup_cycles=200)


@pytest.fixture
def small_grid() -> ChipletGrid:
    """2x2 chiplets of 3x3 nodes (36 nodes, valid for every family)."""
    return ChipletGrid(2, 2, 3, 3)


@pytest.fixture
def mesh_grid() -> ChipletGrid:
    """2x2 chiplets of 4x4 nodes (64 nodes)."""
    return ChipletGrid(2, 2, 4, 4)


@pytest.fixture
def bench_doc() -> dict:
    """A real bench document (tests mutate their copy): the recorded output of
    ``python benchmarks/perf/run.py --all --smoke --trace 1 --out
    tests/data/BENCH_smoke.json`` (19 s to regenerate; data, not code)."""
    return json.loads((Path(__file__).parent / "data" / "BENCH_smoke.json").read_text())


def make_network(family: str, grid: ChipletGrid, config: SimConfig, **kwargs):
    """Build (network, stats) for a family; helper used across test files."""
    spec = build_system(family, grid, config)
    stats = Stats(measure_from=config.warmup_cycles)
    network = build_network(spec, stats, **kwargs)
    return spec, network, stats


@pytest.fixture(params=["parallel_mesh", "serial_torus", "hetero_phy_torus",
                        "serial_hypercube", "hetero_channel"])
def family(request) -> str:
    """Parametrized over all five system families."""
    return request.param


@pytest.fixture
def sanitize():
    """Opt-in runtime sanitizer: attach an InvariantChecker to a network.

    Usage::

        checker = sanitize(network)           # before injecting traffic
        engine.run(...)                       # violations raise immediately

    On teardown the fixture asserts that every attached checker actually
    swept the network at least once, so a mis-wired test cannot pass
    vacuously.
    """
    from repro.analysis import InvariantChecker

    checkers = []

    def _attach(network, **kwargs):
        checker = InvariantChecker(network, **kwargs)
        checkers.append(checker)
        return checker

    yield _attach
    for checker in checkers:
        assert checker.checks_run > 0, "sanitized network was never stepped"

"""Shared fixtures for the test suite."""

from __future__ import annotations

import copy

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


@pytest.fixture(scope="session")
def _bench_doc_once() -> dict:
    """One real ``repro bench`` suite run, shared by the whole session."""
    from repro.telemetry.bench import CASES, run_bench

    case = next(c for c in CASES if c.name == "fig14_hetero_channel")
    return run_bench(
        scale="tiny", reps=1, seed=1, cases=[case], git_rev="cafef00d", mem_top=5
    )


@pytest.fixture
def bench_doc(_bench_doc_once) -> dict:
    """A private copy of the session's bench document (tests mutate it)."""
    return copy.deepcopy(_bench_doc_once)


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

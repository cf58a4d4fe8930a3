"""The public API surface stays importable and complete."""

import importlib

import pytest

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.noc",
        "repro.topology",
        "repro.routing",
        "repro.traffic",
        "repro.circuits",
        "repro.cost",
        "repro.sim",
        "repro.telemetry",
        "repro.energy",
        "repro.exps",
        "repro.viz",
        "repro.cli",
    ],
)
def test_subpackages_import_and_export(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


def test_version_present():
    assert repro.__version__


def test_lazy_sim_attributes():
    import repro.sim

    assert callable(repro.sim.build_network)
    assert callable(repro.sim.run_synthetic)
    with pytest.raises(AttributeError):
        repro.sim.not_a_thing  # noqa: B018


def test_quickstart_docstring_example_runs():
    """The snippet in repro.__doc__ must actually work."""
    from repro import ChipletGrid, SimConfig, build_system, run_synthetic

    grid = ChipletGrid(chiplets_x=2, chiplets_y=2, nodes_x=2, nodes_y=2)
    config = SimConfig().scaled(cycles=800)
    system = build_system("hetero_phy_torus", grid, config)
    result = run_synthetic(system, "uniform", rate=0.1)
    assert result.avg_latency > 0


def test_running_a_point_does_not_import_the_observatory():
    """``repro.telemetry`` resolves its re-exports lazily (PEP 562), and the
    static passes of ``repro.analysis`` stay off the import path even though
    ``repro.analyse_escape`` is a top-level name."""
    import subprocess
    import sys

    heavy = ("forensics", "bench", "compare", "diff", "sentinel", "history",
             "dashboard", "server")
    script = f"""
import sys
import repro
import repro.sim.experiment
loaded = [m for m in {heavy!r} if "repro.telemetry." + m in sys.modules]
assert loaded == [], loaded
assert "repro.routing.deadlock" in sys.modules
assert "repro.analysis" not in sys.modules
from repro.telemetry import RunDigest, TelemetryConfig, classify
from repro import TelemetrySession, EpochMetrics
assert "repro.telemetry.compare" in sys.modules
import repro.telemetry
assert set(repro.telemetry.__all__) <= set(dir(repro.telemetry))
"""
    subprocess.run([sys.executable, "-c", script], check=True)


def test_synthetic_runs_do_not_load_numpy():
    """numpy is for trace tables and Fig 8 only: every synthetic draw comes
    from ``repro.traffic.rng``, and the trace side is imported on demand."""
    import subprocess
    import sys

    script = """
import sys
import repro, repro.cli
from repro import ChipletGrid, SimConfig, Stats, build_network, build_system, run_synthetic
from repro.routing.fault import adaptive_link_indices, fail_random_links
from repro.sim.engine import Engine
from repro.traffic import FIGURE_PATTERNS, RequestReplyWorkload

grid = ChipletGrid(2, 2, 2, 2)
spec = build_system("hetero_channel", grid, SimConfig().scaled(cycles=300))
for pattern in FIGURE_PATTERNS:
    assert run_synthetic(spec, pattern, 0.1).stats.packets_delivered > 0, pattern
network = build_network(spec, Stats())
assert fail_random_links(network, adaptive_link_indices(network, spec), 2, seed=1)
stats = Stats()
network = build_network(spec, stats)
workload = RequestReplyWorkload(stats, grid.n_nodes, issue_rate=0.2)
Engine(network, workload, stats).run(50)
assert workload.requests_issued > 0
assert "numpy" not in sys.modules

trace = repro.generate_parsec_trace("canneal", grid, 100, seed=3)
assert repro.run_trace(spec, trace).stats.delivered_fraction == 1.0
assert "numpy" in sys.modules
"""
    subprocess.run([sys.executable, "-c", script], check=True)

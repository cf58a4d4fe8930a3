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
    """``repro.telemetry`` resolves its re-exports lazily (PEP 562)."""
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
from repro.telemetry import RunDigest, TelemetryConfig, compare_bench
from repro import TelemetrySession, EpochMetrics
assert "repro.telemetry.compare" in sys.modules
import repro.telemetry
assert set(repro.telemetry.__all__) <= set(dir(repro.telemetry))
"""
    subprocess.run([sys.executable, "-c", script], check=True)

"""The public API surface stays importable and complete."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro

#: The top-level modules and packages of ``repro`` (``__main__`` runs the CLI).
MODULES = [
    name
    for _finder, name, _ispkg in pkgutil.iter_modules(repro.__path__, "repro.")
    if name != "repro.__main__"
]
#: Every package of ``repro``.
PACKAGES = [
    "repro",
    *(name for _finder, name, ispkg in pkgutil.walk_packages(repro.__path__, "repro.") if ispkg),
]
#: The packages whose initialiser is one lazy export table.
LAZY_PACKAGES = [
    "repro", "repro.core", "repro.noc", "repro.routing", "repro.sim", "repro.telemetry",
    "repro.topology", "repro.traffic",
]


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module", MODULES)
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
    """Every package initialiser resolves its public names lazily (PEP 562),
    so a synthetic point loads only what it executes: no observatory
    collector, no static pass, no trace generator, V-t model or route
    tracer, and none of the standard-library modules only registry writes
    need."""
    heavy = ("forensics", "bench", "compare", "diff", "sentinel", "history",
             "dashboard")
    unused = (
        "repro.routing.deadlock", "repro.routing.fault", "repro.traffic.trace",
        "repro.traffic.hpc", "repro.traffic.parsec", "repro.traffic.reqreply",
        "repro.core.vt_model", "repro.core.interfaces", "repro.noc.tracing",
        "repro.topology.multipackage",
    )
    script = f"""
import sys
registry_only = ("subprocess", "uuid", "datetime")
preloaded = [m for m in registry_only if m in sys.modules]
import repro
from repro import ChipletGrid, SimConfig, build_system, run_synthetic
spec = build_system("hetero_channel", ChipletGrid(2, 2, 2, 2), SimConfig().scaled(cycles=300))
assert run_synthetic(spec, "uniform", 0.1).stats.packets_delivered > 0
loaded = [m for m in {heavy!r} if "repro.telemetry." + m in sys.modules]
assert loaded == [], loaded
loaded = [m for m in {unused!r} if m in sys.modules]
assert loaded == [], loaded
loaded = [m for m in registry_only if m in sys.modules and m not in preloaded]
assert loaded == [], loaded
assert len([m for m in sys.modules if m.split(".")[0] == "repro"]) <= 35
assert "repro.routing.deadlock" not in sys.modules
assert "repro.analysis" not in sys.modules
from repro.telemetry import RunDigest, TelemetryConfig, classify
from repro import TelemetrySession, EpochMetrics
assert "repro.telemetry.forensics" not in sys.modules
assert "repro.telemetry.compare" in sys.modules
import repro.telemetry
assert set(repro.telemetry.__all__) <= set(dir(repro.telemetry))
"""
    subprocess.run([sys.executable, "-c", script], check=True)


def test_the_walked_packages_with_a_lazy_hook_are_the_eight():
    """An initialiser that turns eager, or a new lazy one, fails here."""
    hooked = [name for name in PACKAGES if "__getattr__" in vars(importlib.import_module(name))]
    assert sorted(hooked) == LAZY_PACKAGES


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_map_is_the_public_surface(package):
    """A lazy package declares each public name once, in its export table;
    ``__all__`` is that table, ``dir()`` lists it, resolved or not, each
    name is the attribute of the submodule the table names, and an unknown
    name is an ``AttributeError`` naming the package."""
    mod = importlib.import_module(package)
    declared = [entry.partition("=")[0] for names in mod._EXPORTS.values() for entry in names]
    assert len(declared) == len(set(declared))
    assert mod.__all__ == sorted(declared)
    assert set(mod.__all__) <= set(dir(mod))
    for submodule, entries in mod._EXPORTS.items():
        source = importlib.import_module(f"{package}.{submodule}")
        for entry in entries:
            name, _, attr = entry.partition("=")
            assert getattr(mod, name) is getattr(source, attr or name), f"{package}.{name}"
    with pytest.raises(AttributeError) as excinfo:
        mod.not_a_public_name  # noqa: B018
    assert str(excinfo.value) == f"module {package!r} has no attribute 'not_a_public_name'"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_importing_a_lazy_package_loads_none_of_its_submodules(package):
    script = f"""
import sys
import {package}
loaded = [m for m in sys.modules if m.startswith("{package}.")]
assert loaded == [], loaded
"""
    subprocess.run([sys.executable, "-c", script], check=True)


def test_synthetic_runs_do_not_load_numpy():
    """No run needs numpy: every random draw comes from
    ``repro.traffic.rng`` and trace tables are ``array`` columns."""
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
"""
    subprocess.run([sys.executable, "-c", script], check=True)


def test_trace_runs_and_fig8_work_with_numpy_blocked():
    """With numpy unimportable, the repo benchmark's MOC pipeline (on a
    small grid), a PARSEC replay and ``repro run fig8`` all run."""
    script = """
import sys
sys.modules["numpy"] = None  # "import numpy" now raises ImportError
import contextlib, io
import repro.cli
from repro import ChipletGrid, SimConfig, build_system, run_trace
from repro.traffic.hpc import embed_ranks, generate_moc_trace
from repro.traffic.parsec import generate_parsec_trace

grid = ChipletGrid(2, 2, 4, 4)
spec = build_system("hetero_channel", grid, SimConfig())
base = generate_moc_trace(64, 3, sweep_bytes=64, partners_per_sweep=10, seed=1)
moc = embed_ranks(base, grid, core_only=True).scaled(0.5)
assert run_trace(spec, moc).stats.delivered_fraction == 1.0
parsec = generate_parsec_trace("canneal", grid, 100, seed=3)
assert run_trace(spec, parsec).stats.delivered_fraction == 1.0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert repro.cli.main(["run", "fig8", "--scale", "tiny", "--csv", "--no-record"]) == 0
assert out.getvalue().startswith("t_cycles,parallel,serial"), out.getvalue()[:200]
"""
    subprocess.run([sys.executable, "-c", script], check=True)


def test_no_source_file_imports_numpy():
    import re
    from pathlib import Path

    src = Path(repro.__file__).parent
    importing = [
        f"{path.relative_to(src)}:{no}"
        for path in sorted(src.rglob("*.py"))
        for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.match(r"\s*(import numpy|from numpy[ .])", line)
    ]
    assert importing == []

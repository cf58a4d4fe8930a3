"""Edge-case tests across pure helpers (degenerate grids, rounding, bounds)."""

import pytest

from repro.core.interfaces import AIB, SERDES
from repro.core.vt_model import VTCurve, hetero_curve
from repro.exps.common import ExperimentResult, _fmt
from repro.routing.mesh_moves import negative_first_moves
from repro.routing.torus_moves import TorusAxisPlanner
from repro.core.weighted_path import HopCostModel
from repro.noc.channel import ChannelKind
from repro.sim.config import SimConfig
from repro.topology.grid import ChipletGrid
from repro.topology.multipackage import package_of
from repro.viz import render_topology


def test_single_node_chiplet_grid():
    grid = ChipletGrid(3, 3, 1, 1)
    # every node is its own chiplet's sole (interface) node
    assert grid.nodes_per_chiplet == 1
    assert all(grid.is_interface_node(n) for n in range(grid.n_nodes))
    assert grid.core_nodes() == []
    assert grid.perimeter_nodes(4) == [grid.node_of(4, 0, 0)]


def test_one_by_one_system_grid():
    grid = ChipletGrid(1, 1, 2, 2)
    assert grid.n_nodes == 4
    assert not grid.crosses_chiplet_boundary(0, "E")
    assert grid.mesh_chiplet_distance(0, 0) == 0


def test_row_and_column_grids():
    row = ChipletGrid(4, 1, 2, 1)
    assert row.height == 1
    assert row.neighbor(0, "N") is None
    col = ChipletGrid(1, 4, 1, 2)
    assert col.width == 1
    assert col.neighbor(0, "E") is None


def test_negative_first_degenerate_axes():
    # purely horizontal / vertical moves
    assert negative_first_moves((3, 0), (0, 0)) == ["W"]
    assert negative_first_moves((0, 0), (0, 3)) == ["N"]
    # one negative one positive: negative strictly first
    assert negative_first_moves((3, 0), (0, 3)) == ["W"]


def test_torus_planner_two_node_axis():
    model = HopCostModel.performance_first(SimConfig())
    planner = TorusAxisPlanner(2, 1, ChannelKind.SERIAL, ChannelKind.SERIAL, model)
    dirs = planner.directions(0, 1)
    assert set(dirs) <= {1, -1} and dirs


def test_vt_zero_delay_curve():
    curve = VTCurve(bandwidth=3, delay=0)
    assert curve.volume(0) == 0
    assert curve.volume(2) == pytest.approx(6)
    assert curve.time_to_deliver(9) == pytest.approx(3)


def test_hetero_vt_with_identical_components():
    a = VTCurve(2, 5, name="a")
    hetero = hetero_curve(a, a)
    assert hetero.volume(10.0) == pytest.approx(2 * a.volume(10.0))
    assert hetero.time_to_deliver(20) < a.time_to_deliver(20)


def test_interface_phy_rounding_up_delay():
    # 7.5 ns at 2 GHz = 15 cycles exactly
    phy = SERDES.to_phy(clock_ghz=2.0, lanes=16)
    assert phy.delay == 15
    # 3.5 ns at 3 GHz = 10.5 -> rounds up to 11
    phy = AIB.to_phy(clock_ghz=3.0, lanes=64)
    assert phy.delay == 11


def test_fmt_renders_special_values():
    assert _fmt(float("nan")) == "sat"
    assert _fmt(1234.5) == "1234"  # large floats lose decimals
    assert _fmt(3.14159) == "3.14"
    assert _fmt("label") == "label"
    assert _fmt(7) == "7"


def test_experiment_result_empty_format():
    result = ExperimentResult("x", "t", ("a", "b"))
    text = result.format()
    assert "a" in text and "b" in text  # headers render without rows


def test_package_of_single_package():
    grid = ChipletGrid(4, 2, 2, 2)
    assert all(package_of(grid, c, (1, 1)) == 0 for c in range(grid.n_chiplets))


def test_package_of_full_split():
    grid = ChipletGrid(4, 2, 2, 2)
    packages = {package_of(grid, c, (4, 2)) for c in range(grid.n_chiplets)}
    assert packages == set(range(8))  # every chiplet its own package


def test_render_topology_single_chiplet():
    from repro.topology.system import build_system

    spec = build_system("parallel_mesh", ChipletGrid(1, 1, 3, 3), SimConfig())
    text = render_topology(spec)
    assert "1x1 chiplets" in text
    assert "onchip" in text


def test_config_halved_is_idempotent_at_floor():
    config = SimConfig().halved().halved().halved()
    assert config.parallel_bandwidth == 1
    assert config.serial_bandwidth == 1


def test_hop_cost_model_is_frozen():
    model = HopCostModel(SimConfig())
    with pytest.raises(Exception):
        model.alpha = 2.0

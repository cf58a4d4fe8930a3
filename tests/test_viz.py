"""Tests for the text visualization helpers."""

import math

import pytest

from repro.sim.config import SimConfig
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.viz import ascii_curve, link_utilization_table, render_topology, utilization_heatmap


def test_render_topology_mentions_structure():
    spec = build_system("hetero_channel", ChipletGrid(2, 2, 3, 3), SimConfig())
    text = render_topology(spec)
    assert "2x2 chiplets" in text
    assert "hypercube" in text
    assert "parallel" in text and "serial" in text


def test_render_topology_torus_legend():
    spec = build_system("hetero_phy_torus", ChipletGrid(2, 2, 3, 3), SimConfig())
    text = render_topology(spec)
    assert "wraparound" in text
    assert "hetero_phy" in text


def _finished_run():
    config = SimConfig(sim_cycles=1_000, warmup_cycles=100)
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system("parallel_mesh", grid, config)
    from repro.sim.build import build_network
    from repro.sim.engine import Engine
    from repro.sim.stats import Stats
    from repro.traffic.injection import SyntheticWorkload
    from repro.traffic.patterns import make_pattern

    stats = Stats(measure_from=100)
    network = build_network(spec, stats)
    workload = SyntheticWorkload(
        make_pattern("uniform", grid.n_nodes), grid.n_nodes, 0.1, 16, until=1_000, seed=1
    )
    Engine(network, workload, stats).run(1_000)
    return spec, network


def test_utilization_heatmap_shape():
    spec, network = _finished_run()
    text = utilization_heatmap(network, spec, cycles=1_000)
    lines = text.splitlines()
    assert len(lines) == spec.grid.height + 1
    assert all(len(line) == spec.grid.width for line in lines[1:])
    with pytest.raises(ValueError):
        utilization_heatmap(network, spec, cycles=0)


def test_link_utilization_table():
    spec, network = _finished_run()
    text = link_utilization_table(network, cycles=1_000, top=5)
    lines = text.splitlines()
    assert len(lines) <= 6
    assert "onchip" in text or "parallel" in text
    # utilizations sorted descending
    flits = [int(line.split()[2]) for line in lines[1:]]
    assert flits == sorted(flits, reverse=True)


def test_ascii_curve_basic():
    text = ascii_curve([0, 1, 2, 3], [10, 20, 15, 40], label="latency")
    assert "latency" in text
    assert "*" in text
    assert "40.0" in text and "10.0" in text


def test_ascii_curve_handles_nan():
    text = ascii_curve([0, 1, 2], [10, float("nan"), 30])
    assert "*" in text


def test_ascii_curve_validation():
    with pytest.raises(ValueError):
        ascii_curve([], [])
    with pytest.raises(ValueError):
        ascii_curve([1, 2], [1])
    assert "no finite points" in ascii_curve([1], [math.nan])


def test_render_path():
    from repro.viz import render_path

    spec = build_system("parallel_mesh", ChipletGrid(2, 2, 3, 3), SimConfig())
    text = render_path(spec, [0, 1, 2, 8])
    lines = text.splitlines()
    assert "S" in text and "D" in text and "o" in text
    assert len(lines) == spec.grid.height + 1
    with pytest.raises(ValueError):
        render_path(spec, [])


def test_svg_line_chart_structure():
    from repro.viz import svg_line_chart

    svg = svg_line_chart(
        [
            ("mesh", [0.1, 0.2, 0.3], [20.0, 25.0, 40.0]),
            ("torus", [0.1, 0.2, 0.3], [60.0, 61.0, 63.0]),
        ],
        title="latency vs rate",
        x_label="rate",
        y_label="latency",
    )
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert svg.count('var(--series-1') >= 1 and svg.count('var(--series-2') >= 1
    assert svg.count("<circle") == 6  # one marker per point
    assert "<title>" in svg  # native tooltips
    assert "mesh" in svg and "torus" in svg  # legend labels
    assert "latency vs rate" in svg


def test_svg_line_chart_skips_nan_and_validates():
    from repro.viz import svg_line_chart

    svg = svg_line_chart(
        [("s", [0.0, 1.0, 2.0], [1.0, math.nan, 3.0])],
        title="t", x_label="x", y_label="y",
    )
    assert svg.count("<circle") == 2  # the NaN point is dropped
    assert "nan" not in svg
    assert "no finite points" in svg_line_chart(
        [("s", [0.0], [math.nan])], title="t", x_label="x", y_label="y"
    )
    with pytest.raises(ValueError):
        svg_line_chart([], title="t", x_label="x", y_label="y")
    with pytest.raises(ValueError):
        svg_line_chart([("s", [1.0], [])], title="t", x_label="x", y_label="y")


def test_svg_annotated_line_marks_changepoints():
    from repro.viz import svg_line_chart

    series = [("cps", [float(i) for i in range(6)],
               [100.0, 101.0, 99.0, 80.0, 81.0, 79.0])]
    svg = svg_line_chart(
        series,
        annotations=[(3.0, "changepoint @ seed-003")],
        title="t", x_label="run", y_label="cps",
    )
    assert 'stroke-dasharray="5 3"' in svg  # the vertical marker rule
    assert "changepoint @ seed-003" in svg
    assert "var(--series-8" in svg  # alarm color, matching the dashboard

    # Out-of-range and NaN annotations are dropped, not drawn off-plot.
    clean = svg_line_chart(
        series,
        annotations=[(99.0, "beyond"), (math.nan, "nowhere")],
        title="t", x_label="run", y_label="cps",
    )
    assert "beyond" not in clean and "nowhere" not in clean
    # Dropped markers leave exactly the chart drawn without annotations.
    assert clean == svg_line_chart(series, title="t", x_label="run", y_label="cps")


def test_svg_stacked_bars_structure():
    from repro.viz import svg_stacked_bars

    svg = svg_stacked_bars(
        [
            ("run A", [10.0, 5.0, 0.0, 2.0]),
            ("run B", [8.0, 0.0, 3.0, 1.0]),
        ],
        ["source_queue", "va_wait", "link_serial", "ejection"],
        title="latency breakdown",
        x_label="cycles",
    )
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # Zero-valued segments are skipped: 3 drawn per bar, each with a
    # native tooltip naming bar, segment, value and share.
    assert svg.count("<title>") == 6
    assert "run A · source_queue: 10" in svg
    assert "(58.8%)" in svg  # 10 / 17
    # Color follows segment identity in fixed assignment order.
    assert "var(--series-1" in svg and "var(--series-4" in svg
    assert "latency breakdown" in svg and "cycles" in svg
    # Legend carries every segment name even when a bar skips it.
    for name in ("source_queue", "va_wait", "link_serial", "ejection"):
        assert svg.count(name) >= 1
    # Totals are annotated at the bar ends in ink, not series color.
    assert ">17<" in svg and ">12<" in svg


def test_svg_stacked_bars_validation():
    from repro.viz import svg_stacked_bars

    with pytest.raises(ValueError, match="non-empty"):
        svg_stacked_bars([], ["a"])
    with pytest.raises(ValueError, match="expected 2 segment values"):
        svg_stacked_bars([("bar", [1.0])], ["a", "b"])


def test_svg_stacked_bars_all_zero_bar_renders():
    from repro.viz import svg_stacked_bars

    svg = svg_stacked_bars([("idle", [0.0, 0.0])], ["a", "b"], title="t")
    assert svg.count("<title>") == 0  # nothing to draw, nothing to tip
    assert "idle" in svg  # the bar label still appears


def test_svg_sparkline_renders_trend_and_degenerate_inputs():
    from repro.viz import svg_sparkline

    svg = svg_sparkline([10.0, 120.0, 480.0], title="oldest age")
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 1  # last point marked
    assert "oldest age: min 10, max 480, last 480" in svg
    assert "var(--series-1" in svg

    # Fewer than two finite points degrades to a text label, not a line.
    single = svg_sparkline([42.0])
    assert "<polyline" not in single and ">42<" in single
    empty = svg_sparkline([])
    assert "no data" in empty
    nans = svg_sparkline([float("nan"), 7.0])
    assert "<polyline" not in nans and ">7<" in nans

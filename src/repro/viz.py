"""Visualization helpers: text for terminals, inline SVG for the pages.

No plotting stack is assumed.  The text half renders topologies, link
utilization and latency curves for examples, debugging and notebook-free
analysis; the SVG half draws the charts of the three HTML pages (fleet,
run and postmortem, :mod:`repro.telemetry.dashboard`), each a
self-contained ``<svg>`` string coloured through the page palette's CSS
custom properties.

* :func:`render_topology` — chiplet floorplan with per-family channel
  legend;
* :func:`utilization_heatmap` — per-node forwarded-flit intensity over a
  finished run;
* :func:`link_utilization_table` — the busiest links with their kinds;
* :func:`timeseries_heatmap` — per-epoch telemetry series (one labelled
  row per link/counter) as a text heatmap;
* :func:`ascii_curve` — a quick y-vs-x line chart for latency curves;
* :func:`svg_line_chart` — a dependency-free inline-SVG line chart, with
  optional dashed event markers (the fleet page's figure and trajectory
  charts);
* :func:`svg_stacked_bars` — inline-SVG horizontal stacked bars (the
  dashboard's latency-attribution panel);
* :func:`svg_waitfor_graph` — inline-SVG directed graph on a circular
  layout with the deadlock cycle highlighted (``repro postmortem``);
* :func:`svg_node_heatmap` — inline-SVG per-node occupancy grid
  (``repro postmortem``'s router-occupancy panel);
* :func:`svg_sparkline` — a compact inline trend line (the dashboard's
  health panel);
"""

from __future__ import annotations

import html
import math
from typing import Sequence

from repro.noc.network import Network
from repro.topology.system import SystemSpec

#: Intensity ramp for heatmaps (low -> high).
RAMP = " .:-=+*#%@"


def _ramp(fraction: float) -> str:
    """The :data:`RAMP` character of an intensity in [0, 1]."""
    return RAMP[min(len(RAMP) - 1, int(fraction * (len(RAMP) - 1) + 0.5))]


def render_topology(spec: SystemSpec) -> str:
    """A floorplan sketch of the chiplet grid with its channel census."""
    grid = spec.grid
    lines = [f"{spec.name}: {grid.chiplets_x}x{grid.chiplets_y} chiplets of "
             f"{grid.nodes_x}x{grid.nodes_y} nodes ({grid.n_nodes} nodes)"]
    cell = f"[{grid.nodes_x}x{grid.nodes_y}]"
    for cy in range(grid.chiplets_y - 1, -1, -1):
        lines.append(" -- ".join([cell] * grid.chiplets_x))
        if cy:
            lines.append(("  |" + " " * (len(cell) + 1)) * grid.chiplets_x)
    counts = spec.channels_by_kind()
    legend = ", ".join(
        f"{kind.value}: {count}" for kind, count in sorted(counts.items(), key=lambda kv: kv[0].value)
    )
    lines.append(f"directed channels - {legend}")
    if spec.has_cube:
        lines.append(
            f"hypercube: {spec.n_cube_dims} dimensions, hosts on chiplet perimeters"
        )
    if spec.has_wraparound:
        lines.append("torus wraparounds between the global mesh edges (serial)")
    return "\n".join(lines)


def utilization_heatmap(network: Network, spec: SystemSpec, cycles: int) -> str:
    """Per-node forwarded-traffic heatmap after a run.

    Each cell aggregates the flits carried by the node's outgoing links,
    normalized by the run length, and maps intensity onto :data:`RAMP`.
    """
    if cycles <= 0:
        raise ValueError("cycles must be > 0")
    grid = spec.grid
    load = [0.0] * grid.n_nodes
    for link in network.links:
        load[link.spec.src] += link.flits_carried
    peak = max(load) or 1.0
    lines = [f"per-node forwarded flits over {cycles} cycles (peak "
             f"{peak / cycles:.2f} flits/cycle)"]
    for gy in range(grid.height - 1, -1, -1):
        row = []
        for gx in range(grid.width):
            row.append(_ramp(load[grid.node_at(gx, gy)] / peak))
        lines.append("".join(row))
    return "\n".join(lines)


def link_utilization_table(network: Network, cycles: int, top: int = 10) -> str:
    """The ``top`` busiest links as a plain table."""
    if cycles <= 0:
        raise ValueError("cycles must be > 0")
    entries = sorted(
        (
            (link.flits_carried, link)
            for link in network.links
            if link.flits_carried
        ),
        key=lambda e: -e[0],
    )[:top]
    lines = [f"{'link':>12s} {'kind':>10s} {'flits':>8s} {'util':>6s}"]
    for flits, link in entries:
        spec = link.spec
        util = flits / (cycles * spec.total_bandwidth)
        lines.append(
            f"{spec.src:5d}->{spec.dst:<5d} {spec.kind.value:>10s} "
            f"{flits:8d} {util:6.1%}"
        )
    return "\n".join(lines)


def timeseries_heatmap(
    labels: Sequence[str],
    rows: Sequence[Sequence[float]],
    *,
    epoch_length: int | None = None,
    title: str = "",
) -> str:
    """Render per-epoch time series as a text heatmap, one row per label.

    Feed it the ``(labels, rows)`` pair produced by
    :meth:`repro.telemetry.EpochMetrics.link_series` (or any equal-length
    series); each cell maps one epoch's value onto :data:`RAMP`,
    normalized by the global peak so rows stay comparable.
    """
    if len(labels) != len(rows):
        raise ValueError("labels and rows must be equal-length")
    if not labels:
        return (title or "time series") + ": no data"
    n_epochs = len(rows[0])
    if any(len(row) != n_epochs for row in rows):
        raise ValueError("every row must cover the same number of epochs")
    peak = max((value for row in rows for value in row), default=0.0) or 1.0
    width = max(len(label) for label in labels)
    unit = f", epoch = {epoch_length} cycles" if epoch_length else ""
    lines = [
        f"{title or 'per-epoch intensity'} "
        f"({n_epochs} epochs{unit}, peak {peak:.3g})"
    ]
    for label, row in zip(labels, rows):
        cells = "".join(_ramp(value / peak) for value in row)
        lines.append(f"{label:>{width}s} |{cells}|")
    lines.append(f"{'':{width}s}  epochs 0..{n_epochs - 1}")
    return "\n".join(lines)


def render_path(spec: SystemSpec, nodes: Sequence[int]) -> str:
    """Draw a traced packet path over the node grid.

    Source is ``S``, destination ``D``, intermediate visits ``o``; other
    nodes are dots.  Works with the node sequences produced by
    :meth:`repro.noc.tracing.RouteTracer.nodes_of`.
    """
    if not nodes:
        raise ValueError("empty path")
    grid = spec.grid
    cells = [["."] * grid.width for _ in range(grid.height)]
    for node in nodes[1:-1]:
        gx, gy = grid.coords(node)
        cells[gy][gx] = "o"
    sx, sy = grid.coords(nodes[0])
    cells[sy][sx] = "S"
    if len(nodes) > 1:
        dx, dy = grid.coords(nodes[-1])
        cells[dy][dx] = "D"
    lines = [f"path over {grid.width}x{grid.height} nodes ({len(nodes) - 1} hops)"]
    for gy in range(grid.height - 1, -1, -1):
        lines.append("".join(cells[gy]))
    return "\n".join(lines)


#: Categorical series colors (fixed assignment order, CVD-validated set);
#: each is emitted as ``var(--series-N, #hex)`` so a hosting page can
#: restyle (e.g. dark mode) through CSS custom properties.
SVG_SERIES_COLORS: tuple[str, ...] = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)


def _svg_ticks(lo: float, hi: float, n: int = 4) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    return [lo + span * i / n for i in range(n + 1)]


def _fmt_tick(value: float) -> str:
    return f"{value:,.6g}" if abs(value) < 1e6 else f"{value:,.0f}"


def _svg_open(width: float, height: float, font_size: int = 0) -> str:
    """The ``<svg>`` opening tag every chart starts with."""
    font = f' font-family="system-ui, sans-serif" font-size="{font_size}"' if font_size else ""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" role="img"{font}>'
    )


def _series_color(index: int) -> str:
    """Series ``index``'s palette colour, with its hex fallback."""
    return f"var(--series-{index + 1}, {SVG_SERIES_COLORS[index % len(SVG_SERIES_COLORS)]})"


def _svg_axis_text(x: float, y: int, text: str) -> str:
    """An x-axis tick label or caption, centred at ``x``."""
    return (
        f'<text x="{x:.1f}" y="{y}" text-anchor="middle" '
        f'fill="var(--text-secondary, #52514e)">{html.escape(text)}</text>'
    )


def _svg_swatch(x: int, y: int, index: int, label: str) -> str:
    """One legend entry: series ``index``'s swatch, then its label in ink
    (never in the series colour)."""
    return (
        f'<rect x="{x}" y="{y}" width="10" height="10" rx="2" fill="{_series_color(index)}"/>'
        f'<text x="{x + 16}" y="{y + 9}" '
        f'fill="var(--text-primary, #0b0b0b)">{html.escape(label)}</text>'
    )


def _svg_title(x: str | int, title: str, anchor: str = "") -> str:
    """A chart's bold title line ('' without a title)."""
    if not title:
        return ""
    return (
        f'<text x="{x}" y="16"{anchor} font-size="13" font-weight="600" '
        f'fill="var(--text-primary, #0b0b0b)">{html.escape(title)}</text>'
    )


def svg_line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    *,
    annotations: Sequence[tuple[float, str]] = (),
    width: int = 640,
    height: int = 300,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    y_zero: bool = False,
) -> str:
    """Render ``[(label, xs, ys), ...]`` as a self-contained SVG string.

    Pure stdlib — the dashboard's chart primitive.  NaN points are
    skipped (a saturated operating point breaks the polyline there);
    colors come from :data:`SVG_SERIES_COLORS` in fixed assignment
    order, referenced as CSS custom properties with hex fallbacks so
    embedding pages can restyle them.  ``y_zero`` pins the y-axis to 0
    (for magnitude series like cycles/second).  ``annotations`` is
    ``[(x, label), ...]`` — each renders as a dashed vertical line in the
    alarm color with a hoverable tooltip (the regression sentinel's
    changepoint marks); markers outside the data's x-range are dropped.
    """
    if not series:
        raise ValueError("series must be non-empty")
    points_by_series: list[tuple[str, list[tuple[float, float]]]] = []
    for label, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: xs and ys must be equal-length")
        finite = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if not (math.isnan(float(x)) or math.isnan(float(y)))
        ]
        points_by_series.append((str(label), finite))
    every = [pt for _, pts in points_by_series for pt in pts]
    if not every:
        return (
            f'{_svg_open(width, 60)}<text x="8" y="32" '
            f'fill="var(--text-secondary, #52514e)" font-size="13">'
            f"{html.escape(title or 'chart')}: no finite points</text></svg>"
        )
    x_min = min(x for x, _ in every)
    x_max = max(x for x, _ in every)
    y_min = 0.0 if y_zero else min(y for _, y in every)
    y_max = max(y for _, y in every)
    if y_max == y_min:
        y_max = y_min + (abs(y_min) or 1.0)
    if x_max == x_min:
        x_max = x_min + (abs(x_min) or 1.0)
    margin_l, margin_r, margin_t, margin_b = 64, 16, 28 if title else 12, 44
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def sx(x: float) -> float:
        return margin_l + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return margin_t + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    parts = [_svg_open(width, height, 11), _svg_title(margin_l, title)]
    # Recessive grid + y tick labels.
    for tick in _svg_ticks(y_min, y_max):
        y = sy(tick)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{width - margin_r}" '
            f'y2="{y:.1f}" stroke="var(--grid, #e6e4df)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 6}" y="{y + 3.5:.1f}" text-anchor="end" '
            f'fill="var(--text-secondary, #52514e)">{_fmt_tick(tick)}</text>'
        )
    for tick in _svg_ticks(x_min, x_max):
        x = sx(tick)
        parts.append(_svg_axis_text(x, height - margin_b + 16, _fmt_tick(tick)))
    if x_label:
        parts.append(_svg_axis_text(margin_l + plot_w / 2, height - 8, x_label))
    if y_label:
        parts.append(
            f'<text x="14" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {margin_t + plot_h / 2:.1f})" '
            f'fill="var(--text-secondary, #52514e)">{html.escape(y_label)}</text>'
        )
    # Changepoint / event markers: dashed verticals in the alarm color,
    # under the data so the series markers stay hoverable.
    alarm = _series_color(7)
    for ax, alabel in annotations:
        ax = float(ax)
        if math.isnan(ax) or not (x_min <= ax <= x_max):
            continue
        x = sx(ax)
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin_t}" x2="{x:.1f}" '
            f'y2="{margin_t + plot_h}" stroke="{alarm}" stroke-width="1.5" '
            f'stroke-dasharray="5 3"><title>{html.escape(str(alabel))}</title></line>'
        )
        parts.append(
            f'<text x="{x + 4:.1f}" y="{margin_t + 10}" font-size="10" '
            f'fill="{alarm}">{html.escape(str(alabel))}</text>'
        )
    # Series: 2px polylines + hoverable markers with native tooltips.
    for index, (label, pts) in enumerate(points_by_series):
        color = _series_color(index)
        if len(pts) > 1:
            path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="2" stroke-linejoin="round"/>'
            )
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" '
                f'fill="{color}" stroke="var(--surface-1, #fcfcfb)" '
                f'stroke-width="2"><title>'
                f"{html.escape(label)}: ({_fmt_tick(x)}, {_fmt_tick(y)})"
                f"</title></circle>"
            )
    parts.extend(
        _svg_swatch(margin_l + 8, margin_t - 4 + index * 16, index, label)
        for index, (label, _pts) in enumerate(points_by_series)
    )
    parts.append("</svg>")
    return "".join(parts)


def svg_stacked_bars(
    bars: Sequence[tuple[str, Sequence[float]]],
    segments: Sequence[str],
    *,
    width: int = 640,
    title: str = "",
    x_label: str = "",
) -> str:
    """Render ``[(bar label, values per segment), ...]`` as horizontal
    stacked bars (the dashboard's latency-breakdown primitive).

    Pure stdlib, same conventions as :func:`svg_line_chart`: segment
    colors come from :data:`SVG_SERIES_COLORS` in fixed assignment order
    (color follows the segment identity, never its rank), referenced as
    CSS custom properties with hex fallbacks; adjacent fills are
    separated by a 2px surface gap; every segment carries a native
    ``<title>`` tooltip; legend text stays in ink.  Zero-valued segments
    are skipped.
    """
    if not bars:
        raise ValueError("bars must be non-empty")
    for label, values in bars:
        if len(values) != len(segments):
            raise ValueError(
                f"bar {label!r}: expected {len(segments)} segment values, "
                f"got {len(values)}"
            )
    totals = [sum(values) for _, values in bars]
    x_max = max(totals) or 1.0
    margin_l, margin_r, margin_t = 150, 70, 28 if title else 12
    bar_h, bar_gap = 22, 10
    legend_cols = 3
    legend_rows = (len(segments) + legend_cols - 1) // legend_cols
    axis_h = 34 if x_label else 22
    legend_top = margin_t + len(bars) * (bar_h + bar_gap) + axis_h
    height = legend_top + legend_rows * 18 + 6
    plot_w = width - margin_l - margin_r
    parts = [_svg_open(width, height, 11), _svg_title(margin_l, title)]
    # Recessive vertical grid + x tick labels.
    axis_y = margin_t + len(bars) * (bar_h + bar_gap)
    for tick in _svg_ticks(0.0, x_max):
        x = margin_l + tick / x_max * plot_w
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin_t}" x2="{x:.1f}" '
            f'y2="{axis_y - bar_gap + 4}" stroke="var(--grid, #e6e4df)" '
            f'stroke-width="1"/>'
        )
        parts.append(_svg_axis_text(x, axis_y + 8, _fmt_tick(tick)))
    if x_label:
        parts.append(_svg_axis_text(margin_l + plot_w / 2, axis_y + 24, x_label))
    for row, (label, values) in enumerate(bars):
        y = margin_t + row * (bar_h + bar_gap)
        parts.append(
            f'<text x="{margin_l - 8}" y="{y + bar_h / 2 + 4:.1f}" '
            f'text-anchor="end" fill="var(--text-primary, #0b0b0b)">'
            f"{html.escape(label)}</text>"
        )
        total = totals[row]
        cursor = float(margin_l)
        for index, value in enumerate(values):
            if value <= 0:
                continue
            seg_w = value / x_max * plot_w
            # 2px surface gap between adjacent fills (kept visible by
            # clamping very thin segments to 1px).
            draw_w = max(1.0, seg_w - 2.0)
            pct = value / total if total else 0.0
            parts.append(
                f'<rect x="{cursor:.1f}" y="{y}" width="{draw_w:.1f}" '
                f'height="{bar_h}" fill="{_series_color(index)}"><title>'
                f"{html.escape(label)} · {html.escape(str(segments[index]))}: "
                f"{_fmt_tick(value)} ({pct:.1%})</title></rect>"
            )
            cursor += seg_w
        parts.append(
            f'<text x="{cursor + 6:.1f}" y="{y + bar_h / 2 + 4:.1f}" '
            f'fill="var(--text-secondary, #52514e)">{_fmt_tick(total)}</text>'
        )
    # Legend grid, fixed segment order.
    col_w = (width - margin_l // 2) // legend_cols
    parts.extend(
        _svg_swatch(16 + (index % legend_cols) * col_w,
                    legend_top + (index // legend_cols) * 18, index, str(segment))
        for index, segment in enumerate(segments)
    )
    parts.append("</svg>")
    return "".join(parts)


def svg_waitfor_graph(
    nodes: Sequence,
    edges: Sequence[tuple],
    *,
    cycle: Sequence = (),
    labels: dict | None = None,
    width: int = 640,
    height: int = 480,
    title: str = "",
) -> str:
    """Render a directed wait-for graph on a circular layout.

    ``nodes`` are hashable vertex identities, ``edges`` are ``(a, b)``
    pairs, ``cycle`` the ordered vertices of the blocking loop (its edges
    — including the wrap-around — and vertices draw in the alarm color).
    Pure stdlib, same conventions as :func:`svg_line_chart`; ``labels``
    maps vertices to display strings (default: ``str(vertex)``).
    """
    if not nodes:
        raise ValueError("nodes must be non-empty")
    labels = labels or {}
    cycle = list(cycle)
    cycle_edges = {
        (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    }
    cycle_nodes = set(cycle)
    margin_t = 28 if title else 12
    cx, cy = width / 2, margin_t + (height - margin_t) / 2
    radius = min(width, height - margin_t) / 2 - 90
    pos: dict = {}
    for index, node in enumerate(nodes):
        angle = 2 * math.pi * index / len(nodes) - math.pi / 2
        pos[node] = (cx + radius * math.cos(angle), cy + radius * math.sin(angle))
    edge_color = "var(--text-secondary, #52514e)"
    alarm = _series_color(7)
    parts = [
        _svg_open(width, height, 11),
        # Arrowheads: context-stroke is not universally supported, so one
        # marker per color.
        "<defs>" + "".join(
            f'<marker id="{marker}" viewBox="0 0 10 10" refX="9" refY="5" '
            'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
            f'<path d="M 0 0 L 10 5 L 0 10 z" fill="{fill}"/></marker>'
            for marker, fill in (("wf-arrow", edge_color), ("wf-arrow-cycle", alarm))
        ) + "</defs>",
        _svg_title(f"{width / 2:.1f}", title, ' text-anchor="middle"'),
    ]
    node_r = 7.0
    for a, b in edges:
        if a not in pos or b not in pos or a == b:
            continue
        ax, ay = pos[a]
        bx, by = pos[b]
        length = math.hypot(bx - ax, by - ay) or 1.0
        # Trim both ends so the line meets the node circle, not its center.
        ux, uy = (bx - ax) / length, (by - ay) / length
        x1, y1 = ax + ux * (node_r + 2), ay + uy * (node_r + 2)
        x2, y2 = bx - ux * (node_r + 6), by - uy * (node_r + 6)
        hot = (a, b) in cycle_edges
        dim = "" if hot else ' opacity="0.55"'
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{alarm if hot else edge_color}" '
            f'stroke-width="{2.5 if hot else 1.2}" '
            f'marker-end="url(#wf-arrow{"-cycle" if hot else ""})"{dim}/>'
        )
    for node in nodes:
        x, y = pos[node]
        hot = node in cycle_nodes
        label = str(labels.get(node, node))
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{node_r}" '
            f'fill="{alarm if hot else _series_color(0)}" '
            f'stroke="var(--surface-1, #fcfcfb)" stroke-width="2">'
            f"<title>{html.escape(label)}</title></circle>"
        )
        # Label outward from the center so text clears the ring.
        dx, dy = x - cx, y - cy
        dist = math.hypot(dx, dy) or 1.0
        lx, ly = x + dx / dist * 14, y + dy / dist * 14
        anchor = "start" if dx > 1 else ("end" if dx < -1 else "middle")
        parts.append(
            f'<text x="{lx:.1f}" y="{ly + 4:.1f}" text-anchor="{anchor}" '
            f'fill="var(--text-primary, #0b0b0b)">{html.escape(label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def svg_node_heatmap(
    occupancy: dict[int, float],
    n_nodes: int,
    *,
    columns: int | None = None,
    title: str = "",
    cell: int = 34,
) -> str:
    """Render per-node values as a square-cell heatmap grid.

    ``occupancy`` maps node id to value (missing nodes read as zero);
    the grid is ``columns`` wide (default: near-square).  Intensity maps
    onto the opacity of one series color, so the chart restyles with the
    page palette; every cell carries a native tooltip.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    columns = columns or max(1, math.ceil(math.sqrt(n_nodes)))
    rows = math.ceil(n_nodes / columns)
    margin_t = 28 if title else 6
    gap = 3
    width = columns * (cell + gap) + 12
    height = margin_t + rows * (cell + gap) + 6
    peak = max((float(v) for v in occupancy.values()), default=0.0) or 1.0
    fill = _series_color(1)
    parts = [_svg_open(width, height, 10), _svg_title(6, title)]
    for node in range(n_nodes):
        value = float(occupancy.get(node, 0.0))
        x = 6 + (node % columns) * (cell + gap)
        y = margin_t + (node // columns) * (cell + gap)
        if value > 0:
            opacity = 0.15 + 0.85 * value / peak
            body = f'fill="{fill}" fill-opacity="{opacity:.2f}"'
        else:
            body = 'fill="var(--surface-2, #f4f3f1)"'
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" rx="4" '
            f"{body}><title>node {node}: {value:g}</title></rect>"
        )
        parts.append(
            f'<text x="{x + cell / 2:.1f}" y="{y + cell / 2 + 3.5:.1f}" '
            f'text-anchor="middle" fill="var(--text-primary, #0b0b0b)">'
            f"{node}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def svg_sparkline(
    values: Sequence[float],
    *,
    width: int = 180,
    height: int = 36,
    title: str = "",
) -> str:
    """Render a compact inline trend line (no axes, last point dotted).

    The dashboard's health panel uses it for oldest-packet-age series;
    the stroke is one series color via a CSS custom property so the
    sparkline restyles with the page palette.  A native tooltip carries
    ``title`` plus the min/max range.
    """
    finite = [float(v) for v in values if not math.isnan(float(v))]
    stroke = _series_color(0)
    head = _svg_open(width, height)
    if len(finite) < 2:
        label = f"{finite[0]:g}" if finite else "no data"
        return (
            f'{head}<text x="4" y="{height / 2 + 4:.0f}" font-size="11" '
            f'font-family="system-ui, sans-serif" '
            f'fill="var(--text-secondary, #52514e)">{html.escape(label)}'
            f"</text></svg>"
        )
    lo, hi = min(finite), max(finite)
    span = (hi - lo) or 1.0
    pad = 4.0
    step = (width - 2 * pad) / (len(finite) - 1)
    points = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(finite)
    )
    last_x = pad + (len(finite) - 1) * step
    last_y = height - pad - (finite[-1] - lo) / span * (height - 2 * pad)
    tooltip = html.escape(
        f"{title + ': ' if title else ''}min {lo:g}, max {hi:g}, "
        f"last {finite[-1]:g}"
    )
    return (
        f"{head}<title>{tooltip}</title>"
        f'<polyline points="{points}" fill="none" stroke="{stroke}" '
        f'stroke-width="1.5" stroke-linejoin="round"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2.5" '
        f'fill="{stroke}"/></svg>'
    )


def ascii_curve(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    width: int = 60,
    height: int = 12,
    label: str = "",
) -> str:
    """A quick text line chart (used by examples for latency curves)."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equal-length and non-empty")
    finite = [(x, y) for x, y in zip(xs, ys) if not math.isnan(y)]
    if not finite:
        return f"{label}: no finite points"
    x_min, x_max = min(x for x, _ in finite), max(x for x, _ in finite)
    y_min, y_max = min(y for _, y in finite), max(y for _, y in finite)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    cells = [[" "] * width for _ in range(height)]
    for x, y in finite:
        col = int((x - x_min) / x_span * (width - 1))
        row = int((y - y_min) / y_span * (height - 1))
        cells[height - 1 - row][col] = "*"
    lines = []
    if label:
        lines.append(label)
    lines.append(f"{y_max:10.1f} +" + "".join(cells[0]))
    for row in cells[1:-1]:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{y_min:10.1f} +" + "".join(cells[-1]))
    lines.append(" " * 12 + f"{x_min:<10.3g}{'':{max(0, width - 20)}}{x_max:>10.3g}")
    return "\n".join(lines)

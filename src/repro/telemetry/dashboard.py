"""The two HTML pages: one page model, two sources.

Every page is a tuple of ``(heading, panel)`` sections over one source,
joined by :func:`render_sections` and wrapped by :func:`render_page`:

* the fleet page (:data:`SECTIONS`) reads a :class:`Snapshot`, which reads
  each source once — the run registry (``runs/runs.jsonl``, leniently,
  counting skipped lines), the bench history (the stored
  ``BENCH_<n>.json`` files) and the paper-figure CSVs;
* the postmortem page (:data:`POSTMORTEM_SECTIONS`) reads one validated
  forensics bundle.  Its text form, :func:`render_bundle_text`, prints the
  same ``(headers, rows)`` tables with :func:`text_table`.

``repro watch --out FILE`` writes the fleet page and ``repro postmortem
--html`` the postmortem page, both static and script-free.  The page
carries its own light/dark palette as CSS custom properties (the chart
SVGs reference ``var(--series-N)``), so it respects
``prefers-color-scheme`` without any scripting.

Import note: simulator modules are imported inside functions only (see
the package initializer's import note).
"""

from __future__ import annotations

import html
import math
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from .compare import fmt_metric
from .forensics import event_line
from .runstore import RunRecord, RunStore, git_revision, utc_now_iso

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exps.common import ExperimentResult

    from .history import RunHistory


#: Figure scales, largest first: the page draws the first with a fig11 CSV.
SCALES = ("paper", "small", "tiny")


class Snapshot:
    """One read of everything the fleet page shows.

    The registry is read on construction; the bench history and the
    results CSVs on first use — each at most once — so the panels and the
    ``repro watch`` document answer from the same reads.  All reads are
    lenient: a line being appended to must not break the view.
    """

    def __init__(
        self,
        runs_dir: str | Path = "runs",
        *,
        bench_dirs: Sequence[str | Path] = (".",),
        results_dir: str | Path = "benchmarks/results",
        top_runs: int = 20,
    ) -> None:
        self.runs_dir = Path(runs_dir)
        self.bench_dirs = [Path(d) for d in bench_dirs]
        self.results_dir = Path(results_dir)
        self.top_runs = top_runs
        self.generated = utc_now_iso()
        store = RunStore(self.runs_dir)
        self.registry = store.path
        self.records = store.load(strict=False)
        self.skipped = store.skipped

    @cached_property
    def history(self) -> "RunHistory":
        from .history import load_history

        return load_history(self.bench_dirs)

    @cached_property
    def scale(self) -> Optional[str]:
        """The largest scale with a ``fig11_<scale>.csv`` (None: no figures)."""
        return next(
            (s for s in SCALES if (self.results_dir / f"fig11_{s}.csv").is_file()), None
        )

    @cached_property
    def results(self) -> dict[str, "ExperimentResult"]:
        """The results CSVs ``repro report`` reads at :attr:`scale`, each read once."""
        from repro.exps.report import load_results

        return {} if self.scale is None else load_results(self.results_dir, self.scale)

    @cached_property
    def agreement(self) -> Optional[str]:
        """``repro report``'s paper-vs-measured text at :attr:`scale`."""
        from repro.exps.report import summarize

        if self.scale is None:
            return None
        return summarize(self.results_dir, self.scale, self.results)

    def to_dict(self) -> dict[str, Any]:
        """The snapshot document ``repro watch`` prints."""
        return {
            "generated": self.generated,
            "runs_dir": str(self.runs_dir),
            "records": len(self.records),
            "skipped": self.skipped,
            "recent": [record.to_dict() for record in self.records[-self.top_runs :]],
        }


PAGE_STYLE = """
:root {
  color-scheme: light dark;
}
body.viz-root {
  --surface-1: #fcfcfb;
  --surface-2: #f4f3f1;
  --grid: #e6e4df;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --series-4: #eda100;
  --series-5: #e87ba4;
  --series-6: #008300;
  --series-7: #4a3aa7;
  --series-8: #e34948;
  margin: 0;
  padding: 24px 32px 48px;
  background: var(--surface-1);
  color: var(--text-primary);
  font: 14px/1.5 system-ui, sans-serif;
  max-width: 1080px;
}
@media (prefers-color-scheme: dark) {
  body.viz-root {
    --surface-1: #1a1a19;
    --surface-2: #242423;
    --grid: #383835;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --series-4: #c98500;
    --series-5: #d55181;
    --series-6: #008300;
    --series-7: #9085e9;
    --series-8: #e66767;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 8px; }
p.meta { color: var(--text-secondary); margin: 0 0 16px; }
figure { margin: 0 0 12px; }
table { border-collapse: collapse; font-size: 13px; }
th, td { padding: 4px 10px; text-align: right; border-bottom: 1px solid var(--grid); }
th { color: var(--text-secondary); font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
pre { background: var(--surface-2); padding: 12px; overflow-x: auto;
      font-size: 12px; border-radius: 6px; }
.empty { color: var(--text-secondary); font-style: italic; }
.alarm { color: var(--series-8); font-weight: 600; }
"""


class Html(str):
    """Markup: :func:`fmt_value` passes it through unescaped."""


def fmt_value(value: Any) -> str:
    """One table cell: markup as is, a float as :func:`fmt_metric`,
    anything else escaped."""
    if isinstance(value, Html):
        return value
    if isinstance(value, float):
        return fmt_metric(value)
    return html.escape(str(value))


def html_table(headers: Sequence[Any], rows: Iterable[Sequence[Any]]) -> str:
    """``<table>`` markup; every header and cell goes through :func:`fmt_value`."""
    head = "".join(f"<th>{fmt_value(header)}</th>" for header in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{fmt_value(cell)}</td>" for cell in row) + "</tr>" for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _empty(text: str) -> str:
    return f'<p class="empty">{text}</p>'


def _code(value: Any) -> str:
    """A path or digest cell ('—' when absent)."""
    return Html(f"<code>{html.escape(str(value))}</code>") if value else "—"


def _alarm(value: Any) -> Html:
    return Html(f'<span class="alarm">{fmt_value(value)}</span>')


def _record_cells(record: RunRecord, *fields: str) -> list[Any]:
    """A registry record's leading cells: ``created`` then ``fields``."""
    return [getattr(record, name) for name in ("created", *fields)]


def _no_figures(snap: Snapshot) -> str:
    return _empty(
        f"no fig11 CSV in {_code(snap.results_dir)} — run the benchmark suite "
        "first (<code>pytest benchmarks/ --benchmark-only</code>) or point "
        "<code>--results-dir</code> at one."
    )


def fig11_section(snap: Snapshot) -> str:
    from repro.viz import svg_line_chart

    result = snap.results.get("fig11")
    if result is None:
        return _no_figures(snap)
    patterns = sorted(set(result.column("pattern")))
    pattern = "uniform" if "uniform" in patterns else patterns[0]
    series = []
    for network in sorted(set(result.column("network"))):
        rows = result.filtered(pattern=pattern, network=network)
        rows.sort(key=lambda row: row[result.headers.index("rate")])
        xs = [row[result.headers.index("rate")] for row in rows]
        ys = [row[result.headers.index("avg_latency")] for row in rows]
        series.append((network, xs, ys))
    chart = svg_line_chart(
        series,
        title=f"Fig 11 — avg latency vs injection rate ({pattern}, fig11_{snap.scale}.csv)",
        x_label="injection rate (flits/cycle/node)",
        y_label="avg latency (cycles)",
    )
    table = html_table(result.headers, result.filtered(pattern=pattern))
    return f"<figure>{chart}</figure><details><summary>data table</summary>{table}</details>"


def agreement_section(snap: Snapshot) -> str:
    if snap.agreement is None:
        return _no_figures(snap)
    return f"<pre>{html.escape(snap.agreement)}</pre>"


def perf_section(snap: Snapshot) -> str:
    """The performance panel over the one bench history.

    Runs the changepoint sentinel over the stored ``BENCH_<n>.json`` files
    and renders one flit-hops/s trajectory per workload with detected
    changepoints as dashed marks, the latest engine loop split into ns per
    flit-hop by phase, the trajectories of what the harness measures once
    per run (observer overheads, Table 3 error), and the verdict table
    ``repro regress`` prints — so a throughput drop, the run it started at
    and the pipeline phase behind it sit side by side.
    """
    from repro.viz import svg_line_chart, svg_stacked_bars

    from .bench import PHASE_SUFFIX, THROUGHPUT
    from .sentinel import analyze_history

    history = snap.history
    if not history.series:
        return _empty(
            "no bench history yet — no BENCH_*.json files found; run "
            "<code>repro bench</code> first."
        )
    report = analyze_history(history)
    marks = {
        r.case: [(float(r.changepoint.index), f"changepoint @ {r.changepoint_key or '?'}")]
        for r in report.reports
        if r.metric == THROUGHPUT and r.changepoint is not None
    }

    def trajectory(series_list, *, title, y_label, annotations=()):
        runs = [float(i) for i in range(max(len(s.points) for s in series_list))]
        lines = [(s.metric, runs[: len(s.points)], s.values) for s in series_list]
        return "<figure>" + svg_line_chart(
            lines, annotations=annotations, height=220, title=title,
            x_label="bench run (oldest first)", y_label=y_label, y_zero=True,
        ) + "</figure>"

    figures = []
    for case in history.cases():
        series = history.get(case, THROUGHPUT)
        if series is not None and series.finite_count():
            figures.append(
                trajectory(
                    [series], title=f"{case}: throughput trajectory",
                    y_label="flit-hops / reference-host second (median)",
                    annotations=marks.get(case, ()),
                )
            )

    phases = {
        key: series.values[-1]
        for key, series in history.series.items()
        if key[1].endswith(PHASE_SUFFIX) and math.isfinite(series.values[-1])
    }
    segments = list(dict.fromkeys(metric for (_, metric), ns in phases.items() if ns))
    if segments:
        bars = [(case, [phases.get((case, m), 0.0) for m in segments]) for case in history.cases()]
        chart = svg_stacked_bars(
            bars, [m[: -len(PHASE_SUFFIX)] for m in segments], x_label="ns per flit-hop",
            title="engine loop by pipeline phase (latest bench)",
        )
        figures.append(f"<figure>{chart}</figure>")
    # Measured once per harness run and copied into every workload block:
    # one workload's series is the whole trajectory.
    once = [s for (case, _), s in history.series.items() if case == history.cases()[0]]
    for prefix, title, y_label in (
        ("telemetry.overhead.", "observer overhead (run with / without, minus 1)", "ratio"),
        ("exps.table3_abs_err_pp", "Table 3 mean |error| vs the paper (tiny scale)", "pp"),
    ):
        drawn = [s for s in once if s.metric.startswith(prefix) and s.finite_count()]
        if drawn:
            figures.append(trajectory(drawn, title=title, y_label=y_label))

    rows = []
    steady = 0
    for r in report.reports:
        if r.verdict == "n/a":
            continue  # metrics this history never carried: pure noise rows
        if r.verdict == "ok" and history.series[r.case, r.metric].exact:
            steady += 1  # a count that never moved: one sentence, not a row each
            continue
        rows.append(
            [
                r.case,
                r.metric,
                r.finite_points,
                fmt_metric(r.baseline, r.unit),
                fmt_metric(r.latest, r.unit),
                _alarm(r.verdict) if r.verdict == "regressed" else r.verdict,
                r.changepoint_key or Html("&mdash;"),
                r.culprit or Html("&mdash;"),
            ]
        )
    table = (
        html_table(
            ["case", "metric", "runs", "baseline", "latest", "verdict",
             "changepoint", "culprit"],
            rows,
        )
        if rows
        else _empty("no analyzable metrics in the bench history yet.")
    )
    newest = max(
        (series.points[-1] for series in history.ordered()),
        key=lambda point: point.created,
    )
    meta = (
        f'<p class="meta">{history.runs} bench run(s) analyzed, latest '
        f"{html.escape(newest.key)} @ {html.escape(newest.git_rev)}, "
        f"{len(report.regressions())} regression(s), {steady} exact row(s) "
        f"unchanged — <code>repro regress</code> prints this table.</p>"
    )
    return "".join(figures) + table + meta


def breakdown_section(snap: Snapshot, max_bars: int = 4) -> str:
    """Stacked per-stage latency bars + bottleneck table from the registry."""
    from repro.viz import svg_stacked_bars

    from .attribution import STAGES

    records = [record for record in snap.records if record.breakdown.get("stages")]
    records = records[-max_bars:]
    if not records:
        return _empty(
            "no runs with a latency breakdown yet — record one with "
            "<code>repro simulate --latency-breakdown</code>."
        )
    # Keep only stages that contribute somewhere, in canonical order.
    segments = [
        name
        for name in STAGES
        if any(r.breakdown["stages"].get(name, {}).get("total") for r in records)
    ] or list(STAGES)
    bars = [
        (
            f"{r.label} {r.workload} · {r.created[:10]}",
            [r.breakdown["stages"].get(name, {}).get("mean", 0.0) for name in segments],
        )
        for r in records
    ]
    chart = svg_stacked_bars(
        bars, segments, x_label="cycles",
        title="mean cycles per packet, attributed to pipeline stages",
    )
    latest = records[-1]
    stage_table = "<details><summary>stage table (latest run)</summary>" + html_table(
        ["stage", "mean", "p95", "p99", "share"],
        (
            [
                name,
                *(float(cell.get(key, 0.0)) for key in ("mean", "p95", "p99")),
                f"{float(cell.get('share', 0.0)):.1%}",
            ]
            for name, cell in latest.breakdown["stages"].items()
            if cell.get("total")
        ),
    ) + "</details>"
    links = latest.breakdown.get("bottleneck_links") or []
    if links:
        bottlenecks = (
            f"<p class=\"meta\">top bottleneck links of "
            f"{html.escape(latest.label)} {html.escape(latest.workload)} "
            "(queueing cycles attributed to measured tails)</p>"
        ) + html_table(
            ["link", "kind", "queue cycles", "stall cycles", "packets"],
            (
                [
                    Html(f"{entry.get('src')}&rarr;{entry.get('dst')}"),
                    str(entry.get("kind", "")),
                    *(float(entry.get(key, 0))
                      for key in ("queue_cycles", "stall_cycles", "packets")),
                ]
                for entry in links[:5]
            ),
        )
    else:
        bottlenecks = _empty("no congested links recorded for the latest breakdown run.")
    return f"<figure>{chart}</figure>{stage_table}{bottlenecks}"


def health_section(snap: Snapshot, max_runs: int = 8) -> str:
    """Per-run health panel for records carrying forensics summaries.

    One row per run recorded with ``--health``: anomaly flags, probe
    count, max in-flight packet age, and the oldest-packet-age series as
    a sparkline.  Runs that captured a postmortem bundle link its path.
    """
    from repro.viz import svg_sparkline

    records = [
        record
        for record in snap.records
        if record.forensics.get("health") or record.forensics.get("bundle")
    ][-max_runs:]
    if not records:
        return _empty(
            "no runs with health probes yet — record one with <code>repro "
            "simulate --health</code> (a captured postmortem bundle also lands here)."
        )
    rows = []
    for record in reversed(records):
        health = record.forensics.get("health") or {}
        flags = health.get("flags") or []
        # The series is stored as (cycle, age) pairs; the sparkline only
        # plots the ages (probe spacing is uniform anyway).
        ages = [
            float(point[1]) if isinstance(point, (list, tuple)) else float(point)
            for point in health.get("oldest_age_series") or []
        ]
        spark = Html(
            svg_sparkline(ages, title="oldest in-flight packet age")
            if ages
            else '<span class="empty">n/a</span>'
        )
        rows.append(
            [
                *_record_cells(record, "label", "workload"),
                _alarm(", ".join(flags)) if flags else "ok",
                health.get("probes", 0),
                health.get("max_oldest_age", 0),
                spark,
                _code(record.forensics.get("bundle")),
            ]
        )
    return html_table(
        ["created", "label", "workload", "anomalies", "probes", "max age",
         "oldest-age trend", "bundle"],
        rows,
    )


def determinism_section(
    snap: Snapshot,
    pins_path: Optional[str | Path] = None,
    max_runs: int = 8,
) -> str:
    """Determinism panel: the committed pin store + recent digested runs.

    One row per pin (case, horizon, final chain, whether ``repro golden
    check`` can re-simulate it from its own meta) and one per recent
    registry record that carries a digest block — the same fingerprints
    ``repro diff`` and ``repro golden check`` compare, so a glance shows
    which runs are covered by the differential oracle.
    """
    from .diff import missing_resim_keys
    from .pins import load

    parts = []
    try:
        pins = load(pins_path)
    except (ValueError, OSError) as exc:
        # No store yet is an empty state; an unreadable one an alarm row.
        css, what = (
            ("empty", "no pinned runs yet (<code>repro golden record</code> maintains them)")
            if isinstance(exc, FileNotFoundError)
            else ("alarm", "unreadable pin store")
        )
        parts.append(f'<p class="{css}">{what}: {html.escape(str(exc))}</p>')
    else:
        parts.append(
            html_table(
                ["pin", "cycles", "digest chain", "re-simulable"],
                (
                    [
                        case,
                        pin["digest"].get("cycles", math.nan),
                        _code(pin["digest"].get("final")),
                        "no" if missing_resim_keys(pin["digest"].get("meta")) else "yes",
                    ]
                    for case, pin in pins.items()
                ),
            )
        )
    digested = [record for record in snap.records if record.digest][-max_runs:]
    if digested:
        parts.append(
            '<p class="meta">recent digested runs '
            "(compare any two with <code>repro diff</code>)</p>"
            + html_table(
                ["created", "kind", "label", "workload", "events", "digest chain"],
                (
                    [
                        *_record_cells(record, "kind", "label", "workload"),
                        record.digest.get("events_total", math.nan),
                        _code(record.digest.get("final")),
                    ]
                    for record in reversed(digested)
                ),
            )
        )
    else:
        parts.append(
            _empty(
                "no digested runs in the registry yet — record one with "
                "<code>repro simulate --digest</code>."
            )
        )
    return "".join(parts)


def skipped_warning(snap: Snapshot) -> str:
    """Warning fragment for malformed registry lines ('' when clean)."""
    if not snap.skipped:
        return ""
    noun = "line" if snap.skipped == 1 else "lines"
    return (
        f'<p class="alarm">{snap.skipped} unreadable registry {noun} '
        f"skipped in {_code(snap.registry)} — "
        "inspect the file for corruption or foreign schema versions.</p>"
    )


def runs_section(snap: Snapshot) -> str:
    records = snap.records[-snap.top_runs :]
    if not records:
        return _empty(
            "no run records yet — every <code>repro run</code> / <code>repro "
            f"simulate</code> appends one to {_code(snap.registry)}."
        )
    return html_table(
        ["created", "kind", "label", "workload", "seed", "git", "config", "cyc/s",
         "avg latency"],
        (
            [
                *_record_cells(record, "kind", "label", "workload", "seed", "git_rev",
                               "config_hash"),
                record.cycles_per_second,
                record.stats.get("avg_latency", math.nan),
            ]
            for record in reversed(records)
        ),
    )


#: One page's sections, top to bottom: (heading, panel of the page's source).
Sections = Sequence[tuple[str, Callable[[Any], str]]]

#: The fleet page: the registry warning (no heading), then one panel each.
SECTIONS: Sections = (
    ("", skipped_warning),
    ("Paper figure: Fig 11 latency-load curves", fig11_section),
    ("Paper-vs-measured agreement", agreement_section),
    ("Performance", perf_section),
    ("Latency attribution", breakdown_section),
    ("Run health", health_section),
    ("Determinism", determinism_section),
    ("Recent runs", runs_section),
)


def render_sections(sections: Sections, source: Any) -> str:
    """A page's panels over its one source: each under its ``<h2>`` (none
    for an empty heading); a panel that renders '' drops out, heading too."""
    parts = ((title, panel(source)) for title, panel in sections)
    return "".join(f"<h2>{title}</h2>{body}" if title else body for title, body in parts if body)


def render_page(title: str, sections: Sections, source: Any, *, meta: str = "") -> str:
    """One page: ``title`` as heading, the ``meta`` line (HTML) and the
    sections over ``source``."""
    meta_line = f'<p class="meta">{meta}</p>' if meta else ""
    body = render_sections(sections, source)
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{PAGE_STYLE}</style></head>"
        f"<body class=\"viz-root\"><h1>{html.escape(title)}</h1>{meta_line}"
        f"<main>{body}</main></body></html>\n"
    )


def render_fleet(snap: Snapshot) -> str:
    """The fleet page over one snapshot."""
    scale = f"scale {snap.scale}" if snap.scale else "no figures"
    meta = (
        f"registry {html.escape(str(snap.runs_dir))} · "
        f"results {html.escape(str(snap.results_dir))} ({scale}) · generated "
        f"{html.escape(snap.generated)} @ {html.escape(git_revision())}"
    )
    return render_page("repro watch — fleet", SECTIONS, snap, meta=meta)


#: A table both forms print: column headers and rows of plain cell values.
Table = tuple[list[str], list[list[Any]]]


def text_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> list[str]:
    """Aligned, indented text lines of a table (none without rows): numeric
    columns right-aligned, the rest left-aligned."""
    if not rows:
        return []
    cells = [list(headers), *([str(cell) for cell in row] for row in rows)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    numeric = [all(isinstance(row[i], (int, float)) for row in rows) for i in range(len(headers))]
    return [
        "  " + "  ".join(
            cell.rjust(width) if right else cell.ljust(width)
            for cell, width, right in zip(row, widths, numeric)
        ).rstrip()
        for row in cells
    ]


def anomaly_table(anomalies: Sequence[dict[str, Any]]) -> Table:
    return ["cycle", "kind", "detail"], [[a["cycle"], a["kind"], a["detail"]] for a in anomalies]


def anomaly_panel(anomalies: Sequence[dict[str, Any]]) -> str:
    """Health anomalies as the postmortem page shows them ('' when none)."""
    headers, rows = anomaly_table(anomalies)
    return html_table(headers, ([c, _alarm(k), d] for c, k, d in rows)) if rows else ""


def _channel_index(bundle: dict[str, Any]) -> dict[int, dict[str, Any]]:
    return {entry["index"]: entry for entry in bundle["channels"]}


def _format_channel(channels: dict[int, dict[str, Any]], link: int, vc: int) -> str:
    info = channels.get(link)
    if info is None:
        return f"link {link} vc {vc}"
    return f"link {link} vc {vc} ({info['src']}->{info['dst']} {info['kind']})"


def blocked_table(bundle: dict[str, Any], limit: int = 20) -> Table:
    """The first ``limit`` blocked input VCs and the channels they wait on."""
    channels = _channel_index(bundle)
    return ["node", "port", "vc", "state", "pid", "age", "waiting on"], [
        [entry["node"], entry["port"], entry["vc"], entry["state"], entry["pid"], entry["age"],
         ", ".join(_format_channel(channels, want[1], want[2]) for want in entry["wants"][:3])]
        for entry in bundle["waitfor"]["blocked"][:limit]
    ]


def packet_table(bundle: dict[str, Any], limit: int) -> Table:
    """The ``limit`` oldest in-flight packets."""
    return ["pid", "route", "age", "flits", "stage"], [
        [entry["pid"], f"{entry['src']}->{entry['dst']}", entry["age"],
         entry["flits_in_network"], entry["stage"]]
        for entry in bundle["packets"]["table"][:limit]
    ]


def bundle_title(bundle: dict[str, Any]) -> str:
    return f"postmortem — {bundle['reason']} at cycle {bundle['cycle']}"


def bundle_summary(bundle: dict[str, Any]) -> str:
    """The exception and the network's size and load, one line."""
    net = bundle["network"]
    error = (
        f"{bundle.get('error_type')}: {bundle['error']}"
        if bundle.get("error") else "no exception recorded"
    )
    return (
        f"{error} · {net['n_nodes']} nodes, {net['n_links']} links · "
        f"{net['buffered_flits']} flits buffered, {net['in_flight_flits']} in flight"
    )


def health_line(health: dict[str, Any]) -> str:
    return (
        f"{health['probes']} epochs checked, {health['anomaly_count']} anomalies "
        f"(flags: {', '.join(health['flags']) or 'none'}), "
        f"max in-flight age {health['max_oldest_age']}"
    )


def recorder_line(recorder: dict[str, Any]) -> str:
    return (
        f"{recorder['events_recorded']} events retained "
        f"(window {recorder['window']} cycles, {recorder['dropped']} dropped)"
    )


def _more(total: int, shown: int) -> list[str]:
    return [f"  ... and {total - shown} more"] if total > shown else []


def render_bundle_text(bundle: dict[str, Any], *, tail: int = 20) -> str:
    """The human-readable postmortem report of one validated bundle."""
    channels = _channel_index(bundle)
    lines = [bundle_title(bundle), bundle_summary(bundle), ""]
    cycle = bundle["waitfor"]["cycle"]
    if cycle:
        lines.append(f"wait-for cycle ({len(cycle)} channels — deadlocked loop):")
        lines += [f"  {_format_channel(channels, link, vc)}" for link, vc in cycle]
    else:
        lines.append("wait-for cycle: none found (stall, not a resource deadlock)")
    blocked = bundle["waitfor"]["blocked"]
    if blocked:
        lines += ["", f"blocked input VCs ({len(blocked)}):",
                  *text_table(*blocked_table(bundle)), *_more(len(blocked), 20)]
    total = bundle["packets"]["total"]
    lines += ["", f"in-flight packets ({total}):",
              *text_table(*packet_table(bundle, 15)), *_more(total, 15)]
    health = bundle.get("health")
    if health:
        lines += ["", f"health: {health_line(health)}",
                  *text_table(*anomaly_table(health["anomalies"][:8]))]
    recorder = bundle.get("recorder")
    if recorder:
        lines += ["", f"flight recorder: {recorder_line(recorder)}",
                  *(f"  {event_line(event)}" for event in recorder["tail"][-tail:])]
    return "\n".join(lines)


def waitfor_panel(bundle: dict[str, Any]) -> str:
    """The wait-for graph, its deadlock loop in the alarm colour."""
    from repro.viz import svg_waitfor_graph

    channels = _channel_index(bundle)
    waitfor = bundle["waitfor"]
    edges = [(tuple(a), tuple(b)) for a, b in waitfor["edges"]]
    nodes = sorted({vertex for edge in edges for vertex in edge})
    if not nodes:
        return _empty("no blocked flits — nothing waits on anything.")
    labels = {}
    for vertex in nodes:
        tag, first, second = vertex
        if tag == "chan":
            info = channels.get(first)
            arrow = f"{info['src']}→{info['dst']}" if info else "?"
            labels[vertex] = f"L{first}v{second} {arrow}"
        else:
            labels[vertex] = f"inject n{first}v{second}"
    graph = svg_waitfor_graph(
        nodes, edges, cycle=[("chan", link, vc) for link, vc in waitfor["cycle"]],
        labels=labels, title="wait-for graph (blocked flits; red loop = deadlock cycle)",
    )
    return f"<figure>{graph}</figure>"


def occupancy_panel(bundle: dict[str, Any]) -> str:
    from repro.viz import svg_node_heatmap

    occupancy = {entry["node"]: entry["buffered"] for entry in bundle["routers"]}
    heatmap = svg_node_heatmap(
        occupancy, bundle["network"]["n_nodes"], title="buffered flits per router"
    )
    return f"<figure>{heatmap}</figure>"


def packets_panel(bundle: dict[str, Any]) -> str:
    table = packet_table(bundle, 40)
    return html_table(*table) if table[1] else _empty("no packets in flight.")


def health_panel(bundle: dict[str, Any]) -> str:
    health = bundle.get("health")
    if not health:
        return _empty("no health monitor was attached.")
    anomalies = anomaly_panel(health["anomalies"]) or _empty("no anomalies flagged.")
    return f'<p class="meta">{html.escape(health_line(health))}</p>{anomalies}'


def recorder_panel(bundle: dict[str, Any]) -> str:
    recorder = bundle.get("recorder")
    if not recorder or not recorder["tail"]:
        return _empty("no flight recorder was attached.")
    tail = "\n".join(event_line(event) for event in recorder["tail"])
    return (
        f'<p class="meta">{html.escape(recorder_line(recorder))}</p>'
        f"<pre>{html.escape(tail)}</pre>"
    )


#: The postmortem page: the five panels of one bundle.
POSTMORTEM_SECTIONS: Sections = (
    ("Wait-for graph", waitfor_panel),
    ("Router occupancy", occupancy_panel),
    ("In-flight packets", packets_panel),
    ("Health", health_panel),
    ("Flight recorder tail", recorder_panel),
)


def render_bundle_html(bundle: dict[str, Any]) -> str:
    """A self-contained HTML postmortem page for one validated bundle."""
    return render_page(bundle_title(bundle), POSTMORTEM_SECTIONS, bundle,
                       meta=html.escape(bundle_summary(bundle)))

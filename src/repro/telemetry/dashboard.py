"""The fleet page: one snapshot of the sources, one set of panels.

:class:`Snapshot` reads each source the page shows once — the run
registry (``runs/runs.jsonl``, leniently, counting skipped lines), the
live feeds under ``runs/live/`` (folded, the in-flight/stale split decided
once), the bench history (the stored ``BENCH_<n>.json`` files) and the
paper-figure CSVs.  Every panel is a function of it, and :data:`SECTIONS`
lists them in page order: runs in flight and failures, the Fig 11 curves
and the paper-vs-measured agreement (one scale for both), performance,
latency attribution, health, determinism and the recent runs.

:func:`render_fleet` renders that one list: ``repro watch`` serves it with
its SSE hook (:mod:`repro.telemetry.server`) and ``repro watch --once
--out FILE`` writes it script-free.  The page carries its own light/dark
palette as CSS custom properties (the chart SVGs reference
``var(--series-N)``), so it respects ``prefers-color-scheme`` without any
scripting.  The page shell (:data:`PAGE_STYLE`, :func:`render_page`,
:func:`html_table`) is shared with the postmortem page.

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
from .live import LIVE_SCHEMA_VERSION, feed_status, read_feed
from .progress import format_eta
from .runstore import RunRecord, RunStore, git_revision, utc_now_iso

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exps.common import ExperimentResult

    from .history import RunHistory


#: A running feed without new events for this long is stale, not in flight.
STALE_AFTER_SECONDS = 30.0

#: Figure scales, largest first: the page draws the first with a fig11 CSV.
SCALES = ("paper", "small", "tiny")


def feed_paths(runs_dir: Path) -> list[Path]:
    """The live feeds under ``runs_dir/live/``, most recently touched first."""
    live_dir = runs_dir / "live"
    if not live_dir.is_dir():
        return []
    return sorted(
        live_dir.glob("*.jsonl"), key=lambda path: path.stat().st_mtime, reverse=True
    )


class Snapshot:
    """One read of everything the fleet page shows.

    The registry is read on construction; the feeds, the bench history and
    the results CSVs on first use — each at most once — so the panels, the
    ``/api/runs`` document and the run page's badge answer from the same
    reads.  All reads are lenient: a line being appended to must not break
    the view.
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
    def live(self) -> list[dict[str, Any]]:
        """Folded status of every live feed, most recently touched first."""
        feeds = [(path, read_feed(path, strict=False)) for path in feed_paths(self.runs_dir)]
        return [dict(feed_status(events), feed=str(path)) for path, events in feeds if events]

    @cached_property
    def in_flight(self) -> list[str]:
        """Run ids of running feeds that wrote recently; other running feeds are stale."""
        return [
            status["run_id"]
            for status in self.live
            if status["state"] == "running"
            and (status["age_seconds"] or 0.0) <= STALE_AFTER_SECONDS
        ]

    @property
    def failures(self) -> list[dict[str, Any]]:
        return [status for status in self.live if status["state"] == "failed"]

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
    def fig11(self) -> Optional["ExperimentResult"]:
        from repro.exps.report import load_result

        return None if self.scale is None else load_result(
            self.results_dir / f"fig11_{self.scale}.csv"
        )

    @cached_property
    def agreement(self) -> Optional[str]:
        """``repro report``'s paper-vs-measured text at :attr:`scale`."""
        from repro.exps.report import summarize

        return None if self.scale is None else summarize(self.results_dir, self.scale)

    def digest_of(self, run_id: str) -> Optional[dict[str, Any]]:
        """The newest digest block the registry holds for ``run_id``."""
        return next(
            (r.digest for r in reversed(self.records) if r.run_id == run_id and r.digest), None
        )

    def to_dict(self) -> dict[str, Any]:
        """The ``/api/runs`` document (``repro watch --once`` prints it)."""
        return {
            "generated": self.generated,
            "schema_version": LIVE_SCHEMA_VERSION,
            "runs_dir": str(self.runs_dir),
            "records": len(self.records),
            "skipped": self.skipped,
            "in_flight": self.in_flight,
            "live": self.live,
            "failures": self.failures,
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


def fmt_value(value: Any) -> str:
    """One table cell: a float as :func:`fmt_metric`, anything else escaped."""
    if isinstance(value, float):
        return fmt_metric(value)
    return html.escape(str(value))


def html_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """``<table>`` markup from header and cell HTML (cells arrive rendered)."""
    head = "".join(f"<th>{header}</th>" for header in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>" for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _empty(text: str) -> str:
    return f'<p class="empty">{text}</p>'


def _code(value: Any) -> str:
    """A path or digest cell ('—' when absent)."""
    return f"<code>{html.escape(str(value))}</code>" if value else "—"


def _run_cells(status: dict[str, Any]) -> list[str]:
    """A live run's link / system / workload cells."""
    run_id = html.escape(status["run_id"])
    meta = status["meta"]
    return [
        f'<a href="/run/{run_id}">{run_id}</a>',
        html.escape(str(meta.get("system", ""))),
        html.escape(str(meta.get("workload", ""))),
    ]


def _record_cells(record: RunRecord, *fields: str) -> list[str]:
    """A registry record's leading cells: ``created`` then ``fields``."""
    return [html.escape(str(getattr(record, name))) for name in ("created", *fields)]


def progress_cells(status: dict[str, Any]) -> list[str]:
    """A live run's progress / cycle / cyc/s / eta table cells."""
    from repro.viz import svg_progress_bar

    cps = status["cps"]
    return [
        svg_progress_bar(status["fraction"], title="completion"),
        f"{fmt_value(status['cycle'])} / "
        f"{fmt_value(status['total_cycles'] or float('nan'))}",
        fmt_value(float(cps)) if cps else "n/a",
        format_eta(status["eta_seconds"]),
    ]


def in_flight_section(snap: Snapshot) -> str:
    running = [s for s in snap.live if s["state"] == "running"]
    if not running:
        return _empty("no runs in flight — start one with <code>repro simulate --live</code>.")
    return html_table(
        ["run", "system", "workload", "progress", "cycle", "cyc/s", "eta",
         "anomalies", "state"],
        (
            [
                *_run_cells(status),
                *progress_cells(status),
                str(len(status["anomalies"])),
                "running" if status["run_id"] in snap.in_flight
                else '<span class="alarm">stale</span>',
            ]
            for status in running
        ),
    )


def failures_section(snap: Snapshot) -> str:
    if not snap.failures:
        return _empty("no failed live runs.")
    return html_table(
        ["run", "system", "workload", "died at cycle", "reason",
         "postmortem bundle (<code>repro postmortem</code>)"],
        (
            [
                *_run_cells(status),
                fmt_value(status["cycle"]),
                f'<span class="alarm">{html.escape(str(status["reason"]))}</span>',
                _code(status["bundle"]),
            ]
            for status in snap.failures
        ),
    )


def _no_figures(snap: Snapshot) -> str:
    return _empty(
        f"no fig11 CSV in {_code(snap.results_dir)} — run the benchmark suite "
        "first (<code>pytest benchmarks/ --benchmark-only</code>) or point "
        "<code>--results-dir</code> at one."
    )


def fig11_section(snap: Snapshot) -> str:
    from repro.viz import svg_line_chart

    result = snap.fig11
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
    table = html_table(
        [html.escape(h) for h in result.headers],
        ([fmt_value(cell) for cell in row] for row in result.filtered(pattern=pattern)),
    )
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
    from repro.viz import svg_annotated_line, svg_stacked_bars

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
        return "<figure>" + svg_annotated_line(
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
        verdict = html.escape(r.verdict)
        if r.verdict == "regressed":
            verdict = f'<span class="alarm">{verdict}</span>'
        rows.append(
            [
                html.escape(r.case),
                html.escape(r.metric),
                str(r.finite_points),
                fmt_metric(r.baseline, r.unit),
                fmt_metric(r.latest, r.unit),
                verdict,
                html.escape(r.changepoint_key) if r.changepoint_key else "&mdash;",
                html.escape(r.culprit) if r.culprit else "&mdash;",
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
                html.escape(name),
                fmt_value(float(cell.get("mean", 0.0))),
                fmt_value(float(cell.get("p95", 0.0))),
                fmt_value(float(cell.get("p99", 0.0))),
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
                    f"{entry.get('src')}&rarr;{entry.get('dst')}",
                    html.escape(str(entry.get("kind", ""))),
                    fmt_value(float(entry.get("queue_cycles", 0))),
                    fmt_value(float(entry.get("stall_cycles", 0))),
                    fmt_value(float(entry.get("packets", 0))),
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
        flags_cell = (
            f'<span class="alarm">{html.escape(", ".join(flags))}</span>' if flags else "ok"
        )
        # The series is stored as (cycle, age) pairs; the sparkline only
        # plots the ages (probe spacing is uniform anyway).
        ages = [
            float(point[1]) if isinstance(point, (list, tuple)) else float(point)
            for point in health.get("oldest_age_series") or []
        ]
        spark = (
            svg_sparkline(ages, title="oldest in-flight packet age")
            if ages
            else '<span class="empty">n/a</span>'
        )
        rows.append(
            [
                *_record_cells(record, "label", "workload"),
                flags_cell,
                fmt_value(health.get("probes", 0)),
                fmt_value(health.get("max_oldest_age", 0)),
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
                        html.escape(case),
                        fmt_value(pin["digest"].get("cycles", math.nan)),
                        _code(pin["digest"].get("final")),
                        "no (built by tests)"
                        if missing_resim_keys(pin["digest"].get("meta"))
                        else "yes",
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
                        fmt_value(record.digest.get("events_total", math.nan)),
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
                fmt_value(record.cycles_per_second),
                fmt_value(record.stats.get("avg_latency", math.nan)),
            ]
            for record in reversed(records)
        ),
    )


#: The fleet page, top to bottom: (heading, panel).
SECTIONS: tuple[tuple[str, Callable[[Snapshot], str]], ...] = (
    ("Runs in flight", in_flight_section),
    ("Recent failures", failures_section),
    ("Paper figure: Fig 11 latency-load curves", fig11_section),
    ("Paper-vs-measured agreement", agreement_section),
    ("Performance", perf_section),
    ("Latency attribution", breakdown_section),
    ("Run health", health_section),
    ("Determinism", determinism_section),
    ("Recent runs", runs_section),
)


def fleet_fragment(snap: Snapshot) -> str:
    """Every panel of the fleet page (what ``repro watch`` re-pushes)."""
    return skipped_warning(snap) + "".join(
        f"<h2>{title}</h2>{panel(snap)}" for title, panel in SECTIONS
    )


def render_page(title: str, body: str) -> str:
    """Wrap rendered sections in the shared HTML page shell."""
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{PAGE_STYLE}</style></head>"
        f"<body class=\"viz-root\">{body}</body></html>\n"
    )


def render_fleet(snap: Snapshot, *, hook: str = "") -> str:
    """The fleet page; ``hook`` is the served page's SSE script (static: none)."""
    scale = f"scale {snap.scale}" if snap.scale else "no figures"
    body = (
        "<h1>repro watch — fleet</h1>"
        f'<p class="meta">registry {html.escape(str(snap.runs_dir))} · '
        f"results {html.escape(str(snap.results_dir))} ({scale}) · generated "
        f"{html.escape(snap.generated)} @ {html.escape(git_revision())}</p>"
        f'<main id="live">{fleet_fragment(snap)}</main>{hook}'
    )
    return render_page("repro watch — fleet", body)

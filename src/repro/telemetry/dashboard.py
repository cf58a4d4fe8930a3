"""Static paper-figure + perf dashboard (``repro dashboard``).

Renders one self-contained HTML page — zero third-party imports, inline
SVG via :func:`repro.viz.svg_line_chart` — with:

* the Fig 11 latency-vs-load curves from ``benchmarks/results/*.csv``;
* the paper-vs-measured agreement summary (``repro report``'s text);
* the performance panel over the one bench history (the stored
  ``BENCH_<n>.json`` files): per-workload flit-hops/s trajectory with
  changepoint marks, the latest ns-per-flit-hop phase split, the observer
  overhead and Table 3 fidelity trajectories, and the verdict table
  ``repro regress`` prints;
* the latency-attribution panel (stacked per-stage bars via
  :func:`repro.viz.svg_stacked_bars` + top-bottleneck-links table) for
  runs recorded with ``--latency-breakdown``;
* the per-run health panel (anomaly flags + oldest-packet-age
  sparklines via :func:`repro.viz.svg_sparkline`) for runs recorded
  with ``--health`` or ones that captured a postmortem bundle;
* the most recent entries of the ``runs/`` registry.

The page carries its own light/dark palette as CSS custom properties
(the chart SVGs reference ``var(--series-N)`` and ink/surface roles), so
it respects ``prefers-color-scheme`` without any scripting.

The registry-backed panel builders (:func:`perf_section`,
:func:`breakdown_section`, :func:`health_section`,
:func:`determinism_section`, :func:`runs_section`) and the page shell
(:data:`PAGE_STYLE`, :func:`render_page`, :func:`html_table`) are
public: the live fleet service (:mod:`repro.telemetry.server`, ``repro
watch``) and the postmortem page (:mod:`repro.telemetry.forensics`)
render through them instead of duplicating them, so the views cannot
drift apart.

Import note: simulator modules are imported inside functions only (see
the package initializer's import note).
"""

from __future__ import annotations

import html
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

from .compare import fmt_metric
from .runstore import RunRecord, RunStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exps.common import ExperimentResult


class DashboardError(ValueError):
    """The dashboard cannot be built (e.g. no benchmark results exist)."""


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


def _find_results_csv(results_dir: Path, artifact: str, scale: str) -> Optional[Path]:
    preferred = results_dir / f"{artifact}_{scale}.csv"
    if preferred.is_file():
        return preferred
    fallbacks = sorted(results_dir.glob(f"{artifact}_*.csv"))
    return fallbacks[0] if fallbacks else None


def _fig11_section(results_dir: Path, scale: str) -> str:
    from repro.exps.report import load_result
    from repro.viz import svg_line_chart

    path = _find_results_csv(results_dir, "fig11", scale)
    if path is None:
        return '<p class="empty">no fig11 CSV found — run the benchmark suite first.</p>'
    result = load_result(path)
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
        title=f"Fig 11 — avg latency vs injection rate ({pattern}, {path.name})",
        x_label="injection rate (flits/cycle/node)",
        y_label="avg latency (cycles)",
    )
    return f"<figure>{chart}</figure>" + _result_table(result, pattern)


def _result_table(result: "ExperimentResult", pattern: str) -> str:
    table = html_table(
        [html.escape(h) for h in result.headers],
        ([fmt_value(cell) for cell in row] for row in result.filtered(pattern=pattern)),
    )
    return f"<details><summary>data table</summary>{table}</details>"


def _agreement_section(results_dir: Path, scale: str) -> str:
    from repro.exps.report import summarize

    text = summarize(results_dir, scale)
    return f"<pre>{html.escape(text)}</pre>"


def perf_section(bench_dirs: Sequence[str | Path] = (".",)) -> str:
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
    from .history import load_history
    from .sentinel import analyze_history

    history = load_history(bench_dirs)
    if not history.series:
        return (
            '<p class="empty">no bench history yet — no BENCH_*.json files '
            "found; run <code>repro bench</code> first.</p>"
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
        bars = [
            (case, [phases.get((case, metric), 0.0) for metric in segments])
            for case in history.cases()
        ]
        figures.append(
            "<figure>"
            + svg_stacked_bars(
                bars,
                [metric[: -len(PHASE_SUFFIX)] for metric in segments],
                title="engine loop by pipeline phase (latest bench)",
                x_label="ns per flit-hop",
            )
            + "</figure>"
        )
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
        else '<p class="empty">no analyzable metrics in the bench history yet.</p>'
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


def breakdown_section(runs_dir: Path, max_bars: int = 4) -> str:
    """Stacked per-stage latency bars + bottleneck table from the registry."""
    from repro.viz import svg_stacked_bars

    from .attribution import STAGES

    store = RunStore(runs_dir)
    records = [
        record
        for record in store.load(strict=False)
        if record.breakdown.get("stages")
    ][-max_bars:]
    if not records:
        return (
            '<p class="empty">no runs with a latency breakdown yet — '
            "record one with <code>repro simulate --latency-breakdown"
            "</code>.</p>"
        )
    # Keep only stages that contribute somewhere, in canonical order.
    segments = [
        name
        for name in STAGES
        if any(
            record.breakdown["stages"].get(name, {}).get("total")
            for record in records
        )
    ] or list(STAGES)
    bars = []
    for record in records:
        label = f"{record.label} {record.workload} · {record.created[:10]}"
        stages = record.breakdown["stages"]
        bars.append(
            (label, [stages.get(name, {}).get("mean", 0.0) for name in segments])
        )
    chart = svg_stacked_bars(
        bars,
        segments,
        title="mean cycles per packet, attributed to pipeline stages",
        x_label="cycles",
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
        bottlenecks = (
            '<p class="empty">no congested links recorded for the latest '
            "breakdown run.</p>"
        )
    return f"<figure>{chart}</figure>{stage_table}{bottlenecks}"


def health_section(runs_dir: Path, max_runs: int = 8) -> str:
    """Per-run health panel for records carrying forensics summaries.

    One row per run recorded with ``--health``: anomaly flags, probe
    count, max in-flight packet age, and the oldest-packet-age series as
    a sparkline.  Runs that captured a postmortem bundle link its path.
    """
    from repro.viz import svg_sparkline

    store = RunStore(runs_dir)
    records = [
        record
        for record in store.load(strict=False)
        if record.forensics.get("health") or record.forensics.get("bundle")
    ][-max_runs:]
    if not records:
        return (
            '<p class="empty">no runs with health probes yet — record one '
            "with <code>repro simulate --health</code> (a captured "
            "postmortem bundle also lands here).</p>"
        )
    rows = []
    for record in reversed(records):
        health = record.forensics.get("health") or {}
        flags = health.get("flags") or []
        flags_cell = (
            '<span class="alarm">' + html.escape(", ".join(flags)) + "</span>"
            if flags
            else "ok"
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
        bundle = record.forensics.get("bundle")
        bundle_cell = (
            f"<code>{html.escape(str(bundle))}</code>" if bundle else "—"
        )
        rows.append(
            [
                html.escape(record.created),
                html.escape(record.label),
                html.escape(record.workload),
                flags_cell,
                fmt_value(health.get("probes", 0)),
                fmt_value(health.get("max_oldest_age", 0)),
                spark,
                bundle_cell,
            ]
        )
    return html_table(
        ["created", "label", "workload", "anomalies", "probes", "max age",
         "oldest-age trend", "bundle"],
        rows,
    )


def determinism_section(
    runs_dir: Path,
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
                        f"<code>{html.escape(str(pin['digest'].get('final')))}</code>",
                        "no (built by tests)"
                        if missing_resim_keys(pin["digest"].get("meta"))
                        else "yes",
                    ]
                    for case, pin in pins.items()
                ),
            )
        )
    store = RunStore(runs_dir)
    digested = [
        record for record in store.load(strict=False) if record.digest
    ][-max_runs:]
    if digested:
        parts.append(
            '<p class="meta">recent digested runs '
            "(compare any two with <code>repro diff</code>)</p>"
            + html_table(
                ["created", "kind", "label", "workload", "events", "digest chain"],
                (
                    [
                        html.escape(record.created),
                        html.escape(record.kind),
                        html.escape(record.label),
                        html.escape(record.workload),
                        fmt_value(record.digest.get("events_total", math.nan)),
                        f"<code>{html.escape(str(record.digest.get('final')))}</code>",
                    ]
                    for record in reversed(digested)
                ),
            )
        )
    else:
        parts.append(
            '<p class="empty">no digested runs in the registry yet — record '
            "one with <code>repro simulate --digest</code>.</p>"
        )
    return "".join(parts)


def skipped_warning(store: RunStore) -> str:
    """Warning fragment for malformed registry lines ('' when clean).

    Meaningful after a lenient read populated :attr:`RunStore.skipped`;
    both the static dashboard and the ``repro watch`` fleet view show it.
    """
    if not store.skipped:
        return ""
    noun = "line" if store.skipped == 1 else "lines"
    return (
        f'<p class="alarm">{store.skipped} unreadable registry {noun} '
        f"skipped in <code>{html.escape(str(store.path))}</code> — "
        "inspect the file for corruption or foreign schema versions.</p>"
    )


def runs_section(runs_dir: Path, top: int) -> str:
    store = RunStore(runs_dir)
    records: list[RunRecord] = store.latest(top, strict=False)
    warning = skipped_warning(store)
    if not records:
        return warning + (
            '<p class="empty">no run records yet — every '
            "<code>repro run</code> / <code>repro simulate</code> appends "
            f"one to <code>{html.escape(str(store.path))}</code>.</p>"
        )
    return warning + html_table(
        ["created", "kind", "label", "workload", "seed", "git", "config", "cyc/s",
         "avg latency"],
        (
            [
                html.escape(record.created),
                html.escape(record.kind),
                html.escape(record.label),
                html.escape(record.workload),
                html.escape(str(record.seed)),
                html.escape(record.git_rev),
                html.escape(record.config_hash),
                fmt_value(record.cycles_per_second),
                fmt_value(record.stats.get("avg_latency", math.nan)),
            ]
            for record in reversed(records)
        ),
    )


def render_page(title: str, body: str, *, head_extra: str = "") -> str:
    """Wrap rendered sections in the shared HTML page shell.

    ``head_extra`` lets the live server add its ``<meta>`` hints; the
    static dashboard passes nothing and stays script-free.
    """
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{PAGE_STYLE}</style>{head_extra}</head>"
        f"<body class=\"viz-root\">{body}</body></html>\n"
    )


def build_dashboard(
    results_dir: str | Path = "benchmarks/results",
    *,
    scale: str = "tiny",
    bench_dirs: Optional[list[str | Path]] = None,
    runs_dir: str | Path = "runs",
    top_runs: int = 20,
) -> str:
    """Build the dashboard HTML.

    Raises :class:`DashboardError` (not a traceback) when
    ``results_dir`` is missing or holds no CSVs — the paper-figure
    section is the page's reason to exist.
    """
    results_dir = Path(results_dir)
    if not results_dir.is_dir() or not any(results_dir.glob("*.csv")):
        raise DashboardError(
            f"no benchmark CSVs in {results_dir}/ — regenerate them with "
            "`pytest benchmarks/ --benchmark-only` (or point --results-dir "
            "at a directory that has them)"
        )
    from .runstore import git_revision, utc_now_iso

    dirs = [Path(d) for d in (bench_dirs if bench_dirs is not None else ["."])]
    sections = [
        f"<h1>repro — paper figures &amp; performance</h1>"
        f'<p class="meta">generated {html.escape(utc_now_iso())} @ '
        f"{html.escape(git_revision())} · scale {html.escape(scale)} · "
        f"results {html.escape(str(results_dir))}</p>",
        "<h2>Paper figure: Fig 11 latency-load curves</h2>",
        _fig11_section(results_dir, scale),
        "<h2>Paper-vs-measured agreement</h2>",
        _agreement_section(results_dir, scale),
        "<h2>Performance</h2>",
        perf_section(dirs),
        "<h2>Latency attribution</h2>",
        breakdown_section(Path(runs_dir)),
        "<h2>Run health</h2>",
        health_section(Path(runs_dir)),
        "<h2>Determinism</h2>",
        determinism_section(Path(runs_dir)),
        "<h2>Recent runs</h2>",
        runs_section(Path(runs_dir), top_runs),
    ]
    return render_page("repro dashboard", "".join(sections))


def write_dashboard(
    out_path: str | Path,
    results_dir: str | Path = "benchmarks/results",
    **kwargs: Any,
) -> Path:
    """Build and write the dashboard; returns the written path."""
    out_path = Path(out_path)
    html_text = build_dashboard(results_dir, **kwargs)
    if out_path.parent != Path():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(html_text, encoding="utf-8")
    return out_path

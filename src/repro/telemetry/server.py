"""Live fleet observability service (``repro watch``).

A stdlib-only HTTP service — :class:`http.server.ThreadingHTTPServer`,
no third-party dependencies — that tails the run registry
(``runs/runs.jsonl``) and the live feeds ``--live`` runs append under
``runs/live/`` (:mod:`repro.telemetry.live`), and serves:

* ``/`` — the fleet page: runs in flight with progress bars and ETAs,
  recent failures with their postmortem bundle paths, the performance
  panel (bench trajectory, ns-per-flit-hop phases, sentinel verdicts) and the
  recent-runs registry table —
  auto-updating via Server-Sent Events;
* ``/run/<run_id>`` — one run's live page (progress, epochs, anomalies);
* ``/api/runs`` — the fleet state as JSON;
* ``/api/live/<run_id>`` — one feed's folded status plus its raw events;
* ``/api/bench`` — the bench trajectory read off the ``BENCH_<n>.json`` files;
* ``/events`` and ``/events/<run_id>`` — the SSE streams behind the
  pages (``data:`` lines carrying re-rendered HTML fragments).

The HTML panels come from :mod:`repro.telemetry.dashboard`'s public
builders, so the live view and the static ``repro dashboard`` render the
registry identically.  Reads are stateless — every request re-reads the
registry and feeds — which keeps the service correct under concurrent
writers at fleet sizes where a JSONL scan per poll is cheap.

Import note: this module must stay free of ``repro.noc`` / ``repro.sim``
imports at module load (see the package initializer's import note); it
only reads files other processes write.
"""

from __future__ import annotations

import html
import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Optional, Sequence
from urllib.parse import urlparse

from .bench import THROUGHPUT, bench_files
from .compare import json_num

from .dashboard import (
    determinism_section,
    fmt_value,
    health_section,
    html_table,
    perf_section,
    render_page,
    runs_section,
    skipped_warning,
)
from .live import LIVE_SCHEMA_VERSION, feed_status, read_feed
from .progress import format_eta
from .runstore import RunStore, utc_now_iso

#: Default port of ``repro watch``.
DEFAULT_PORT = 8631

#: A feed without new events for this long is flagged stale in the view.
STALE_AFTER_SECONDS = 30.0


def _run_link(run_id: str) -> str:
    return f'<a href="/run/{html.escape(run_id)}">{html.escape(run_id)}</a>'


def _progress_cells(status: dict[str, Any]) -> list[str]:
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


def _sse_script(endpoint: str) -> str:
    """The page's auto-update hook: swap ``#live`` on every SSE message."""
    return (
        "<script>"
        f"const src = new EventSource({json.dumps(endpoint)});"
        "src.onmessage = (event) => {"
        "  const payload = JSON.parse(event.data);"
        "  document.getElementById('live').innerHTML = payload.html;"
        "};"
        "</script>"
    )


class WatchService:
    """Fleet state assembly + page rendering over one runs directory.

    Parameters
    ----------
    runs_dir:
        The run-registry directory (``runs.jsonl`` plus the ``live/``
        feed subdirectory live there).
    poll_seconds:
        SSE change-detection interval.
    top_runs:
        Rows in the recent-runs table.
    bench_dirs:
        Where the ``BENCH_<n>.json`` trajectory lives (the directory
        ``repro watch`` is started in, like ``repro dashboard``).
    """

    def __init__(
        self,
        runs_dir: str | Path = "runs",
        *,
        poll_seconds: float = 1.0,
        top_runs: int = 20,
        bench_dirs: Sequence[str | Path] = (".",),
    ) -> None:
        self.runs_dir = Path(runs_dir)
        self.bench_dirs = [Path(d) for d in bench_dirs]
        self.live_dir = self.runs_dir / "live"
        self.poll_seconds = poll_seconds
        self.top_runs = top_runs

    # -- state assembly ------------------------------------------------------
    def _feed_paths(self) -> list[Path]:
        if not self.live_dir.is_dir():
            return []
        return sorted(
            self.live_dir.glob("*.jsonl"),
            key=lambda path: path.stat().st_mtime,
            reverse=True,
        )

    def feed_statuses(self) -> list[dict[str, Any]]:
        """Folded status of every live feed, most recently touched first.

        Lenient reads: a feed being appended to mid-line must not break
        the fleet view.
        """
        statuses = []
        for path in self._feed_paths():
            events = read_feed(path, strict=False)
            if not events:
                continue
            status = feed_status(events)
            status["feed"] = str(path)
            statuses.append(status)
        return statuses

    def fleet_state(self) -> dict[str, Any]:
        """The ``/api/runs`` document: registry + live feeds, one view."""
        store = RunStore(self.runs_dir)
        records = store.load(strict=False)
        statuses = self.feed_statuses()
        failures = [status for status in statuses if status["state"] == "failed"]
        in_flight = [
            status
            for status in statuses
            if status["state"] == "running"
            and (status["age_seconds"] or 0.0) <= STALE_AFTER_SECONDS
        ]
        return {
            "generated": utc_now_iso(),
            "schema_version": LIVE_SCHEMA_VERSION,
            "runs_dir": str(self.runs_dir),
            "records": len(records),
            "skipped": store.skipped,
            "in_flight": [status["run_id"] for status in in_flight],
            "live": statuses,
            "failures": failures,
            "recent": [record.to_dict() for record in records[-self.top_runs :]],
        }

    def live_state(self, run_id: str) -> Optional[dict[str, Any]]:
        """The ``/api/live/<run_id>`` document (None: no such feed)."""
        path = self.live_dir / f"{run_id}.jsonl"
        if not path.is_file():
            return None
        events = read_feed(path, strict=False)
        status = feed_status(events)
        status["feed"] = str(path)
        return {"status": status, "events": events}

    def bench_state(self) -> dict[str, Any]:
        """The ``/api/bench`` document: per-workload trajectory from the bench files.

        Each point carries the throughput median and, under ``per_layer``,
        the host-time rows a chart wants beside it (the ns-per-flit-hop
        phases, the observer overheads, the Table 3 error).
        """
        from .history import load_history

        history = load_history(self.bench_dirs)
        workloads: dict[str, list[dict[str, Any]]] = {}
        for (case, metric), series in history.series.items():
            if case not in workloads:  # every series of a workload has the same points
                workloads[case] = [
                    {"file": p.key, "created": p.created, "git_rev": p.git_rev, "per_layer": {}}
                    for p in series.points
                ]
            if metric == THROUGHPUT or series.auxiliary:
                for point, value in zip(workloads[case], series.values):
                    row = point if metric == THROUGHPUT else point["per_layer"]
                    row[metric] = json_num(value)
        return {
            "generated": utc_now_iso(),
            "bench_dirs": [str(d) for d in self.bench_dirs],
            "bench_files": history.runs,
            "skipped": history.skipped,
            "workloads": workloads,
        }

    def registry_digest(self, run_id: str) -> Optional[dict[str, Any]]:
        """The registry record's digest block for a run id (None: none)."""
        store = RunStore(self.runs_dir)
        found: Optional[dict[str, Any]] = None
        for record in store.iter_records(strict=False):
            if record.run_id == run_id and record.digest:
                found = record.digest
        return found

    def change_stamp(self) -> tuple:
        """Cheap fingerprint of everything the pages render.

        The SSE loops re-render only when this changes: size/mtime of the
        registry file, every feed and every bench file.
        """
        entries = []
        registry = self.runs_dir / "runs.jsonl"
        benches = [path for d in self.bench_dirs for path in bench_files(d)]
        for path in [registry, *self._feed_paths(), *benches]:
            try:
                stat = path.stat()
                entries.append((str(path), stat.st_mtime_ns, stat.st_size))
            except OSError:
                continue
        return tuple(entries)

    # -- HTML rendering --------------------------------------------------------
    def _in_flight_section(self, statuses: list[dict[str, Any]]) -> str:
        live = [s for s in statuses if s["state"] == "running"]
        if not live:
            return (
                '<p class="empty">no runs in flight — start one with '
                "<code>repro simulate --live</code>.</p>"
            )
        rows = []
        for status in live:
            meta = status["meta"]
            stale = (status["age_seconds"] or 0.0) > STALE_AFTER_SECONDS
            state = '<span class="alarm">stale</span>' if stale else "running"
            rows.append(
                [
                    _run_link(status["run_id"]),
                    html.escape(str(meta.get("system", ""))),
                    html.escape(str(meta.get("workload", ""))),
                    *_progress_cells(status),
                    str(len(status["anomalies"])),
                    state,
                ]
            )
        return html_table(
            ["run", "system", "workload", "progress", "cycle", "cyc/s", "eta",
             "anomalies", "state"],
            rows,
        )

    def _failures_section(self, statuses: list[dict[str, Any]]) -> str:
        failed = [s for s in statuses if s["state"] == "failed"]
        if not failed:
            return '<p class="empty">no failed live runs.</p>'
        rows = []
        for status in failed:
            meta = status["meta"]
            bundle = status["bundle"]
            bundle_cell = (
                f"<code>{html.escape(str(bundle))}</code>" if bundle else "—"
            )
            rows.append(
                [
                    _run_link(status["run_id"]),
                    html.escape(str(meta.get("system", ""))),
                    html.escape(str(meta.get("workload", ""))),
                    fmt_value(status["cycle"]),
                    f'<span class="alarm">{html.escape(str(status["reason"]))}</span>',
                    bundle_cell,
                ]
            )
        return html_table(
            ["run", "system", "workload", "died at cycle", "reason",
             "postmortem bundle (<code>repro postmortem</code>)"],
            rows,
        )

    def fleet_fragment(self) -> str:
        """The fleet page's auto-updating inner HTML."""
        statuses = self.feed_statuses()
        store = RunStore(self.runs_dir)
        store.load(strict=False)  # populate .skipped for the warning
        sections = [
            skipped_warning(store),
            "<h2>Runs in flight</h2>",
            self._in_flight_section(statuses),
            "<h2>Recent failures</h2>",
            self._failures_section(statuses),
            "<h2>Performance</h2>",
            perf_section(self.bench_dirs),
            "<h2>Run health</h2>",
            health_section(self.runs_dir),
            "<h2>Determinism</h2>",
            determinism_section(self.runs_dir),
            "<h2>Recent runs</h2>",
            runs_section(self.runs_dir, self.top_runs),
        ]
        return "".join(sections)

    def fleet_page(self) -> str:
        body = (
            "<h1>repro watch — fleet</h1>"
            f'<p class="meta">registry {html.escape(str(self.runs_dir))} · '
            f"generated {html.escape(utc_now_iso())} · auto-updating</p>"
            f'<main id="live">{self.fleet_fragment()}</main>'
            f"{_sse_script('/events')}"
        )
        return render_page("repro watch — fleet", body)

    def _run_fragment(self, state: dict[str, Any]) -> str:
        from repro.viz import svg_sparkline

        status = state["status"]
        meta = status["meta"]
        parts = []
        if status["state"] == "failed":
            bundle = status["bundle"]
            hint = (
                f" — postmortem bundle <code>{html.escape(str(bundle))}</code>"
                if bundle
                else ""
            )
            parts.append(
                f'<p class="alarm">failed at cycle {fmt_value(status["cycle"])}: '
                f"{html.escape(str(status['reason']))}"
                f" ({html.escape(str(status['error']))}){hint}</p>"
            )
        elif status["state"] == "finished":
            parts.append(
                f'<p class="meta">finished at cycle {fmt_value(status["cycle"])} '
                f"in {fmt_value(float(status['wall_seconds'] or 0.0))} s</p>"
            )
        parts.append(self._determinism_badge(status))
        parts.append(
            html_table(
                ["progress", "cycle", "cyc/s", "eta", "delivered", "epochs"],
                [
                    [
                        *_progress_cells(status),
                        fmt_value(float(status["delivered_fraction"] or float("nan"))),
                        fmt_value(status["epochs"]),
                    ]
                ],
            )
        )
        if status["anomalies"]:
            parts.append(
                "<h2>Anomalies</h2>"
                + html_table(
                    ["cycle", "kind", "detail"],
                    (
                        [
                            fmt_value(anomaly.get("cycle")),
                            '<span class="alarm">'
                            f"{html.escape(str(anomaly.get('kind')))}</span>",
                            html.escape(str(anomaly.get("detail"))),
                        ]
                        for anomaly in status["anomalies"]
                    ),
                )
            )
        epochs = [e["epoch"] for e in state["events"] if e.get("kind") == "epoch"]
        if epochs:
            delivered = [float(e.get("packets_delivered", 0)) for e in epochs]
            in_network = [float(e.get("buffered", 0) + e.get("in_flight", 0)) for e in epochs]
            parts.append("<h2>Per-epoch delivery</h2>")
            for title, values in (
                ("packets delivered per epoch", delivered),
                ("flits in the network at each epoch close", in_network),
            ):
                svg = svg_sparkline(values, width=360, height=48, title=title)
                parts.append(f"<figure>{svg}</figure>")
            parts.append(
                "<details><summary>latest epochs</summary>"
                + html_table(
                    ["epoch", "cycles", "injected", "delivered", "buffered",
                     "in flight"],
                    (
                        [
                            fmt_value(e.get("index")),
                            f"{fmt_value(e.get('start'))}–{fmt_value(e.get('end'))}",
                            fmt_value(e.get("flits_injected")),
                            fmt_value(e.get("packets_delivered")),
                            fmt_value(e.get("buffered")),
                            fmt_value(e.get("in_flight")),
                        ]
                        for e in epochs[-12:]
                    ),
                )
                + "</details>"
            )
        if status["state"] == "finished" and status["stats"]:
            parts.append(
                "<details><summary>final stats</summary>"
                + html_table(
                    ["stat", "value"],
                    (
                        [html.escape(str(key)), fmt_value(value)]
                        for key, value in sorted(status["stats"].items())
                    ),
                )
                + "</details>"
            )
        _ = meta  # rendered in the page header
        return "".join(parts)

    def _determinism_badge(self, status: dict[str, Any]) -> str:
        """The run page's determinism badge.

        Cross-checks the live feed's final digest chain against the run's
        registry record; feeds without a digest (plain runs, old feeds)
        get a muted "no digest" badge rather than nothing, so the
        reproducibility affordance is always visible.
        """
        live_digest = status.get("digest") or {}
        final = live_digest.get("final")
        registry = self.registry_digest(str(status.get("run_id", "")))
        registry_final = (registry or {}).get("final")
        if not final and not registry_final:
            return (
                '<p class="meta">determinism: no digest — re-run with '
                "<code>repro simulate --digest --live</code>.</p>"
            )
        shown = final or registry_final
        if final and registry_final:
            if final == registry_final:
                verdict = "digest match (feed = registry)"
                css = "meta"
            else:
                verdict = (
                    f"DIGEST MISMATCH — registry says "
                    f"{html.escape(str(registry_final))}"
                )
                css = "alarm"
        else:
            where = "live feed" if final else "registry"
            verdict = f"digest present ({where} only)"
            css = "meta"
        return (
            f'<p class="{css}">determinism: {verdict} · '
            f"<code>{html.escape(str(shown))}</code></p>"
        )

    def run_page(self, run_id: str) -> Optional[str]:
        state = self.live_state(run_id)
        if state is None:
            return None
        meta = state["status"]["meta"]
        body = (
            f"<h1>repro watch — run {html.escape(run_id)}</h1>"
            f'<p class="meta">{html.escape(str(meta.get("system", "?")))} · '
            f"{html.escape(str(meta.get('workload', '?')))} · "
            f"policy {html.escape(str(meta.get('policy', '?')))} · "
            f"seed {html.escape(str(meta.get('seed', '—')))} · "
            f'<a href="/">back to fleet</a></p>'
            f'<main id="live">{self._run_fragment(state)}</main>'
            f"{_sse_script(f'/events/{run_id}')}"
        )
        return render_page(f"repro watch — {run_id}", body)

    def run_fragment(self, run_id: str) -> Optional[str]:
        state = self.live_state(run_id)
        if state is None:
            return None
        return self._run_fragment(state)


class WatchHandler(BaseHTTPRequestHandler):
    """Routes one runs directory's state; quiet except for errors."""

    #: Injected by :func:`make_server`.
    service: WatchService
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # per-request logging would drown the terminal at 1 Hz SSE

    # -- response helpers ------------------------------------------------------
    def _respond(self, body: bytes, content_type: str, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _json(self, document: Any, status: int = 200) -> None:
        body = json.dumps(document, indent=1, sort_keys=True).encode("utf-8")
        self._respond(body, "application/json; charset=utf-8", status)

    def _page(self, text: Optional[str]) -> None:
        if text is None:
            self._not_found()
            return
        self._respond(text.encode("utf-8"), "text/html; charset=utf-8")

    def _not_found(self) -> None:
        self._json({"error": "not found", "path": self.path}, status=404)

    def _sse(self, render: Callable[[], Optional[str]]) -> None:
        """Push ``{"html": ...}`` data events whenever the state changes."""
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        service = self.service
        last_stamp: Optional[tuple] = None
        try:
            while True:
                stamp = service.change_stamp()
                if stamp != last_stamp:
                    last_stamp = stamp
                    fragment = render()
                    if fragment is None:
                        return
                    payload = json.dumps({"html": fragment})
                    self.wfile.write(f"data: {payload}\n\n".encode("utf-8"))
                    self.wfile.flush()
                time.sleep(service.poll_seconds)
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client went away; the daemon thread just ends

    # -- routing ---------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.service
        path = urlparse(self.path).path.rstrip("/") or "/"
        try:
            if path == "/":
                self._page(service.fleet_page())
            elif path == "/api/runs":
                self._json(service.fleet_state())
            elif path == "/api/bench":
                self._json(service.bench_state())
            elif path.startswith("/api/live/"):
                state = service.live_state(path.removeprefix("/api/live/"))
                self._json(state) if state is not None else self._not_found()
            elif path.startswith("/run/"):
                self._page(service.run_page(path.removeprefix("/run/")))
            elif path == "/events":
                self._sse(service.fleet_fragment)
            elif path.startswith("/events/"):
                run_id = path.removeprefix("/events/")
                self._sse(lambda: service.run_fragment(run_id))
            else:
                self._not_found()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client disconnected mid-response


def make_server(
    service: WatchService, *, host: str = "127.0.0.1", port: int = DEFAULT_PORT
) -> ThreadingHTTPServer:
    """Bind the watch service (``port=0`` picks a free port, for tests)."""
    handler = type("BoundWatchHandler", (WatchHandler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True  # SSE pollers must not block shutdown
    return server


def serve(
    runs_dir: str | Path = "runs",
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    poll_seconds: float = 1.0,
    top_runs: int = 20,
) -> None:
    """Run ``repro watch`` until interrupted."""
    service = WatchService(
        runs_dir, poll_seconds=poll_seconds, top_runs=top_runs
    )
    server = make_server(service, host=host, port=port)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro watch: serving http://{bound_host}:{bound_port}/ "
          f"over {service.runs_dir} (Ctrl-C to stop)")
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()

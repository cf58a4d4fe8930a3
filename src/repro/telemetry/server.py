"""Live fleet observability service (``repro watch``).

A stdlib-only HTTP service — :class:`http.server.ThreadingHTTPServer`,
no third-party dependencies — that tails the run registry
(``runs/runs.jsonl``), the live feeds ``--live`` runs append under
``runs/live/`` (:mod:`repro.telemetry.live`), the bench history and the
paper-figure CSVs, and serves:

* ``/`` — the fleet page (:func:`repro.telemetry.dashboard.render_fleet`:
  runs in flight, recent failures, the paper figures and agreement, the
  performance, latency-attribution, health and determinism panels and the
  recent-runs table), auto-updating via Server-Sent Events;
* ``/run/<run_id>`` — one run's live page (status, determinism badge,
  progress, anomalies, epochs, final stats);
* ``/api/runs`` — the fleet state as JSON;
* ``/api/live/<run_id>`` — one feed's folded status plus its raw events;
* ``/api/bench`` — the bench trajectory read off the ``BENCH_<n>.json`` files;
* ``/events`` and ``/events/<run_id>`` — the SSE streams behind the
  pages (``data:`` lines carrying re-rendered HTML fragments).

Both pages are section lists of :mod:`repro.telemetry.dashboard` rendered
by its one :func:`~repro.telemetry.dashboard.render_sections` function; this
module holds only HTTP, SSE, feed lookup and the JSON documents.  Every
render starts from one :class:`~repro.telemetry.dashboard.Snapshot`,
which reads each source once.  Reads are stateless — every request takes a
new snapshot — which keeps the service correct under concurrent writers at
fleet sizes where a JSONL scan per poll is cheap.

Import note: this module must stay free of ``repro.noc`` / ``repro.sim``
imports at module load (see the package initializer's import note); it
only reads files other processes write.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Optional, Sequence
from urllib.parse import urlparse

from .bench import THROUGHPUT, bench_files
from .compare import json_num
from .dashboard import (
    RUN_SECTIONS,
    SECTIONS,
    RunView,
    Snapshot,
    feed_paths,
    render_fleet,
    render_page,
    render_sections,
)
from .live import feed_status, read_feed
from .runstore import utc_now_iso

#: Default port of ``repro watch``.
DEFAULT_PORT = 8631


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
    """Snapshots and pages over one runs directory (``runs.jsonl`` plus the
    ``live/`` feeds), the ``BENCH_<n>.json`` files of ``bench_dirs`` and the
    figure CSVs of ``results_dir``; ``poll_seconds`` is the SSE
    change-detection interval."""

    def __init__(
        self,
        runs_dir: str | Path = "runs",
        *,
        poll_seconds: float = 1.0,
        top_runs: int = 20,
        bench_dirs: Sequence[str | Path] = (".",),
        results_dir: str | Path = "benchmarks/results",
    ) -> None:
        self.runs_dir = Path(runs_dir)
        self.bench_dirs = [Path(d) for d in bench_dirs]
        self.results_dir = Path(results_dir)
        self.poll_seconds = poll_seconds
        self.top_runs = top_runs

    # -- state assembly ------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """One read of every source the pages render."""
        return Snapshot(
            self.runs_dir,
            bench_dirs=self.bench_dirs,
            results_dir=self.results_dir,
            top_runs=self.top_runs,
        )

    def fleet_state(self) -> dict[str, Any]:
        """The ``/api/runs`` document: registry + live feeds, one view."""
        return self.snapshot().to_dict()

    def feed_path(self, run_id: str) -> Optional[Path]:
        """The live feed ``run_id`` names; None unless the id is a plain name
        (no path separator, no leading dot) of an existing feed."""
        if not run_id or run_id.startswith(".") or "/" in run_id or "\\" in run_id:
            return None
        path = self.runs_dir / "live" / f"{run_id}.jsonl"
        return path if path.is_file() else None

    def live_state(self, run_id: str) -> Optional[dict[str, Any]]:
        """The ``/api/live/<run_id>`` document (None: no such feed)."""
        path = self.feed_path(run_id)
        if path is None:
            return None
        events = read_feed(path, strict=False)
        return {"status": dict(feed_status(events), feed=str(path)), "events": events}

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

    def change_stamp(self) -> tuple:
        """Cheap fingerprint of everything the pages render.

        The SSE loops re-render only when this changes: size/mtime of the
        registry file, every feed, every bench file and every results CSV.
        """
        entries = []
        registry = self.runs_dir / "runs.jsonl"
        benches = [path for d in self.bench_dirs for path in bench_files(d)]
        csvs = sorted(self.results_dir.glob("*.csv"))
        for path in [registry, *feed_paths(self.runs_dir), *benches, *csvs]:
            try:
                stat = path.stat()
                entries.append((str(path), stat.st_mtime_ns, stat.st_size))
            except OSError:
                continue
        return tuple(entries)

    # -- HTML rendering --------------------------------------------------------
    def fleet_page(self) -> str:
        """The served fleet page: the one page plus its SSE hook."""
        return render_fleet(self.snapshot(), hook=_sse_script("/events"))

    def run_view(self, run_id: str) -> Optional[RunView]:
        """The run page's source (None: no such feed)."""
        state = self.live_state(run_id)
        if state is None:
            return None
        return RunView(state["status"], state["events"], self.snapshot())

    def run_fragment(self, run_id: str) -> Optional[str]:
        """One run's live view (None: no such feed)."""
        view = self.run_view(run_id)
        return None if view is None else render_sections(RUN_SECTIONS, view)

    def run_page(self, run_id: str) -> Optional[str]:
        view = self.run_view(run_id)
        if view is None:
            return None
        title, hook = f"repro watch — run {run_id}", _sse_script(f"/events/{run_id}")
        return render_page(title, RUN_SECTIONS, view, hook=hook)


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
                self._sse(lambda: render_sections(SECTIONS, service.snapshot()))
            elif path.startswith("/events/"):
                run_id = path.removeprefix("/events/")
                if service.feed_path(run_id) is None:
                    self._not_found()
                else:
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


def serve(service: WatchService, *, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
    """Run ``repro watch`` until interrupted."""
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

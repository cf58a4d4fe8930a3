"""Tests for the fleet observability service (``repro.telemetry.server``)."""

import http.client
import json
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.telemetry import LIVE_SCHEMA_VERSION
from repro.telemetry.runstore import RunStore
from repro.telemetry.dashboard import SECTIONS, STALE_AFTER_SECONDS, render_fleet, render_sections
from repro.telemetry.server import WatchService, make_server

from .helpers import build_chain, run_cycles
from .test_bench_compare import make_bench_doc, make_case, write_bench
from .test_runstore import make_record


REPO = Path(__file__).resolve().parents[1]


def watch(runs_dir, **kwargs):
    """The service over ``runs_dir``, its bench trajectory in ``runs_dir/../bench``
    and its figure CSVs in ``runs_dir/../results`` (the defaults, under the
    working directory, hold the repo's own files)."""
    return WatchService(
        runs_dir,
        bench_dirs=[runs_dir.parent / "bench"],
        results_dir=runs_dir.parent / "results",
        **kwargs,
    )


def seed_runs_dir(tmp_path, *, finish=True, fail=False):
    """A runs directory with one registry record and one live feed."""
    from repro.telemetry import EpochMetrics, EtaEstimator, LiveFeed

    runs_dir = tmp_path / "runs"
    store = RunStore(runs_dir)
    record = make_record(run_id="watchrun00001")
    store.append(record)
    network, _stats = build_chain(3)
    feed = LiveFeed(
        network,
        run_id="watchrun00001",
        directory=runs_dir / "live",
        eta=EtaEstimator(40),
    )
    EpochMetrics(network, epoch_length=10, readers=[feed.on_epoch])
    feed.start({"system": "chain", "workload": "unit", "policy": "balanced"})
    run_cycles(network, 20)
    if fail:
        feed.fail("deadlock", 20, error="DeadlockError: wedged", bundle="B.json")
    elif finish:
        run_cycles(network, 20, start=20)
        feed.finish(40)
    else:
        feed.close()  # leave the feed mid-run: an in-flight view
    return runs_dir


# -- state assembly -----------------------------------------------------------
def test_fleet_state_joins_registry_and_feeds(tmp_path):
    runs_dir = seed_runs_dir(tmp_path)
    state = watch(runs_dir).fleet_state()
    assert state["schema_version"] == LIVE_SCHEMA_VERSION
    assert state["records"] == 1
    assert state["skipped"] == 0
    assert state["in_flight"] == []  # the run finished
    [status] = state["live"]
    assert status["run_id"] == "watchrun00001"
    assert status["state"] == "finished"
    assert state["failures"] == []
    [recent] = state["recent"]
    assert recent["run_id"] == "watchrun00001"


def test_fleet_state_counts_skipped_registry_lines(tmp_path):
    runs_dir = seed_runs_dir(tmp_path)
    with (runs_dir / "runs.jsonl").open("a", encoding="utf-8") as handle:
        handle.write("{corrupt\n")
    state = watch(runs_dir).fleet_state()
    assert state["records"] == 1
    assert state["skipped"] == 1


def test_fleet_state_tracks_in_flight_and_failures(tmp_path):
    running_dir = seed_runs_dir(tmp_path / "a", finish=False)
    state = watch(running_dir).fleet_state()
    assert state["in_flight"] == ["watchrun00001"]
    [status] = state["live"]
    assert status["state"] == "running"
    assert status["age_seconds"] < STALE_AFTER_SECONDS

    failed_dir = seed_runs_dir(tmp_path / "b", fail=True)
    state = watch(failed_dir).fleet_state()
    assert state["in_flight"] == []
    [failure] = state["failures"]
    assert failure["reason"] == "deadlock"
    assert failure["bundle"] == "B.json"


def test_live_state_returns_events_or_none(tmp_path):
    runs_dir = seed_runs_dir(tmp_path)
    service = watch(runs_dir)
    state = service.live_state("watchrun00001")
    assert state["status"]["state"] == "finished"
    assert state["events"][0]["kind"] == "start"
    assert service.live_state("no-such-run") is None


def test_bench_state_extracts_trajectory(tmp_path):
    runs_dir = tmp_path / "runs"
    RunStore(runs_dir).append(make_record())  # the registry is not the bench view's source
    layers = {"noc.router.sa_st_ns_per_flit_hop": 600.0, "telemetry.overhead.digest": 0.3,
              "exps.table3_abs_err_pp": 21.7, "cli.import_s": 0.2}
    doc = make_bench_doc(uniform_torus=make_case(hops=410_000.0, layers=layers))
    write_bench(doc, tmp_path / "bench")
    (tmp_path / "bench" / "BENCH_1.json").write_text("{corrupt")
    state = watch(runs_dir).bench_state()
    assert state["bench_files"] == 1 and state["skipped"] == 1
    [point] = state["workloads"]["uniform_torus"]
    assert (point["file"], point["git_rev"]) == ("BENCH_0.json", "cafef00d")
    assert point["flit_hops_per_s"] == 410_000.0
    # Beside it, the host-time rows (never the counts); those the block lacks are null.
    assert layers.items() <= point["per_layer"].items()
    assert "noc.router.flit_hops" not in point["per_layer"]
    json.dumps(state)


def test_change_stamp_moves_with_the_files(tmp_path):
    from .test_dashboard import write_fig11_csv

    runs_dir = seed_runs_dir(tmp_path)
    write_fig11_csv(tmp_path / "results")
    service = watch(runs_dir)
    first = service.change_stamp()
    assert first == service.change_stamp()  # stable when nothing changed
    store = RunStore(runs_dir)
    store.append(make_record(label="another"))
    second = service.change_stamp()
    assert second != first
    # The figure panels are live too: a rewritten results CSV re-renders.
    csv = tmp_path / "results" / "fig11_tiny.csv"
    csv.write_text(csv.read_text() + "uniform,serial-torus,0.05,31.0,0.98\n")
    assert service.change_stamp() != second


def test_one_registry_read_per_render(tmp_path, monkeypatch):
    from .test_dashboard import write_fig11_csv

    runs_dir = seed_runs_dir(tmp_path)
    write_fig11_csv(tmp_path / "results")
    reads = []
    iter_records = RunStore.iter_records

    def counting(self, **kwargs):
        reads.append(self.path)
        return iter_records(self, **kwargs)

    monkeypatch.setattr(RunStore, "iter_records", counting)
    service = watch(runs_dir)
    page = render_fleet(service.snapshot())
    assert "Fig 11" in page and "Recent runs" in page  # every panel rendered
    assert len(reads) == 1
    service.fleet_state()
    assert len(reads) == 2
    service.run_page("watchrun00001")  # the badge answers from the snapshot too
    assert len(reads) == 3


def test_each_results_csv_is_read_once_per_render(tmp_path, monkeypatch):
    import shutil

    from repro.exps import report

    runs_dir = seed_runs_dir(tmp_path)
    results = tmp_path / "results"
    results.mkdir()
    for artifact in report.ARTIFACTS:  # the repo's own tiny-scale CSVs
        shutil.copy(REPO / "benchmarks" / "results" / f"{artifact}_tiny.csv", results)
    loads = []
    load_result = report.load_result
    monkeypatch.setattr(report, "load_result", lambda path: loads.append(path) or load_result(path))
    page = render_fleet(watch(runs_dir).snapshot())
    assert "Fig 11" in page and "fig17 / hetero-channel" in page  # both figure panels
    assert sorted(path.stem for path in loads) == sorted(f"{a}_tiny" for a in report.ARTIFACTS)


# -- page rendering -----------------------------------------------------------
def test_fleet_page_renders_sections_and_sse_hook(tmp_path):
    runs_dir = seed_runs_dir(tmp_path, finish=False)
    page = watch(runs_dir).fleet_page()
    assert page.startswith("<!DOCTYPE html>")
    assert "Runs in flight" in page
    assert "watchrun00001" in page
    assert "<svg" in page  # the progress bar
    assert "EventSource" in page and "/events" in page


def test_fleet_fragment_includes_sentinel_panel(tmp_path):
    runs_dir = seed_runs_dir(tmp_path)
    service = watch(runs_dir)
    fragment = render_sections(SECTIONS, service.snapshot())
    assert fragment.count("<h2>Performance</h2>") == 1
    # No bench file so far: the one placeholder, no charts.
    assert fragment.count("no bench history yet") == 1

    stamp = service.change_stamp()
    for hops in (400_000.0, 440_000.0):
        write_bench(make_bench_doc(fig11_cli_tiny=make_case(hops=hops)), tmp_path / "bench")
    assert service.change_stamp() != stamp  # a new bench file re-renders the page
    fragment = render_sections(SECTIONS, service.snapshot())
    assert "fig11_cli_tiny: throughput trajectory" in fragment
    assert "repro regress" in fragment  # the verdict table's caption
    assert "no bench history yet" not in fragment


def test_fleet_page_warns_about_skipped_registry_lines(tmp_path):
    runs_dir = seed_runs_dir(tmp_path)
    (runs_dir / "runs.jsonl").open("a").write("{corrupt\n")
    fragment = render_sections(SECTIONS, watch(runs_dir).snapshot())
    assert fragment.count("unreadable registry line") == 1


def test_run_page_renders_epochs_and_failure_banner(tmp_path):
    runs_dir = seed_runs_dir(tmp_path, fail=True)
    service = watch(runs_dir)
    page = service.run_page("watchrun00001")
    assert page.count("<polyline") == 2  # both sparklines, from the epoch events
    assert "failed at cycle" in page
    assert "deadlock" in page
    assert "B.json" in page
    assert service.run_page("no-such-run") is None
    assert service.run_fragment("no-such-run") is None


def test_pages_skip_mistyped_feed_lines(tmp_path):
    """A feed line whose envelope is valid but whose payload is mistyped is
    skipped like a truncated one: the fleet page and the run page render."""
    runs_dir = seed_runs_dir(tmp_path, finish=False)
    path = runs_dir / "live" / "watchrun00001.jsonl"
    start, epoch = (json.loads(line) for line in path.read_text().splitlines()[:2])
    with path.open("a", encoding="utf-8") as handle:
        for event in (dict(epoch, cps="fast"), dict(start, meta=[1, 2]), dict(epoch, epoch=None)):
            handle.write(json.dumps(event) + "\n")
    service = watch(runs_dir)
    page = render_fleet(service.snapshot())
    assert "Runs in flight" in page and "watchrun00001" in page
    run_page = service.run_page("watchrun00001")
    assert run_page.count("<polyline") == 2  # the two well-typed epochs still chart
    assert "watchrun00001" in render_sections(SECTIONS, service.snapshot())


# -- the HTTP service ---------------------------------------------------------
@pytest.fixture
def watch_server(tmp_path):
    runs_dir = seed_runs_dir(tmp_path)
    service = watch(runs_dir, poll_seconds=0.05)
    server = make_server(service, port=0)  # free port
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def fetch(base, path):
    with urllib.request.urlopen(f"{base}{path}", timeout=10) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def test_http_json_endpoints(watch_server):
    status, content_type, body = fetch(watch_server, "/api/runs")
    assert status == 200
    assert content_type == "application/json; charset=utf-8"
    document = json.loads(body)
    assert document["records"] == 1

    status, _, body = fetch(watch_server, "/api/live/watchrun00001")
    assert status == 200
    assert json.loads(body)["status"]["state"] == "finished"

    status, _, body = fetch(watch_server, "/api/bench")
    assert status == 200
    assert json.loads(body)["bench_files"] == 0


def test_http_pages(watch_server):
    status, content_type, body = fetch(watch_server, "/")
    assert status == 200
    assert content_type == "text/html; charset=utf-8"
    assert b"repro watch" in body

    status, _, body = fetch(watch_server, "/run/watchrun00001")
    assert status == 200
    assert b"finished at cycle" in body


def test_http_unknown_paths_return_404(watch_server):
    host, port = watch_server.removeprefix("http://").split(":")
    # Sent raw: a run id that walks out of runs/live/ (onto the registry
    # itself) or hides behind a leading dot names no feed.
    for path in ("/api/live/nope", "/run/nope", "/events/nope", "/nope",
                 "/api/live/../runs", "/run/../runs", "/events/../runs",
                 "/api/live/..%2Fruns", "/run/.hidden"):
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            assert response.status == 404, path
            assert json.loads(response.read())["error"] == "not found"
        finally:
            connection.close()


def test_sse_stream_pushes_rendered_fragment(watch_server):
    host, port = watch_server.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        connection.request("GET", "/events")
        response = connection.getresponse()
        assert response.status == 200
        assert response.headers.get("Content-Type") == "text/event-stream"
        line = response.fp.readline().decode("utf-8")
        assert line.startswith("data: ")
        payload = json.loads(line[len("data: "):])
        assert "Runs in flight" in payload["html"]
    finally:
        connection.close()

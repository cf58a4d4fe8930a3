"""Tests for the fleet page's panels (``repro.telemetry.dashboard``), on the
static page ``repro watch --once --out`` writes."""

from repro.exps.common import ExperimentResult
from repro.telemetry.dashboard import Snapshot, render_fleet
from repro.telemetry.runstore import RunStore

from .test_bench_compare import make_bench_doc, make_case, write_bench
from .test_runstore import make_record


def write_fig11_csv(results_dir, scale="tiny"):
    results_dir.mkdir(parents=True, exist_ok=True)
    result = ExperimentResult(
        "fig11", "t", ("pattern", "network", "rate", "avg_latency", "delivered")
    )
    for network, base in (("parallel-mesh", 20.0), ("hetero-phy-full", 18.0)):
        for rate in (0.05, 0.15, 0.25):
            result.add("uniform", network, rate, base + 100 * rate, 0.99)
    (results_dir / f"fig11_{scale}.csv").write_text(result.to_csv() + "\n")


def build_page(results, *, runs, bench_dirs):
    """The static fleet page over one snapshot of these directories."""
    return render_fleet(Snapshot(runs, bench_dirs=bench_dirs, results_dir=results))


def test_dashboard_renders_all_sections(tmp_path):
    results = tmp_path / "results"
    write_fig11_csv(results)
    bench_dir = tmp_path / "bench"
    write_bench(make_bench_doc(fig11=make_case(hops=500_000.0)), bench_dir)
    write_bench(make_bench_doc(fig11=make_case(hops=550_000.0)), bench_dir)
    runs = tmp_path / "runs"
    RunStore(runs).append(make_record(label="smoke"))

    page = build_page(results, bench_dirs=[bench_dir], runs=runs)
    assert page.startswith("<!DOCTYPE html>")
    for title in ("Runs in flight", "Recent failures", "Paper figure: Fig 11",
                  "Paper-vs-measured agreement", "Latency attribution", "Run health",
                  "Determinism", "Recent runs"):
        assert page.count(f"<h2>{title}") == 1, title
    # fig11 curves + the one per-workload trajectory; no phase bars (the
    # docs carry no ns-per-flit-hop rows).
    assert page.count("<svg") == 2
    assert page.count("<h2>Performance</h2>") == 1
    assert "fig11: throughput trajectory" in page
    assert "2 bench run(s) analyzed, latest BENCH_1.json" in page
    assert "parallel-mesh" in page and "hetero-phy-full" in page
    assert "var(--series-1" in page  # palette via CSS custom properties
    assert "prefers-color-scheme: dark" in page
    assert "smoke" in page  # the run-registry row
    assert "<script" not in page  # self-contained, no scripting


def test_dashboard_requires_results_csvs(tmp_path):
    # The figure panels need a fig11 CSV; without one each says so, no raise.
    empty = tmp_path / "empty"
    empty.mkdir()
    for results in (tmp_path / "missing", empty):
        page = build_page(results, runs=tmp_path / "no-runs", bench_dirs=[tmp_path / "no-bench"])
        assert page.count(f"no fig11 CSV in <code>{results}</code>") == 2
        assert "<svg" not in page


def test_figure_panels_share_one_scale(tmp_path):
    results = tmp_path / "results"
    write_fig11_csv(results, scale="small")
    page = build_page(results, runs=tmp_path / "no-runs", bench_dirs=[tmp_path / "no-bench"])
    assert "fig11_small.csv" in page  # the curves
    assert "Measured at scale `small`" in page  # the agreement summary
    assert "tiny" not in page

    write_fig11_csv(results, scale="tiny")  # the larger scale still wins
    page = build_page(results, runs=tmp_path / "no-runs", bench_dirs=[tmp_path / "no-bench"])
    assert "Measured at scale `small`" in page and "fig11_tiny.csv" not in page


def test_dashboard_empty_bench_and_runs_degrade_gracefully(tmp_path):
    results = tmp_path / "results"
    write_fig11_csv(results)
    page = build_page(
        results, bench_dirs=[tmp_path / "no-bench"], runs=tmp_path / "no-runs"
    )
    assert page.count("no bench history yet") == 1  # one panel, one sentence
    assert "no BENCH_*.json files" in page and "repro bench" in page
    assert "no run records yet" in page
    assert "no runs in flight" in page and "no failed live runs" in page


def test_write_dashboard_creates_parents(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)  # the bench history is read from the working directory
    results = tmp_path / "results"
    write_fig11_csv(results)
    out = tmp_path / "deep" / "dashboard.html"
    assert main(["watch", "--once", "--out", str(out), "--results-dir", str(results),
                 "--runs-dir", str(tmp_path / "runs")]) == 0
    assert out.read_text().startswith("<!DOCTYPE html>")
    assert f"wrote {out}" in capsys.readouterr().out


def make_breakdown(**stage_means) -> dict:
    """A minimal ``LatencyLedger.record_summary``-shaped payload."""
    stages = {
        name: {"total": mean * 100, "share": 0.5, "mean": mean,
               "p50": mean, "p95": mean * 2, "p99": mean * 3}
        for name, mean in stage_means.items()
    }
    return {
        "packets": 100,
        "avg_latency": sum(m for m in stage_means.values()),
        "stages": stages,
        "bottleneck_links": [
            {"link": 4, "src": 3, "dst": 12, "kind": "serial",
             "queue_cycles": 640, "stall_cycles": 200, "packets": 42},
        ],
    }


def test_dashboard_hostperf_section(tmp_path):
    results = tmp_path / "results"
    write_fig11_csv(results)
    runs = tmp_path / "runs"
    RunStore(runs).append(make_record(label="plain"))  # the registry feeds other panels
    phases = {"noc.router.sa_st": 600.0, "noc.link.step": 300.0, "noc.router.rc_va": 100.0}
    layers = {f"{phase}_ns_per_flit_hop": ns for phase, ns in phases.items()}
    layers["sim.engine.ns_per_flit_hop"] = 1_000.0  # the loop's total is not a phase
    layers.update({"telemetry.overhead.digest": 0.31, "exps.table3_abs_err_pp": 21.7})
    bench_dir = tmp_path / "bench"
    for index, hops in enumerate((400_000.0, 440_000.0)):
        doc = make_bench_doc(phy_steady_256=make_case(hops=hops, layers=layers))
        write_bench(dict(doc, created=f"2026-01-01T00:0{index}:00+00:00"), bench_dir)

    page = build_page(results, runs=runs, bench_dirs=[bench_dir])
    assert page.count("<h2>Performance</h2>") == 1
    # fig11 curves + the workload's trajectory + the phase bars + the observer
    # overhead and Table 3 error trajectories the catalogue now carries
    assert page.count("<svg") == 5
    assert "phy_steady_256: throughput trajectory" in page
    assert "engine loop by pipeline phase" in page
    assert all(phase in page for phase in phases) and "sim.engine" not in page
    assert "observer overhead" in page and "telemetry.overhead.digest" in page
    assert "Table 3 mean |error|" in page
    assert "2 bench run(s) analyzed" in page
    assert "no bench history yet" not in page


def test_dashboard_perf_panel_marks_a_changepoint(tmp_path):
    from .helpers import make_history, write_history

    results = tmp_path / "results"
    write_fig11_csv(results)
    bench_dir = write_history(
        tmp_path / "bench", make_history(step_at=20, culprit="noc.router.rc_va")
    )
    page = build_page(results, runs=tmp_path / "no-runs", bench_dirs=[bench_dir])
    # fig11 curves + three workload trajectories + the phase bars
    assert page.count("<svg") == 5
    # one dashed mark (tooltip + label) per workload
    assert page.count("<title>changepoint @ BENCH_") == 3
    assert '<span class="alarm">regressed</span>' in page
    assert "noc.router.rc_va (+" in page  # the culprit column
    # The counts never moved: one sentence, not a table row each.
    assert "9 exact row(s) unchanged" in page


def test_dashboard_hostperf_empty_state(tmp_path):
    results = tmp_path / "results"
    write_fig11_csv(results)
    runs = tmp_path / "runs"
    RunStore(runs).append(make_record(label="plain"))
    page = build_page(results, runs=runs, bench_dirs=[tmp_path / "no-bench"])
    assert "no bench history yet" in page
    assert "repro bench" in page


def test_dashboard_breakdown_section(tmp_path):
    results = tmp_path / "results"
    write_fig11_csv(results)
    runs = tmp_path / "runs"
    store = RunStore(runs)
    store.append(make_record(label="plain"))  # no breakdown: skipped
    store.append(make_record(
        label="attributed",
        breakdown=make_breakdown(switch_wait=4.0, link_serial=16.0),
    ))

    page = build_page(results, runs=runs, bench_dirs=[tmp_path / "no-bench"])
    assert "Latency attribution" in page
    assert page.count("<svg") == 2  # fig11 curves + the stacked bars
    assert "mean cycles per packet" in page
    assert "link_serial" in page and "switch_wait" in page
    assert "stage table (latest run)" in page
    assert "top bottleneck links" in page
    assert "3&rarr;12" in page  # the congested serial link row
    assert "no runs with a latency breakdown yet" not in page


def test_dashboard_breakdown_empty_state(tmp_path):
    results = tmp_path / "results"
    write_fig11_csv(results)
    runs = tmp_path / "runs"
    RunStore(runs).append(make_record(label="plain"))
    page = build_page(results, runs=runs, bench_dirs=[tmp_path / "no-bench"])
    assert "no runs with a latency breakdown yet" in page
    assert "--latency-breakdown" in page


def test_dashboard_health_section(tmp_path):
    results = tmp_path / "results"
    write_fig11_csv(results)
    runs = tmp_path / "runs"
    store = RunStore(runs)
    store.append(make_record(label="plain"))  # no forensics: skipped
    store.append(make_record(
        label="probed",
        forensics={
            "health": {
                "probes": 5,
                "anomaly_count": 1,
                "flags": ["no-throughput"],
                "max_oldest_age": 480,
                "anomalies": [{"cycle": 499, "kind": "no-throughput",
                               "detail": "zero packets delivered"}],
                "oldest_age_series": [[99, 10], [199, 120], [299, 480]],
            },
            "bundle": "forensics/BUNDLE_deadlock_557.json",
        },
    ))

    page = build_page(results, runs=runs, bench_dirs=[tmp_path / "no-bench"])
    assert "Run health" in page
    assert "no-throughput" in page
    assert "<polyline" in page  # the oldest-age sparkline
    assert "BUNDLE_deadlock_557.json" in page
    assert "no runs with health probes yet" not in page


def test_dashboard_health_empty_state(tmp_path):
    results = tmp_path / "results"
    write_fig11_csv(results)
    runs = tmp_path / "runs"
    RunStore(runs).append(make_record(label="plain"))
    page = build_page(results, runs=runs, bench_dirs=[tmp_path / "no-bench"])
    assert "no runs with health probes yet" in page
    assert "--health" in page


def test_dashboard_warns_about_skipped_registry_lines(tmp_path):
    results = tmp_path / "results"
    write_fig11_csv(results)
    runs = tmp_path / "runs"
    store = RunStore(runs)
    store.append(make_record(label="good"))
    with store.path.open("a") as handle:
        handle.write("{corrupt line\n")

    page = build_page(results, runs=runs, bench_dirs=[tmp_path / "no-bench"])
    assert "1 unreadable registry line skipped" in page
    assert "good" in page  # the readable record still renders
    assert "<script" not in page  # the static page stays script-free

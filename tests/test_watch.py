"""Tests for the fleet snapshot and its static page (``repro.telemetry.dashboard``)."""

from pathlib import Path

from repro.telemetry.dashboard import SECTIONS, Snapshot, render_fleet, render_sections
from repro.telemetry.runstore import RunStore

from .test_bench_compare import make_bench_doc, make_case, write_bench
from .test_runstore import make_record


REPO = Path(__file__).resolve().parents[1]


def snapshot(runs_dir):
    """The snapshot of ``runs_dir``, its bench trajectory in ``runs_dir/../bench``
    and its figure CSVs in ``runs_dir/../results`` (the defaults, under the
    working directory, hold the repo's own files)."""
    return Snapshot(
        runs_dir, bench_dirs=[runs_dir.parent / "bench"], results_dir=runs_dir.parent / "results"
    )


def seed_runs_dir(tmp_path):
    """A runs directory with one registry record."""
    runs_dir = tmp_path / "runs"
    RunStore(runs_dir).append(make_record(run_id="watchrun00001"))
    return runs_dir


def test_fleet_state_lists_recent_records(tmp_path):
    state = snapshot(seed_runs_dir(tmp_path)).to_dict()
    assert state["records"] == 1
    assert state["skipped"] == 0
    [recent] = state["recent"]
    assert recent["run_id"] == "watchrun00001"


def test_fleet_state_counts_skipped_registry_lines(tmp_path):
    runs_dir = seed_runs_dir(tmp_path)
    with (runs_dir / "runs.jsonl").open("a", encoding="utf-8") as handle:
        handle.write("{corrupt\n")
    state = snapshot(runs_dir).to_dict()
    assert state["records"] == 1
    assert state["skipped"] == 1


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
    snap = snapshot(runs_dir)
    page = render_fleet(snap)
    assert "Fig 11" in page and "Recent runs" in page  # every panel rendered
    snap.to_dict()  # the JSON document answers from the same read
    assert len(reads) == 1


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
    page = render_fleet(snapshot(runs_dir))
    assert "Fig 11" in page and "fig17 / hetero-channel" in page  # both figure panels
    assert sorted(path.stem for path in loads) == sorted(f"{a}_tiny" for a in report.ARTIFACTS)


def test_fleet_fragment_includes_sentinel_panel(tmp_path):
    runs_dir = seed_runs_dir(tmp_path)
    fragment = render_sections(SECTIONS, snapshot(runs_dir))
    assert fragment.count("<h2>Performance</h2>") == 1
    # No bench file so far: the one placeholder, no charts.
    assert fragment.count("no bench history yet") == 1

    for hops in (400_000.0, 440_000.0):
        write_bench(make_bench_doc(fig11_cli_tiny=make_case(hops=hops)), tmp_path / "bench")
    fragment = render_sections(SECTIONS, snapshot(runs_dir))
    assert "fig11_cli_tiny: throughput trajectory" in fragment
    assert "repro regress" in fragment  # the verdict table's caption
    assert "no bench history yet" not in fragment


def test_fleet_page_warns_about_skipped_registry_lines(tmp_path):
    runs_dir = seed_runs_dir(tmp_path)
    with (runs_dir / "runs.jsonl").open("a", encoding="utf-8") as handle:
        handle.write("{corrupt\n")
    fragment = render_sections(SECTIONS, snapshot(runs_dir))
    assert fragment.count("unreadable registry line") == 1

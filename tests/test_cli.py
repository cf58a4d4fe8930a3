"""Tests for the command-line interface."""

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main

from .helpers import ring_routing


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig8", "fig11", "table3", "table4", "fig18"):
        assert name in out


def test_run_table4(capsys):
    assert main(["run", "table4", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "hetero_router" in out
    assert "paper" in out


def test_run_csv_output(capsys):
    assert main(["run", "table1", "--scale", "tiny", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("interface,")
    assert "SerDes" in out


def test_run_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_simulate_smoke(capsys):
    code = main(
        [
            "simulate",
            "--family",
            "hetero_phy_torus",
            "--chiplets",
            "2x2",
            "--nodes",
            "3x3",
            "--cycles",
            "1500",
            "--rate",
            "0.1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "avg_latency" in out
    assert "hetero-phy-torus-2x2(3x3)" in out


def test_simulate_bad_geometry():
    with pytest.raises(SystemExit):
        main(["simulate", "--chiplets", "four-by-four"])


SIM_ARGS = [
    "simulate",
    "--family",
    "hetero_phy_torus",
    "--chiplets",
    "2x2",
    "--nodes",
    "3x3",
    "--cycles",
    "1500",
    "--rate",
    "0.1",
]


def test_simulate_integer_counters_print_as_integers(capsys):
    assert main(SIM_ARGS) == 0
    out = capsys.readouterr().out
    match = re.search(r"packets_delivered\s*: (\S+)", out)
    assert match, out
    assert re.fullmatch(r"\d+", match.group(1)), "counter printed as float"
    assert re.search(r"avg_latency\s*: \d+\.\d{3}", out)


def test_simulate_seed_is_plumbed_and_reproducible(capsys):
    assert main([*SIM_ARGS, "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert "seed     : 11" in first
    assert main([*SIM_ARGS, "--seed", "11"]) == 0
    assert capsys.readouterr().out == first
    assert main([*SIM_ARGS, "--seed", "12"]) == 0
    other = capsys.readouterr().out
    assert other != first


def test_simulate_telemetry_flags(tmp_path, capsys):
    metrics_dir = tmp_path / "metrics"
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            *SIM_ARGS,
            "--seed",
            "7",
            "--epoch",
            "300",
            "--metrics",
            str(metrics_dir),
            "--trace",
            str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert (metrics_dir / "epochs.csv").is_file()
    assert (metrics_dir / "metrics.json").is_file()
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
    assert out.count("wrote ") >= 8  # 7 metric files + the trace


def test_trace_counters_follow_epoch(tmp_path, capsys):
    """`--trace` counter tracks are the epoch sampler's: one point per
    track at each epoch boundary, equal to that epoch's buffered,
    in-flight and reorder-buffer occupancy samples."""
    metrics_dir = tmp_path / "metrics"
    trace_path = tmp_path / "trace.json"
    args = ["--rate", "0.2", "--policy", "performance", "--epoch", "400",
            "--metrics", str(metrics_dir)]
    assert main([*SIM_ARGS, *args, "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    epochs = json.loads((metrics_dir / "metrics.json").read_text())["epochs"]
    events = json.loads(trace_path.read_text())["traceEvents"]
    counters = [event for event in events if event["ph"] == "C"]
    by_end = {epoch["end"]: epoch for epoch in epochs}
    assert list(by_end) == [400, 800, 1200, 1500]
    assert sorted({event["ts"] for event in counters}) == list(by_end)
    rob_tracks = {event["name"] for event in counters if event["name"] != "flits"}
    assert rob_tracks and all(name.startswith("rob ") for name in rob_tracks)
    assert len(counters) == len(epochs) * (1 + len(rob_tracks))
    for event in counters:
        epoch = by_end[event["ts"]]
        if event["name"] == "flits":
            expected = {"buffered": epoch["buffered"], "in_flight": epoch["in_flight"]}
        else:
            rob = epoch["rob"].get(str(event["tid"] - 1), {"occupancy": 0})
            expected = {"occupancy": rob["occupancy"]}
        assert event["args"] == expected, (event, epoch)
    assert any(event["args"].get("buffered") for event in counters)
    assert any(event["args"].get("occupancy") for event in counters)


#: `repro prove`'s quick path: lint, deadlock and reachability,
#: without the per-link fault sweep or a registry record.
QUICK = ["--no-fault-masks", "--no-record"]


def test_check_single_family_passes(capsys):
    assert main(["prove", "--family", "parallel_mesh", "--mode", "vct", *QUICK]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "parallel-mesh-2x2(3x3)" in out


def test_check_all_families_pass(capsys):
    assert main(["prove", "--all", "--mode", "vct", *QUICK]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_check_wormhole_mode_flags_adaptive_family(capsys):
    assert main(["prove", "--family", "serial_torus", "--mode", "wormhole", *QUICK]) == 1
    out = capsys.readouterr().out
    assert "CDG-CYCLE-EXTENDED" in out
    assert "NOT CERTIFIED" in out
    assert "1/1 certification(s) FAILED" in out


def test_check_wormhole_mode_passes_hypercube(capsys):
    assert main(["prove", "--family", "serial_hypercube", "--mode", "wormhole", *QUICK]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_exits_nonzero_on_injected_cycle(capsys, monkeypatch):
    """Replace the routing factory with a deadlocking ring: `repro prove`
    at the default geometry must report the cycle and exit 1."""

    monkeypatch.setattr("repro.sim.build.make_routing", lambda spec, **_: ring_routing)
    assert main(["prove", "--family", "serial_torus", "--mode", "vct", *QUICK]) == 1
    out = capsys.readouterr().out
    assert "CDG-CYCLE" in out
    assert "FAIL" in out


def test_check_requires_family_or_all():
    with pytest.raises(SystemExit) as caught:
        main(["prove", "--mode", "wormhole"])
    assert caught.value.code == 2


def test_prove_is_the_one_static_verification_command(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["--help"])
    assert caught.value.code == 0
    listed = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert len(listed) == 11 and "prove" in listed and "check" not in listed
    assert "profile" not in listed  # folded into `simulate --profile`
    with pytest.raises(SystemExit) as caught:
        main(["check", "--all"])
    assert caught.value.code == 2


def test_check_grid_alias_accepts_nondefault_geometry(capsys):
    assert main(
        ["prove", "--family", "parallel_mesh", "--grid", "3x2", "--nodes", "2x2",
         "--mode", "vct", *QUICK]
    ) == 0
    out = capsys.readouterr().out
    assert "parallel-mesh-3x2(2x2)" in out
    assert "PASS" in out


def test_check_json_document(tmp_path, capsys):
    json_path = tmp_path / "prove.json"
    assert main(["prove", "--all", "--mode", "vct", *QUICK, "--json", str(json_path)]) == 0
    assert f"wrote {json_path}" in capsys.readouterr().out
    doc = json.loads(json_path.read_text())
    assert doc["certified"] is True
    assert len(doc["certificates"]) == 5
    assert all(c["certified"] for c in doc["certificates"])
    assert {c["mode"] for c in doc["certificates"]} == {"vct"}


def test_prove_without_record_writes_json_only(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    json_path = tmp_path / "prove.json"
    code = main(
        ["prove", "--family", "parallel_mesh", "--mode", "vct", "--no-record",
         "--json", str(json_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "CERTIFIED" in out
    assert not (tmp_path / "runs").exists()  # no certificate file, no record
    doc = json.loads(json_path.read_text())
    assert doc["certified"] is True
    [cert] = doc["certificates"]
    assert cert["family"] == "parallel_mesh"
    assert cert["schema_version"] == 1


def test_prove_writes_certificate_and_registry_record(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    code = main(
        [
            "prove",
            "--family",
            "parallel_mesh",
            "--mode",
            "vct",
            "--runs-dir",
            str(runs_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "CERTIFIED" in out
    cert_path = runs_dir / "certificates" / "CERT_parallel-mesh-2x2(3x3)_vct.json"
    assert cert_path.is_file()
    cert = json.loads(cert_path.read_text())
    assert cert["certified"] is True
    from repro.telemetry.runstore import RunStore

    [record] = RunStore(runs_dir).load()
    assert record.kind == "prove"
    assert record.label == "parallel_mesh:vct"
    assert record.extras["certified"] == 1.0
    assert record.artifacts["certificate"] == str(cert_path)


def test_prove_both_modes_refutes_wormhole_cycles(tmp_path, capsys):
    """The wormhole cycle is refuted only within the default 4,000-state
    budget, so it keeps its error and the pair is not certified."""
    json_path = tmp_path / "prove.json"
    code = main(
        [
            "prove",
            "--family",
            "serial_torus",
            "--no-fault-masks",
            "--no-record",
            "--json",
            str(json_path),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "[mode=vct]" in out
    assert "[mode=wormhole]" in out
    assert "CDG-CYCLE-EXTENDED" in out
    assert "CDG-CYCLE-REFUTED" not in out
    doc = json.loads(json_path.read_text())
    assert doc["certified"] is False
    assert [c["mode"] for c in doc["certificates"]] == ["vct", "wormhole"]
    vct, wormhole = doc["certificates"]
    assert vct["certified"] is True
    assert wormhole["certified"] is False
    assert wormhole["modelcheck"]["verdict"] == "refuted-bounded"
    assert wormhole["modelcheck"]["explored"] == wormhole["modelcheck"]["max_states"] == 4_000

def test_prove_exits_nonzero_on_injected_cycle(capsys, monkeypatch):
    """A genuinely deadlocking escape must be refused certification with
    a realized counterexample, not downgraded."""

    monkeypatch.setattr("repro.sim.build.make_routing", lambda spec, **_: ring_routing)
    code = main(
        [
            "prove",
            "--family",
            "serial_torus",
            "--mode",
            "vct",
            "--grid",
            "2x1",
            "--nodes",
            "2x1",
            "--no-fault-masks",
            "--no-record",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "MC-DEADLOCK" in out
    assert "NOT CERTIFIED" in out
    assert "FAILED" in out


def test_prove_requires_family_or_all():
    with pytest.raises(SystemExit):
        main(["prove"])


@pytest.mark.parametrize(
    "budget", [["--max-states", "0"], ["--max-states", "-5"], ["--max-packets", "0"]]
)
def test_prove_rejects_an_empty_model_checker_budget(budget, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["prove", "--family", "serial_torus", "--mode", "wormhole", "--no-record",
              *budget])
    assert caught.value.code == 2
    assert "CERTIFIED" not in capsys.readouterr().out


def test_report_without_results_is_a_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="no benchmark CSVs"):
        main(["report", "--results-dir", str(tmp_path / "missing")])


def test_run_appends_registry_record(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    assert main(
        ["run", "table1", "--scale", "tiny", "--runs-dir", str(runs_dir)]
    ) == 0
    capsys.readouterr()
    from repro.telemetry.runstore import RunStore

    records = RunStore(runs_dir).load()
    assert len(records) == 1
    assert records[0].kind == "experiment"
    assert records[0].label == "table1"
    assert records[0].scale == "tiny"
    assert records[0].wall_seconds > 0


def test_run_no_record_skips_registry(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    args = ["run", "table1", "--scale", "tiny", "--runs-dir", str(runs_dir)]
    assert main([*args, "--no-record"]) == 0
    capsys.readouterr()
    assert not (runs_dir / "runs.jsonl").exists()


def test_simulate_records_run_and_prints_manifest(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    metrics_dir = tmp_path / "metrics"
    code = main(
        [
            *SIM_ARGS,
            "--metrics",
            str(metrics_dir),
            "--runs-dir",
            str(runs_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    manifest = re.search(r"^artifacts : (.+)$", out, re.MULTILINE)
    assert manifest, out
    assert f"metrics_dir={metrics_dir}" in manifest.group(1)
    assert "record=" in manifest.group(1)
    from repro.telemetry.runstore import RunStore

    records = RunStore(runs_dir).load()
    assert len(records) == 1
    assert records[0].kind == "simulate"
    assert records[0].seed == 1
    assert records[0].artifacts["metrics_dir"] == str(metrics_dir)
    assert records[0].run_id in manifest.group(1)


def test_simulate_latency_breakdown(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    csv_path = tmp_path / "breakdown.csv"
    code = main(
        [
            *SIM_ARGS,
            "--latency-breakdown",
            "--breakdown-csv",
            str(csv_path),
            "--runs-dir",
            str(runs_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "latency breakdown" in out
    assert "top bottleneck links" in out
    assert f"breakdown_csv={csv_path}" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scope,packets,stage,total_cycles,share,mean,p50,p95,p99"
    assert any(line.startswith("all,") for line in lines[1:])
    from repro.telemetry.runstore import RunStore

    [record] = RunStore(runs_dir).load()
    assert record.breakdown["packets"] > 0
    assert record.artifacts["breakdown_csv"] == str(csv_path)


def test_simulate_breakdown_flag_alone_prints_tables(capsys):
    # --latency-breakdown without a CSV path still prints the tables and
    # never writes artifacts.
    assert main([*SIM_ARGS, "--latency-breakdown", "--no-record"]) == 0
    out = capsys.readouterr().out
    assert "latency breakdown" in out
    assert "breakdown_csv=" not in out


def test_simulate_plain_run_prints_no_manifest(tmp_path, capsys):
    assert main([*SIM_ARGS, "--runs-dir", str(tmp_path), "--no-record"]) == 0
    out = capsys.readouterr().out
    assert "artifacts :" not in out


@pytest.fixture
def stub_harness(monkeypatch, bench_doc):
    """``repro bench`` with the harness subprocess stubbed: the stub records
    each command and, unless told otherwise, writes the recorded smoke
    document to the command's ``--out`` path and exits 0."""
    import repro.cli

    stub = SimpleNamespace(commands=[], returncode=0, writes=True)
    real_run = repro.cli.subprocess.run

    def run(command, **kwargs):
        if "--out" not in command:  # `git rev-parse` for the stamp
            return real_run(command, **kwargs)
        stub.commands.append(command)
        if stub.writes:
            Path(command[command.index("--out") + 1]).write_text(json.dumps(bench_doc))
        return SimpleNamespace(returncode=stub.returncode)

    monkeypatch.setattr(repro.cli.subprocess, "run", run)
    return stub


def test_bench_cli_writes_bench_file(stub_harness, tmp_path, capsys):
    from repro.telemetry.bench import HARNESS, load_bench

    (tmp_path / "BENCH_3.json").write_text("{}")  # numbering continues past what is there
    assert main(["bench", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "BENCH_4.json"
    # It runs exactly the contract's full traced run, and nothing else.
    assert stub_harness.commands == [[
        sys.executable, str(HARNESS), "--all", "--trace", "1",
        "--seed", "7", "--out", str(path),
    ]]
    assert f"wrote {path}" in capsys.readouterr().out
    doc = load_bench(path)
    # The harness's document, stamped: nothing else is added or dropped.
    assert list(doc)[:2] == ["git_rev", "created"]
    assert doc["git_rev"] and doc["created"].startswith("20")
    del doc["git_rev"], doc["created"]
    assert doc == json.loads((Path(__file__).parent / "data" / "BENCH_smoke.json").read_text())
    assert not (tmp_path / "runs").exists()  # no registry record any more
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--seed", "--out-dir"}


def test_bench_cli_reports_a_missing_or_failing_harness(stub_harness, tmp_path, monkeypatch, capsys):
    from repro.telemetry import bench

    # The harness found a failed point: its document is kept (stamped, so
    # `repro regress` shows the failed_points row) and the exit is a clean 1.
    stub_harness.returncode = 1
    with pytest.raises(SystemExit, match=r"run\.py --all --trace 1 .* exited 1") as excinfo:
        main(["bench", "--out-dir", str(tmp_path)])
    assert isinstance(excinfo.value.code, str)  # a message: exit status 1, no traceback
    assert "git_rev" in json.loads((tmp_path / "BENCH_0.json").read_text())
    # It crashed before writing anything.
    stub_harness.returncode, stub_harness.writes = 2, False
    with pytest.raises(SystemExit, match="exited 2"):
        main(["bench", "--out-dir", str(tmp_path)])
    assert not (tmp_path / "BENCH_1.json").exists()
    # No benchmarks/perf/ beside src/ (an installed package): nothing is started.
    del stub_harness.commands[:]
    monkeypatch.setattr(bench, "HARNESS", tmp_path / "benchmarks" / "perf" / "run.py")
    with pytest.raises(SystemExit, match="run.py is missing"):
        main(["bench", "--out-dir", str(tmp_path)])
    assert stub_harness.commands == []


def _write_bench_pair(tmp_path, hops_a, hops_b):
    from .test_bench_compare import make_bench_doc, make_case

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(make_bench_doc(fig11=make_case(hops=hops_a, iqr=0.0))))
    b.write_text(json.dumps(make_bench_doc(fig11=make_case(hops=hops_b, iqr=0.0))))
    return a, b


def test_compare_cli_is_warn_only_by_default(tmp_path, capsys):
    a, b = _write_bench_pair(tmp_path, 500_000.0, 300_000.0)  # a clear regression
    assert main(["regress", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "! regressed" in out
    assert "1 regression(s)" in out


def test_compare_cli_strict_exits_nonzero_on_regression(tmp_path, capsys):
    a, b = _write_bench_pair(tmp_path, 500_000.0, 300_000.0)
    assert main(["regress", str(a), str(b), "--strict"]) == 1
    capsys.readouterr()
    # Improvements never fail, even under --strict.
    assert main(["regress", str(b), str(a), "--strict"]) == 0
    # --rel-floor widens the timed rows' bound: -40% is inside a 50% floor.
    assert main(["regress", str(a), str(b), "--strict", "--rel-floor", "0.5"]) == 0


@pytest.mark.parametrize("floor", ["nan", "inf", "-0.1"])
def test_regress_rejects_a_floor_that_is_not_finite_and_nonnegative(tmp_path, floor):
    a, b = _write_bench_pair(tmp_path, 500_000.0, 500_000.0)
    with pytest.raises(SystemExit) as caught:
        main(["regress", str(a), str(b), "--strict", "--rel-floor", floor])
    assert caught.value.code == 2


def test_compare_cli_missing_file_is_a_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="No such file"):
        main(["regress", str(tmp_path / "a.json"), str(tmp_path / "b.json")])


def test_compare_cli_gate_filters_strict_exit(tmp_path, capsys):
    # The regression is in flit_hops_per_s; selecting an unrelated metric
    # keeps --strict green (and prints only it), a matching one trips it.
    a, b = _write_bench_pair(tmp_path, 500_000.0, 300_000.0)
    assert main(["regress", str(a), str(b), "--strict", "--metric", "noc"]) == 0
    out = capsys.readouterr().out
    assert "noc.router.flit_hops" in out and "flit_hops_per_s" not in out
    assert main(["regress", str(a), str(b), "--strict", "--metric", "flit_hops_per_s"]) == 1
    out = capsys.readouterr().out
    assert "flit_hops_per_s" in out and "! regressed" in out and "noc." not in out


def test_compare_cli_chains_three_files_and_writes_json(tmp_path, capsys):
    from .test_bench_compare import make_bench_doc, make_case

    paths = []
    for index, hops in enumerate((500_000.0, 505_000.0, 300_000.0)):
        path = tmp_path / f"BENCH_{index}.json"
        path.write_text(json.dumps(make_bench_doc(fig11=make_case(hops=hops, iqr=0.0))))
        paths.append(str(path))
    report_path = tmp_path / "regress.json"
    assert main(["regress", *paths, "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "over 3 bench run(s)" in out
    assert "! regressed @ BENCH_2.json" in out and "1 regression(s)" in out
    doc = json.loads(report_path.read_text())
    assert doc["kind"] == "sentinel"
    assert doc["runs"] == 3 and doc["regressions"] == 1
    # Three files gate strict mode exactly like two.
    assert main(["regress", *paths, "--strict"]) == 1


def test_regress_cli_flags_step_and_passes_noise(tmp_path, capsys):
    from .helpers import make_history, write_history

    stepped = write_history(
        tmp_path / "stepped", make_history(step_at=20, culprit="noc.router.rc_va")
    )
    report_path = tmp_path / "sentinel.json"
    code = main([
        "regress", "--bench-dir", str(stepped), "--strict",
        "--json", str(report_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "! regressed" in out
    assert "culprit: noc.router.rc_va" in out
    doc = json.loads(report_path.read_text())
    assert doc["kind"] == "sentinel" and doc["regressions"] >= 3
    named = [
        r["changepoint"]["key"]
        for r in doc["reports"]
        if r["verdict"] == "regressed" and r["metric"] == "flit_hops_per_s"
    ]
    assert named and all(
        abs(int(key[len("BENCH_"):-len(".json")]) - 20) <= 2 for key in named
    )

    flat = write_history(tmp_path / "flat", make_history())
    assert main(["regress", "--bench-dir", str(flat), "--strict"]) == 0
    # Without --strict even a stepped history exits 0 (warn-only mode).
    capsys.readouterr()
    assert main(["regress", "--bench-dir", str(stepped)]) == 0


def test_regress_cli_empty_registry_is_clean(tmp_path, capsys):
    assert main(["regress", "--bench-dir", str(tmp_path / "nothing"), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "no bench history" in out
    # A directory whose only bench file is unreadable is just as empty, with a warning.
    (tmp_path / "BENCH_0.json").write_text("{corrupt")
    assert main(["regress", "--bench-dir", str(tmp_path), "--strict"]) == 0
    captured = capsys.readouterr()
    assert "no bench history" in captured.out
    assert "skipped 1 unreadable bench file" in captured.err


def test_regress_cli_metric_filter_and_bad_window(tmp_path, capsys):
    from .helpers import make_history, write_history

    bench_dir = write_history(tmp_path, make_history(step_at=20))
    assert main([
        "regress", "--bench-dir", str(bench_dir), "--metric", "peak_rss", "--strict",
    ]) == 0  # the step hits throughput, not memory
    out = capsys.readouterr().out
    assert "flit_hops_per_s" not in out
    # The detector's window and thresholds are module constants, not flags.
    with pytest.raises(SystemExit) as excinfo:
        main(["regress", "--bench-dir", str(bench_dir), "--window", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --window" in capsys.readouterr().err


def test_regress_reads_an_unstamped_document_by_its_file_time(tmp_path, capsys):
    """A raw `benchmarks/perf/run.py --out` document carries no `created`: it is
    as new as its file, not older than every stamped run."""
    from .test_bench_compare import make_bench_doc, make_case

    for index, hops in enumerate((500_000.0, 500_000.0)):
        doc = make_bench_doc(fig11=make_case(hops=hops, iqr=0.0))
        (tmp_path / f"BENCH_{index}.json").write_text(json.dumps(doc))
    raw = make_bench_doc(fig11=make_case(hops=300_000.0, iqr=0.0))
    del raw["created"], raw["git_rev"]
    (tmp_path / "BENCH_2.json").write_text(json.dumps(raw))
    from repro.telemetry.history import load_history

    series = load_history([tmp_path]).get("fig11", "flit_hops_per_s")
    assert [p.key for p in series.points] == ["BENCH_0.json", "BENCH_1.json", "BENCH_2.json"]
    assert series.points[-1].created >= "2026-01-01T00:00:00+00:00"
    assert main(["regress", "--bench-dir", str(tmp_path), "--strict"]) == 1
    assert "! regressed @ BENCH_2.json" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, value",
    [
        (["simulate", "--rate", "nan"], "nan"),
        (["simulate", "--rate", "-1"], "-1"),
        (["simulate", "--pattern", "bogus"], "'bogus'"),
        (["simulate", "--chiplets", "0x2"], "got 0"),
        (["simulate", "--family", "hetero_channel", "--chiplets", "3x2"], "got 6"),
        (["simulate", "--cycles", "0"], "--cycles: must be >= 1, got 0"),
        (["simulate", "--rate", "-0.5"], "-0.5"),
    ],
    ids=lambda arg: " ".join(arg[1:]) if isinstance(arg, list) else None,
)
def test_a_point_the_simulator_rejects_is_a_usage_error(
    argv, value, tmp_path, capsys, monkeypatch
):
    """No traceback, nothing simulated (a NaN rate used to inject at
    probability 1 and exit 0): one line naming the value, exit status 2,
    and no profile directory."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main([argv[0], "--cycles", "300", "--nodes", "2x2", *argv[1:],
              "--no-record", "--profile", "prof"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    last_line = captured.err.splitlines()[-1]
    assert last_line.startswith(f"repro {argv[0]}: error: ") and value in last_line
    assert "Traceback" not in captured.err and "delivered_fraction" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_profile_cli_writes_artifacts(tmp_path, capsys):
    """`simulate --profile` prints the run's usual lines, then the host-time
    table, and writes the ledger summary and the folded stacks."""
    out_dir = tmp_path / "prof"
    argv = ["simulate", "--family", "hetero_phy_torus", "--chiplets", "2x2",
            "--nodes", "3x3", "--cycles", "1200", "--rate", "0.1", "--seed", "3",
            "--no-record"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--profile", str(out_dir), "--stride", "2"]) == 0
    out = capsys.readouterr().out
    # The ledger is a passive observer: the run's lines are the plain run's.
    assert out.startswith(plain)
    assert "phase" in out and "conservation" in out
    assert f"artifacts : profile={out_dir}" in out
    host = json.loads((out_dir / "profile.host.json").read_text())
    assert host["stride"] == 2
    assert 0.95 <= host["conservation"] <= 1.05
    rows = (out_dir / "profile.folded.txt").read_text().splitlines()
    assert rows and all(row.startswith("engine;") for row in rows)
    # Weights are integer nanoseconds of self time, hottest first.
    weights = [int(row.rsplit(" ", 1)[1]) for row in rows]
    assert all(weight > 0 for weight in weights) and weights == sorted(weights, reverse=True)


def test_profile_flags_need_profile(capsys):
    for flags in (["--stride", "2"], ["--pstats"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", *flags, "--no-record"])
        assert excinfo.value.code == 2
        assert "--stride and --pstats require --profile" in capsys.readouterr().err


def test_dashboard_cli(tmp_path, capsys, monkeypatch):
    from .test_dashboard import write_fig11_csv

    monkeypatch.chdir(tmp_path)  # the bench history is read from the working directory
    results = tmp_path / "results"
    write_fig11_csv(results)
    out_path = tmp_path / "dash.html"
    argv = ["watch", "--once", "--out", str(out_path), "--results-dir", str(results),
            "--runs-dir", str(tmp_path / "runs")]
    assert main(argv) == 0
    assert f"wrote {out_path}" in capsys.readouterr().out
    page = out_path.read_text()
    assert "<svg" in page and "Runs in flight" in page
    assert "<script" not in page  # the static page has no SSE hook

    with pytest.raises(SystemExit) as excinfo:
        main(["watch", *argv[2:]])  # --out without --once: serving writes no file
    assert excinfo.value.code == 2
    assert "--out requires --once" in capsys.readouterr().err


def test_watch_once_out_without_results_is_an_empty_state(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no benchmarks/results, no BENCH files, no runs/
    assert main(["watch", "--once", "--out", "page.html"]) == 0
    page = (tmp_path / "page.html").read_text()
    # The figures and the agreement panel say so, like every other panel.
    assert page.count("no fig11 CSV in <code>benchmarks/results</code>") == 2
    assert "no bench history yet" in page and "no run records yet" in page
    assert "<svg" not in page


def test_simulate_live_writes_feed_and_joins_registry(tmp_path, capsys):
    from repro.telemetry.live import read_feed
    from repro.telemetry.runstore import RunStore

    runs_dir = tmp_path / "runs"
    code = main(
        [
            *SIM_ARGS,
            "--seed",
            "7",
            "--live",
            "--epoch",
            "500",
            "--runs-dir",
            str(runs_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    [record] = RunStore(runs_dir).load()
    feed_path = runs_dir / "live" / f"{record.run_id}.jsonl"
    assert feed_path.is_file()
    assert record.artifacts["live"] == str(feed_path)
    events = read_feed(feed_path)  # strict read: every event passes the schema
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "start" and kinds[-1] == "finish"
    assert kinds.count("epoch") == 3  # 1500 cycles at --epoch 500
    # The feed and the registry record share one run id: the fleet view join.
    assert all(e["run_id"] == record.run_id for e in events)
    assert events[0]["meta"]["seed"] == 7
    assert f"live={feed_path}" in out


def test_simulate_live_does_not_perturb_results(tmp_path, capsys):
    """The feed observes the run; the simulation itself must not change."""

    def stats_block(text):
        return [
            line
            for line in text.splitlines()
            if ":" in line and not line.startswith(("wrote ", "artifacts "))
        ]

    assert main([*SIM_ARGS, "--seed", "11"]) == 0
    plain = stats_block(capsys.readouterr().out)
    assert main(
        [*SIM_ARGS, "--seed", "11", "--live", "--runs-dir", str(tmp_path)]
    ) == 0
    live = stats_block(capsys.readouterr().out)
    assert plain == live


def test_simulate_live_validates_interval(tmp_path):
    """The feed's interval is the one sampling period, --epoch."""
    with pytest.raises(SystemExit):
        main([*SIM_ARGS, "--live", "--epoch", "0",
              "--runs-dir", str(tmp_path)])


def test_health_raises_nothing_on_a_healthy_run_through_warmup(capsys):
    """Warm-up epochs deliver no measured packet by design: not a stall."""
    assert main(
        ["simulate", "--chiplets", "2x2", "--cycles", "20000", "--rate", "0.1",
         "--health", "--epoch", "200", "--no-record"]
    ) == 0
    assert "[health]" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--stride", "0"],
        ["simulate", "--cycles", "0"],
        ["simulate", "--epoch", "0"],
    ],
    ids=lambda argv: argv[-2],
)
def test_a_count_below_one_is_a_usage_error(argv, capsys):
    """The parser rejects it by flag name; nothing is built, run or written."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    last_line = capsys.readouterr().err.splitlines()[-1]
    assert re.fullmatch(
        rf"repro {argv[0]}: error: argument {argv[-2]}: must be >= 1, got -?\d+", last_line
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["postmortem", "bundle.json", "--tail", "0"], "must be >= 1, got 0"),
        (["postmortem", "bundle.json", "--tail", "-3"], "must be >= 1, got -3"),
        (["watch", "--top", "0"], "must be >= 1, got 0"),
        (["watch", "--poll", "-1"], "must be > 0, got -1"),
        (["watch", "--poll", "nan"], "must be > 0, got nan"),
        (["simulate", "--recorder-window", "0"], "must be >= 1, got 0"),
    ],
    ids=lambda arg: " ".join(arg) if isinstance(arg, list) else None,
)
def test_a_count_or_interval_out_of_range_is_a_usage_error(argv, message, capsys):
    """`--tail 0` used to print the whole recorder tail (``[-0:]``), `--tail -3`
    dropped its head, `watch --top 0` listed every record and `--poll -1`
    made every SSE handler's `time.sleep` raise: each is now an argparse error."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    last_line = capsys.readouterr().err.splitlines()[-1]
    assert last_line == f"repro {argv[0]}: error: argument {argv[-2]}: {message}"


def test_watch_once_prints_fleet_state(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    assert main([*SIM_ARGS, "--seed", "7", "--live", "--runs-dir",
                 str(runs_dir)]) == 0
    capsys.readouterr()
    code = main(["watch", "--once", "--runs-dir", str(runs_dir)])
    assert code == 0
    state = json.loads(capsys.readouterr().out)
    assert state["records"] == 1
    assert state["skipped"] == 0
    [status] = state["live"]
    assert status["state"] == "finished"


def test_watch_once_warns_about_skipped_lines(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    (runs_dir / "runs.jsonl").write_text("{corrupt\n")
    assert main(["watch", "--once", "--runs-dir", str(runs_dir)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["skipped"] == 1
    assert "skipped 1 unreadable registry line" in captured.err


def test_dashboard_cli_warns_about_skipped_lines(tmp_path, capsys, monkeypatch):
    from .test_dashboard import write_fig11_csv

    monkeypatch.chdir(tmp_path)
    results = tmp_path / "results"
    write_fig11_csv(results)
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    (runs_dir / "runs.jsonl").write_text("{corrupt\n")
    code = main(
        [
            "watch",
            "--once",
            "--out",
            str(tmp_path / "dash.html"),
            "--results-dir",
            str(results),
            "--runs-dir",
            str(runs_dir),
        ]
    )
    assert code == 0
    assert "skipped 1 unreadable registry line" in capsys.readouterr().err
    assert "1 unreadable registry line skipped" in (tmp_path / "dash.html").read_text()

"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main


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


def test_check_single_family_passes(capsys):
    assert main(["check", "--family", "parallel_mesh"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "parallel-mesh-2x2(3x3)" in out


def test_check_all_families_pass(capsys):
    assert main(["check", "--all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_check_wormhole_mode_flags_adaptive_family(capsys):
    assert main(["check", "--family", "serial_torus", "--mode", "wormhole"]) == 1
    out = capsys.readouterr().out
    assert "CDG-CYCLE-EXTENDED" in out
    assert "FAILED verification" in out


def test_check_wormhole_mode_passes_hypercube(capsys):
    assert main(["check", "--family", "serial_hypercube", "--mode", "wormhole"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_exits_nonzero_on_injected_cycle(capsys, monkeypatch):
    """Replace the routing factory with a deadlocking ring: the genuine
    `repro check` path must report the cycle and exit 1."""

    def ring_factory(spec, **_kwargs):
        def ring_routing(router, packet):
            if packet.dst == router.node:
                return [(0, 0, True)]
            by_tag = router.out_port_by_tag
            port = by_tag.get(("mesh", "E"), by_tag.get(("wrap", "E")))
            if port is None:
                port = by_tag.get(("mesh", "N"), by_tag.get(("mesh", "S")))
            return [(port, 0, True)]

        return ring_routing

    monkeypatch.setattr("repro.sim.build.make_routing", ring_factory)
    assert main(["check", "--family", "serial_torus"]) == 1
    out = capsys.readouterr().out
    assert "CDG-CYCLE" in out
    assert "FAIL" in out


def test_check_requires_family_or_all():
    with pytest.raises(SystemExit):
        main(["check"])


def test_check_grid_alias_accepts_nondefault_geometry(capsys):
    assert main(
        ["check", "--family", "parallel_mesh", "--grid", "3x2", "--nodes", "2x2"]
    ) == 0
    out = capsys.readouterr().out
    assert "parallel-mesh-3x2(2x2)" in out
    assert "PASS" in out


def test_check_json_document(tmp_path, capsys):
    json_path = tmp_path / "check.json"
    assert main(["check", "--all", "--json", str(json_path)]) == 0
    assert f"wrote {json_path}" in capsys.readouterr().out
    doc = json.loads(json_path.read_text())
    assert doc["ok"] is True
    assert len(doc["reports"]) == 5
    assert all(r["ok"] for r in doc["reports"])
    assert {r["mode"] for r in doc["reports"]} == {"vct"}


def test_check_prove_flag_certifies(tmp_path, capsys):
    json_path = tmp_path / "prove.json"
    code = main(
        ["check", "--family", "parallel_mesh", "--prove", "--json", str(json_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "CERTIFIED" in out
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
    assert code == 0
    out = capsys.readouterr().out
    assert "[mode=vct]" in out
    assert "[mode=wormhole]" in out
    assert "CDG-CYCLE-REFUTED" in out
    doc = json.loads(json_path.read_text())
    assert doc["certified"] is True
    assert [c["mode"] for c in doc["certificates"]] == ["vct", "wormhole"]
    wormhole = doc["certificates"][1]
    assert wormhole["modelcheck"]["verdict"].startswith("refuted")


def test_prove_exits_nonzero_on_injected_cycle(capsys, monkeypatch):
    """A genuinely deadlocking escape must be refused certification with
    a realized counterexample, not downgraded."""

    def ring_factory(spec, **_kwargs):
        def ring_routing(router, packet):
            if packet.dst == router.node:
                return [(0, 0, True)]
            by_tag = router.out_port_by_tag
            port = by_tag.get(("mesh", "E"), by_tag.get(("wrap", "E")))
            if port is None:
                port = by_tag.get(("mesh", "N"), by_tag.get(("mesh", "S")))
            return [(port, 0, True)]

        return ring_routing

    monkeypatch.setattr("repro.sim.build.make_routing", ring_factory)
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


@pytest.fixture(scope="module")
def bench_cli_run(tmp_path_factory):
    """The one end-to-end ``repro bench``: (exit code, stdout, directory)."""
    import contextlib
    import io

    tmp_path = tmp_path_factory.mktemp("bench-cli")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(
            [
                "bench",
                "--scale",
                "tiny",
                "--reps",
                "1",
                "--case",
                "fig14_hetero_channel",
                "--out-dir",
                str(tmp_path),
                "--runs-dir",
                str(tmp_path / "runs"),
            ]
        )
    return code, stdout.getvalue(), tmp_path


def test_bench_cli_writes_bench_file(bench_cli_run):
    code, out, tmp_path = bench_cli_run
    assert code == 0
    path = tmp_path / "BENCH_0.json"
    assert path.is_file()
    assert f"wrote {path}" in out
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert list(doc["cases"]) == ["fig14_hetero_channel"]
    # The per-phase host-time block rides along for `repro compare`.
    host = doc["cases"]["fig14_hetero_channel"]["host"]
    assert 0.95 <= host["conservation"] <= 1.05
    # One kind="bench" registry record feeds the dashboard's
    # performance panel.
    from repro.telemetry.runstore import RunStore

    records = RunStore(tmp_path / "runs").load()
    assert len(records) == 1 and records[0].kind == "bench"
    assert "fig14_hetero_channel" in records[0].bench
    assert f"recorded {tmp_path / 'runs' / 'runs.jsonl'}" in out
    # The mem block rides along for the regression sentinel: full block
    # (with sites) in the file, slim block (no sites) in the registry.
    from repro.telemetry.memprof import validate_mem_block

    validate_mem_block(doc["cases"]["fig14_hetero_channel"]["mem"])
    slim = records[0].bench["fig14_hetero_channel"]["mem"]
    assert slim["peak_bytes"] > 0 and "top_sites" not in slim


def test_bench_record_and_bench_file_are_one_shape(bench_cli_run):
    """The registry record is the file's case blocks minus the bulk, so
    history reads the same series from either and compare sees no delta."""
    from repro.telemetry.bench import load_bench
    from repro.telemetry.compare import compare_bench
    from repro.telemetry.history import load_history
    from repro.telemetry.runstore import RunStore

    _, _, tmp_path = bench_cli_run
    doc = load_bench(tmp_path / "BENCH_0.json")
    [record] = RunStore(tmp_path / "runs").load()
    block = record.bench["fig14_hetero_channel"]
    assert "samples" not in block["cps"] and "checkpoints" not in block["digest"]
    assert block["events"] == doc["cases"]["fig14_hetero_channel"]["events"]

    from_file = load_history(None, bench_dirs=[tmp_path])
    from_record = load_history(tmp_path / "runs")
    assert from_file.runs == from_record.runs == 1
    assert set(from_file.series) == set(from_record.series)
    for key, series in from_file.series.items():
        assert series.values == pytest.approx(from_record.series[key].values, nan_ok=True)
    assert from_file.get("fig14_hetero_channel", "cycles_per_second").values[0] > 0

    verdicts = compare_bench(doc, {"cases": record.bench})
    assert {v.verdict for v in verdicts} <= {"noise", "n/a"}
    by_metric = {v.metric: v for v in verdicts}
    assert by_metric["digest.match"].verdict == "noise"  # same chain, not n/a
    assert by_metric["mem.peak_bytes"].a == by_metric["mem.peak_bytes"].b > 0


def test_bench_cli_rejects_unknown_case(tmp_path):
    with pytest.raises(SystemExit, match="unknown bench case"):
        main(["bench", "--case", "fig99", "--out-dir", str(tmp_path)])


def _write_bench_pair(tmp_path, cps_a, cps_b):
    from .test_bench_compare import make_bench_doc, make_case

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(make_bench_doc(fig11=make_case(cps_median=cps_a, cps_iqr=0.0))))
    b.write_text(json.dumps(make_bench_doc(fig11=make_case(cps_median=cps_b, cps_iqr=0.0))))
    return a, b


def test_compare_cli_is_warn_only_by_default(tmp_path, capsys):
    a, b = _write_bench_pair(tmp_path, 5_000.0, 3_000.0)  # a clear regression
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "! regressed" in out
    assert "1 regression(s)" in out


def test_compare_cli_strict_exits_nonzero_on_regression(tmp_path, capsys):
    a, b = _write_bench_pair(tmp_path, 5_000.0, 3_000.0)
    assert main(["compare", str(a), str(b), "--strict"]) == 1
    capsys.readouterr()
    # Improvements never fail, even under --strict.
    assert main(["compare", str(b), str(a), "--strict"]) == 0


def test_compare_cli_missing_file_is_a_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="no such file"):
        main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")])


def test_compare_cli_gate_filters_strict_exit(tmp_path, capsys):
    # Regression is in wall_seconds/cycles_per_second; a gate on an
    # unrelated metric keeps --strict green, a matching gate trips it.
    a, b = _write_bench_pair(tmp_path, 5_000.0, 3_000.0)
    assert main(["compare", str(a), str(b), "--strict", "--gate", "events"]) == 0
    capsys.readouterr()
    code = main(
        ["compare", str(a), str(b), "--strict", "--gate", "cycles_per_second"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "gated regression(s)" in err
    assert "cycles_per_second" in err


def test_compare_cli_chains_three_files_and_writes_json(tmp_path, capsys):
    from .test_bench_compare import make_bench_doc, make_case

    paths = []
    for index, cps in enumerate((5_000.0, 5_050.0, 3_000.0)):
        path = tmp_path / f"BENCH_{index}.json"
        path.write_text(
            json.dumps(make_bench_doc(fig11=make_case(cps_median=cps, cps_iqr=0.0)))
        )
        paths.append(str(path))
    report_path = tmp_path / "compare.json"
    assert main(["compare", *paths, "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "step 1/2" in out and "step 2/2" in out
    assert "chain total: 1 regression(s)" in out
    doc = json.loads(report_path.read_text())
    assert doc["kind"] == "compare"
    assert len(doc["steps"]) == 2 and doc["regressions"] == 1
    # The chain gates strict mode exactly like the two-operand form.
    assert main(["compare", *paths, "--strict"]) == 1


def test_regress_cli_flags_step_and_passes_noise(tmp_path, capsys):
    from .helpers import make_records, write_registry

    stepped = tmp_path / "stepped"
    write_registry(stepped, make_records(step_at=20, culprit="rc_va"))
    report_path = tmp_path / "sentinel.json"
    code = main([
        "regress", "--runs-dir", str(stepped), "--strict",
        "--json", str(report_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "! regressed" in out
    assert "culprit: rc_va" in out
    doc = json.loads(report_path.read_text())
    assert doc["kind"] == "sentinel" and doc["regressions"] >= 3
    named = [
        r["changepoint"]["key"]
        for r in doc["reports"]
        if r["verdict"] == "regressed" and r["metric"] == "cycles_per_second"
    ]
    assert named and all(
        abs(int(key.split("-")[1]) - 20) <= 2 for key in named
    )

    flat = tmp_path / "flat"
    write_registry(flat, make_records())
    assert main(["regress", "--runs-dir", str(flat), "--strict"]) == 0
    # Without --strict even a stepped registry exits 0 (warn-only mode).
    capsys.readouterr()
    assert main(["regress", "--runs-dir", str(stepped)]) == 0


def test_regress_cli_empty_registry_is_clean(tmp_path, capsys):
    assert main(["regress", "--runs-dir", str(tmp_path / "nothing"), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "no bench history" in out
    # A registry with only simulate records is just as empty to the sentinel.
    from repro.telemetry.runstore import RunStore

    from .test_runstore import make_record

    runs = tmp_path / "runs"
    RunStore(runs).append(make_record())
    assert main(["regress", "--runs-dir", str(runs), "--strict"]) == 0


def test_regress_cli_metric_filter_and_bad_window(tmp_path, capsys):
    from .helpers import make_records, write_registry

    runs = tmp_path / "runs"
    write_registry(runs, make_records(step_at=20))
    assert main([
        "regress", "--runs-dir", str(runs), "--metric", "mem.", "--strict",
    ]) == 0  # the step hits throughput, not memory
    out = capsys.readouterr().out
    assert "cycles_per_second" not in out
    with pytest.raises(SystemExit, match="min_segment"):
        main(["regress", "--runs-dir", str(runs), "--window", "1"])


def test_profile_cli_writes_artifacts(tmp_path, capsys):
    from repro.telemetry.hostprof import load_speedscope, validate_speedscope

    out_dir = tmp_path / "prof"
    code = main(
        [
            "profile",
            "--family",
            "hetero_phy_torus",
            "--chiplets",
            "2x2",
            "--nodes",
            "3x3",
            "--cycles",
            "1200",
            "--rate",
            "0.1",
            "--seed",
            "3",
            "--stride",
            "2",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "phase" in out and "conservation" in out
    host = json.loads((out_dir / "profile.host.json").read_text())
    assert host["stride"] == 2
    assert 0.95 <= host["conservation"] <= 1.05
    doc = load_speedscope(out_dir / "profile.speedscope.json")
    validate_speedscope(doc)
    folded = (out_dir / "profile.folded.txt").read_text()
    assert folded.splitlines() and folded.startswith("engine;")


def test_profile_cli_mem_mode(tmp_path, capsys):
    from repro.telemetry.memprof import validate_mem_block

    out_dir = tmp_path / "prof"
    code = main(
        [
            "profile",
            "--family", "hetero_phy_torus",
            "--chiplets", "2x2",
            "--nodes", "3x3",
            "--cycles", "1200",
            "--rate", "0.1",
            "--seed", "3",
            "--out-dir", str(out_dir),
            "--mem",
            "--mem-top", "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "memory attribution" in out and "peak heap" in out
    block = validate_mem_block(json.loads((out_dir / "profile.mem.json").read_text()))
    assert block["peak_bytes"] > 0
    assert len(block["top_sites"]) <= 5


def test_dashboard_cli(tmp_path, capsys):
    from .test_dashboard import write_fig11_csv

    results = tmp_path / "results"
    write_fig11_csv(results)
    out_path = tmp_path / "dash.html"
    code = main(
        [
            "dashboard",
            "--out",
            str(out_path),
            "--results-dir",
            str(results),
            "--scale",
            "tiny",
            "--bench-dir",
            str(tmp_path),
            "--runs-dir",
            str(tmp_path / "runs"),
        ]
    )
    assert code == 0
    assert f"wrote {out_path}" in capsys.readouterr().out
    assert "<svg" in out_path.read_text()


def test_dashboard_cli_without_results_is_a_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="no benchmark CSVs"):
        main(
            [
                "dashboard",
                "--out",
                str(tmp_path / "dash.html"),
                "--results-dir",
                str(tmp_path / "missing"),
            ]
        )


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
            "--live-every",
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
    assert kinds.count("heartbeat") == 3  # 1500 cycles at --live-every 500
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
    with pytest.raises(SystemExit):
        main([*SIM_ARGS, "--live", "--live-every", "0",
              "--runs-dir", str(tmp_path)])


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--stride", "0"],
        ["bench", "--host-stride", "0"],
        ["bench", "--reps", "0"],
        ["bench", "--mem-top", "0"],
        ["simulate", "--epoch", "0"],
        ["simulate", "--health", "--health-every", "0"],
        ["simulate", "--live", "--live-every", "-5"],
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
        rf"repro {argv[0]}: error: argument {argv[-2]}: must be >= 1", last_line
    )


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


def test_dashboard_cli_warns_about_skipped_lines(tmp_path, capsys):
    from .test_dashboard import write_fig11_csv

    results = tmp_path / "results"
    write_fig11_csv(results)
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    (runs_dir / "runs.jsonl").write_text("{corrupt\n")
    code = main(
        [
            "dashboard",
            "--out",
            str(tmp_path / "dash.html"),
            "--results-dir",
            str(results),
            "--scale",
            "tiny",
            "--runs-dir",
            str(runs_dir),
        ]
    )
    assert code == 0
    assert "skipped 1 unreadable registry line" in capsys.readouterr().err

"""Tests for the append-only run registry (``repro.telemetry.runstore``)."""

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.sim.config import SimConfig
from repro.sim.experiment import run_synthetic
from repro.telemetry.runstore import (
    RUN_SCHEMA_VERSION,
    RunRecord,
    RunStore,
    RunStoreError,
    config_digest,
    new_run_id,
    record_from_result,
    system_digest,
    utc_now_iso,
)
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system


def make_record(**overrides) -> RunRecord:
    data = dict(
        run_id=new_run_id(),
        created=utc_now_iso(),
        kind="simulate",
        label="hetero_phy_torus",
        scale="tiny",
        seed=7,
        config_hash="abc123def456",
        git_rev="0000000",
        workload="uniform@0.1",
        policy="performance",
        n_nodes=36,
        cycles=2_000,
        wall_seconds=0.5,
        cycles_per_second=4_000.0,
        stats={"avg_latency": 21.5, "delivered_fraction": 0.99},
        artifacts={"trace": "run.json"},
        extras={"rows": 4.0},
    )
    data.update(overrides)
    return RunRecord(**data)


# -- JSONL round-trip --------------------------------------------------------
def test_append_load_roundtrip(tmp_path):
    store = RunStore(tmp_path / "runs")
    first, second = make_record(), make_record(label="second")
    path = store.append(first)
    store.append(second)
    assert path == tmp_path / "runs" / "runs.jsonl"
    loaded = store.load()
    assert loaded == [first, second]
    assert len(store) == 2
    # Append-only: a re-opened store sees the same records plus new ones.
    reopened = RunStore(tmp_path / "runs")
    reopened.append(make_record(label="third"))
    assert [r.label for r in reopened.load()] == [
        "hetero_phy_torus", "second", "third",
    ]


def test_empty_or_missing_store(tmp_path):
    store = RunStore(tmp_path / "never-written")
    assert store.load() == []
    assert len(store) == 0


# -- schema enforcement ------------------------------------------------------
def test_foreign_schema_version_rejected(tmp_path):
    record = make_record()
    data = record.to_dict()
    data["schema_version"] = RUN_SCHEMA_VERSION + 1
    store = RunStore(tmp_path)
    store.directory.mkdir(exist_ok=True)
    store.path.write_text(json.dumps(data) + "\n")
    with pytest.raises(RunStoreError, match="schema"):
        store.load()
    with pytest.raises(RunStoreError, match="not supported"):
        RunRecord.from_dict(data)


def test_unknown_fields_rejected():
    data = make_record().to_dict()
    data["surprise"] = 1
    with pytest.raises(RunStoreError, match="unknown fields"):
        RunRecord.from_dict(data)


def test_corrupt_lines_raise_strict_and_skip_lenient(tmp_path):
    store = RunStore(tmp_path)
    store.append(make_record(label="good"))
    with store.path.open("a") as handle:
        handle.write("{not json\n")
        handle.write('"a bare string"\n')
    store.append(make_record(label="after"))
    with pytest.raises(RunStoreError, match="unreadable"):
        store.load()
    labels = [r.label for r in store.load(strict=False)]
    assert labels == ["good", "after"]


# -- digests -----------------------------------------------------------------
def test_config_digest_is_stable_and_order_insensitive():
    a = config_digest({"x": 1, "y": [2, 3]})
    b = config_digest({"y": [2, 3], "x": 1})
    assert a == b
    assert len(a) == 12
    assert a != config_digest({"x": 1, "y": [2, 4]})


def test_system_digest_covers_workload_and_policy():
    grid = ChipletGrid(2, 2, 2, 2)
    spec = build_system("parallel_mesh", grid, SimConfig().scaled(500))
    base = system_digest(spec, workload="uniform@0.1", policy="performance")
    assert base == system_digest(spec, workload="uniform@0.1", policy="performance")
    assert base != system_digest(spec, workload="uniform@0.2", policy="performance")
    assert base != system_digest(spec, workload="uniform@0.1", policy="balanced")


# -- integration with RunResult ----------------------------------------------
def test_record_from_real_run(tmp_path):
    grid = ChipletGrid(2, 2, 2, 2)
    spec = build_system("parallel_mesh", grid, SimConfig().scaled(600))
    result = run_synthetic(spec, "uniform", 0.1, seed=3)
    assert result.wall_seconds > 0
    assert result.cycles_per_second > 0
    assert len(result.config_hash) == 12

    record = record_from_result(
        result, kind="simulate", scale="tiny", git_rev="cafef00d",
        artifacts={"trace": "t.json"},
    )
    assert record.schema_version == RUN_SCHEMA_VERSION
    assert record.label == result.system
    assert record.seed == 3
    assert record.config_hash == result.config_hash
    assert record.stats["avg_latency"] == result.avg_latency
    assert record.artifacts == {"trace": "t.json"}

    store = RunStore(tmp_path)
    store.append(record)
    assert store.load() == [record]


def test_breakdown_roundtrips_and_old_records_load(tmp_path):
    store = RunStore(tmp_path / "runs")
    breakdown = {
        "packets": 7,
        "avg_latency": 21.5,
        "stages": {"switch_wait": {"total": 70, "share": 1.0, "mean": 10.0,
                                   "p50": 10, "p95": 12, "p99": 14}},
        "bottleneck_links": [{"link": 0, "src": 0, "dst": 1, "kind": "onchip",
                              "queue_cycles": 70, "stall_cycles": 3,
                              "packets": 7}],
    }
    store.append(make_record(label="with", breakdown=breakdown))
    # A record written before the field existed: same schema, no key.
    old = make_record(label="without").to_dict()
    del old["breakdown"]
    with store.path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(old) + "\n")

    loaded = store.load()
    assert loaded[0].breakdown == breakdown
    assert loaded[1].breakdown == {}  # default for pre-breakdown records


def test_record_from_result_captures_ledger_breakdown(tmp_path):
    from repro.telemetry import TelemetryConfig

    grid = ChipletGrid(2, 2, 2, 2)
    spec = build_system("parallel_mesh", grid, SimConfig().scaled(600))
    plain = run_synthetic(spec, "uniform", 0.1, seed=3)
    assert record_from_result(plain, git_rev="x").breakdown == {}

    result = run_synthetic(
        spec, "uniform", 0.1, seed=3,
        telemetry=TelemetryConfig(latency_breakdown=True),
    )
    record = record_from_result(result, git_rev="x")
    assert record.breakdown["packets"] == result.stats.packets_delivered
    assert set(record.breakdown) == {
        "packets", "avg_latency", "stages", "bottleneck_links",
    }
    store = RunStore(tmp_path)
    store.append(record)
    assert store.load() == [record]


def test_corrupt_lines_at_head_middle_tail_counted_lenient(tmp_path):
    store = RunStore(tmp_path)
    store.directory.mkdir(parents=True, exist_ok=True)
    good = [json.dumps(make_record(label=f"ok{i}").to_dict()) for i in range(4)]
    lines = ["{corrupt head", good[0], good[1], "not json at all",
             good[2], good[3], '["corrupt", "tail"]']
    store.path.write_text("\n".join(lines) + "\n")

    with pytest.raises(RunStoreError, match="runs.jsonl:1"):
        store.load()  # strict mode names the first bad line
    labels = [r.label for r in store.load(strict=False)]
    assert labels == ["ok0", "ok1", "ok2", "ok3"]
    assert store.skipped == 3  # head + middle + tail


def test_runstore_loads_5k_records_within_budget(tmp_path):
    import time

    store = RunStore(tmp_path)
    store.directory.mkdir(parents=True, exist_ok=True)
    with store.path.open("w", encoding="utf-8") as handle:
        for index in range(5_000):
            record = make_record(run_id=f"r{index:05d}", created="2026-01-01T00:00:00+00:00")
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")

    start = time.perf_counter()
    records = store.load(strict=False)
    elapsed = time.perf_counter() - start
    assert len(records) == 5_000
    assert store.skipped == 0
    # Generous CI budget: the registry must stay cheap to scan even when
    # a long-lived checkout has accumulated thousands of runs.
    assert elapsed < 5.0, f"5k-record load took {elapsed:.2f}s"


def test_older_schema_records_and_sentinel(tmp_path):
    """Records written before the breakdown/forensics/digest fields existed
    still flow through the store; a ``kind="bench"`` line from before PR 24
    (it carried the suite's case blocks in a ``bench`` field) is an
    unreadable line to lenient readers, and the sentinel reads bench
    *files*, never the registry."""
    store = RunStore(tmp_path / "runs")
    old = make_record(created="2026-01-01T00:00:00+00:00").to_dict()
    for newer_field in ("breakdown", "forensics", "digest"):
        del old[newer_field]
    retired = dict(old, kind="bench", bench={"fig11": {"cps": {"median": 4_000.0}}})
    store.directory.mkdir(parents=True, exist_ok=True)
    store.path.write_text(json.dumps(old) + "\n" + json.dumps(retired) + "\n")

    [record] = store.load(strict=False)
    assert record.breakdown == {} and record.digest == {}
    assert store.skipped == 1
    with pytest.raises(RunStoreError, match="unknown fields: bench"):
        store.load()

    from repro.telemetry.history import load_history
    from repro.telemetry.sentinel import analyze_history

    report = analyze_history(load_history([tmp_path / "runs"]))
    assert report.reports == [] and report.regressions() == []


def test_lenient_load_counts_skipped_lines(tmp_path):
    store = RunStore(tmp_path)
    store.append(make_record(label="good"))
    foreign = make_record().to_dict()
    foreign["schema_version"] = RUN_SCHEMA_VERSION + 1
    with store.path.open("a") as handle:
        handle.write("{not json\n")
        handle.write(json.dumps(foreign) + "\n")
    store.append(make_record(label="after"))

    assert store.skipped == 0  # untouched until a lenient read runs
    records = store.load(strict=False)
    assert [r.label for r in records] == ["good", "after"]
    assert store.skipped == 2  # the corrupt line and the foreign schema
    # The counter is per-read, not cumulative across reads.
    store.load(strict=False)
    assert store.skipped == 2


def test_a_killed_run_leaves_a_readable_registry(tmp_path):
    """SIGKILL mid-run (no ``finally`` runs): the registry still loads
    strictly and holds exactly the record it held before the run."""
    runs = tmp_path / "runs"
    seeded = make_record()
    RunStore(runs).append(seeded)
    command = [
        sys.executable, "-m", "repro.cli", "simulate",
        "--family", "parallel_mesh", "--chiplets", "2x2", "--nodes", "3x3",
        "--cycles", "10000000", "--rate", "0.1", "--progress", "--epoch", "50",
        "--runs-dir", str(runs),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        # The first progress line: the run is past set-up and simulating.
        deadline = time.monotonic() + 60
        line = b""
        while not line.endswith(b"\n") and time.monotonic() < deadline:
            if select.select([child.stderr], [], [], 0.1)[0]:
                chunk = os.read(child.stderr.fileno(), 1)
                if not chunk:
                    break
                line += chunk
        assert line.startswith(b"cycle "), line
        assert child.poll() is None, "the run ended before it could be killed"
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stderr.close()
    assert child.returncode == -signal.SIGKILL
    assert RunStore(runs).load() == [seeded]

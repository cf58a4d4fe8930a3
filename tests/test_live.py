"""Tests for the live telemetry feed (``repro.telemetry.live``)."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.noc.flit import Packet
from repro.telemetry import (
    LIVE_SCHEMA_VERSION,
    LiveFeed,
    LiveFeedError,
    EtaEstimator,
    TelemetryConfig,
    TelemetrySession,
    feed_status,
    live_feed_path,
    read_feed,
    validate_live_event,
)
from repro.telemetry.live import ENVELOPE_FIELDS, EVENT_KINDS
from repro.telemetry.metrics import EpochMetrics, HealthMonitor, HealthThresholds
from repro.telemetry.runstore import RunStore

from .helpers import build_chain, run_cycles


def make_feed(tmp_path, network, *, every=None, total_cycles=None, **kwargs):
    """A feed on ``network``, reading an ``every``-cycle sampler when given."""
    kwargs.setdefault("run_id", "feedtest00001")
    kwargs.setdefault("directory", tmp_path / "live")
    feed = LiveFeed(network, eta=EtaEstimator(total_cycles), **kwargs)
    if every is not None:
        EpochMetrics(network, epoch_length=every, readers=[feed.on_epoch])
    return feed


# -- schema validation --------------------------------------------------------
def test_validate_rejects_non_object():
    with pytest.raises(LiveFeedError, match="not a JSON object"):
        validate_live_event(["not", "a", "dict"])


def test_validate_rejects_foreign_schema_version():
    with pytest.raises(LiveFeedError, match="not supported"):
        validate_live_event({"schema_version": LIVE_SCHEMA_VERSION + 1})


def test_validate_rejects_missing_envelope_field():
    event = dict.fromkeys(ENVELOPE_FIELDS, 0)
    event["schema_version"] = LIVE_SCHEMA_VERSION
    del event["seq"]
    with pytest.raises(LiveFeedError, match="envelope field 'seq'"):
        validate_live_event(event)


def test_validate_rejects_unknown_kind():
    event = dict.fromkeys(ENVELOPE_FIELDS, 0)
    event["schema_version"] = LIVE_SCHEMA_VERSION
    event["kind"] = "surprise"
    with pytest.raises(LiveFeedError, match="unknown live event kind"):
        validate_live_event(event)


def test_validate_rejects_missing_payload_field():
    event = dict.fromkeys(ENVELOPE_FIELDS, 0)
    event["schema_version"] = LIVE_SCHEMA_VERSION
    event["kind"] = "failure"
    event.update(cycle=5, reason="deadlock", error="boom")  # no "bundle"
    with pytest.raises(LiveFeedError, match="missing fields: bundle"):
        validate_live_event(event)


# -- write -> validate -> load round-trip -------------------------------------
def test_feed_roundtrip_write_validate_load(tmp_path):
    network, stats = build_chain(3)
    feed = make_feed(tmp_path, network, every=10, total_cycles=40)
    feed.start({"system": "chain", "workload": "unit"})
    network.inject(Packet(0, 2, 4, 0))
    run_cycles(network, 40)
    path = feed.finish(40)
    assert path == live_feed_path(tmp_path / "live", "feedtest00001")

    # Every line is strict JSON and passes the schema check.
    lines = path.read_text().splitlines()
    for line in lines:
        validate_live_event(json.loads(line))
    events = read_feed(path)  # strict
    assert len(events) == len(lines)
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert all(e["schema_version"] == LIVE_SCHEMA_VERSION for e in events)
    assert all(e["run_id"] == "feedtest00001" for e in events)

    kinds = [e["kind"] for e in events]
    assert kinds[0] == "start"
    assert kinds[-1] == "finish"
    assert kinds.count("epoch") == 4  # cycles 10, 20, 30, 40
    assert events[0]["meta"]["total_cycles"] == 40  # injected by start()
    assert events[-1]["stats"]["packets_delivered"] == stats.packets_delivered
    assert feed.events_written == len(events)


def test_read_feed_strict_raises_lenient_skips(tmp_path):
    network, _stats = build_chain(2)
    feed = make_feed(tmp_path, network, every=10)
    feed.start({"system": "chain"})
    path = feed.finish(0)
    start = read_feed(path)[0]
    epoch = dict(start, kind="epoch", cycle=10, cps=1.0, eta_seconds=None,
                 delivered_fraction=0.5, epoch=dict.fromkeys(EVENT_KINDS["epoch"]["epoch"], 0))
    validate_live_event(epoch)  # the well-typed twin of two lines below
    # A valid envelope with a mistyped field the pages read is as unreadable
    # as a truncated line: each of these once took the fleet page down.
    mistyped = [dict(epoch, cps="fast"), dict(start, meta=[1, 2]), dict(epoch, epoch=None)]
    for event in mistyped:
        with pytest.raises(LiveFeedError, match="mistyped fields"):
            validate_live_event(event)
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"truncated mid-line\n')
        handle.writelines(json.dumps(event) + "\n" for event in mistyped)
    with pytest.raises(LiveFeedError, match="unreadable live event"):
        read_feed(path)
    assert len(read_feed(path, strict=False)) == 2  # start + finish survive


def test_read_feed_missing_file_is_empty(tmp_path):
    assert read_feed(tmp_path / "never-written.jsonl") == []


def test_epoch_events_carry_progress_and_non_finite_floats_become_null(tmp_path):
    network, _stats = build_chain(2)
    feed = make_feed(tmp_path, network, every=10, total_cycles=20)
    feed.start({"system": "chain"})
    run_cycles(network, 20)  # idle: delivered_fraction is 0/0 -> nan
    path = feed.finish(20)
    epochs = [e for e in read_feed(path) if e["kind"] == "epoch"]
    assert [e["cycle"] for e in epochs] == [10, 20]
    assert epochs[-1]["eta_seconds"] in (0.0, None)  # at the horizon
    assert epochs[-1]["delivered_fraction"] is None  # nan sanitised to null
    assert all(e["cps"] is None or e["cps"] > 0 for e in epochs)


# -- one sampler: each epoch and anomaly written once --------------------------
def stream_aged_packet(tmp_path):
    network, _stats = build_chain(3)
    monitor = HealthMonitor(network, thresholds=HealthThresholds(max_packet_age=5))
    feed = make_feed(tmp_path, network, total_cycles=60, monitor=monitor)
    metrics = EpochMetrics(network, epoch_length=10, readers=[monitor.on_epoch, feed.on_epoch])
    feed.start({"system": "chain"})
    network.inject(Packet(0, 2, 64, 0))  # long packet: ages past 5 cycles
    run_cycles(network, 55)
    metrics.finish(55)  # the trailing partial epoch is written too
    return read_feed(feed.finish(55)), metrics, monitor


def test_heartbeat_drains_epochs_and_health_without_duplicates(tmp_path):
    """Each closed epoch, and each health anomaly, reaches the feed once."""
    events, metrics, monitor = stream_aged_packet(tmp_path)
    epochs = [e["epoch"] for e in events if e["kind"] == "epoch"]
    assert [e["end"] for e in epochs] == [10, 20, 30, 40, 50, 55]
    assert [e["index"] for e in epochs] == [s.index for s in metrics.samples]
    anomalies = [e for e in events if e["kind"] == "anomaly"]
    assert [(a["cycle"], a["anomaly_kind"]) for a in anomalies] == [
        (a.cycle, a.kind) for a in monitor.anomalies
    ]


def test_anomalies_are_streamed(tmp_path):
    events, _metrics, _monitor = stream_aged_packet(tmp_path)
    anomalies = [e for e in events if e["kind"] == "anomaly"]
    assert anomalies, "expected the aged packet to raise an anomaly"
    assert anomalies[0]["anomaly_kind"] == "packet-age"
    assert "cycles old" in anomalies[0]["detail"]
    # An anomaly follows the event of the epoch that raised it.
    first = events.index(anomalies[0])
    assert events[first - 1]["kind"] == "epoch"
    assert events[first - 1]["cycle"] == anomalies[0]["cycle"] + 1
    assert "packet-age" in [a["kind"] for a in feed_status(events)["anomalies"]]


# -- lifecycle ----------------------------------------------------------------
def test_feed_validates_interval(tmp_path):
    """The feed's interval is the sampler's epoch, checked at attach."""
    network, _stats = build_chain(2)
    config = TelemetryConfig(live=True, live_dir=tmp_path, epoch_length=0)
    with pytest.raises(ValueError, match="epoch_length"):
        TelemetrySession.attach(network, config)


def test_finish_is_idempotent_and_detaches(tmp_path):
    network, _stats = build_chain(2)
    feed = make_feed(tmp_path, network)
    feed.start({"system": "chain"})
    path = feed.finish(10)
    count = len(read_feed(path))
    assert feed.finish(10) == path  # second call: no-op
    assert len(read_feed(path)) == count
    assert network.telemetry.cycle_end is None  # the feed has no clock of its own
    feed.close()  # close after finish: also a no-op


def test_failure_event_closes_feed_and_blocks_finish(tmp_path):
    network, _stats = build_chain(2)
    config = TelemetryConfig(
        live=True, live_dir=tmp_path, run_id="feedtest00001", epoch_length=10,
        epoch_metrics=False,
    )
    session = TelemetrySession.attach(network, config, total_cycles=100)
    feed = session.live
    feed.start({"system": "chain"})
    run_cycles(network, 17)
    path = feed.fail("deadlock", 17, error="Boom: wedged", bundle="B.json")
    events = read_feed(path)
    assert [e["kind"] for e in events] == ["start", "epoch", "failure"]
    assert events[-1]["reason"] == "deadlock"
    assert events[-1]["bundle"] == "B.json"
    # Finalize closes the partial epoch and calls finish: the failed feed
    # takes neither.
    session.finalize(17)
    assert [e["kind"] for e in read_feed(path)] == [e["kind"] for e in events]
    assert network.telemetry.cycle_end is None


# -- feed_status folding ------------------------------------------------------
def test_feed_status_states(tmp_path):
    network, _stats = build_chain(2)
    feed = make_feed(tmp_path, network, every=10, total_cycles=40)
    feed.start({"system": "chain", "workload": "unit"})
    run_cycles(network, 20)

    running = feed_status(read_feed(feed.path), now=0.0)
    assert running["state"] == "running"
    assert running["run_id"] == "feedtest00001"
    assert running["meta"]["system"] == "chain"
    assert running["cycle"] == 20
    assert running["total_cycles"] == 40
    assert running["fraction"] == pytest.approx(0.5)

    run_cycles(network, 20, start=20)
    feed.finish(40)
    finished = feed_status(read_feed(feed.path))
    assert finished["state"] == "finished"
    assert finished["eta_seconds"] == 0.0
    assert finished["fraction"] == 1.0
    assert finished["wall_seconds"] is not None
    assert finished["age_seconds"] >= 0.0


def test_feed_status_empty_feed_is_pending():
    status = feed_status([])
    assert status["state"] == "pending"
    assert status["cycle"] == 0
    assert status["age_seconds"] is None


# -- end-to-end through the session -------------------------------------------
def test_run_synthetic_live_session(tmp_path, small_grid):
    from repro.sim.config import SimConfig
    from repro.sim.experiment import run_synthetic
    from repro.topology.system import build_system

    spec = build_system("hetero_phy_torus", small_grid, SimConfig(
        sim_cycles=2_000, warmup_cycles=200
    ))
    config = TelemetryConfig(
        live=True,
        live_dir=tmp_path / "live",
        run_id="sessiontest01",
        epoch_length=500,
        health=True,
    )
    result = run_synthetic(spec, "uniform", 0.05, seed=7, telemetry=config)
    session = result.telemetry
    assert session is not None and session.live is not None
    path = tmp_path / "live" / "sessiontest01.jsonl"
    assert session.live.path == path
    assert path in session.written
    events = read_feed(path)
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "start" and kinds[-1] == "finish"
    assert kinds.count("epoch") == 4 and "heartbeat" not in kinds
    meta = events[0]["meta"]
    assert meta["system"] == spec.name
    assert meta["workload"] == "uniform@0.05"
    assert meta["seed"] == 7
    assert meta["total_cycles"] == 2_000
    assert len(meta["config_hash"]) == 12
    status = feed_status(events)
    assert status["state"] == "finished"
    assert status["stats"]["packets_delivered"] == result.stats.packets_delivered
    # Finalize detached the feed with everything else: fast path restored.
    assert session.network.telemetry.cycle_end is None


def test_engine_failure_streams_failure_event(tmp_path):
    """A wedged engine run ends the feed with a bundle-pointing failure."""
    from repro.sim.stats import DeadlockError

    from .test_forensics import ring_engine

    _network, engine = ring_engine(TelemetryConfig(
        forensics=True, bundle_dir=tmp_path / "bundles", live=True,
        live_dir=tmp_path / "live", epoch_length=100,
    ))
    engine.telemetry.live.start({"system": "ring", "workload": "wedge"})
    with pytest.raises(DeadlockError):
        engine.run(4_000)
    events = read_feed(engine.telemetry.live.path)
    failure = events[-1]
    assert failure["kind"] == "failure"
    assert failure["reason"] == "deadlock"
    assert failure["bundle"] and "BUNDLE_deadlock" in failure["bundle"]
    assert "DeadlockError" in failure["error"]
    status = feed_status(events)
    assert status["state"] == "failed"
    assert status["bundle"] == failure["bundle"]


def test_event_kinds_registry_matches_writer():
    """The schema table names exactly the kinds the writer emits."""
    assert set(EVENT_KINDS) == {"start", "epoch", "anomaly", "finish", "failure"}


def test_a_killed_live_run_leaves_a_readable_registry_and_feed(tmp_path):
    """SIGKILL mid-run (no ``finally`` runs): the registry and the feed
    still load, and the feed does not claim the run finished."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = tmp_path / "runs"
    command = [
        sys.executable, "-m", "repro.cli", "simulate",
        "--family", "parallel_mesh", "--chiplets", "2x2", "--nodes", "3x3",
        "--cycles", "10000000", "--rate", "0.1", "--epoch", "50",
        "--live", "--runs-dir", str(runs),
    ]
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        deadline = time.monotonic() + 60
        feeds: list[Path] = []
        while time.monotonic() < deadline and child.poll() is None:
            feeds = sorted((runs / "live").glob("*.jsonl"))
            if feeds and any(
                event["kind"] == "epoch" for event in read_feed(feeds[0], strict=False)
            ):
                break
            time.sleep(0.05)
        assert child.poll() is None, "the run ended before it could be killed"
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert child.returncode == -signal.SIGKILL
    assert RunStore(runs).load(strict=False) == []
    [feed] = feeds
    events = read_feed(feed, strict=False)
    assert events[0]["kind"] == "start"
    status = feed_status(events)
    assert status["state"] != "finished"
    assert status["epochs"] >= 1

"""Flight recorder, health monitor and postmortem forensics.

The anchor test forces the textbook routing deadlock (eastward-only ring
routing on a torus row), lets the engine's failure path capture a bundle,
and cross-checks the *dynamic* wait-for cycle against the *static*
channel dependency graph — the runtime forensics and the
:mod:`repro.analysis` prediction must name the same channel loop.
A second anchor proves the recorder and monitor are strictly passive:
attaching them changes no simulation result.
"""

import json
import os

import pytest

from repro.analysis import build_cdg
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import DeadlockError, DrainTimeoutError, Stats
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySession,
    render_bundle_html,
    render_bundle_text,
)
from repro.telemetry.forensics import (
    FORENSICS_SCHEMA_VERSION,
    RECORDER_PRESETS,
    FlightRecorder,
    _EVENT_ARGS,
    capture_bundle,
    cycle_in_graph,
    extract_wait_graph,
    load_bundle,
    validate_bundle,
    write_bundle,
)
from repro.telemetry.metrics import EpochMetrics, EpochSample, HealthMonitor, HealthThresholds
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic import SyntheticWorkload
from repro.traffic.patterns import make_pattern

from .conftest import make_network
from .test_engine import ListWorkload
from .helpers import build_chain, ring_routing


def test_every_recordable_event_has_a_decoding():
    assert set(_EVENT_ARGS) == set(RECORDER_PRESETS["full"])


# -- the forced deadlock ------------------------------------------------------


def ring_engine(telemetry=None):
    """The eastward ring at rate 1.0 (warm-up 0), wedged within ~600 cycles.

    Returns (network, engine); ``telemetry`` is attached as a session, the
    engine's failure hook.
    """
    grid = ChipletGrid(2, 1, 2, 2)
    config = SimConfig(sim_cycles=4_000, warmup_cycles=0)
    stats = Stats()
    network = build_network(build_system("serial_torus", grid, config), stats, routing=ring_routing)
    pattern = make_pattern("uniform", grid.n_nodes)
    workload = SyntheticWorkload(pattern, grid.n_nodes, 1.0, config.packet_length, seed=3)
    engine = Engine(network, workload, stats, deadlock_threshold=300)
    if telemetry is not None:
        engine.telemetry = TelemetrySession.attach(network, telemetry)
    return network, engine


def run_ring_deadlock(tmp_path, *, recorder=False, health=False):
    """Drive the ring to deadlock with forensics attached; return
    (network, DeadlockError, telemetry session)."""
    network, engine = ring_engine(TelemetryConfig(
        epoch_metrics=False,
        bundle_dir=tmp_path / "forensics",
        flight_recorder=recorder,
        health=health,
        health_thresholds=HealthThresholds(max_packet_age=250),
        epoch_length=250,
        forensics=True,
    ))
    with pytest.raises(DeadlockError) as excinfo:
        engine.run(4_000)
    return network, excinfo.value, engine.telemetry


def test_deadlock_bundle_cycle_matches_static_cdg(tmp_path):
    network, error, session = run_ring_deadlock(
        tmp_path, recorder=True, health=True
    )
    assert error.bundle_path is not None
    bundle = load_bundle(error.bundle_path)
    assert bundle["reason"] == "deadlock"
    assert bundle["error_type"] == "DeadlockError"
    assert bundle["network"]["buffered_flits"] > 0

    # The dynamic wait-for cycle must be a closed walk of the static CDG
    # under both flow-control assumptions (wormhole edges are a superset
    # of VCT edges, so the stricter vct check implies the wormhole one).
    cycle = [tuple(entry) for entry in bundle["waitfor"]["cycle"]]
    assert len(cycle) >= 2
    for mode in ("vct", "wormhole"):
        cdg = build_cdg(network, mode=mode)
        assert cycle_in_graph(cycle, cdg.edges), (
            f"wait-for cycle {cycle} is not a cycle of the {mode} CDG"
        )
    # And the static analysis itself predicts a cycle for this routing.
    assert build_cdg(network, mode="vct").cycle()

    # Forensics extras made it into the bundle.
    assert bundle["recorder"]["events_recorded"] > 0
    # Warm-up 0: every epoch is measured, so the wedge reads as both a
    # stalled network and an aging packet before the engine gives up.
    assert bundle["health"]["probes"] > 0
    assert {"no-throughput", "packet-age"} <= set(bundle["health"]["flags"])
    assert bundle["packets"]["total"] > 0
    stages = {entry["stage"] for entry in bundle["packets"]["table"]}
    assert stages <= {
        "source_queue", "va_wait", "credit_stall", "switch_wait",
        "link_onchip", "link_parallel", "link_serial", "phy_tx_queue",
        "phy_parallel", "phy_serial", "rob_wait", "ejection",
    }


def test_deadlock_bundle_renders_text_and_html(tmp_path):
    _network, error, _session = run_ring_deadlock(tmp_path, recorder=True)
    bundle = load_bundle(error.bundle_path)
    text = render_bundle_text(bundle)
    assert "wait-for cycle" in text
    assert "in-flight packets" in text
    assert "flight recorder" in text
    page = render_bundle_html(bundle)
    assert page.startswith("<!DOCTYPE html>")
    assert "<svg" in page
    assert "wf-arrow-cycle" in page  # the highlighted deadlock loop
    assert "<script" not in page  # self-contained, no scripting


def test_deadlock_bundle_is_filed_at_the_errors_cycle(tmp_path):
    """The bundle, its file name and the error name one cycle, so the
    bundle's packet ages are those the error's message reports."""
    _network, error, _session = run_ring_deadlock(tmp_path)
    bundle = load_bundle(error.bundle_path)
    assert bundle["cycle"] == error.cycle
    assert os.path.basename(error.bundle_path) == f"BUNDLE_deadlock_{error.cycle}.json"


def test_engine_without_forensics_still_raises(tmp_path):
    _network, engine = ring_engine()
    with pytest.raises(DeadlockError) as excinfo:
        engine.run(4_000)
    assert excinfo.value.bundle_path is None


def test_a_failed_bundle_write_masks_nothing(tmp_path):
    """A bundle write that fails masks nothing: the DeadlockError escapes
    without a bundle path."""
    not_a_dir = tmp_path / "forensics"
    not_a_dir.write_text("a regular file", encoding="utf-8")
    _network, engine = ring_engine(TelemetryConfig(
        epoch_metrics=False, forensics=True, bundle_dir=not_a_dir,
    ))
    with pytest.raises(DeadlockError) as excinfo:
        engine.run(4_000)
    assert excinfo.value.bundle_path is None
    assert engine.telemetry.bundle_path is None


# -- passivity: attaching forensics must not change results -------------------


def _run_reference(telemetry=None):
    from repro.sim.experiment import run_synthetic

    grid = ChipletGrid(2, 2, 2, 2)
    config = SimConfig(sim_cycles=1_500, warmup_cycles=100)
    spec = build_system("hetero_phy_torus", grid, config)
    return run_synthetic(spec, "uniform", 0.15, seed=11, telemetry=telemetry)


def test_recorder_and_monitor_are_passive(tmp_path):
    plain = _run_reference()
    observed = _run_reference(
        TelemetryConfig(
            epoch_metrics=False,
            forensics=True,
            bundle_dir=tmp_path / "forensics",
            flight_recorder=True,
            recorder_events="full",
            health=True,
            epoch_length=200,
        )
    )
    assert observed.stats.summary() == plain.stats.summary()
    assert observed.stats.latencies == plain.stats.latencies
    session = observed.telemetry
    assert len(session.recorder) > 0
    assert session.monitor.ages
    assert session.bundle_path is None  # clean run: nothing captured


# -- drain timeout ------------------------------------------------------------


def test_drain_timeout_carries_census_and_bundle(tmp_path):
    from repro.noc.flit import Packet

    network, stats = build_chain(2, buffer_depth=8)
    packet = Packet(0, 1, 16, 0)
    engine = Engine(
        network, ListWorkload([(0, packet)]), stats, deadlock_threshold=None
    )
    engine.telemetry = TelemetrySession.attach(network, TelemetryConfig(
        epoch_metrics=False, forensics=True, bundle_dir=tmp_path / "forensics"
    ))
    with pytest.raises(RuntimeError, match="failed to drain") as excinfo:
        engine.run_until_drained(200)
    error = excinfo.value
    assert isinstance(error, DrainTimeoutError)
    assert isinstance(error, DeadlockError)  # except DeadlockError still works
    assert error.max_cycles == 200
    assert sum(error.census.values()) == error.buffered > 0
    assert error.bundle_path is not None
    bundle = load_bundle(error.bundle_path)
    assert bundle["reason"] == "drain-timeout"


# -- flight recorder units ----------------------------------------------------


def _tiny_network():
    config = SimConfig(sim_cycles=600, warmup_cycles=0)
    grid = ChipletGrid(2, 1, 2, 2)
    spec, network, stats = make_network("parallel_mesh", grid, config)
    return grid, config, network, stats


def _drive(network, stats, grid, config, cycles=400, rate=0.2, seed=5):
    pattern = make_pattern("uniform", grid.n_nodes)
    workload = SyntheticWorkload(
        pattern, grid.n_nodes, rate, config.packet_length, seed=seed
    )
    Engine(network, workload, stats, deadlock_threshold=None).run(cycles)


def test_recorder_window_evicts_old_events():
    grid, config, network, stats = _tiny_network()
    recorder = FlightRecorder(network, window=50, events="packet")
    _drive(network, stats, grid, config, cycles=400)
    events = recorder.events()
    assert events, "a loaded run must record events"
    assert min(e["cycle"] for e in events) >= recorder.now - 50
    tail = recorder.tail(5)
    assert len(tail) == 5
    assert tail == events[-5:]
    assert recorder.tail(0) == []


def test_recorder_max_events_cap_counts_drops():
    grid, config, network, stats = _tiny_network()
    recorder = FlightRecorder(
        network, window=10_000, events="full", max_events=100
    )
    _drive(network, stats, grid, config, cycles=400)
    assert len(recorder) <= 100
    assert recorder.dropped > 0


def test_recorder_detach_stops_recording():
    grid, config, network, stats = _tiny_network()
    recorder = FlightRecorder(network, window=10_000)
    recorder.detach()
    _drive(network, stats, grid, config, cycles=100)
    assert len(recorder) == 0
    # Idempotent, and the bus is back to the zero-cost path.
    recorder.detach()
    assert network.telemetry.packet_inject is None


def test_recorder_rejects_bad_configuration():
    _grid, _config, network, _stats = _tiny_network()
    with pytest.raises(ValueError, match="unknown recorder preset"):
        FlightRecorder(network, events="verbose")
    with pytest.raises(ValueError, match="unknown telemetry event"):
        FlightRecorder(network, events=("no_such_event",))
    with pytest.raises(ValueError, match="unknown telemetry event"):
        FlightRecorder(network, events=("packet_eject", "cycle_end"))
    with pytest.raises(ValueError):
        FlightRecorder(network, window=0)
    with pytest.raises(ValueError):
        FlightRecorder(network, max_events=0)


# -- health monitor units -----------------------------------------------------


def _epoch(start, end, *, warmup=False, delivered=0):
    """A closed epoch that ends with four flits buffered."""
    return EpochSample(
        index=0, start=start, end=end, warmup=warmup, flits_injected=4,
        packets_delivered=delivered, router_flits=0, buffered=4, in_flight=0,
    )


def test_health_monitor_probes_and_flags_rising_edges():
    import io

    grid, config, network, stats = _tiny_network()
    stream = io.StringIO()
    thresholds = HealthThresholds(max_packet_age=1, max_stall_rate=0.0)
    monitor = HealthMonitor(network, thresholds=thresholds, stream=stream)
    EpochMetrics(network, epoch_length=100, readers=[monitor.on_epoch])
    _drive(network, stats, grid, config, cycles=400, rate=0.3)
    assert len(monitor.ages) == 4  # one check per closed epoch
    kinds = {a.kind for a in monitor.anomalies}
    assert "packet-age" in kinds
    assert "[health] cycle 99: " in stream.getvalue()
    summary = monitor.summary()
    assert summary["probes"] == 4
    assert summary["anomaly_count"] == len(monitor.anomalies)
    assert "packet-age" in summary["flags"]
    assert len(summary["oldest_age_series"]) == 4


def test_health_monitor_flags_rising_edges_only():
    from repro.noc.flit import Packet

    _grid, _config, network, _stats = _tiny_network()
    monitor = HealthMonitor(network, thresholds=HealthThresholds(max_packet_age=1))
    network.inject(Packet(0, 3, length=4, create_cycle=0))
    monitor.on_epoch(_epoch(901, 1_001, delivered=1))
    [first] = monitor.anomalies
    assert first.kind == "packet-age" and first.cycle == 1_000
    monitor.on_epoch(_epoch(1_001, 1_101, delivered=1))  # still over: no second flag
    assert monitor.anomalies == [first]


def test_health_monitor_skips_no_throughput_during_warmup():
    _grid, _config, network, _stats = _tiny_network()
    monitor = HealthMonitor(network)
    # Flits in the network, nothing delivered: only a measured epoch flags it.
    monitor.on_epoch(_epoch(0, 200, warmup=True))
    assert monitor.anomalies == []
    monitor.on_epoch(_epoch(200, 400))
    assert [a.kind for a in monitor.anomalies] == ["no-throughput"]


def test_health_monitor_quiet_on_healthy_run():
    grid, config, network, stats = _tiny_network()
    monitor = HealthMonitor(network)
    metrics = EpochMetrics(network, epoch_length=100, readers=[monitor.on_epoch])
    _drive(network, stats, grid, config, cycles=400, rate=0.05)
    assert monitor.ages
    assert monitor.anomalies == []
    metrics.detach()
    assert network.telemetry.cycle_end is None


# -- wait-for graph and bundle plumbing ---------------------------------------


def test_wait_graph_empty_on_idle_network():
    _grid, _config, network, _stats = _tiny_network()
    graph = extract_wait_graph(network, 0)
    assert graph == {"blocked": [], "edges": [], "cycle": []}


def test_cycle_in_graph_checks_the_wraparound():
    edges = {(0, 0): {(1, 0)}, (1, 0): {(2, 0)}, (2, 0): {(0, 0)}}
    assert cycle_in_graph([(0, 0), (1, 0), (2, 0)], edges)
    assert not cycle_in_graph([(0, 0), (2, 0), (1, 0)], edges)
    assert not cycle_in_graph([], edges)
    # Break the wrap-around edge specifically.
    open_edges = {(0, 0): {(1, 0)}, (1, 0): {(2, 0)}, (2, 0): set()}
    assert not cycle_in_graph([(0, 0), (1, 0), (2, 0)], open_edges)


def test_manual_capture_roundtrip(tmp_path):
    _grid, _config, network, _stats = _tiny_network()
    bundle = capture_bundle(network, now=0, reason="manual")
    validate_bundle(bundle)
    path = write_bundle(bundle, tmp_path)
    assert path.name == "BUNDLE_manual_0.json"
    again = write_bundle(bundle, tmp_path)  # collision gets a serial suffix
    assert again.name == "BUNDLE_manual_0_1.json"
    assert load_bundle(path) == bundle


def test_validate_bundle_rejects_malformed_input(tmp_path):
    with pytest.raises(ValueError, match="not a JSON object"):
        validate_bundle([])
    _grid, _config, network, _stats = _tiny_network()
    bundle = capture_bundle(network, now=0, reason="manual")
    missing = dict(bundle)
    del missing["waitfor"]
    with pytest.raises(ValueError, match="missing keys: waitfor"):
        validate_bundle(missing)
    wrong_version = dict(bundle, schema_version=FORENSICS_SCHEMA_VERSION + 1)
    with pytest.raises(ValueError, match="not supported"):
        validate_bundle(wrong_version)
    broken = dict(bundle, waitfor={"blocked": []})
    with pytest.raises(ValueError, match="wait-for graph is malformed"):
        validate_bundle(broken)
    for broken in _corrupted(bundle):
        with pytest.raises(ValueError, match="is malformed"):
            validate_bundle(broken)
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="cannot read bundle"):
        load_bundle(path)


def _corrupted(bundle):
    """Copies of ``bundle`` with one nested field broken in each: every
    one of them once crashed ``repro postmortem`` with a traceback."""
    return [
        dict(bundle, network={}),
        dict(bundle, packets={"table": bundle["packets"]["table"]}),
        dict(bundle, waitfor=dict(bundle["waitfor"], cycle="x")),
        dict(bundle, health={"probes": 3}),
        dict(bundle, recorder={"window": 4_096}),
        dict(bundle, routers=[{}]),
    ]


def test_record_summary_shapes(tmp_path):
    _grid, _config, network, _stats = _tiny_network()
    session = TelemetrySession.attach(network, TelemetryConfig(
        epoch_metrics=False, forensics=True, bundle_dir=tmp_path / "forensics"
    ))
    assert session.forensics_summary() == {}
    path = session.fail("manual", 0, RuntimeError("manual capture"))
    summary = session.forensics_summary()
    assert summary["bundle"] == str(path)
    assert summary["bundle"].endswith("BUNDLE_manual_0.json")


# -- CLI ----------------------------------------------------------------------


def _write_deadlock_bundle(tmp_path):
    _network, error, _session = run_ring_deadlock(tmp_path, recorder=True)
    return error.bundle_path


def test_cli_postmortem_renders_bundle(tmp_path, capsys):
    from repro.cli import main

    path = _write_deadlock_bundle(tmp_path)
    html_out = tmp_path / "not" / "yet" / "report.html"  # parents are created
    assert main(["postmortem", str(path), "--html", str(html_out)]) == 0
    out = capsys.readouterr().out
    assert "wait-for cycle" in out
    assert f"wrote {html_out}" in out
    assert "<svg" in html_out.read_text(encoding="utf-8")


def test_cli_postmortem_rejects_junk(tmp_path):
    from repro.cli import main

    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"schema_version": 99}), encoding="utf-8")
    with pytest.raises(SystemExit, match="cannot load bundle"):
        main(["postmortem", str(path)])
    bundle = load_bundle(_write_deadlock_bundle(tmp_path))
    for broken in _corrupted(bundle):
        path.write_text(json.dumps(broken), encoding="utf-8")
        with pytest.raises(SystemExit, match="cannot load bundle"):
            main(["postmortem", str(path), "--html", str(tmp_path / "report.html")])


@pytest.mark.parametrize(
    "flags, captured",
    [
        ([], True),
        (["--no-forensics"], False),
        (["--no-forensics", "--health"], False),
        (["--no-forensics", "--flight-recorder"], False),
        (["--health", "--flight-recorder"], True),
    ],
    ids=["default", "no-forensics", "no-forensics-health", "no-forensics-recorder",
         "health-recorder"],
)
def test_cli_simulate_captures_a_bundle_iff_forensics(
    flags, captured, tmp_path, monkeypatch, capsys
):
    """``--no-forensics`` is the one switch: ``--health`` and
    ``--flight-recorder`` feed a bundle but never turn capture back on."""
    import repro.cli as cli

    def wedge(*_args, telemetry=None, **_kwargs):
        _network, engine = ring_engine(telemetry)
        engine.run(4_000)

    monkeypatch.setattr("repro.telemetry.diff.run_described", wedge)
    bundle_dir = tmp_path / "forensics"
    code = cli.main(
        ["simulate", "--family", "serial_torus", "--chiplets", "2x1",
         "--nodes", "2x2", "--cycles", "500", "--no-record",
         "--forensics-dir", str(bundle_dir), *flags]
    )
    assert code == 3
    assert ("postmortem bundle:" in capsys.readouterr().err) == captured
    assert bool(list(bundle_dir.glob("BUNDLE_deadlock_*.json"))) == captured


def test_cli_simulate_reports_wedge_and_exits_nonzero(
    tmp_path, monkeypatch, capsys
):
    import repro.cli as cli

    def wedge(*_args, **_kwargs):
        error = DeadlockError(42, 7, 301)
        error.bundle_path = str(tmp_path / "BUNDLE_deadlock_42.json")
        raise error

    monkeypatch.setattr("repro.telemetry.diff.run_described", wedge)
    code = cli.main(
        ["simulate", "--family", "serial_torus", "--chiplets", "2x1",
         "--nodes", "2x2", "--cycles", "500", "--no-record",
         "--forensics-dir", str(tmp_path)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "DeadlockError" in err
    assert "postmortem bundle:" in err
    assert "repro postmortem" in err

"""Tests for the telemetry subsystem: bus, collectors, trace, session."""

import io
import json
import pstats

import pytest

from repro.noc.channel import ChannelKind
from repro.noc.flit import Packet
from repro.telemetry import (
    EVENT_NAMES,
    NULL_BUS,
    ChromeTraceBuilder,
    EpochMetrics,
    EtaEstimator,
    ProgressReporter,
    TelemetryBus,
    TelemetryConfig,
    TelemetrySession,
)
from repro.viz import timeseries_heatmap

from .helpers import build_chain, run_cycles


# -- bus semantics ----------------------------------------------------------
def test_fresh_bus_is_zero_cost():
    bus = TelemetryBus()
    for name in EVENT_NAMES:
        assert getattr(bus, name) is None
        assert bus.subscriber_count(name) == 0


def test_single_subscriber_binds_directly():
    bus = TelemetryBus()
    calls = []
    callback = bus.subscribe("cycle_end", lambda network, now: calls.append(now))
    assert bus.cycle_end is callback  # no dispatch wrapper for one listener
    bus.cycle_end(None, 7)
    assert calls == [7]
    bus.unsubscribe("cycle_end", callback)
    assert bus.cycle_end is None


def test_fanout_preserves_subscription_order():
    bus = TelemetryBus()
    calls = []
    first = bus.subscribe("packet_inject", lambda *a: calls.append("first"))
    second = bus.subscribe("packet_inject", lambda *a: calls.append("second"))
    assert bus.subscriber_count("packet_inject") == 2
    bus.packet_inject(None, None)
    assert calls == ["first", "second"]
    bus.unsubscribe("packet_inject", first)
    assert bus.packet_inject is second
    bus.unsubscribe("packet_inject", second)
    assert bus.packet_inject is None


def test_unknown_event_rejected():
    bus = TelemetryBus()
    with pytest.raises(ValueError, match="unknown telemetry event"):
        bus.subscribe("no_such_event", lambda: None)
    # A table naming one unknown event subscribes none of its rows.
    with pytest.raises(ValueError, match="unknown telemetry event"):
        bus.attach({"cycle_end": lambda *a: None, "no_such_event": lambda: None})
    assert bus.subscriber_count("cycle_end") == 0


def test_unsubscribe_absent_callback_is_noop():
    bus = TelemetryBus()
    bus.unsubscribe("cycle_end", lambda: None)
    assert bus.cycle_end is None


def test_closing_a_handle_drops_exactly_its_table():
    bus = TelemetryBus()
    calls = []
    other = bus.subscribe("cycle_end", lambda *a: calls.append("other"))
    handle = bus.attach({
        "cycle_end": lambda *a: calls.append("table"),
        "flit_send": lambda *a: None,
    })
    assert not handle.closed
    bus.cycle_end(None, 0)
    assert calls == ["other", "table"]  # a table subscribes after what came before
    handle.close()
    handle.close()  # once only: the second close unsubscribes nothing
    assert handle.closed
    assert bus.cycle_end is other and bus.flit_send is None
    assert [bus.subscriber_count(name) for name in EVENT_NAMES].count(0) == len(EVENT_NAMES) - 1


def test_inert_bus_rejects_subscription():
    with pytest.raises(RuntimeError, match="inert"):
        NULL_BUS.subscribe("cycle_end", lambda *a: None)
    with pytest.raises(RuntimeError, match="inert"):
        NULL_BUS.attach({"cycle_end": lambda *a: None})


# -- event emission on real networks ----------------------------------------
def test_chain_emits_lifecycle_events():
    network, _stats = build_chain(3)
    counts = {name: 0 for name in EVENT_NAMES}
    for name in EVENT_NAMES:
        network.telemetry.subscribe(
            name, lambda *a, _n=name: counts.__setitem__(_n, counts[_n] + 1)
        )
    network.inject(Packet(0, 2, 4, 0))
    run_cycles(network, 50)
    assert counts["packet_inject"] == 1
    assert counts["packet_eject"] == 1
    assert counts["cycle_end"] == 50
    # One RC and one VC-allocation grant per router the head visits
    # (two forwarding hops + the ejection allocation at the destination).
    assert counts["route_compute"] == 3
    assert counts["vc_alloc"] == 3
    # 4 flits cross two links each; every hop is one accept + one recv.
    assert counts["link_accept"] == 8
    assert counts["flit_recv"] == 8
    # flit_send also covers ejection port traversals (2 links + eject).
    assert counts["flit_send"] == 12
    assert counts["credit_return"] == 8
    assert counts["phy_dispatch"] == 0  # no hetero-PHY links in the chain


def test_hetero_phy_chain_emits_phy_and_rob_events():
    network, _stats = build_chain(2, ChannelKind.HETERO_PHY)
    events = {"phy_dispatch": [], "rob_insert": [], "rob_release": []}
    bus = network.telemetry
    bus.subscribe("phy_dispatch", lambda link, f, vc, phy, now: events["phy_dispatch"].append(phy))
    bus.subscribe("rob_insert", lambda link, f, vc, now: events["rob_insert"].append(f))
    bus.subscribe("rob_release", lambda link, f, vc, now: events["rob_release"].append(f))
    network.inject(Packet(0, 1, 4, 0))
    run_cycles(network, 60)
    assert len(events["phy_dispatch"]) == 4
    assert set(events["phy_dispatch"]) <= {"P", "S"}
    # Every flit passes the reorder buffer in and out exactly once.
    assert len(events["rob_insert"]) == 4
    assert len(events["rob_release"]) == 4


def test_subscribers_dispatch_in_subscription_order():
    """Collectors coexist: earlier subscribers run first on every event.

    The latency ledger relies on this — subscribed before a reporting
    probe, its attribution for a packet is complete by the time the probe
    sees the same ``packet_eject``.
    """
    from repro.telemetry import LatencyLedger

    network, stats = build_chain(3)
    reporter, metrics = reporting(network, io.StringIO())
    ledger = LatencyLedger(network)
    observed = []
    network.telemetry.subscribe(
        "packet_eject",
        lambda router, packet, now: observed.append(ledger.packets),
    )
    network.inject(Packet(0, 2, 4, 0))
    network.inject(Packet(0, 2, 4, 0))
    run_cycles(network, 50)
    metrics.finish(50)
    # Subscription order == dispatch order: the ledger had already
    # attributed packet N when the probe observed ejection N.
    assert observed == [1, 2]
    assert ledger.packets == stats.packets_delivered == 2
    assert sum(ledger.stage_totals().values()) == sum(stats.latencies)
    assert reporter.updates == 5  # the reporter ran alongside, unaffected


def test_detached_probe_restores_fast_path():
    network, _stats = build_chain(2)
    seen = []
    callback = network.telemetry.subscribe("link_accept", lambda *a: seen.append(a))
    network.inject(Packet(0, 1, 2, 0))
    run_cycles(network, 20)
    assert seen
    network.telemetry.unsubscribe("link_accept", callback)
    count = len(seen)
    network.inject(Packet(0, 1, 2, 20))
    run_cycles(network, 20, start=20)
    assert len(seen) == count  # nothing recorded after detach
    assert network.telemetry.link_accept is None


# -- epoch metrics ----------------------------------------------------------
def test_epoch_metrics_boundaries_and_conservation():
    network, stats = build_chain(3)
    metrics = EpochMetrics(network, epoch_length=10)
    network.inject(Packet(0, 2, 4, 0))
    run_cycles(network, 25)
    metrics.finish(25)
    samples = metrics.epochs()
    assert [(s.start, s.end) for s in samples] == [(0, 10), (10, 20), (20, 25)]
    assert sum(s.flits_injected for s in samples) == stats.flits_injected
    carried = {}
    for sample in samples:
        for index, flits in sample.link_flits.items():
            carried[index] = carried.get(index, 0) + flits
    assert carried == {
        index: link.flits_carried
        for index, link in enumerate(network.links)
        if link.flits_carried
    }
    assert metrics.totals()["packets_delivered"] == stats.packets_delivered


def test_epoch_metrics_warmup_exclusion():
    network, _stats = build_chain(2)
    metrics = EpochMetrics(network, epoch_length=10, warmup=15)
    run_cycles(network, 30)
    metrics.finish(30)
    flagged = metrics.epochs(include_warmup=True)
    assert [s.warmup for s in flagged] == [True, True, False]
    measured = metrics.epochs()
    assert [s.start for s in measured] == [20]
    assert metrics.totals()["epochs"] == 1
    assert metrics.totals(include_warmup=True)["epochs"] == 3


def test_epoch_metrics_credit_stall_accumulation():
    network, _stats = build_chain(2)
    metrics = EpochMetrics(network, epoch_length=10)
    router = network.routers[0]
    for now in (3, 4, 5):
        network.telemetry.credit_stall(router, 1, 0, now)
    run_cycles(network, 10)
    metrics.finish(10)
    [sample] = metrics.epochs()
    assert sample.credit_stalls == {(0, 1, 0): 3}
    assert metrics.totals()["credit_stall_cycles"] == 3


def test_epoch_metrics_validates_epoch_length():
    network, _stats = build_chain(2)
    with pytest.raises(ValueError, match="epoch_length"):
        EpochMetrics(network, epoch_length=0)


def test_epoch_metrics_write_and_link_series(tmp_path):
    network, _stats = build_chain(3)
    metrics = EpochMetrics(network, epoch_length=10)
    network.inject(Packet(0, 2, 4, 0))
    run_cycles(network, 30)
    metrics.finish(30)
    written = metrics.write(tmp_path)
    names = {path.name for path in written}
    assert names == {
        "epochs.csv",
        "link_util.csv",
        "buffer_occupancy.csv",
        "credit_stalls.csv",
        "rob.csv",
        "phy_split.csv",
        "metrics.json",
    }
    document = json.loads((tmp_path / "metrics.json").read_text())
    assert document["epoch_length"] == 10
    assert len(document["epochs"]) == 3
    labels, rows = metrics.link_series(top=5)
    assert labels and rows
    art = timeseries_heatmap(labels, rows, epoch_length=10)
    assert labels[0] in art
    assert "3 epochs" in art


# -- chrome trace export -----------------------------------------------------
def test_trace_records_packet_lane(tmp_path):
    network, _stats = build_chain(3)
    trace = ChromeTraceBuilder(network)
    sampler = EpochMetrics(network, epoch_length=10, readers=[trace.on_epoch])
    packet = Packet(0, 2, 4, 0)
    network.inject(packet)
    run_cycles(network, 40)
    sampler.finish(40)
    trace.detach()
    document = trace.to_dict()
    events = document["traceEvents"]
    phases = {event["ph"] for event in events}
    assert phases >= {"M", "X", "i", "C"}
    hops = [e for e in events if e["ph"] == "X" and e.get("cat") == "hop"]
    assert len(hops) == 2  # two links in the chain
    lifetimes = [e for e in events if e["ph"] == "X" and e.get("cat") == "packet"]
    assert len(lifetimes) == 1
    assert lifetimes[0]["dur"] > 0
    path = trace.write(tmp_path / "trace.json")
    assert json.loads(path.read_text())["traceEvents"]


def test_trace_caps_sampled_packets():
    network, _stats = build_chain(2)
    trace = ChromeTraceBuilder(network, max_packets=1)
    network.inject(Packet(0, 1, 2, 0))
    network.inject(Packet(0, 1, 2, 0))
    run_cycles(network, 30)
    trace.detach()
    assert trace.to_dict()["otherData"]["sampled_packets"] == 1


def test_trace_sample_predicate():
    network, _stats = build_chain(2)
    trace = ChromeTraceBuilder(network, sample=lambda packet: packet.dst == 99)
    network.inject(Packet(0, 1, 2, 0))
    run_cycles(network, 30)
    trace.detach()
    assert trace.to_dict()["otherData"]["sampled_packets"] == 0


def test_trace_reads_the_epoch_sampler(tmp_path):
    """A trace keeps no clock: the session switches the sampler on for it
    and nothing else listens to ``cycle_end``."""
    network, _stats = build_chain(2)
    session = TelemetrySession.attach(
        network, TelemetryConfig(epoch_metrics=False, trace_path=tmp_path / "t.json")
    )
    assert session.trace.on_epoch in session.metrics.readers
    assert network.telemetry.subscriber_count("cycle_end") == 1


# -- progress reporter -------------------------------------------------------
def reporting(network, stream, total_cycles=None):
    """A progress reporter reading a 10-cycle epoch sampler on ``network``."""
    reporter = ProgressReporter(network.stats, stream=stream, eta=EtaEstimator(total_cycles))
    return reporter, EpochMetrics(network, epoch_length=10, readers=[reporter.on_epoch])


def report(network, stream, cycles, total_cycles=None):
    """Run ``cycles`` cycles under a reporter; finish the sampler, close it."""
    reporter, metrics = reporting(network, stream, total_cycles)
    run_cycles(network, cycles)
    metrics.finish(cycles)
    reporter.close()
    return reporter


def test_progress_reporter_writes_status_line():
    network, _stats = build_chain(2)
    stream = io.StringIO()
    network.inject(Packet(0, 1, 2, 0))
    reporter = report(network, stream, 30, total_cycles=30)
    text = stream.getvalue()
    assert reporter.updates == 3
    assert "cycle" in text and "cyc/s" in text and "in-flight" in text
    assert text.endswith("\n")
    reporter.close()  # idempotent
    assert network.telemetry.cycle_end is None


def test_progress_reporter_validates_interval():
    """The reporter's interval is the sampler's epoch, checked at attach."""
    network, _stats = build_chain(2)
    with pytest.raises(ValueError, match="epoch_length"):
        TelemetrySession.attach(network, TelemetryConfig(progress=True, epoch_length=0))


def test_progress_reporter_tty_rewrites_one_line():
    class TtyStream(io.StringIO):
        def isatty(self):
            return True

    network, _stats = build_chain(2)
    stream = TtyStream()
    reporter = report(network, stream, 30)
    text = stream.getvalue()
    assert reporter.updates == 3  # one per epoch
    assert text.count("\r") == 3  # in-place rewrites
    assert text.endswith("\n") and text.count("\n") == 1  # one final newline


def test_progress_reporter_non_tty_emits_newline_per_update():
    network, _stats = build_chain(2)
    stream = io.StringIO()  # StringIO.isatty() is False: the pipe/CI case
    reporter = report(network, stream, 30)
    text = stream.getvalue()
    assert reporter.updates == 3  # one per epoch
    assert "\r" not in text
    assert text.count("\n") == 3  # one terminated line per update, no extra


def test_progress_reporter_survives_streams_without_isatty():
    class BareStream:
        def __init__(self):
            self.chunks = []

        def write(self, text):
            self.chunks.append(text)

        def flush(self):
            pass

    network, _stats = build_chain(2)
    stream = BareStream()
    reporter = report(network, stream, 10)
    assert reporter.updates == 1
    assert "".join(stream.chunks).endswith("\n")  # fell back to non-TTY mode


# -- end-to-end through the harness ------------------------------------------
def test_run_synthetic_telemetry_session(tmp_path, small_grid):
    from repro.sim.config import SimConfig
    from repro.sim.experiment import run_synthetic
    from repro.topology.system import build_system

    spec = build_system("hetero_phy_torus", small_grid, SimConfig(
        sim_cycles=2_000, warmup_cycles=200
    ))
    config = TelemetryConfig(
        metrics_dir=tmp_path / "metrics",
        trace_path=tmp_path / "trace.json",
        epoch_length=400,
        profile=True,
        breakdown_csv=tmp_path / "breakdown.csv",  # implies the ledger
    )
    result = run_synthetic(spec, "uniform", 0.05, telemetry=config)
    session = result.telemetry
    assert session is not None
    assert (tmp_path / "metrics" / "epochs.csv").is_file()
    assert session.ledger is not None
    assert (tmp_path / "breakdown.csv") in session.written
    assert session.ledger.packets == result.stats.packets_delivered
    assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert pstats.Stats(session.profile).total_calls > 0
    # Warm-up exclusion: the first epoch (start 0 < 200) is flagged.
    flagged = session.metrics.epochs(include_warmup=True)
    assert flagged[0].warmup and not flagged[-1].warmup
    # PHY split shows up for the hetero family and matches the run total.
    split = [
        sum(values) for values in zip(
            *(epoch_split
              for sample in flagged
              for epoch_split in sample.phy_split.values())
        )
    ]
    assert sum(split) == sum(result.phy_split) + sum(
        getattr(link, "flits_bypassed", 0) for link in session.network.links
    )
    # Finalize detached everything: the bus is back to the fast path.
    for name in EVENT_NAMES:
        assert getattr(session.network.telemetry, name) is None


def test_run_trace_telemetry_session(tmp_path, small_grid):
    from repro.sim.config import SimConfig
    from repro.sim.experiment import run_trace
    from repro.topology.system import build_system
    from repro.traffic.trace import Trace, TraceRecord

    spec = build_system("hetero_phy_torus", small_grid, SimConfig(
        sim_cycles=1_200, warmup_cycles=200
    ))
    records = [TraceRecord(t, 0, 35, 8) for t in range(0, 200, 20)]
    config = TelemetryConfig(metrics_dir=tmp_path, epoch_length=100)
    result = run_trace(spec, Trace(records, name="t"), telemetry=config)
    assert result.stats.packets_delivered == len(records)
    session = result.telemetry
    assert session is not None
    assert (tmp_path / "epochs.csv").is_file()
    # The trace drained early; the final partial epoch ends at the stop cycle.
    assert session.metrics.epochs(include_warmup=True)[-1].end == result.cycles


def test_one_sampler_serves_health_live_and_progress(tmp_path, small_grid):
    """Every sampler consumer on: one clock, no per-packet taps, no perturbation."""
    from repro.sim.build import build_network
    from repro.sim.config import SimConfig
    from repro.sim.experiment import run_synthetic
    from repro.sim.stats import Stats
    from repro.telemetry.pins import stats_fingerprint
    from repro.topology.system import build_system

    spec = build_system("hetero_phy_torus", small_grid, SimConfig(
        sim_cycles=1_500, warmup_cycles=150
    ))
    consumers = dict(
        metrics_dir=tmp_path / "metrics", progress=True, progress_stream=io.StringIO(),
        live=True, live_dir=tmp_path / "live", health=True, epoch_length=300,
    )
    network = build_network(spec, Stats())
    session = TelemetrySession.attach(network, TelemetryConfig(**consumers))
    bus = network.telemetry
    assert [bus.subscriber_count(name) for name in (
        "cycle_end", "credit_stall", "packet_inject", "packet_eject"
    )] == [1, 1, 0, 0]
    session.finalize(0)
    network.close()

    observed = run_synthetic(
        spec, "uniform", 0.1, seed=5, telemetry=TelemetryConfig(digest=True, **consumers)
    )
    plain = run_synthetic(
        spec, "uniform", 0.1, seed=5, telemetry=TelemetryConfig(digest=True, epoch_metrics=False)
    )
    assert stats_fingerprint(observed.stats) == stats_fingerprint(plain.stats)
    assert observed.digest == plain.digest  # final chain and every checkpoint
    assert len(observed.telemetry.metrics.samples) == 5


def test_run_synthetic_without_telemetry_has_none():
    from repro.sim.config import SimConfig
    from repro.sim.experiment import run_synthetic
    from repro.topology.grid import ChipletGrid
    from repro.topology.system import build_system

    grid = ChipletGrid(2, 2, 2, 2)
    spec = build_system("parallel_mesh", grid, SimConfig(
        sim_cycles=600, warmup_cycles=60
    ))
    result = run_synthetic(spec, "uniform", 0.05)
    assert result.telemetry is None


def test_profiled_run_is_passive_and_folds_into_stacks(small_grid):
    """``profile=True`` wraps the harness's one run call in cProfile; the
    raw capture folds into phase-rooted collapsed stacks."""
    from repro.sim.config import SimConfig
    from repro.sim.experiment import run_synthetic
    from repro.telemetry.hostprof import collapsed_stacks, fold_profile
    from repro.topology.system import build_system

    spec = build_system("parallel_mesh", small_grid, SimConfig(
        sim_cycles=300, warmup_cycles=0
    ))
    plain = run_synthetic(spec, "uniform", 0.05)
    result = run_synthetic(
        spec, "uniform", 0.05, telemetry=TelemetryConfig(profile=True, epoch_metrics=False)
    )
    assert result.stats.summary() == plain.stats.summary()
    folded = fold_profile(result.telemetry.profile)
    assert folded and all(stack[0] == "engine" for stack, _ in folded)
    assert len(collapsed_stacks(folded).splitlines()) == len(folded)


# -- epoch metrics edge cases -------------------------------------------------
def test_epoch_metrics_zero_cycle_run_has_no_samples():
    network, _stats = build_chain(2)
    metrics = EpochMetrics(network, epoch_length=10)
    metrics.finish(0)  # nothing ever ran
    assert metrics.epochs(include_warmup=True) == []
    assert metrics.totals()["epochs"] == 0
    assert network.telemetry.cycle_end is None  # detached all the same


def test_epoch_metrics_finish_on_boundary_adds_no_empty_epoch():
    network, _stats = build_chain(2)
    metrics = EpochMetrics(network, epoch_length=10)
    run_cycles(network, 20)  # the run ends exactly on an epoch boundary
    metrics.finish(20)
    samples = metrics.epochs(include_warmup=True)
    assert [(s.start, s.end) for s in samples] == [(0, 10), (10, 20)]


def test_epoch_metrics_detach_is_idempotent():
    network, _stats = build_chain(2)
    metrics = EpochMetrics(network, epoch_length=10)
    run_cycles(network, 15)
    metrics.detach()
    metrics.detach()  # second detach: no-op
    metrics.finish(15)  # finish after detach must not append a partial epoch
    assert [(s.start, s.end) for s in metrics.epochs()] == [(0, 10)]
    assert network.telemetry.cycle_end is None
    assert network.telemetry.credit_stall is None


# -- ETA estimation -----------------------------------------------------------
def test_eta_estimator_smooths_and_converges():
    eta = EtaEstimator(1_000, alpha=0.5)
    assert eta.eta_seconds() is None  # no speed estimate yet
    eta._last_wall -= 1.0  # pretend 1 s elapsed: 100 cyc/s
    cps = eta.update(100)
    assert cps == pytest.approx(100.0, rel=0.1)
    remaining = eta.eta_seconds(100)
    assert remaining == pytest.approx(900 / cps)
    assert eta.eta_seconds(2_000) == 0.0  # past the horizon: clamps at zero
    assert eta.wall_seconds >= 0.0


def test_eta_estimator_without_horizon_has_no_eta():
    eta = EtaEstimator(None)
    eta._last_wall -= 1.0
    eta.update(500)
    assert eta.eta_seconds() is None


def test_eta_estimator_ignores_non_advancing_updates():
    eta = EtaEstimator(100)
    eta._last_wall -= 1.0
    first = eta.update(50)
    again = eta.update(50)  # same cycle: the estimate must not move
    assert again == first


def test_eta_estimator_validates_alpha():
    with pytest.raises(ValueError, match="alpha"):
        EtaEstimator(100, alpha=0.0)


def test_format_eta_renderings():
    from repro.telemetry import format_eta

    assert format_eta(3_800) == "1:03:20"
    assert format_eta(242) == "4:02"
    assert format_eta(0) == "0:00"
    assert format_eta(None) == "n/a"
    assert format_eta(float("nan")) == "n/a"
    assert format_eta(-1) == "n/a"


def test_progress_line_shows_eta_only_with_horizon():
    network, _stats = build_chain(2)
    with_horizon = io.StringIO()
    report(network, with_horizon, 20, total_cycles=20)
    assert "eta" in with_horizon.getvalue()

    without = io.StringIO()
    report(build_chain(2)[0], without, 20)
    assert "eta" not in without.getvalue()

"""A run has an end of life: its network is freed without the cycle collector.

Deterministic by construction — weak references and ``gc.collect()``
counts under ``gc.disable()``, never resident-memory thresholds.  Every
site that builds a network in a loop (``run_synthetic`` / ``run_trace``,
the rate sweep, ``resimulate``, the prove fault-mask sweep) must leave
zero cyclic garbage behind, on the failure path too.
"""

from __future__ import annotations

import gc
import re
import tracemalloc
import weakref
from pathlib import Path

import pytest

import repro.analysis.reachability as reachability
import repro.sim.experiment as experiment
from repro.analysis.verifier import verify_family
from repro.noc.flit import Flit, Packet
from repro.noc.router import Router
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.experiment import latency_rate_sweep, run_synthetic, run_trace
from repro.sim.stats import DrainTimeoutError, Stats
from repro.telemetry import EpochMetrics, LatencyLedger, TelemetryConfig, resimulate
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.patterns import make_pattern
from repro.traffic.reqreply import RequestReplyWorkload

from .helpers import build_chain, run_cycles

GRID = ChipletGrid(2, 2, 3, 3)
CONFIG = SimConfig(sim_cycles=500, warmup_cycles=100)
OBSERVED = dict(digest=True, epoch_metrics=True, latency_breakdown=True, host_time=True)


@pytest.fixture
def no_collector():
    """Run the test with the cycle collector off, starting from a clean slate."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _track(monkeypatch, module, *, strong: bool = False) -> list:
    """Record the networks ``module.build_network`` hands out (weakly by default)."""
    seen: list = []
    original = module.build_network

    def tracking(*args, **kwargs):
        network = original(*args, **kwargs)
        seen.append(network if strong else weakref.ref(network))
        return network

    monkeypatch.setattr(module, "build_network", tracking)
    return seen


@pytest.fixture
def built(monkeypatch):
    """Weak references to the networks the experiment harness builds."""
    return _track(monkeypatch, experiment)


def _point(spec, mode, telemetry):
    if mode == "synthetic":
        return run_synthetic(spec, "uniform", 0.15, telemetry=telemetry)
    trace = generate_parsec_trace("canneal", GRID, 200, seed=3)
    return run_trace(spec, trace, telemetry=telemetry)


@pytest.mark.parametrize("mode", ["synthetic", "trace"])
@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_run_leaves_no_cyclic_garbage(family, observed, mode, built, no_collector):
    spec = build_system(family, GRID, CONFIG)
    telemetry = TelemetryConfig(**OBSERVED) if observed else None
    result = _point(spec, mode, telemetry)
    assert result.stats.packets_delivered > 0
    (network,) = built
    if observed:
        # The session's collectors read ``links`` / ``specs`` after the run.
        assert network() is result.telemetry.network and network().closed
        assert result.digest["final"] and result.latency_breakdown["packets"] > 0
    else:
        assert network() is None
    del result
    assert network() is None
    assert gc.collect() == 0


def test_sweep_leaves_no_cyclic_garbage(built, no_collector):
    spec = build_system("hetero_phy_torus", GRID, CONFIG)
    rates = [0.02, 0.04, 0.06, 0.08, 0.10, 0.12]
    points = latency_rate_sweep(spec, "uniform", rates, stop_after_saturation=False)
    assert len(points) == len(built) == 6
    assert all(network() is None for network in built)
    assert gc.collect() == 0


def test_closed_loop_run_leaves_no_cyclic_garbage(no_collector):
    """The request/reply workload taps its ``Stats`` without a reference back."""
    spec = build_system("hetero_phy_torus", GRID, CONFIG)
    stats = Stats(measure_from=100)
    network = build_network(spec, stats)
    workload = RequestReplyWorkload(stats, GRID.n_nodes, issue_rate=0.05, until=300)
    Engine(network, workload, stats).run_until_drained(20_000)
    network.close()
    assert workload.replies_delivered == workload.requests_issued > 0
    assert stats.packets_delivered > 0
    freed = weakref.ref(stats)
    del network, workload, stats
    assert freed() is None
    assert gc.collect() == 0


def test_drain_timeout_closes_the_network(monkeypatch):
    networks = _track(monkeypatch, experiment, strong=True)
    spec = build_system("serial_torus", GRID, CONFIG)
    trace = generate_parsec_trace("canneal", GRID, 200, seed=3)
    with pytest.raises(DrainTimeoutError):
        run_trace(spec, trace, drain_margin=1)
    (network,) = networks
    assert network.closed and network.holds_flits()


def test_swallowed_drain_timeout_leaves_no_cyclic_garbage(built, no_collector):
    """``strict=False``: the exception dies inside the harness, frames and all."""
    spec = build_system("serial_torus", GRID, CONFIG)
    trace = generate_parsec_trace("canneal", GRID, 200, seed=3)
    result = run_trace(spec, trace, drain_margin=1, strict=False)
    assert result.stats.delivered_fraction < 1.0
    (network,) = built
    assert network() is None
    assert gc.collect() == 0


def test_failing_routing_function_closes_the_network(monkeypatch):
    networks: list = []
    original = experiment.build_network

    def sabotaged(*args, **kwargs):
        network = original(*args, **kwargs)
        route = network.routers[0].routing_fn
        calls = []

        def failing(router, packet):
            calls.append(packet)
            if len(calls) > 50:
                raise ValueError("routing table corrupted")
            return route(router, packet)

        network.set_routing(failing)
        networks.append(network)
        return network

    monkeypatch.setattr(experiment, "build_network", sabotaged)
    spec = build_system("parallel_mesh", GRID, CONFIG)
    with pytest.raises(ValueError, match="routing table corrupted"):
        run_synthetic(spec, "uniform", 0.2, telemetry=TelemetryConfig(**OBSERVED))
    (network,) = networks
    assert network.closed
    # The session was finalized on the way out: the bus is back to zero taps.
    assert network.telemetry.cycle_end is None


def test_resimulate_leaves_no_cyclic_garbage(monkeypatch, no_collector):
    refs = _track(monkeypatch, experiment)
    meta = {
        "family": "hetero_channel",
        "chiplets": [2, 2],
        "nodes": [3, 3],
        "pattern": "uniform",
        "rate": 0.1,
        "seed": 5,
        "cycles": 400,
    }
    result = resimulate(meta, recorder=True)
    assert result.stats.packets_delivered > 0 and result.digest["cycles"] == 400
    assert result.telemetry.forensics.recorder.events()
    (network,) = refs
    assert network().closed
    del result
    assert network() is None
    assert gc.collect() == 0


def test_fault_mask_replay_leaves_no_cyclic_garbage(no_collector):
    spec = build_system("hetero_channel", GRID, CONFIG)
    refs = []

    def factory():
        network = build_network(spec, Stats())
        refs.append(weakref.ref(network))
        return network

    sweep = reachability.sweep_fault_masks(factory, spec)
    assert sweep.swept > 0 and len(refs) == sweep.swept + 1
    assert all(network() is None for network in refs)
    assert gc.collect() == 0
    # The whole-family verifier owns the network it builds as well.
    assert verify_family("hetero_channel", chiplets=(2, 2), nodes=(3, 3)).ok
    assert gc.collect() == 0


def test_reports_read_the_same_after_close(tmp_path):
    spec = build_system("hetero_phy_torus", GRID, CONFIG)
    stats = Stats(measure_from=100)
    network = build_network(spec, stats)
    metrics = EpochMetrics(network, epoch_length=100, warmup=100)
    ledger = LatencyLedger(network, measure_from=100)
    workload = SyntheticWorkload(
        make_pattern("uniform", GRID.n_nodes), GRID.n_nodes, 0.2, 16, until=500, seed=1
    )
    Engine(network, workload, stats).run(500)
    metrics.finish(500)
    ledger.detach()

    def reports(directory: Path):
        files = sorted(metrics.write(directory))
        assert {path.suffix for path in files} == {".csv", ".json"}
        return (
            [(path.name, path.read_bytes()) for path in files],
            metrics.to_json(),
            ledger.summary(),
        )

    before = reports(tmp_path / "open")
    network.close()
    assert reports(tmp_path / "closed") == before


# -- what a network costs while it lives ---------------------------------------
@pytest.mark.parametrize(
    "family, chiplets, nodes, budget_bytes",
    [
        ("hetero_phy_torus", (4, 4), (4, 4), 256 * 10_000),
        ("hetero_channel", (4, 4), (4, 4), 256 * 10_000),
        ("hetero_phy_torus", (8, 8), (7, 7), 30_000_000),  # Table 3's wafer row
    ],
    ids=["phy-256", "channel-256", "phy-3136"],
)
def test_built_network_heap_budget(family, chiplets, nodes, budget_bytes):
    """An idle network is cheap: no per-buffer container heavier than a list."""
    spec = build_system(family, ChipletGrid(*chiplets, *nodes), SimConfig())
    tracemalloc.start()
    try:
        network = build_network(spec, Stats())
        built, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    network.close()
    assert built <= budget_bytes, f"{built / network.n_nodes:.0f} B/node"


def test_tiny_run_peak_heap_budget():
    """What a whole run allocates, traced: build + 2,000 cycles of the three
    tiny configurations `repro bench` carried until PR 24.  Allocation is
    deterministic (it repeated to a few dozen bytes between commits), so the
    budget is the last recorded peak (BENCH_20.json at PR 20) + 10% — a hard
    gate CI once ran on the bench files.  Resident memory of the benchmark's
    workloads (`peak_rss_mb`) is judged against its 5% bound, but never
    hard-gated across machines."""
    for family, chiplets, nodes, rate, recorded_peak in (
        ("hetero_phy_torus", (2, 2), (4, 4), 0.15, 607_790),
        ("hetero_channel", (2, 2), (3, 3), 0.15, 305_150),
        ("parallel_mesh", (4, 4), (2, 2), 0.10, 457_729),
    ):
        config = SimConfig().replace(sim_cycles=2_000, warmup_cycles=400)
        spec = build_system(family, ChipletGrid(*chiplets, *nodes), config)
        run_synthetic(spec, "uniform", rate, seed=1)  # what a process's first run imports is not heap
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            run_synthetic(spec, "uniform", rate, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert 0 < peak <= recorded_peak * 1.10, (family, peak)


def test_backed_up_source_carves_flits_only_for_packets_that_are_leaving():
    network, _ = build_chain(2, bandwidth=1)
    packets = {packet.pid: packet for packet in (Packet(0, 1, 16, 0) for _ in range(100))}
    for packet in packets.values():
        network.inject(packet)
    vcs = network.routers[0].inputs[Router.INJECT_PORT].vcs

    def live_flit_pids():
        """One pid per live flit of this test's packets (holds no flit alive)."""
        return [
            obj.packet.pid
            for obj in gc.get_objects()
            if type(obj) is Flit and packets.get(obj.packet.pid) is obj.packet
        ]

    assert len(live_flit_pids()) == len(vcs) * 16
    now = 0
    while network.holds_flits():
        now = run_cycles(network, 20, start=now)  # gc.get_objects() is slow
        live = live_flit_pids()
        parked = {packet.pid for vc in vcs for packet in vc.backlog}
        assert not parked & set(live)
        # Every live flit is in a buffer or on the link: at most the two
        # packets being sent, whatever the backlog.
        assert len(live) == (
            network.buffered_flits() + network.in_flight_flits() - 16 * len(parked)
        ) <= 2 * 16 + 2
    assert now > 1_600 and all(p.arrive_cycle is not None for p in packets.values())


def test_simulator_core_never_reaches_for_the_collector():
    """No ``gc`` call and no ``weakref`` under noc/, core/ or sim/."""
    src = Path(experiment.__file__).resolve().parents[1]
    banned = re.compile(r"\bgc\.(collect|disable|freeze)\b|\bweakref\b|^\s*import gc\b", re.M)
    offenders = [
        str(path.relative_to(src))
        for package in ("noc", "core", "sim")
        for path in sorted((src / package).glob("*.py"))
        if banned.search(path.read_text())
    ]
    assert offenders == []

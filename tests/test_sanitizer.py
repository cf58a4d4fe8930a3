"""Runtime invariant sanitizer: clean runs stay silent, faults are caught.

Positive direction: every system family simulates under the checker with
zero findings (credit conservation, buffer bounds, wormhole ordering,
flit conservation all hold cycle by cycle).  Negative direction: a stub
link that leaks one credit, a dropped flit and an out-of-order delivery
must each raise the matching :class:`InvariantViolation`, while a genuine
routing deadlock raises the engine's one :class:`DeadlockError`, sanitized
or not.
"""
import json

import pytest

from repro.analysis import InvariantChecker, InvariantViolation
from repro.noc.flit import Packet
from repro.noc.link import PipelinedLink
from repro.noc.network import Network
from repro.routing.functions import make_routing
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import DeadlockError, Stats
from repro.telemetry import TelemetryConfig, TelemetrySession
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic import SyntheticWorkload
from repro.traffic.patterns import make_pattern

from .conftest import make_network
from .helpers import ring_routing


def _engine(network, stats, grid, config, *, rate=0.1, seed=7, **options):
    pattern = make_pattern("uniform", grid.n_nodes)
    workload = SyntheticWorkload(
        pattern, grid.n_nodes, rate, config.packet_length, seed=seed
    )
    return Engine(network, workload, stats, **options)


def _run(network, stats, grid, config, *, cycles=800, **options):
    engine = _engine(network, stats, grid, config, **options)
    engine.run(cycles)
    return engine


# -- positive: all families run clean under the sanitizer ---------------------


def test_family_runs_clean_under_sanitizer(family, sanitize):
    config = SimConfig(sim_cycles=1_000, warmup_cycles=100)
    grid = ChipletGrid(2, 2, 3, 3)
    spec, network, stats = make_network(family, grid, config)
    checker = sanitize(network)
    _run(network, stats, grid, config)
    assert checker.checks_run == 800
    assert checker.flits_injected > 0


def test_sanitizer_check_every_reduces_sweeps(sanitize):
    config = SimConfig(sim_cycles=1_000, warmup_cycles=100)
    grid = ChipletGrid(2, 1, 2, 2)
    spec, network, stats = make_network("parallel_mesh", grid, config)
    checker = sanitize(network, check_every=10)
    _run(network, stats, grid, config, cycles=500)
    assert checker.checks_run == 50


def test_sanitizer_rejects_bad_check_every():
    config = SimConfig()
    _, network, _ = make_network("parallel_mesh", ChipletGrid(2, 1, 2, 2), config)
    with pytest.raises(ValueError):
        InvariantChecker(network, check_every=0)


# -- negative: injected faults must be caught ---------------------------------


class _CreditLeakLink(PipelinedLink):
    """Drops exactly one credit return, once — a classic flow-control bug."""

    def __init__(self, spec):
        super().__init__(spec)
        self._leaked = False

    def return_credit(self, vc, now, count):
        if not self._leaked:
            self._leaked = True
            return
        super().return_credit(vc, now, count)


def test_credit_leaking_link_is_flagged():
    config = SimConfig(sim_cycles=500, warmup_cycles=0)
    grid = ChipletGrid(2, 2, 3, 3)
    spec = build_system("parallel_mesh", grid, config)
    stats = Stats()
    network = Network(
        grid.n_nodes,
        stats,
        injection_vcs=config.injection_vcs,
        ejection_bandwidth=config.ejection_bandwidth,
    )
    for channel in spec.channels:
        network.add_channel(channel, _CreditLeakLink)
    network.set_routing(make_routing(spec))
    network.finalize()
    checker = InvariantChecker(network)
    with pytest.raises(InvariantViolation) as excinfo:
        _run(network, stats, grid, config, cycles=500)
    assert excinfo.value.code == "CREDIT-LEAK"
    assert "lost" in str(excinfo.value)


def test_dropped_flit_breaks_conservation():
    config = SimConfig(sim_cycles=500, warmup_cycles=0)
    grid = ChipletGrid(2, 1, 2, 2)
    spec, network, stats = make_network("parallel_mesh", grid, config)
    checker = InvariantChecker(network)
    packet = Packet(0, grid.n_nodes - 1, length=4, create_cycle=0)
    network.inject(packet)
    # Lose one flit from the source queue's count (the injection port has
    # no credit loop, so only conservation can notice).
    network.routers[0].inputs[0].vcs[0].n -= 1
    with pytest.raises(InvariantViolation) as excinfo:
        network.step(0)
    assert excinfo.value.code == "FLIT-CONSERVATION"


def test_out_of_order_delivery_is_flagged():
    config = SimConfig()
    grid = ChipletGrid(2, 1, 2, 2)
    spec, network, stats = make_network("parallel_mesh", grid, config)
    InvariantChecker(network)
    packet = Packet(0, 1, length=2, create_cycle=0)
    router = network.routers[1]
    with pytest.raises(InvariantViolation) as excinfo:
        router.receive_flit(1, 0, packet, 1, 1, 0)  # body/tail before any head
    assert excinfo.value.code == "VC-ORDER"

    # Interleaving a foreign head mid-packet is equally illegal.
    router.receive_flit(1, 0, packet, 0, 1, 0)
    other = Packet(0, 1, length=2, create_cycle=0)
    with pytest.raises(InvariantViolation) as excinfo:
        router.receive_flit(1, 0, other, 0, 1, 0)
    assert excinfo.value.code == "VC-ORDER"


def test_skipped_flit_index_is_flagged():
    config = SimConfig()
    _, network, _ = make_network("parallel_mesh", ChipletGrid(2, 1, 2, 2), config)
    InvariantChecker(network)
    packet = Packet(0, 1, length=4, create_cycle=0)
    router = network.routers[1]
    router.receive_flit(1, 0, packet, 0, 1, 0)
    with pytest.raises(InvariantViolation) as excinfo:
        router.receive_flit(1, 0, packet, 2, 1, 0)
    assert excinfo.value.code == "VC-ORDER"
    assert "received flit 2 of packet" in str(excinfo.value)
    assert "expected flit 1" in str(excinfo.value)


def test_corrupted_buffer_front_is_flagged_on_send():
    """A VC's buffer names its flits by count from ``InputVC.front``; a
    wrong ``front`` sends flits under the wrong index, and the send-side
    order check names the input VC it happened at."""
    config = SimConfig(sim_cycles=1_000, warmup_cycles=0)
    grid = ChipletGrid(2, 2, 3, 3)
    _, network, stats = make_network("parallel_mesh", grid, config)
    InvariantChecker(network)
    engine = _run(network, stats, grid, config, cycles=200, rate=0.3)
    victim = next(
        (router.node, port.index, ivc)
        for router in network.routers
        for port in router.inputs[1:]
        for ivc in port.vcs
        if ivc.n >= 2
    )
    node, port_idx, ivc = victim
    ivc.front = (ivc.front + 1) % ivc.queue[0].length
    with pytest.raises(InvariantViolation) as excinfo:
        engine.run(200)
    assert excinfo.value.code == "VC-ORDER"
    assert " sent " in str(excinfo.value)
    assert f"node {node} port {port_idx} vc {ivc.index}:" in str(excinfo.value)


def test_buffer_overflow_is_flagged():
    config = SimConfig()
    grid = ChipletGrid(2, 1, 2, 2)
    spec, network, stats = make_network("parallel_mesh", grid, config)
    InvariantChecker(network)
    router = network.routers[1]
    depth = router.inputs[1].buffer_depth
    with pytest.raises(InvariantViolation) as excinfo:
        for i in range(depth + 1):
            router.receive_flit(1, 0, Packet(0, 1, length=1, create_cycle=0), 0, 1, 0)
    assert excinfo.value.code == "BUF-OVERFLOW"


def _sanitized_ring(telemetry=None, *, check_every=1, **options):
    """Eastward ring routing on a torus row at rate 1.0, under the
    sanitizer: it wedges by cycle 255."""
    config = SimConfig(sim_cycles=4_000, warmup_cycles=0)
    grid = ChipletGrid(2, 1, 2, 2)
    stats = Stats()
    network = build_network(
        build_system("serial_torus", grid, config), stats, routing=ring_routing
    )
    InvariantChecker(network, check_every=check_every)
    engine = _engine(network, stats, grid, config, rate=1.0, seed=3, **options)
    if telemetry is not None:
        engine.telemetry = TelemetrySession.attach(network, telemetry)
    return engine


def test_watchdog_catches_runtime_deadlock():
    """A wedge under the sanitizer is caught by the engine's watchdog, at
    the engine's threshold, and its error says where the run is stuck."""
    engine = _sanitized_ring(deadlock_threshold=300)
    with pytest.raises(DeadlockError) as excinfo:
        engine.run(4_000)
    error = excinfo.value
    assert error.stalled_for == 301
    assert "fullest routers [node " in str(error)
    assert "; oldest in-flight packet " in str(error)
    assert " cycles old (" in str(error)


def test_sanitized_wedge_files_a_deadlock_bundle(tmp_path):
    """At the engine's default threshold: no second watchdog fires first.
    (Sweeps are sparse: the wedged source queues grow all run long.)"""
    engine = _sanitized_ring(
        TelemetryConfig(epoch_metrics=False, forensics=True, bundle_dir=tmp_path),
        check_every=1_000,
    )
    with pytest.raises(DeadlockError) as excinfo:
        engine.run(25_000)
    [path] = tmp_path.glob("BUNDLE_*.json")
    assert str(path) == excinfo.value.bundle_path
    bundle = json.loads(path.read_text())
    assert bundle["reason"] == "deadlock"
    assert bundle["error_type"] == "DeadlockError"

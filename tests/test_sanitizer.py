"""Runtime invariant sanitizer: clean runs stay silent, faults are caught.

Positive direction: every system family simulates under the checker with
zero findings (credit conservation, buffer bounds, wormhole ordering,
flit conservation all hold cycle by cycle).  Negative direction: a stub
link that leaks one credit, a dropped flit, an out-of-order delivery and
a genuine routing deadlock must each raise the matching
:class:`InvariantViolation`.
"""

import pytest

from repro.analysis import InvariantChecker, InvariantViolation
from repro.noc.flit import Packet
from repro.noc.link import PipelinedLink
from repro.noc.network import Network
from repro.routing.functions import make_routing
from repro.sim.build import build_network, routing_cost_model
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic import SyntheticWorkload
from repro.traffic.patterns import make_pattern

from .conftest import make_network


def _run(network, stats, grid, config, *, cycles=800, rate=0.1, seed=7):
    pattern = make_pattern("uniform", grid.n_nodes)
    workload = SyntheticWorkload(
        pattern, grid.n_nodes, rate, config.packet_length, seed=seed
    )
    engine = Engine(network, workload, stats, deadlock_threshold=None)
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
    network.set_routing(make_routing(spec, cost_model=routing_cost_model(spec)))
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


def test_watchdog_catches_runtime_deadlock():
    """Eastward ring routing on a torus row deadlocks under load; the
    no-progress watchdog must catch it (instead of a silent hang)."""
    config = SimConfig(sim_cycles=4_000, warmup_cycles=0)
    grid = ChipletGrid(2, 1, 2, 2)
    spec = build_system("serial_torus", grid, config)

    def ring_routing(router, packet):
        if packet.dst == router.node:
            return [(0, 0, True)]
        by_tag = router.out_port_by_tag
        port = by_tag.get(("mesh", "E"), by_tag.get(("wrap", "E")))
        if port is None:
            port = by_tag.get(("mesh", "N"), by_tag.get(("mesh", "S")))
        return [(port, 0, True)]

    stats = Stats()
    network = build_network(spec, stats, routing=ring_routing)
    InvariantChecker(network, deadlock_threshold=300)
    with pytest.raises(InvariantViolation) as excinfo:
        _run(network, stats, grid, config, cycles=4_000, rate=1.0, seed=3)
    assert excinfo.value.code == "NO-PROGRESS"


def test_watchdog_disabled_with_none_threshold():
    config = SimConfig(sim_cycles=1_000, warmup_cycles=0)
    grid = ChipletGrid(2, 1, 2, 2)
    spec, network, stats = make_network("parallel_mesh", grid, config)
    checker = InvariantChecker(network, deadlock_threshold=None)
    _run(network, stats, grid, config, cycles=300, rate=0.0)  # idle network
    assert checker.checks_run == 300

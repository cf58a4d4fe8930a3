"""Tests for the simulation engine."""

import pytest

from repro.noc.flit import Packet
from repro.sim.engine import Engine
from repro.sim.stats import DeadlockError

from .helpers import build_chain


class ListWorkload:
    """Injects a fixed list of (cycle, packet) pairs."""

    def __init__(self, items):
        self.items = sorted(items, key=lambda kv: kv[0])

    def step(self, now):
        out = [p for t, p in self.items if t == now]
        return out

    def done(self, now):
        return all(t < now for t, _ in self.items)


def test_engine_runs_and_delivers():
    network, stats = build_chain(3)
    packet = Packet(0, 2, 4, 0)
    engine = Engine(network, ListWorkload([(0, packet)]), stats)
    engine.run(30)
    assert packet.arrive_cycle is not None
    assert stats.packets_delivered == 1


def test_run_until_drained():
    network, stats = build_chain(3)
    packets = [Packet(0, 2, 4, t * 3) for t in range(5)]
    workload = ListWorkload([(p.create_cycle, p) for p in packets])
    engine = Engine(network, workload, stats)
    engine.run_until_drained(500)
    assert all(p.arrive_cycle is not None for p in packets)
    assert network.buffered_flits() == 0


def test_run_until_drained_times_out():
    # buffer too small for VCT: the packet can never advance.
    network, stats = build_chain(2, buffer_depth=8)
    packet = Packet(0, 1, 16, 0)
    engine = Engine(
        network, ListWorkload([(0, packet)]), stats, deadlock_threshold=None
    )
    with pytest.raises(RuntimeError, match="failed to drain"):
        engine.run_until_drained(200)


def test_deadlock_detection_raises():
    network, stats = build_chain(2, buffer_depth=8)
    packet = Packet(0, 1, 16, 0)
    engine = Engine(
        network, ListWorkload([(0, packet)]), stats, deadlock_threshold=50
    )
    with pytest.raises(DeadlockError):
        engine.run(1000)


def test_deadlock_threshold_ignores_idle_network():
    network, stats = build_chain(2)
    engine = Engine(network, ListWorkload([]), stats, deadlock_threshold=50)
    engine.run(500)  # must not raise: nothing is buffered


def test_engine_resumable():
    network, stats = build_chain(2)
    packet = Packet(0, 1, 2, 5)
    engine = Engine(network, ListWorkload([(5, packet)]), stats)
    engine.run(3)
    assert engine.cycle == 3
    assert packet.arrive_cycle is None
    engine.run(30)
    assert engine.cycle == 33
    assert packet.arrive_cycle is not None


def test_injection_counted(config=None):
    network, stats = build_chain(2)
    engine = Engine(network, ListWorkload([(0, Packet(0, 1, 4, 0))]), stats)
    engine.run(20)
    assert stats.packets_injected == 1
    assert stats.flits_injected == 4

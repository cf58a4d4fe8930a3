"""Tests for per-packet route tracing."""

from repro.noc.channel import ChannelKind
from repro.noc.flit import Packet
from repro.noc.tracing import RouteTracer
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system

from .helpers import build_chain, run_cycles

CONFIG = SimConfig(sim_cycles=1_200, warmup_cycles=100)


def test_chain_path_recorded():
    network, _ = build_chain(4)
    tracer = RouteTracer(network)
    packet = Packet(0, 3, 4, 0)
    network.inject(packet)
    run_cycles(network, 40)
    assert tracer.nodes_of(packet) == [0, 1, 2, 3]
    assert len(tracer.path_of(packet)) == 3
    assert tracer.kinds_of(packet) == [ChannelKind.ONCHIP] * 3


def test_hop_timeline_monotone():
    network, _ = build_chain(4)
    tracer = RouteTracer(network)
    packet = Packet(0, 3, 4, 0)
    network.inject(packet)
    run_cycles(network, 40)
    cycles = [cycle for _idx, cycle in tracer.hop_timeline(packet)]
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == 3  # one hop per cycle boundary


def test_sampling_filter():
    network, _ = build_chain(3)
    traced = Packet(0, 2, 2, 0)
    ignored = Packet(0, 2, 2, 0)
    tracer = RouteTracer(network, sample=lambda p: p.pid == traced.pid)
    network.inject(traced)
    network.inject(ignored)
    run_cycles(network, 40)
    assert tracer.path_of(traced)
    assert not tracer.path_of(ignored)


def test_torus_wrap_visible_in_path():
    grid = ChipletGrid(4, 1, 2, 2)  # width 8, wraps pay off corner to corner
    spec = build_system("serial_torus", grid, CONFIG)
    stats = Stats()
    network = build_network(spec, stats)
    tracer = RouteTracer(network)
    packet = Packet(grid.node_at(0, 0), grid.node_at(7, 0), 16, 0)

    class OneShot:
        def __init__(self):
            self.sent = False

        def step(self, now):
            if not self.sent:
                self.sent = True
                return [packet]
            return []

        def done(self, now):
            return True

    Engine(network, OneShot(), stats).run(400)
    assert packet.arrive_cycle is not None
    tags = [network.links[i].spec.tag[0] for i in tracer.path_of(packet)]
    assert "wrap" in tags  # the wraparound shortcut was taken
    assert tracer.interface_hops(packet) >= 1


def test_describe_is_readable():
    network, _ = build_chain(3)
    tracer = RouteTracer(network)
    packet = Packet(0, 2, 1, 0)
    network.inject(packet)
    run_cycles(network, 30)
    text = tracer.describe(packet)
    assert "0-[onchip]->1" in text
    assert "1-[onchip]->2" in text


def test_describe_unmoved_packet():
    network, _ = build_chain(2)
    tracer = RouteTracer(network)
    packet = Packet(0, 1, 1, 0)
    assert "no movement" in tracer.describe(packet)

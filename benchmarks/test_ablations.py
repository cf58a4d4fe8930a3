"""Ablation benchmarks for the design choices called out in DESIGN.md.

Each ablation varies exactly one mechanism of the hetero-IF design and
regenerates a small comparison table:

* ROB sizing — Eq (1) is a tight, sufficient bound.
* Parallel-PHY bypass — what queue-jumping buys priority traffic.
* Dispatch policy — performance vs balanced vs energy-efficient trade-off.
* Balanced-policy threshold — the Sec 7.3 half-full rule vs alternatives.
* Eq (5) subnetwork selection — vs always-mesh / always-cube.
* Channel adaptivity — Algorithm 1's adaptive channels vs escape-only.
"""

from __future__ import annotations

import math

from repro.core.phy import HeteroPhyLink
from repro.core.rob import rob_capacity
from repro.core.scheduling import BalancedPolicy
from repro.noc.flit import Packet
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.experiment import run_synthetic
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import make_pattern

GRID = ChipletGrid(2, 2, 4, 4)
CYCLES = {"tiny": 2_000, "small": 6_000, "paper": 30_000}


def _config(scale: str) -> SimConfig:
    return SimConfig().scaled(CYCLES[scale])


def _run_with(spec, rate, *, policy=None, dispatch_factory=None, routing=None, seed=5):
    config = spec.config
    stats = Stats(measure_from=config.warmup_cycles)
    network = build_network(
        spec,
        stats,
        policy=policy,
        dispatch_policy_factory=dispatch_factory,
        routing=routing,
    )
    pattern = make_pattern("uniform", spec.grid.n_nodes)
    workload = SyntheticWorkload(
        pattern, spec.grid.n_nodes, rate, config.packet_length, until=config.sim_cycles, seed=seed
    )
    Engine(network, workload, stats).run(config.sim_cycles)
    return network, stats


def test_ablation_rob_sizing(benchmark, scale):
    """Eq (1) bounds the observed ROB occupancy; the peak approaches it."""

    def run():
        config = _config(scale)
        spec = build_system("hetero_phy_torus", GRID, config)
        network, stats = _run_with(spec, rate=0.35, policy="performance")
        bound = rob_capacity(
            config.parallel_bandwidth, config.serial_delay, config.parallel_delay
        )
        peak = max(
            link.rob.max_occupancy
            for link in network.links
            if isinstance(link, HeteroPhyLink)
        )
        return peak, bound, stats.avg_latency

    peak, bound, latency = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nROB peak occupancy {peak} / Eq(1) bound {bound} (lat {latency:.1f})")
    assert 0 < peak <= bound
    assert peak >= bound * 0.2  # the bound is not wildly oversized


def test_ablation_bypass(benchmark, scale):
    """Bypass reduces priority-packet latency under congestion."""

    class NoBypass(BalancedPolicy):
        bypass_enabled = False

    def run():
        results = {}
        for label, factory in (
            ("bypass", lambda: BalancedPolicy(threshold=16)),
            ("no-bypass", lambda: NoBypass(threshold=16)),
        ):
            config = _config(scale).halved()  # pressure on the parallel PHY
            spec = build_system("hetero_phy_torus", GRID, config)
            stats = Stats(measure_from=config.warmup_cycles)
            network = build_network(spec, stats, dispatch_policy_factory=factory)
            urgent_latencies: list[int] = []

            def on_eject(router, packet, now, sink=urgent_latencies, stats=stats):
                if packet.priority > 0 and packet.create_cycle >= stats.measure_from:
                    sink.append(now - packet.create_cycle)

            network.telemetry.subscribe("packet_eject", on_eject)

            class Mixed:
                def __init__(self):
                    self.bulk = SyntheticWorkload(
                        make_pattern("uniform", GRID.n_nodes),
                        GRID.n_nodes,
                        0.3,
                        config.packet_length,
                        until=config.sim_cycles,
                        seed=3,
                    )
                    self.sync = SyntheticWorkload(
                        make_pattern("uniform", GRID.n_nodes),
                        GRID.n_nodes,
                        0.01,
                        1,
                        until=config.sim_cycles,
                        seed=4,
                    )

                def step(self, now):
                    out = list(self.bulk.step(now))
                    for packet in self.sync.step(now):
                        packet.priority = 5
                        out.append(packet)
                    return out

                def done(self, now):
                    return self.bulk.done(now) and self.sync.done(now)

            Engine(network, Mixed(), stats).run(config.sim_cycles)
            results[label] = sum(urgent_latencies) / max(1, len(urgent_latencies))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\npriority-packet latency: {results}")
    assert results["bypass"] <= results["no-bypass"] * 1.05


def test_ablation_dispatch_policy(benchmark, scale):
    """Performance / balanced / energy-efficient span the latency-energy space."""

    def run():
        rows = {}
        config = _config(scale)
        for policy in ("performance", "balanced", "energy_efficient"):
            spec = build_system("hetero_phy_torus", GRID, config)
            result = run_synthetic(spec, "uniform", 0.3, policy=policy, seed=6)
            rows[policy] = (
                result.avg_latency,
                result.stats.avg_energy_interface_pj,
                result.phy_split,
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for policy, (lat, energy, split) in rows.items():
        print(f"{policy:18s} lat {lat:7.1f}  ifc energy {energy:7.0f} pJ  split {split}")
    # energy-efficient never touches the serial PHY; performance does.
    assert rows["energy_efficient"][2][1] == 0
    assert rows["performance"][2][1] > 0
    # and pays for it with energy
    assert rows["energy_efficient"][1] <= rows["performance"][1]


def test_ablation_balanced_threshold(benchmark, scale):
    """The half-full threshold (Sec 7.3) trades latency against energy."""

    def run():
        rows = {}
        config = _config(scale)
        for threshold in (4, 16, 28):
            spec = build_system("hetero_phy_torus", GRID, config)
            network, stats = _run_with(
                spec,
                rate=0.3,
                dispatch_factory=lambda t=threshold: BalancedPolicy(threshold=t),
            )
            serial = sum(
                link.flits_serial
                for link in network.links
                if isinstance(link, HeteroPhyLink)
            )
            total = serial + sum(
                link.flits_parallel
                for link in network.links
                if isinstance(link, HeteroPhyLink)
            )
            rows[threshold] = (stats.avg_latency, serial / max(1, total))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for threshold, (lat, share) in rows.items():
        print(f"threshold {threshold:2d}: lat {lat:7.1f}, serial share {share:.1%}")
    # a lower threshold pushes more traffic onto the serial PHY
    shares = [rows[t][1] for t in sorted(rows)]
    assert shares[0] >= shares[-1]


def test_ablation_eq5_selection(benchmark, scale):
    """Eq (5) beats both exclusive subnetwork choices on latency."""

    def run():
        rows = {}
        config = _config(scale)
        # 64 chiplets at a load where the flat mesh congests: the cube's
        # role is relieving the mesh's limited bisection (Sec 8.1.2).
        grid = ChipletGrid(8, 8, 2, 2)
        for policy in ("balanced", "mesh", "cube"):
            spec = build_system("hetero_channel", grid, config)
            result = run_synthetic(spec, "uniform", 0.30, policy=policy, seed=8)
            rows[policy] = result.avg_latency
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nsubnetwork selection latency @0.30: {rows}")
    assert rows["balanced"] <= rows["mesh"] * 1.02
    assert rows["balanced"] <= rows["cube"] * 1.02


def test_ablation_adaptivity(benchmark, scale):
    """Adaptive channels reduce latency vs escape-only routing at load."""

    def run():
        config = _config(scale)
        spec = build_system("hetero_phy_torus", GRID, config)
        full = run_synthetic(spec, "uniform", 0.35, seed=9)
        from repro.routing.functions import make_routing

        base = make_routing(spec)

        def escape_only(router, packet):
            return [c for c in base(router, packet) if c[2]]

        stats = Stats(measure_from=config.warmup_cycles)
        network = build_network(spec, stats, routing=escape_only)
        pattern = make_pattern("uniform", spec.grid.n_nodes)
        workload = SyntheticWorkload(
            pattern, spec.grid.n_nodes, 0.35, config.packet_length,
            until=config.sim_cycles, seed=9,
        )
        Engine(network, workload, stats).run(config.sim_cycles)
        return full.avg_latency, stats.avg_latency

    adaptive, escape_only = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nadaptive {adaptive:.1f} vs escape-only {escape_only:.1f}")
    assert not math.isnan(adaptive) and not math.isnan(escape_only)
    assert adaptive <= escape_only * 1.05

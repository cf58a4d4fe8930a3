"""Datacenter scenario: mixed traffic with application-aware scheduling.

Motivation 2 of the paper: modern systems carry *mixed* traffic — latency-
critical coherence/synchronization messages and bandwidth-hungry bulk
transfers — simultaneously, and no uniform interface handles both well.

This example builds a 16-chiplet hetero-channel system and offers it a
mixed workload:

* ``sync``  — short (1-flit) high-priority messages between random pairs,
* ``bulk``  — long multi-packet transfers (all-reduce-like exchanges),

under the ``application_aware`` policy (Sec 5.3.2): priority packets take
the low-latency parallel PHY (and may use the bypass), bulk packets prefer
the high-throughput serial PHY.  The same workload on the uniform-IF
baselines shows the paper's point: each baseline serves one class well and
the other poorly; hetero-IF serves both.

Run with::

    python examples/datacenter_mixed_traffic.py
"""

from repro import ChipletGrid, Engine, SimConfig, Stats, build_network, build_system
from repro.noc.flit import Packet
from repro.traffic import Stream


class MixedWorkload:
    """Random mix of high-priority sync packets and bulk transfers: per
    cycle, ``n_nodes`` Bernoulli(``*_rate``) trials give the count of each."""

    def __init__(self, n_nodes: int, sync_rate: float, bulk_rate: float, seed: int = 3):
        self.n_nodes = n_nodes
        self.sync_rate = sync_rate
        self.bulk_rate = bulk_rate
        self.rng = Stream(seed)

    def _pair(self):
        src = self.rng.integers(self.n_nodes)
        dst = self.rng.integers(self.n_nodes - 1)
        return src, dst if dst < src else dst + 1

    def step(self, now):
        packets = []
        for _ in range(self.rng.binomial(self.n_nodes, self.sync_rate)):
            src, dst = self._pair()
            packets.append(
                Packet(src, dst, 1, now, priority=5, msg_class="sync", ordered=False)
            )
        for _ in range(self.rng.binomial(self.n_nodes, self.bulk_rate)):
            src, dst = self._pair()
            packets.append(Packet(src, dst, 16, now, msg_class="bulk"))
        return packets

    def done(self, now):
        return False


def run_system(family: str, policy: str, grid: ChipletGrid, config: SimConfig):
    spec = build_system(family, grid, config)
    stats = Stats(measure_from=config.warmup_cycles)
    network = build_network(spec, stats, policy=policy)
    # Collect per-class latency from the bus's ejection event.
    per_class: dict[str, list[int]] = {"sync": [], "bulk": []}

    def on_eject(router, packet, now):
        if packet.create_cycle >= stats.measure_from:
            per_class[packet.msg_class].append(now - packet.create_cycle)

    network.telemetry.subscribe("packet_eject", on_eject)
    workload = MixedWorkload(grid.n_nodes, sync_rate=0.02, bulk_rate=0.016)
    Engine(network, workload, stats).run(config.sim_cycles)
    return {
        cls: (sum(lat) / len(lat) if lat else float("nan"))
        for cls, lat in per_class.items()
    }, stats


def main() -> None:
    grid = ChipletGrid(4, 4, 4, 4)
    config = SimConfig().scaled(cycles=5_000)
    contenders = [
        ("uniform-parallel mesh", "parallel_mesh", "balanced"),
        ("uniform-serial hypercube", "serial_hypercube", "balanced"),
        ("hetero-channel (app-aware)", "hetero_channel", "application_aware"),
    ]
    print("mixed datacenter traffic: 1-flit sync (priority) + 16-flit bulk")
    print(f"{'system':28s} {'sync lat':>9s} {'bulk lat':>9s} {'pJ/pkt':>8s}")
    rows = {}
    for name, family, policy in contenders:
        per_class, stats = run_system(family, policy, grid, config)
        rows[name] = per_class
        print(
            f"{name:28s} {per_class['sync']:9.1f} {per_class['bulk']:9.1f} "
            f"{stats.avg_energy_pj:8.0f}"
        )
    print(
        "\nThe serial hypercube taxes every sync message with SerDes latency"
        "\nand its few long-reach links congest under this mix; the parallel"
        "\nmesh holds up but queues bulk transfers on its narrow links.  The"
        "\nhetero-channel system with application-aware scheduling beats both"
        "\non both traffic classes: sync rides the parallel mesh (with the"
        "\nbypass), bulk spreads over mesh and hypercube."
    )


if __name__ == "__main__":
    main()

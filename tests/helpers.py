"""Hand-built micro-networks for substrate-level tests.

These bypass the topology builders so link/router behaviour can be
observed in isolation: a unidirectional chain of routers with one channel
between neighbours and a trivial "always forward" routing function.

Also the synthetic bench-record registry the regression-sentinel tests
chew on (:func:`make_records` / :func:`write_registry`): real history
takes dozens of ``repro bench`` runs to accumulate, so these fabricate a
deterministic one — suite throughput, host-phase ledgers, memory peaks
and digest chains with ±1.5% noise, optionally with a step regression
injected at a chosen run.  Records go through ``RunStore`` /
``RunRecord`` in the ``bench.registry_cases`` shape, so the fixture
always matches the live schema; same arguments, byte-identical registry.
"""

from __future__ import annotations

import hashlib
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

from repro.core.phy import HeteroPhyLink
from repro.core.scheduling import make_dispatch_policy
from repro.noc.channel import ChannelKind, ChannelSpec, PhyParams
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.router import Router
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.telemetry.digest import RunDigest
from repro.telemetry.hostprof import ALL_PHASES
from repro.telemetry.runstore import RunRecord, RunStore
from repro.topology.system import build_system
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import make_pattern


def forward_routing(router: Router, packet: Packet):
    """Eject locally or forward on the single outgoing channel."""
    if packet.dst == router.node:
        return [(Router.EJECT_PORT, 0, True)]
    return [(1, 0, True)]


def chain_spec(
    src: int,
    dst: int,
    kind: ChannelKind = ChannelKind.ONCHIP,
    *,
    bandwidth: int = 2,
    delay: int = 1,
    n_vcs: int = 2,
    buffer_depth: int = 32,
    serial_bandwidth: int = 4,
    serial_delay: int = 20,
) -> ChannelSpec:
    serial = None
    if kind is ChannelKind.HETERO_PHY:
        serial = PhyParams(serial_bandwidth, serial_delay, 2.4)
    return ChannelSpec(
        src,
        dst,
        kind,
        PhyParams(bandwidth, delay, 1.0),
        serial_phy=serial,
        n_vcs=n_vcs,
        buffer_depth=buffer_depth,
    )


def build_chain(
    n_nodes: int = 2,
    kind: ChannelKind = ChannelKind.ONCHIP,
    *,
    policy: str = "performance",
    config: SimConfig | None = None,
    **spec_kwargs,
) -> tuple[Network, Stats]:
    """A unidirectional chain 0 -> 1 -> ... with identical channels."""
    config = config or SimConfig()
    stats = Stats()
    network = Network(n_nodes, stats)

    def factory(spec: ChannelSpec):
        if spec.kind is ChannelKind.HETERO_PHY:
            return HeteroPhyLink(
                spec,
                make_dispatch_policy(policy, config),
                tx_fifo_depth=config.tx_fifo_depth,
            )
        from repro.noc.link import PipelinedLink

        return PipelinedLink(spec)

    for node in range(n_nodes - 1):
        network.add_channel(chain_spec(node, node + 1, kind, **spec_kwargs), factory)
    network.set_routing(forward_routing)
    network.finalize()
    return network, stats


def run_cycles(network: Network, cycles: int, start: int = 0) -> int:
    """Step the network for a number of cycles; returns the next cycle."""
    for now in range(start, start + cycles):
        network.stats.now = now
        network.step(now)
    return start + cycles


def uniform_engine(
    family, grid, *, cycles, rate, seed, warmup=0, vct=True, workload=SyntheticWorkload
) -> tuple[Network, Engine]:
    """A family's network under uniform traffic, built by hand, not yet run.

    For what the one-call harness cannot express: ``vct=False`` flips every
    router to wormhole allocation (``build_network`` leaves the VCT default),
    ``workload`` swaps the source class, and the caller may subscribe to the
    bus or stop half way before ``engine.run``.
    """
    config = SimConfig(sim_cycles=cycles, warmup_cycles=warmup)
    stats = Stats(measure_from=warmup)
    network = build_network(build_system(family, grid, config), stats)
    for router in network.routers:
        router.vct = vct
    source = workload(
        make_pattern("uniform", grid.n_nodes),
        grid.n_nodes,
        rate,
        config.packet_length,
        until=cycles,
        seed=seed,
    )
    return network, Engine(network, source, stats)


def digested_uniform_run(family, grid, *, cycles=600, warmup=100, **kwargs):
    """:func:`uniform_engine` run to its horizon; ``(network, digest)``."""
    network, engine = uniform_engine(
        family, grid, cycles=cycles, warmup=warmup, **kwargs
    )
    digest = RunDigest(network, checkpoint_every=200)
    engine.run(cycles)
    digest.detach()
    return network, digest


def write_pins(path: Path, **store) -> Path:
    """A pin store holding ``store`` (case -> pin), in the committed format."""
    from repro.telemetry import pins

    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"kind": "pins", "schema_version": pins.PINS_SCHEMA_VERSION, "pins": store}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def rows_sha256(trace) -> str:
    """sha256 over a trace's rows, in order, in the CSV line format."""
    digest = hashlib.sha256()
    for r in trace:
        digest.update(
            f"{r.cycle},{r.src},{r.dst},{r.length},{r.msg_class},"
            f"{r.priority},{int(r.ordered)}\n".encode()
        )
    return digest.hexdigest()


#: Per-case baseline throughput (cycles/sec) and peak heap (bytes) for the
#: three `repro bench` cases; loosely shaped like tiny-scale numbers.
CASE_BASELINES: dict[str, tuple[float, float]] = {
    "fig11_hetero_phy": (52_000.0, 230_000.0),
    "fig14_hetero_channel": (61_000.0, 210_000.0),
    "table3_parallel_mesh": (48_000.0, 260_000.0),
}

#: Baseline host-phase time split (fractions of total ns/cycle); sa_st
#: dominates like the real allocator does.
PHASE_SPLIT: dict[str, float] = {
    "inject": 0.08,
    "rc_va": 0.14,
    "sa_st": 0.30,
    "link": 0.10,
    "phy_rx": 0.07,
    "phy_tx": 0.07,
    "telemetry": 0.05,
    "stats": 0.04,
    "dispatch": 0.15,
}

BASE_STAMP = datetime(2026, 1, 1, 0, 0, 0, tzinfo=timezone.utc)
NOISE_FRAC = 0.015
CONFIG_HASH = "seedcfg000001"


def _host_block(total_ns_per_cycle: float, extra_ns: float, culprit: str,
                rng: random.Random) -> dict[str, object]:
    """A ``HostTimeLedger.record_summary``-shaped block for one case."""
    ns = {
        phase: total_ns_per_cycle * frac * rng.uniform(1 - NOISE_FRAC, 1 + NOISE_FRAC)
        for phase, frac in PHASE_SPLIT.items()
    }
    if extra_ns > 0.0:
        ns[culprit] = ns.get(culprit, 0.0) + extra_ns
    total = sum(ns.values())
    return {
        "stride": 64,
        "timed_cycles": 2000,
        "total_cycles": 2000,
        "conservation": 1.0,
        "ns_per_cycle": {phase: round(value, 1) for phase, value in ns.items()},
        "shares": {phase: round(value / total, 6) for phase, value in ns.items()},
    }


def _mem_block(peak_base: float, rng: random.Random) -> dict[str, object]:
    peak = int(peak_base * rng.uniform(1 - NOISE_FRAC, 1 + NOISE_FRAC))
    return {
        "schema_version": 1,
        "top_n": 10,
        "peak_bytes": peak,
        "current_bytes": int(peak * 0.4),
        "ru_maxrss_bytes": 48 * 1024 * 1024,
        "phases": {"rc_va": int(peak * 0.3), "sa_st": int(peak * 0.5),
                   "other": int(peak * 0.2)},
    }


def make_records(
    *,
    runs: int = 30,
    seed: int = 1,
    step_at: int | None = None,
    step_frac: float = 0.2,
    culprit: str = "rc_va",
) -> list[RunRecord]:
    """Build the synthetic bench records (oldest first), without writing."""
    if culprit not in ALL_PHASES:
        raise ValueError(f"culprit {culprit!r} is not a host phase {ALL_PHASES}")
    if step_at is not None and not 0 <= step_at < runs:
        raise ValueError(f"step_at {step_at} outside [0, {runs})")
    rng = random.Random(seed)
    records: list[RunRecord] = []
    for i in range(runs):
        stepped = step_at is not None and i >= step_at
        bench: dict[str, object] = {}
        for case, (cps_base, mem_base) in CASE_BASELINES.items():
            cps = cps_base * rng.uniform(1 - NOISE_FRAC, 1 + NOISE_FRAC)
            total_ns = 1e9 / cps
            extra_ns = 0.0
            if stepped:
                # A step-frac throughput drop is the same run taking
                # 1/(1-frac) the host time; pin the surplus on the culprit
                # phase so its share visibly grows.
                slowed_ns = total_ns / (1.0 - step_frac)
                extra_ns = slowed_ns - total_ns
                cps *= 1.0 - step_frac
                total_ns = slowed_ns
            bench[case] = {
                "cps": {"median": round(cps, 1), "iqr": 0.0},
                "wall_s": {"median": round(2000 / cps, 5), "iqr": 0.0},
                "host": _host_block(total_ns - extra_ns, extra_ns, culprit, rng),
                "mem": _mem_block(mem_base, rng),
                "digest": {"final": f"{case}-chain-0001"},
            }
        records.append(
            RunRecord(
                run_id=f"seed-{i:03d}",
                created=(BASE_STAMP + timedelta(minutes=i)).isoformat(
                    timespec="seconds"
                ),
                kind="bench",
                label="bench",
                scale="tiny",
                seed=seed,
                config_hash=CONFIG_HASH,
                git_rev=f"seed{i:04x}",
                bench=bench,
            )
        )
    return records


def write_registry(out_dir: str | Path, records: list[RunRecord]) -> Path:
    store = RunStore(out_dir)
    if store.path.exists():
        store.path.unlink()
    for record in records:
        store.append(record)
    return store.path

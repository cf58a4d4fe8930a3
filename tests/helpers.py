"""Hand-built micro-networks for substrate-level tests.

These bypass the topology builders so link/router behaviour can be
observed in isolation: a unidirectional chain of routers with one channel
between neighbours and a trivial "always forward" routing function; and
the deadlocking eastward ring routing the deadlock tests share.

Also the synthetic bench history the regression-sentinel tests chew on
(:func:`make_history` / :func:`write_history`): a real one takes dozens of
``repro bench`` runs to accumulate, so these fabricate a deterministic
one — ``BENCH_<n>.json`` documents in the harness's shape with
throughput, the ns-per-flit-hop phase split, resident memory and digest
chains at ±1.5% noise, optionally with a step regression injected at a
chosen run; same arguments, byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

from repro.core.phy import hetero_phy_link_factory
from repro.noc.channel import ChannelKind, ChannelSpec, PhyParams
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.router import Router
from repro.sim.build import POLICIES, build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.topology.system import build_system
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import make_pattern


def forward_routing(router: Router, packet: Packet):
    """Eject locally or forward on the single outgoing channel."""
    if packet.dst == router.node:
        return [(Router.EJECT_PORT, 0, True)]
    return [(1, 0, True)]


def ring_routing(router: Router, packet: Packet):
    """Eastward-only ring routing on a torus row, all on VC 0: the textbook
    deadlocking routing function (a cyclic escape CDG by construction)."""
    if packet.dst == router.node:
        return [(0, 0, True)]
    by_tag = router.out_port_by_tag
    port = by_tag.get(("mesh", "E"), by_tag.get(("wrap", "E")))
    if port is None:
        port = by_tag.get(("mesh", "N"), by_tag.get(("mesh", "S")))
    return [(port, 0, True)]


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
    """A unidirectional chain 0 -> 1 -> ... with identical channels.

    Links are built the way :func:`~repro.sim.build.build_network` builds
    them: a hetero-PHY link gets the dispatch policy of ``policy``'s
    :data:`~repro.sim.build.POLICIES` row.
    """
    config = config or SimConfig()
    stats = Stats()
    network = Network(n_nodes, stats)
    dispatch = POLICIES[policy].dispatch
    factory = hetero_phy_link_factory(
        lambda: dispatch(config),
        tx_fifo_depth=config.tx_fifo_depth,
        rob_capacity_override=config.rob_capacity,
    )
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
    family, grid, *, cycles, rate, seed, warmup=0, vct=True
) -> tuple[Network, Engine]:
    """A family's network under uniform traffic, built by hand, not yet run.

    For what the one-call harness cannot express: the caller may subscribe
    to the bus, wrap a link's seam or stop half way before ``engine.run``.
    ``vct=False`` builds wormhole routers.
    """
    config = SimConfig(sim_cycles=cycles, warmup_cycles=warmup)
    stats = Stats(measure_from=warmup)
    network = build_network(build_system(family, grid, config), stats, vct=vct)
    source = SyntheticWorkload(
        make_pattern("uniform", grid.n_nodes),
        grid.n_nodes,
        rate,
        config.packet_length,
        until=cycles,
        seed=seed,
    )
    return network, Engine(network, source, stats)


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


#: Per-workload baseline throughput (flit-hops per reference-host second)
#: and resident memory (MB); loosely shaped like the 256-node numbers.
CASE_BASELINES: dict[str, tuple[float, float]] = {
    "phy_steady_256": (420_000.0, 41.0),
    "mesh_saturated_256": (300_000.0, 46.0),
    "channel_moc_trace_256": (380_000.0, 45.0),
}

#: Baseline engine-loop split (fractions of the ns per flit-hop); sa_st
#: dominates like the real allocator does.
PHASE_SPLIT: dict[str, float] = {
    "traffic.inject": 0.12,
    "noc.router.rc_va": 0.11,
    "noc.router.sa_st": 0.50,
    "noc.link.step": 0.16,
    "core.phy.rx": 0.05,
    "core.phy.tx": 0.05,
    "sim.engine.stats": 0.01,
}

BASE_STAMP = datetime(2026, 1, 1, 0, 0, 0, tzinfo=timezone.utc)
NOISE_FRAC = 0.015


def make_history(
    *,
    runs: int = 30,
    seed: int = 1,
    step_at: int | None = None,
    step_frac: float = 0.4,
    culprit: str = "noc.router.rc_va",
) -> list[dict]:
    """Build the synthetic bench documents (oldest first), without writing.

    From ``step_at`` on every workload loses ``step_frac`` of its
    throughput (past ``BENCHMARK.json``'s 25% bound), and the surplus ns
    per flit-hop lands on the ``culprit`` phase.
    """
    from .test_bench_compare import make_bench_doc, make_case

    if culprit not in PHASE_SPLIT:
        raise ValueError(f"culprit {culprit!r} is not a phase of {tuple(PHASE_SPLIT)}")
    if step_at is not None and not 0 <= step_at < runs:
        raise ValueError(f"step_at {step_at} outside [0, {runs})")
    rng = random.Random(seed)

    def jitter(value: float) -> float:
        return value * rng.uniform(1 - NOISE_FRAC, 1 + NOISE_FRAC)

    docs = []
    for i in range(runs):
        workloads = {}
        for case, (hops_base, rss_base) in CASE_BASELINES.items():
            hops = jitter(hops_base)
            phases = {
                f"{phase}_ns_per_flit_hop": round(jitter(1e9 / hops * frac), 1)
                for phase, frac in PHASE_SPLIT.items()
            }
            if step_at is not None and i >= step_at:
                # The same hops taking 1/(1-frac) the host time: pin the
                # surplus on the culprit phase so its ns/hop visibly grows.
                phases[f"{culprit}_ns_per_flit_hop"] += round(
                    1e9 / hops * step_frac / (1.0 - step_frac), 1
                )
                hops *= 1.0 - step_frac
            workloads[case] = make_case(
                hops=round(hops, 1),
                iqr=0.0,
                wall=round(1_000_000 / hops, 5),
                rss=round(jitter(rss_base), 2),
                counts={"noc.router.flit_hops": 1_000_000, "sim.stats.digest_chain": 0xC4A1_0001},
                layers=phases,
            )
        doc = make_bench_doc(**workloads)
        doc["created"] = (BASE_STAMP + timedelta(minutes=i)).isoformat(timespec="seconds")
        doc["git_rev"] = f"seed{i:04x}"
        docs.append(doc)
    return docs


def write_history(out_dir: str | Path, docs: list[dict]) -> Path:
    """The documents as ``BENCH_0.json`` … in a fresh ``--bench-dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, doc in enumerate(docs):
        (out_dir / f"BENCH_{index}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return out_dir

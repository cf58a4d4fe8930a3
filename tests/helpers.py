"""Hand-built micro-networks for substrate-level tests.

These bypass the topology builders so link/router behaviour can be
observed in isolation: a unidirectional chain of routers with one channel
between neighbours and a trivial "always forward" routing function.
"""

from __future__ import annotations

import hashlib

from repro.core.phy import HeteroPhyLink
from repro.core.scheduling import make_dispatch_policy
from repro.noc.channel import ChannelKind, ChannelSpec, PhyParams
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.router import Router
from repro.sim.config import SimConfig
from repro.sim.stats import Stats


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


def rows_sha256(trace) -> str:
    """sha256 over a trace's rows, in order, in the CSV line format."""
    digest = hashlib.sha256()
    for r in trace:
        digest.update(
            f"{r.cycle},{r.src},{r.dst},{r.length},{r.msg_class},"
            f"{r.priority},{int(r.ordered)}\n".encode()
        )
    return digest.hexdigest()

"""Static topology / configuration linter.

Catches mis-specified systems *before* a simulation burns minutes on
them.  Two layers:

* :func:`lint_spec` works on the pure :class:`SystemSpec` description —
  channel endpoint ranges, duplicate directed channels, missing routing
  tags, virtual cut-through buffer sizing, hetero-PHY reorder-buffer
  sizing against Eq (1), and the VC count minus-first routing needs.
* :func:`lint_network` works on the built network — every routing
  candidate must name a real output port and a virtual channel that
  exists on it, ejection must only be offered at the destination, every
  output VC must start with non-zero credits, and each built hetero-PHY
  reorder buffer must cover the parallel/serial skew.

Both append findings to a :class:`~repro.analysis.report.Report` and are
pure checks: nothing is mutated.
"""

from __future__ import annotations

from typing import Union

from repro.core.phy import HeteroPhyLink
from repro.core.rob import rob_capacity
from repro.noc.channel import ChannelKind
from repro.noc.network import Network
from repro.routing.deadlock import RouteTable, route_table
from repro.topology.system import SystemSpec
from .report import Report


def lint_spec(spec: SystemSpec, report: Report) -> None:
    """Static checks on the system description and its configuration."""
    config = spec.config
    n_nodes = spec.grid.n_nodes
    seen: dict[tuple[int, int], int] = {}
    for idx, channel in enumerate(spec.channels):
        target = f"channel {idx} ({channel.src}->{channel.dst})"
        if not (0 <= channel.src < n_nodes and 0 <= channel.dst < n_nodes):
            report.error(
                "CHAN-ENDPOINT", target, f"endpoint outside the {n_nodes}-node grid"
            )
        if channel.tag is None:
            report.warning(
                "CHAN-UNTAGGED", target, "untagged channel is invisible to routing"
            )
        key = (channel.src, channel.dst)
        prev = seen.get(key)
        if prev is not None and spec.channels[prev].tag == channel.tag:
            report.error(
                "CHAN-DUPLICATE",
                target,
                f"duplicate of channel {prev} (same endpoints and tag "
                f"{channel.tag!r}); router tags would collide",
            )
        seen[key] = idx
        if channel.kind is ChannelKind.HETERO_PHY:
            _lint_rob_sizing(spec, idx, report)
    # Virtual cut-through: Lemma 1's argument needs whole-packet buffers.
    if config.onchip_buffer < config.packet_length:
        report.error(
            "VCT-BUFFER",
            "config.onchip_buffer",
            f"{config.onchip_buffer} flits < packet length "
            f"{config.packet_length}; virtual cut-through allocation impossible",
        )
    if config.interface_buffer < config.packet_length:
        report.error(
            "VCT-BUFFER",
            "config.interface_buffer",
            f"{config.interface_buffer} flits < packet length {config.packet_length}",
        )
    if spec.has_cube and not spec.has_global_mesh and config.n_vcs < 2:
        report.error(
            "VC-COUNT",
            "config.n_vcs",
            "minus-first routing needs >= 2 VCs for its phase-split escape",
        )


def _lint_rob_sizing(spec: SystemSpec, idx: int, report: Report) -> None:
    """Eq (1): the reorder buffer must cover the parallel/serial skew."""
    channel = spec.channels[idx]
    assert channel.serial_phy is not None
    required = rob_capacity(
        channel.phy.bandwidth, channel.serial_phy.delay, channel.phy.delay
    )
    configured = spec.config.rob_capacity
    if configured is not None and configured < required:
        report.error(
            "ROB-UNDERSIZED",
            f"channel {idx} ({channel.src}->{channel.dst})",
            f"configured reorder buffer {configured} < Eq (1) bound {required} "
            f"(B_p={channel.phy.bandwidth}, "
            f"D_s-D_p={channel.serial_phy.delay - channel.phy.delay})",
        )
    if channel.serial_phy.delay < channel.phy.delay:
        report.warning(
            "PHY-SKEW",
            f"channel {idx} ({channel.src}->{channel.dst})",
            "serial PHY is faster than the parallel PHY; Eq (1) sizing "
            "assumes the opposite skew",
        )


def lint_network(
    spec: SystemSpec, network: Union[Network, RouteTable], report: Report
) -> None:
    """Checks that need the built network and its installed routing."""
    table = route_table(network)
    _lint_credits(table.network, report)
    _lint_built_robs(spec, table.network, report)
    _lint_candidates(table, report)


def _lint_credits(network: Network, report: Report) -> None:
    for node, router in enumerate(network.routers):
        for out in router.outputs:
            for vc, credits in enumerate(out.credits):
                if credits <= 0:
                    report.error(
                        "CREDIT-ZERO",
                        f"node {node} port {out.index} vc {vc}",
                        "output VC starts with no credits; it can never be used",
                    )


def _lint_built_robs(spec: SystemSpec, network: Network, report: Report) -> None:
    for link in network.links:
        if not isinstance(link, HeteroPhyLink):
            continue
        required = rob_capacity(
            link.parallel.bandwidth, link.serial.delay, link.parallel.delay
        )
        if link.rob.capacity < required:
            report.error(
                "ROB-UNDERSIZED",
                f"link {link.index}",
                f"built reorder buffer {link.rob.capacity} < Eq (1) bound {required}",
            )


def _lint_candidates(table: RouteTable, report: Report) -> None:
    """Every candidate of every (node, dst, ban-state) must be well-formed."""
    n = table.network.n_nodes
    bad = 0
    for node in range(n):
        outputs = table.network.routers[node].outputs
        n_ports = len(outputs)
        for dst in range(n):
            if node == dst:
                continue
            for banned in (False, True):
                route = table.query(node, dst, banned)
                if route.error is not None:
                    report.error(
                        "ROUTE-RAISES",
                        f"node {node} -> dst {dst} (banned={banned})",
                        f"routing function raised {route.error!r}",
                    )
                    continue
                if not route.candidates:
                    report.error(
                        "ROUTE-EMPTY",
                        f"node {node} -> dst {dst} (banned={banned})",
                        "routing returned no candidates; the packet would strand",
                    )
                    continue
                for port, vc, _is_escape in route.candidates:
                    if not 0 <= port < n_ports:
                        report.error(
                            "CAND-PORT",
                            f"node {node} -> dst {dst}",
                            f"candidate names output port {port}; router has "
                            f"ports 0..{n_ports - 1}",
                        )
                        bad += 1
                        continue
                    out = outputs[port]
                    if out.link is None:
                        report.error(
                            "CAND-EJECT",
                            f"node {node} -> dst {dst}",
                            "ejection offered away from the destination",
                        )
                        bad += 1
                    if not 0 <= vc < out.n_vcs:
                        report.error(
                            "CAND-VC",
                            f"node {node} -> dst {dst} port {port}",
                            f"candidate names VC {vc}; port has {out.n_vcs} VCs",
                        )
                        bad += 1
                if bad > 32:  # enough evidence; keep the report readable
                    report.warning(
                        "CAND-TRUNCATED",
                        "linter",
                        "further malformed-candidate findings suppressed",
                    )
                    return

"""The lint pass: topology, configuration and interface well-formedness.

Catches mis-specified systems *before* a simulation burns minutes on
them.  Two layers:

* :func:`lint_spec` works on the pure :class:`SystemSpec` description —
  channel endpoint ranges, duplicate directed channels, missing routing
  tags, the VC count minus-first routing needs, and matched forward /
  reverse interface pairs.
* :func:`lint_network` works on the built network, in one walk over its
  links — the contract between each link's two endpoints (VC count,
  credits against buffer depth, whole-packet capacity when the
  transmitter allocates by virtual cut-through) and each hetero-PHY
  reorder buffer against Eq (1) — and then over routing: every candidate
  must name a real output port and a virtual channel that exists on it,
  and ejection must only be offered at the destination.

Each defective object (a channel, a link VC, a link, a routing question)
gets at most one finding.  Both functions append to a
:class:`~repro.analysis.report.Report` and mutate nothing.  The credit
equality is a rest-state property, so run :func:`lint_network` on a
freshly built network (VCs already in use are skipped).
"""

from __future__ import annotations

from typing import Union

from repro.core.phy import HeteroPhyLink
from repro.core.rob import rob_capacity
from repro.noc.link import Link
from repro.noc.network import Network
from repro.routing.deadlock import RouteTable, route_table
from repro.topology.system import SystemSpec
from .report import Report


def lint_spec(spec: SystemSpec, report: Report) -> None:
    """Static checks on the system description and its configuration."""
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
    _lint_pair_symmetry(spec, report)
    if spec.has_cube and not spec.has_global_mesh and spec.config.n_vcs < 2:
        report.error(
            "VC-COUNT",
            "config.n_vcs",
            "minus-first routing needs >= 2 VCs for its phase-split escape",
        )


def _lint_pair_symmetry(spec: SystemSpec, report: Report) -> None:
    """CONTRACT-WIDTH: every directed interface channel needs a reverse
    channel of the same kind, flit width, VC count and depth; request /
    response and credit traffic assume the symmetric pair."""
    by_endpoints: dict[tuple[int, int], list[int]] = {}
    for idx, channel in enumerate(spec.channels):
        by_endpoints.setdefault((channel.src, channel.dst), []).append(idx)
    for idx, channel in enumerate(spec.channels):
        if not channel.is_interface:
            continue
        target = f"channel {idx} ({channel.src}->{channel.dst})"
        reverse = [
            spec.channels[j]
            for j in by_endpoints.get((channel.dst, channel.src), [])
            if spec.channels[j].kind is channel.kind
        ]
        if not reverse:
            report.error(
                "CONTRACT-WIDTH",
                target,
                f"no reverse {channel.kind.value} channel "
                f"{channel.dst}->{channel.src}; the credit/response path "
                "of this interface is missing",
            )
        elif not any(
            r.total_bandwidth == channel.total_bandwidth
            and r.n_vcs == channel.n_vcs
            and r.buffer_depth == channel.buffer_depth
            for r in reverse
        ):
            other = reverse[0]
            report.error(
                "CONTRACT-WIDTH",
                target,
                f"asymmetric interface pair: forward is "
                f"{channel.total_bandwidth} flits/cycle x {channel.n_vcs} VCs "
                f"x depth {channel.buffer_depth}, reverse is "
                f"{other.total_bandwidth} x {other.n_vcs} x "
                f"depth {other.buffer_depth}",
            )


def lint_network(
    spec: SystemSpec, network: Union[Network, RouteTable], report: Report
) -> None:
    """Checks that need the built network and its installed routing."""
    table = route_table(network)
    packet_length = spec.config.packet_length
    for link in table.network.links:
        _lint_link(link, packet_length, report)
    _lint_candidates(table, report)


def _lint_link(link: Link, packet_length: int, report: Report) -> None:
    """One built link: its endpoints' contract, then its reorder buffer."""
    src_router, dst_router = link.src_router, link.dst_router
    assert src_router is not None and dst_router is not None
    out = src_router.outputs[link.src_port]
    in_port = dst_router.inputs[link.dst_port]
    depth = in_port.buffer_depth
    target = f"link {link.index} ({link.spec.src}->{link.spec.dst})"
    if not (out.n_vcs == len(in_port.vcs) == link.spec.n_vcs):
        report.error(
            "CONTRACT-VC",
            target,
            f"VC count disagreement: transmitter has {out.n_vcs}, "
            f"receiver has {len(in_port.vcs)}, spec says {link.spec.n_vcs}",
        )
    else:
        for vc in range(out.n_vcs):
            if out.vc_owner[vc] is not None:
                continue  # in use; rest-state equality does not apply
            credits = out.credits[vc]
            held = credits + in_port.vcs[vc].n
            where = f"{target} vc {vc}"
            if held > depth:
                report.error(
                    "CONTRACT-CREDIT",
                    where,
                    f"transmitter holds {credits} credits but the receiving "
                    f"buffer has {depth} slots ({held - credits} occupied); "
                    "overflow is possible",
                )
            elif credits <= 0:
                report.error(
                    "CREDIT-ZERO",
                    where,
                    "output VC starts with no credits; it can never be used",
                )
            elif src_router.vct and credits < packet_length:
                report.error(
                    "CONTRACT-CAPACITY",
                    where,
                    f"{credits} credits < packet length {packet_length}; "
                    "virtual cut-through can never allocate this VC "
                    "(Lemma 1's whole-packet premise)",
                )
            elif held < depth:
                report.warning(
                    "CONTRACT-CREDIT",
                    where,
                    f"transmitter holds {credits} credits for {depth} buffer "
                    "slots; capacity is stranded",
                )
    if isinstance(link, HeteroPhyLink):
        parallel, serial = link.parallel, link.serial
        required = rob_capacity(parallel.bandwidth, serial.delay, parallel.delay)
        if link.rob.capacity < required:
            report.error(
                "ROB-UNDERSIZED",
                target,
                f"reorder buffer holds {link.rob.capacity} flits < Eq (1) bound "
                f"{required} (B_p={parallel.bandwidth}, "
                f"D_s-D_p={serial.delay - parallel.delay})",
            )
        if serial.delay < parallel.delay:
            report.warning(
                "PHY-SKEW",
                target,
                "serial PHY is faster than the parallel PHY; Eq (1) sizing "
                "assumes the opposite skew",
            )


def _lint_candidates(table: RouteTable, report: Report) -> None:
    """Every candidate of every (node, dst, ban-state) must be well-formed:
    one finding per malformation code per routing question.

    A question whose routing raises or offers nothing is the reachability
    pass's (``REACH-RAISES`` / ``REACH-DEADEND``, for reachable states).
    """
    n = table.network.n_nodes
    found = 0
    for node in range(n):
        outputs = table.network.routers[node].outputs
        for dst in range(n):
            if node == dst:
                continue
            for banned in (False, True):
                route = table.query(node, dst, banned)
                bad = _malformed(route.candidates, outputs)
                for code, message in bad.items():
                    report.error(code, f"node {node} -> dst {dst} (banned={banned})", message)
                found += len(bad)
                if found > 32:  # enough evidence; keep the report readable
                    report.warning(
                        "CAND-TRUNCATED",
                        "linter",
                        "further malformed-candidate findings suppressed",
                    )
                    return


def _malformed(candidates: tuple, outputs: list) -> dict[str, str]:
    """Finding code -> message for the malformed candidates of one answer."""
    ports: list[int] = []
    ejects: list[int] = []
    vcs: list[tuple[int, int]] = []
    for port, vc, _is_escape in candidates:
        if not 0 <= port < len(outputs):
            ports.append(port)
            continue
        if outputs[port].link is None:
            ejects.append(port)
        if not 0 <= vc < outputs[port].n_vcs:
            vcs.append((port, vc))
    bad: dict[str, str] = {}
    if ports:
        bad["CAND-PORT"] = (
            f"candidate output port(s) {ports}; router has ports 0..{len(outputs) - 1}"
        )
    if ejects:
        bad["CAND-EJECT"] = "ejection offered away from the destination"
    if vcs:
        bad["CAND-VC"] = f"candidate (port, VC) {vcs} names a VC its port lacks"
    return bad

"""Static interface-contract checking across link endpoint pairs.

The linter (:mod:`repro.analysis.lint`) checks each channel in isolation.
Interfaces fail pairwise: a transmitter provisioned with more credits than
the receiver has buffer slots overflows silently, endpoints disagreeing on
the VC count corrupt flit-to-buffer steering, and an asymmetric link pair
starves the credit return path.  This pass verifies the *contract between
the two endpoints* of every built link — and between each directed
channel and its reverse — for hetero-PHY and hetero-channel systems as
well as the uniform ones:

``CONTRACT-VC``
    The transmitting output port, the receiving input port and the
    channel spec must agree on the virtual-channel count.
``CONTRACT-CREDIT``
    At rest, the transmitter's credit counter per VC must equal the
    receiver's buffer depth — more credits overflow the buffer, fewer
    strand capacity (the Sec 7.1 slack is part of the *depth*, so the
    equality must hold after provisioning).
``CONTRACT-CAPACITY``
    Every VC must hold at least one whole packet, or virtual cut-through
    allocation can never grant it (Lemma 1's premise).
``CONTRACT-WIDTH``
    Every directed interface channel needs a reverse channel of the same
    kind and flit width (total bandwidth) between the same two nodes;
    request/response and credit traffic assume the symmetric pair.
``CONTRACT-ROB``
    Each built hetero-PHY reorder buffer must cover the worst-case
    parallel/serial skew of its own link (Eq 1 applied to the *built*
    PHYs, not the configured ones).

Run this on a freshly built network: the credit equality is a rest-state
property (in-flight traffic legitimately lowers the counters, so occupied
VCs are skipped).
"""

from __future__ import annotations

from repro.core.phy import HeteroPhyLink
from repro.core.rob import rob_capacity
from repro.noc.network import Network
from repro.topology.system import SystemSpec
from .report import Report


def check_contracts(spec: SystemSpec, network: Network, report: Report) -> None:
    """Verify all endpoint-pair contracts of a built network."""
    _check_endpoint_agreement(network, report)
    _check_capacity(spec, network, report)
    _check_pair_symmetry(spec, report)
    _check_built_robs(network, report)


def _check_endpoint_agreement(network: Network, report: Report) -> None:
    """CONTRACT-VC / CONTRACT-CREDIT: both link endpoints, one contract."""
    for link in network.links:
        channel = link.spec
        src_router = link.src_router
        dst_router = link.dst_router
        assert src_router is not None and dst_router is not None
        out = src_router.outputs[link.src_port]
        in_port = dst_router.inputs[link.dst_port]
        target = f"link {link.index} ({channel.src}->{channel.dst})"
        if not (out.n_vcs == len(in_port.vcs) == channel.n_vcs):
            report.error(
                "CONTRACT-VC",
                target,
                f"VC count disagreement: transmitter has {out.n_vcs}, "
                f"receiver has {len(in_port.vcs)}, spec says {channel.n_vcs}",
            )
            continue
        for vc in range(out.n_vcs):
            if out.vc_owner[vc] is not None:
                continue  # in use; rest-state equality does not apply
            in_flight = in_port.vcs[vc].n
            if out.credits[vc] + in_flight > in_port.buffer_depth:
                report.error(
                    "CONTRACT-CREDIT",
                    f"{target} vc {vc}",
                    f"transmitter holds {out.credits[vc]} credits but the "
                    f"receiving buffer has {in_port.buffer_depth} slots "
                    f"({in_flight} occupied); overflow is possible",
                )
            elif out.credits[vc] + in_flight < in_port.buffer_depth:
                report.warning(
                    "CONTRACT-CREDIT",
                    f"{target} vc {vc}",
                    f"transmitter holds {out.credits[vc]} credits for "
                    f"{in_port.buffer_depth} buffer slots; capacity is stranded",
                )


def _check_capacity(spec: SystemSpec, network: Network, report: Report) -> None:
    """CONTRACT-CAPACITY: each VC must admit one whole packet under VCT."""
    packet_length = spec.config.packet_length
    for link in network.links:
        src_router = link.src_router
        assert src_router is not None
        out = src_router.outputs[link.src_port]
        for vc in range(out.n_vcs):
            if out.vc_owner[vc] is None and out.credits[vc] < packet_length:
                report.error(
                    "CONTRACT-CAPACITY",
                    f"link {link.index} vc {vc}",
                    f"{out.credits[vc]} credits < packet length {packet_length}; "
                    "virtual cut-through can never allocate this VC",
                )


def _check_pair_symmetry(spec: SystemSpec, report: Report) -> None:
    """CONTRACT-WIDTH: directed interface channels come in matched pairs."""
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
            continue
        if not any(
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


def _check_built_robs(network: Network, report: Report) -> None:
    """CONTRACT-ROB: built reorder buffers cover the built PHY skew."""
    for link in network.links:
        if not isinstance(link, HeteroPhyLink):
            continue
        required = rob_capacity(
            link.parallel.bandwidth, link.serial.delay, link.parallel.delay
        )
        if link.rob.capacity < required:
            report.error(
                "CONTRACT-ROB",
                f"link {link.index}",
                f"reorder buffer holds {link.rob.capacity} flits but the "
                f"parallel/serial skew needs {required} "
                f"(B_p={link.parallel.bandwidth}, "
                f"D_s-D_p={link.serial.delay - link.parallel.delay})",
            )

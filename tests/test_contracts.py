"""Interface contracts, checked by the lint pass: clean families plus
injected violations.

The positive direction: every built family satisfies every endpoint
contract with *exact* credit provisioning (no stranded capacity either).
The negative direction mutates one endpoint at a time — credits, VC
counts, channel symmetry, reorder-buffer sizing — and requires the
matching finding, once for the defective link VC, link or channel.
"""

import dataclasses

from repro.analysis import Report, lint_network, lint_spec
from repro.core.phy import HeteroPhyLink
from repro.sim.config import SimConfig
from repro.topology.grid import ChipletGrid

from .conftest import make_network


def _checked(spec, network) -> Report:
    report = Report(system=spec.name)
    lint_spec(spec, report)
    lint_network(spec, network, report)
    return report


def test_every_family_satisfies_contracts(family, small_grid):
    spec, network, _ = make_network(family, small_grid, SimConfig())
    report = _checked(spec, network)
    assert report.ok, report.render(verbose=True)
    # Provisioning is exact: equality, not merely no-overflow.
    assert not report.warnings, report.render(verbose=True)


def test_overprovisioned_credits_are_an_error():
    spec, network, _ = make_network(
        "serial_torus", ChipletGrid(2, 2, 3, 3), SimConfig()
    )
    link = network.links[0]
    out = link.src_router.outputs[link.src_port]
    out.credits[0] += 1  # one phantom buffer slot
    report = _checked(spec, network)
    assert not report.ok
    assert "CONTRACT-CREDIT" in {f.code for f in report.errors}


def test_stranded_credits_are_a_warning_only():
    spec, network, _ = make_network(
        "serial_torus", ChipletGrid(2, 2, 3, 3), SimConfig()
    )
    link = network.links[0]
    out = link.src_router.outputs[link.src_port]
    out.credits[0] -= 1
    report = _checked(spec, network)
    assert report.ok  # under-provisioning wastes capacity, never corrupts
    assert "CONTRACT-CREDIT" in {f.code for f in report.warnings}


def test_vc_count_disagreement_is_an_error():
    spec, network, _ = make_network(
        "serial_torus", ChipletGrid(2, 2, 3, 3), SimConfig()
    )
    link = network.links[0]
    link.dst_router.inputs[link.dst_port].vcs.pop()
    report = _checked(spec, network)
    assert not report.ok
    assert "CONTRACT-VC" in report.codes()


def test_sub_packet_vc_is_an_error():
    config = SimConfig()
    spec, network, _ = make_network(
        "serial_torus", ChipletGrid(2, 2, 3, 3), config
    )
    link = network.links[0]
    out = link.src_router.outputs[link.src_port]
    out.credits[0] = config.packet_length - 1
    report = _checked(spec, network)
    assert not report.ok
    # The stranded slot is the same link VC: one finding.
    [finding] = report.findings
    assert finding.code == "CONTRACT-CAPACITY"
    assert finding.target == f"link 0 ({link.spec.src}->{link.spec.dst}) vc 0"


def _first_interface_index(spec) -> int:
    for idx, channel in enumerate(spec.channels):
        if channel.is_interface:
            return idx
    raise AssertionError("family has no interface channel")


def test_missing_reverse_interface_is_an_error():
    spec, network, _ = make_network(
        "serial_torus", ChipletGrid(2, 2, 3, 3), SimConfig()
    )
    idx = _first_interface_index(spec)
    forward = spec.channels[idx]
    spec.channels = [
        c
        for c in spec.channels
        if not (c.src == forward.dst and c.dst == forward.src and c.kind is forward.kind)
    ]
    report = _checked(spec, network)
    assert not report.ok
    assert "CONTRACT-WIDTH" in report.codes()


def test_asymmetric_interface_pair_is_an_error():
    spec, network, _ = make_network(
        "serial_torus", ChipletGrid(2, 2, 3, 3), SimConfig()
    )
    idx = _first_interface_index(spec)
    forward = spec.channels[idx]
    for j, channel in enumerate(spec.channels):
        if (
            channel.src == forward.dst
            and channel.dst == forward.src
            and channel.kind is forward.kind
        ):
            spec.channels[j] = dataclasses.replace(channel, n_vcs=channel.n_vcs + 1)
    report = _checked(spec, network)
    assert not report.ok
    assert "CONTRACT-WIDTH" in report.codes()


def test_undersized_built_rob_is_an_error():
    spec, network, _ = make_network(
        "hetero_phy_torus", ChipletGrid(2, 2, 3, 3), SimConfig(rob_capacity=1)
    )
    report = _checked(spec, network)
    assert not report.ok
    hetero = [link for link in network.links if isinstance(link, HeteroPhyLink)]
    assert [f.code for f in report.findings] == ["ROB-UNDERSIZED"] * len(hetero)

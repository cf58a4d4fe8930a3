"""Tests for network assembly (sim.build)."""

import re

import pytest

from repro.core.phy import HeteroPhyLink
from repro.core.scheduling import BalancedPolicy, EnergyEfficientPolicy
from repro.noc.channel import ChannelKind
from repro.sim.build import build_network, routing_cost_model
from repro.sim.config import SimConfig
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system

GRID = ChipletGrid(2, 2, 3, 3)


def test_vct_requires_whole_packet_buffers():
    config = SimConfig(packet_length=64)  # larger than the 32-flit buffers
    spec = build_system("parallel_mesh", GRID, config)
    with pytest.raises(ValueError, match="virtual cut-through"):
        build_network(spec, Stats())


def test_interface_buffer_validated_too():
    config = SimConfig(packet_length=48, onchip_buffer=64, interface_buffer=32)
    spec = build_system("parallel_mesh", GRID, config)
    with pytest.raises(ValueError, match="interface buffers"):
        build_network(spec, Stats())


def test_hetero_links_get_adapters():
    spec = build_system("hetero_phy_torus", GRID, SimConfig())
    network = build_network(spec, Stats())
    hetero = [l for l in network.links if isinstance(l, HeteroPhyLink)]
    plain = [l for l in network.links if not isinstance(l, HeteroPhyLink)]
    assert hetero and plain
    assert all(l.spec.kind is ChannelKind.HETERO_PHY for l in hetero)


def test_policy_name_selects_dispatch_policy():
    spec = build_system("hetero_phy_torus", GRID, SimConfig())
    network = build_network(spec, Stats(), policy="energy_efficient")
    link = next(l for l in network.links if isinstance(l, HeteroPhyLink))
    assert isinstance(link.policy, EnergyEfficientPolicy)


def test_dispatch_policy_factory_overrides_name():
    spec = build_system("hetero_phy_torus", GRID, SimConfig())
    network = build_network(
        spec,
        Stats(),
        policy="energy_efficient",
        dispatch_policy_factory=lambda: BalancedPolicy(threshold=3),
    )
    link = next(l for l in network.links if isinstance(l, HeteroPhyLink))
    assert isinstance(link.policy, BalancedPolicy)
    assert link.policy.threshold == 3


def test_each_hetero_link_gets_its_own_policy():
    spec = build_system("hetero_phy_torus", GRID, SimConfig())
    network = build_network(spec, Stats())
    policies = [
        l.policy for l in network.links if isinstance(l, HeteroPhyLink)
    ]
    assert len({id(p) for p in policies}) == len(policies)


def test_rob_capacity_override_plumbs_through():
    config = SimConfig(rob_capacity=99)
    spec = build_system("hetero_phy_torus", GRID, config)
    network = build_network(spec, Stats())
    link = next(l for l in network.links if isinstance(l, HeteroPhyLink))
    assert link.rob.capacity == 99


def test_routing_cost_model_mapping():
    spec = build_system("hetero_phy_torus", GRID, SimConfig())
    perf = routing_cost_model(spec, "balanced")
    assert perf.gamma == 0.0  # balanced dispatch still routes for latency
    energy = routing_cost_model(spec, "energy_efficient")
    assert energy.gamma > 0
    with pytest.raises(ValueError):
        routing_cost_model(spec, "quantum")


def test_exclusive_mode_policies_accepted():
    spec = build_system("hetero_channel", GRID, SimConfig())
    for policy in ("mesh", "cube"):
        network = build_network(spec, Stats(), policy=policy)
        assert network is not None


@pytest.mark.parametrize("family", ["parallel_mesh", "hetero_phy_torus", "serial_hypercube"])
@pytest.mark.parametrize("policy", ["mesh", "cube"])
def test_exclusive_mode_policies_need_a_subnet_choice(family, policy):
    """Without a cube beside a global mesh there is nothing to pick; the run
    would use the default routing and be recorded under the wrong policy."""
    spec = build_system(family, GRID, SimConfig())
    with pytest.raises(ValueError, match=rf"{policy!r}.*{re.escape(spec.name)}"):
        build_network(spec, Stats(), policy=policy)


def test_unknown_policy_rejected():
    spec = build_system("hetero_phy_torus", GRID, SimConfig())
    with pytest.raises(ValueError):
        build_network(spec, Stats(), policy="teleport")

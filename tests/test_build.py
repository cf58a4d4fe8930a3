"""Tests for network assembly (sim.build)."""

import re

import pytest

from repro.analysis import InvariantChecker
from repro.core.phy import HeteroPhyLink
from repro.core.scheduling import BalancedPolicy, EnergyEfficientPolicy
from repro.noc.channel import ChannelKind
from repro.sim.build import POLICIES, build_network, routing_cost_model
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.system import FAMILIES, build_system
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import make_pattern

GRID = ChipletGrid(2, 2, 3, 3)


def test_vct_requires_whole_packet_buffers():
    config = SimConfig(onchip_buffer=8, interface_buffer=8)  # 16-flit packets
    spec = build_system("hetero_phy_torus", GRID, config)
    with pytest.raises(ValueError, match=r"onchip_buffer=8 .*virtual cut-through"):
        build_network(spec, Stats())
    # Wormhole routers allocate a VC on one credit, so the same buffers
    # build, keep every flow-control invariant and drain.
    stats = Stats()
    network = build_network(spec, stats, vct=False)
    checker = InvariantChecker(network)
    n = GRID.n_nodes
    workload = SyntheticWorkload(
        make_pattern("uniform", n), n, 0.3, config.packet_length, until=150, seed=1
    )
    Engine(network, workload, stats).run_until_drained(20_000)
    assert checker.checks_run > 0
    assert not network.holds_flits()
    assert stats.packets_delivered == stats.packets_injected > 0


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


@pytest.mark.parametrize("family", FAMILIES)
def test_unknown_scheduling_policy_is_one_message(family):
    """The name is looked up before anything is built, on every family."""
    spec = build_system(family, GRID, SimConfig(scheduling_policy="bogus"))
    known = re.escape(", ".join(POLICIES))
    with pytest.raises(ValueError, match=rf"^unknown scheduling_policy 'bogus'; expected one of {known}$"):
        build_network(spec, Stats())
    with pytest.raises(ValueError, match=r"^unknown policy 'teleport'; expected one of "):
        build_network(spec, Stats(), policy="teleport")


def test_policy_table_covers_dispatch_and_cost_names():
    """Every row names a dispatch policy and a cost model that exist."""
    from repro.core.scheduling import make_dispatch_policy
    from repro.core.weighted_path import make_cost_model

    for row in POLICIES.values():
        make_dispatch_policy(row.dispatch, SimConfig())
        make_cost_model(SimConfig(), row.cost)
    assert [name for name, row in POLICIES.items() if row.exclusive] == ["mesh", "cube"]

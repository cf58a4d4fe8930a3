"""Assemble runnable networks from system descriptions.

This is the glue between the pure topology description
(:class:`~repro.topology.system.SystemSpec`), the hetero-IF machinery
(:mod:`repro.core`) and the NoC substrate (:mod:`repro.noc`): it
instantiates links (hetero-PHY channels get adapters with the configured
dispatch policy), installs the routing function its links call for, and
validates the virtual cut-through buffer requirement of a VCT build.
:data:`POLICIES` is the one table a scheduling-policy name is read from.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.core.phy import hetero_phy_link_factory
from repro.core.scheduling import (
    ApplicationAwarePolicy,
    BalancedPolicy,
    DispatchPolicy,
    EnergyEfficientPolicy,
    PassiveApplicationAwarePolicy,
    PerformanceFirstPolicy,
)
from repro.core.weighted_path import HopCostModel
from repro.noc.network import Network
from repro.routing.functions import make_routing
from repro.routing.policies import (
    CUBE,
    MESH,
    FixedSelector,
    HopCountSelector,
    SubnetSelector,
    WeightedSelector,
)
from repro.topology.grid import ChipletGrid
from repro.topology.system import SystemSpec
from .config import SimConfig
from .stats import Stats


class Policy(NamedTuple):
    """What one scheduling policy decides about a network, as constructors."""

    #: Builds a hetero-PHY link's dispatch policy (Sec 5.3); called once per link.
    dispatch: Callable[[SimConfig], DispatchPolicy]
    #: Builds the Eq (3) cost model routing reads (Sec 5.2).
    cost: Callable[[SimConfig], HopCostModel]
    #: Eq (5) subnetwork selector of a system with a cube beside a global
    #: mesh, built from the grid and the routing cost model.
    selector: Callable[[ChipletGrid, HopCostModel], SubnetSelector]
    #: An exclusive usage mode (Sec 3.1): one subnetwork only, so only a
    #: system with a subnetwork choice accepts it.
    exclusive: bool = False


def _rtl_balanced(config: SimConfig) -> BalancedPolicy:
    """Sec 7.3's RTL rule: the serial PHY joins in at a half-full TX FIFO."""
    return BalancedPolicy(threshold=max(1, config.tx_fifo_depth // 2))


def _hop_count(grid: ChipletGrid, _cost: HopCostModel) -> SubnetSelector:
    return HopCountSelector(grid)


_PERFORMANCE = HopCostModel.performance_first

#: Scheduling policy -> the constructors of its dispatch policy, routing
#: cost model and subnet selector; the one table a policy name is read
#: from.  Only the energy-efficient policy biases *routing*: the others
#: differ in PHY dispatch (Sec 5.3.1) but route for performance and select
#: subnetworks by Eq (5)'s hop count.  The non-exclusive names are ``repro
#: simulate --policy``'s choices, in this order.
POLICIES: dict[str, Policy] = {
    "performance": Policy(lambda _config: PerformanceFirstPolicy(), _PERFORMANCE, _hop_count),
    "balanced": Policy(_rtl_balanced, _PERFORMANCE, _hop_count),
    "energy_efficient": Policy(
        lambda _config: EnergyEfficientPolicy(), HopCostModel.energy_efficient, WeightedSelector
    ),
    "application_aware": Policy(
        lambda config: ApplicationAwarePolicy(_rtl_balanced(config)), _PERFORMANCE, _hop_count
    ),
    "passive_aware": Policy(
        lambda _config: PassiveApplicationAwarePolicy(), _PERFORMANCE, _hop_count
    ),
    MESH: Policy(_rtl_balanced, _PERFORMANCE, lambda _g, _c: FixedSelector(MESH), True),
    CUBE: Policy(_rtl_balanced, _PERFORMANCE, lambda _g, _c: FixedSelector(CUBE), True),
}


def lookup_policy(spec: SystemSpec, policy: Optional[str] = None) -> Policy:
    """The :data:`POLICIES` row of ``policy``, else of the spec's config."""
    name = policy or spec.config.scheduling_policy
    try:
        return POLICIES[name]
    except KeyError:
        field = "policy" if policy else "scheduling_policy"
        raise ValueError(
            f"unknown {field} {name!r}; expected one of {', '.join(POLICIES)}"
        ) from None


def build_network(
    spec: SystemSpec,
    stats: Stats,
    *,
    policy: Optional[str] = None,
    routing=None,
    dispatch_policy_factory=None,
    vct: bool = True,
) -> Network:
    """Instantiate the network of a system, ready to simulate.

    ``policy`` overrides ``spec.config.scheduling_policy`` and controls
    the hetero-PHY dispatch policy, the routing cost model and (for
    systems with a cube beside a global mesh) the Eq (5) subnetwork
    selector; the exclusive policies ``"mesh"`` / ``"cube"`` are rejected
    on any other system.  ``routing`` overrides the routing function
    entirely, and ``dispatch_policy_factory`` (a zero-argument callable
    returning a :class:`~repro.core.scheduling.DispatchPolicy`) overrides
    the row's hetero-PHY dispatch policy — both used by ablation
    studies.  ``vct=False`` builds wormhole routers, which take any buffer depth.
    """
    config = spec.config
    row = lookup_policy(spec, policy)
    if vct:
        _validate_vct(spec)
    subnet_choice = spec.has_subnet_choice
    if row.exclusive and not subnet_choice:
        raise ValueError(
            f"policy {policy or config.scheduling_policy!r} picks one "
            f"subnetwork of a cube beside a global mesh; {spec.name} has no "
            "such choice"
        )
    network = Network(
        spec.grid.n_nodes,
        stats,
        injection_vcs=config.injection_vcs,
        ejection_bandwidth=config.ejection_bandwidth,
        vct=vct,
    )
    if dispatch_policy_factory is None:
        dispatch_policy_factory = lambda: row.dispatch(config)  # noqa: E731
    factory = hetero_phy_link_factory(
        dispatch_policy_factory,
        tx_fifo_depth=config.tx_fifo_depth,
        rob_capacity_override=config.rob_capacity,
    )
    for channel in spec.channels:
        network.add_channel(channel, factory)
    if routing is None:
        cost_model = row.cost(config)
        selector = row.selector(spec.grid, cost_model) if subnet_choice else None
        routing = make_routing(spec, cost_model=cost_model, selector=selector)
    network.set_routing(routing)
    network.finalize()
    return network


def _validate_vct(spec: SystemSpec) -> None:
    """Virtual cut-through needs buffers at least one packet deep."""
    config = spec.config
    if config.onchip_buffer < config.packet_length:
        raise ValueError(
            f"on-chip buffers (onchip_buffer={config.onchip_buffer} flits) are "
            f"smaller than the packet length (packet_length={config.packet_length}); "
            "virtual cut-through allocation (and Lemma 1's deadlock argument) "
            "requires whole-packet buffering"
        )
    if config.interface_buffer < config.packet_length:
        raise ValueError(
            f"interface buffers (interface_buffer={config.interface_buffer} flits) "
            f"are smaller than the packet length (packet_length={config.packet_length})"
        )

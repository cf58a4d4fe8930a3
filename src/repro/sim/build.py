"""Assemble runnable networks from system descriptions.

This is the glue between the pure topology description
(:class:`~repro.topology.system.SystemSpec`), the hetero-IF machinery
(:mod:`repro.core`) and the NoC substrate (:mod:`repro.noc`): it
instantiates links (hetero-PHY channels get adapters with the configured
dispatch policy), installs the routing function its links call for, and
validates the virtual cut-through buffer requirement.
"""

from __future__ import annotations

from typing import Optional

from repro.core.phy import hetero_phy_link_factory
from repro.core.scheduling import make_dispatch_policy
from repro.core.weighted_path import HopCostModel, make_cost_model
from repro.noc.network import Network
from repro.routing.functions import make_routing
from repro.routing.policies import make_selector
from repro.topology.system import SystemSpec
from .stats import Stats

#: Scheduling-policy name -> cost model used for routing decisions.  Only
#: the energy-efficient policy biases *routing*; the others differ in PHY
#: dispatch (Sec 5.3.1) but route for performance.
_ROUTING_COST_POLICY = {
    "performance": "performance",
    "balanced": "performance",
    "application_aware": "performance",
    "passive_aware": "performance",
    "energy_efficient": "energy_efficient",
}


def routing_cost_model(spec: SystemSpec, policy: Optional[str] = None) -> HopCostModel:
    """The Eq (3) cost model driving routing under a scheduling policy."""
    name = policy or spec.config.scheduling_policy
    try:
        cost_name = _ROUTING_COST_POLICY[name]
    except KeyError:
        raise ValueError(f"unknown scheduling policy {name!r}") from None
    return make_cost_model(spec.config, cost_name)


def build_network(
    spec: SystemSpec,
    stats: Stats,
    *,
    policy: Optional[str] = None,
    routing=None,
    dispatch_policy_factory=None,
) -> Network:
    """Instantiate the network of a system, ready to simulate.

    ``policy`` overrides ``spec.config.scheduling_policy`` and controls
    the hetero-PHY dispatch policy, the routing cost model and (for
    systems with a cube beside a global mesh) the Eq (5) subnetwork
    selector; the exclusive policies ``"mesh"`` / ``"cube"`` are rejected
    on any other system.  ``routing`` overrides the routing function
    entirely, and ``dispatch_policy_factory`` (a zero-argument callable
    returning a :class:`~repro.core.scheduling.DispatchPolicy`) overrides
    the name-based hetero-PHY dispatch policy — both used by ablation
    studies.
    """
    config = spec.config
    policy_name = policy or config.scheduling_policy
    _validate_vct(spec)
    subnet_choice = spec.has_subnet_choice
    exclusive = policy_name in ("mesh", "cube")
    if exclusive and not subnet_choice:
        raise ValueError(
            f"policy {policy_name!r} picks one subnetwork of a cube beside a "
            f"global mesh; {spec.name} has no such choice"
        )
    network = Network(
        spec.grid.n_nodes,
        stats,
        injection_vcs=config.injection_vcs,
        ejection_bandwidth=config.ejection_bandwidth,
    )
    dispatch_name = "balanced" if exclusive else policy_name
    if dispatch_policy_factory is None:
        dispatch_policy_factory = lambda: make_dispatch_policy(dispatch_name, config)  # noqa: E731
    factory = hetero_phy_link_factory(
        dispatch_policy_factory,
        tx_fifo_depth=config.tx_fifo_depth,
        rob_capacity_override=config.rob_capacity,
    )
    for channel in spec.channels:
        network.add_channel(channel, factory)
    if routing is None:
        cost_model = routing_cost_model(spec, dispatch_name)
        selector = make_selector(policy_name, spec.grid, cost_model) if subnet_choice else None
        routing = make_routing(spec, cost_model=cost_model, selector=selector)
    network.set_routing(routing)
    network.finalize()
    return network


def _validate_vct(spec: SystemSpec) -> None:
    """Virtual cut-through needs buffers at least one packet deep."""
    config = spec.config
    if config.onchip_buffer < config.packet_length:
        raise ValueError(
            f"on-chip buffers ({config.onchip_buffer} flits) are smaller than "
            f"the packet length ({config.packet_length}); virtual cut-through "
            "allocation (and Lemma 1's deadlock argument) requires "
            "whole-packet buffering"
        )
    if config.interface_buffer < config.packet_length:
        raise ValueError(
            f"interface buffers ({config.interface_buffer} flits) are smaller "
            f"than the packet length ({config.packet_length})"
        )

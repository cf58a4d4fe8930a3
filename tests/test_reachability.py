"""Exhaustive reachability proofs and the single-link fault-mask sweep.

Positive direction: every family's routing-state graph is dead-end free,
escape covered and acyclic — both fault-free and under every single
adaptive-link fault mask (the Sec 9 claim `repro prove` certifies).
Negative direction: stranding, escape-free and cyclic routing functions
must each produce their REACH-* finding.
"""

from repro.analysis import Report, analyse_reachability, prove_network, sweep_fault_masks
from repro.analysis.reachability import (
    analyse_destinations,
    fold_reachability,
    merge_destinations,
)
from repro.routing.deadlock import RouteTable
from repro.routing.fault import adaptive_link_indices, apply_faults
from repro.sim.config import SimConfig
from repro.topology.grid import ChipletGrid

from .conftest import make_network


def test_family_reachability_is_clean(family, small_grid):
    _spec, network, _ = make_network(family, small_grid, SimConfig())
    analysis = analyse_reachability(network)
    assert analysis.ok, (analysis.dead_ends, analysis.uncovered, analysis.cycle)
    assert analysis.n_states > 0
    assert analysis.max_hops > 0


def test_hop_bound_matches_livelock_pass(family, small_grid):
    """The livelock bound ``prove`` reports is the delivery hop bound of
    the reachability analysis: one state graph, one owner."""
    spec, network, _ = make_network(family, small_grid, SimConfig())
    analysis = analyse_reachability(network)
    report = prove_network(spec, lambda: network, fault_masks=False).report
    assert analysis.max_hops == report.metrics["max_hops_bound"]
    assert analysis.max_misroute == report.metrics["max_misroute"]
    assert analysis.n_states == report.metrics["routing_states"]


def test_fault_sweep_keeps_every_family_deliverable(family, small_grid):
    config = SimConfig()

    def factory():
        return make_network(family, small_grid, config)[1]

    spec, network, _ = make_network(family, small_grid, config)
    table = RouteTable(network)
    sweep = sweep_fault_masks(factory, spec, table, analyse_destinations(table))
    assert sweep.ok, f"fault masks broke reachability: links {sweep.broken}"
    assert sweep.swept == len(adaptive_link_indices(network, spec))
    assert len(sweep.analyses) == sweep.swept
    network.close()


def test_fault_sweep_honours_explicit_link_list():
    config = SimConfig()
    grid = ChipletGrid(2, 2, 3, 3)

    def factory():
        return make_network("serial_torus", grid, config)[1]

    spec, network, _ = make_network("serial_torus", grid, config)
    all_links = adaptive_link_indices(network, spec)
    assert all_links, "torus families must expose safe-to-fail wrap links"
    table = RouteTable(network)
    fault_free = analyse_destinations(table)
    sweep = sweep_fault_masks(factory, spec, table, fault_free, links=all_links[:2])
    network.close()
    assert sweep.links == all_links[:2]
    assert sweep.swept == 2


def test_fault_sweep_equals_a_plain_per_mask_reexploration(family, small_grid):
    """Reusing the fault-free analysis of the destinations a mask cannot
    touch gives what re-exploring every destination under every mask gives."""
    config = SimConfig()

    def factory():
        return make_network(family, small_grid, config)[1]

    spec, network, _ = make_network(family, small_grid, config)
    table = RouteTable(network)
    sweep = sweep_fault_masks(factory, spec, table, analyse_destinations(table))
    links = adaptive_link_indices(network, spec)
    network.close()
    analyses = []
    for link in links:
        network = factory()
        apply_faults(network, [link])
        analyses.append(analyse_reachability(network))
        network.close()
    assert sweep.links == links
    assert sweep.broken == [link for link, a in zip(links, analyses) if not a.ok]
    assert sweep.analyses == analyses


def test_a_sweep_no_mask_can_touch_builds_nothing():
    """At 2x2 chiplets Eq 5 never routes hetero_channel over its cube, so no
    fault-free state is offered a hop over a safe-to-fail link: the sweep
    builds no network and asks routing nothing beyond the fault-free table."""
    spec, network, _ = make_network("hetero_channel", ChipletGrid(2, 2, 3, 3), SimConfig())
    questions = []
    for router in network.routers:

        def counting(router, packet, base=router.routing_fn):
            questions.append(packet.dst)
            return base(router, packet)

        router.routing_fn = counting
    table = RouteTable(network)
    fault_free = analyse_destinations(table)
    asked = len(questions)
    built = []

    def factory():
        built.append(True)
        return network

    sweep = sweep_fault_masks(factory, spec, table, fault_free)
    assert sweep.swept == 32 and sweep.ok
    assert sweep.analyses == [merge_destinations(fault_free)] * 32
    assert built == [] and len(questions) == asked


def test_stranding_routing_is_a_dead_end():
    spec, network, _ = make_network(
        "parallel_mesh", ChipletGrid(2, 1, 2, 2), SimConfig()
    )
    network.set_routing(
        lambda router, packet: [(0, 0, True)] if packet.dst == router.node else []
    )
    analysis = analyse_reachability(network)
    assert analysis.dead_ends
    report = Report(system=spec.name)
    fold_reachability(analyse_reachability(network), report)
    assert "REACH-DEADEND" in report.codes()
    assert not report.ok


def test_escape_free_routing_is_uncovered():
    spec, network, _ = make_network(
        "parallel_mesh", ChipletGrid(2, 1, 2, 2), SimConfig()
    )
    base = network.routers[0].routing_fn

    def adaptive_only(router, packet):
        if packet.dst == router.node:
            return [(0, 0, True)]
        # Same minimal candidates, but none offered as escape.
        return [(p, vc, False) for p, vc, _esc in base(router, packet)]

    network.set_routing(adaptive_only)
    analysis = analyse_reachability(network)
    assert analysis.uncovered
    report = Report(system=spec.name)
    fold_reachability(analyse_reachability(network), report)
    assert "REACH-UNCOVERED" in report.codes()


def test_cyclic_routing_states_are_flagged():
    spec, network, _ = make_network(
        "parallel_mesh", ChipletGrid(2, 1, 2, 2), SimConfig()
    )
    grid = spec.grid

    def pingpong(router, packet):
        if packet.dst == router.node:
            return [(0, 0, True)]
        by_tag = router.out_port_by_tag
        x, _y = grid.coords(router.node)
        direction = "E" if x % 2 == 0 else "W"
        port = by_tag.get(("mesh", direction))
        if port is None:
            port = next(iter(by_tag.values()))
        return [(port, 0, False)]

    network.set_routing(pingpong)
    analysis = analyse_reachability(network)
    assert analysis.cycle
    assert analysis.max_hops == -1  # unbounded: no delivery proof
    report = Report(system=spec.name)
    fold_reachability(analyse_reachability(network), report)
    assert "REACH-CYCLE" in report.codes()


def test_raising_routing_is_flagged():
    spec, network, _ = make_network(
        "parallel_mesh", ChipletGrid(2, 1, 2, 2), SimConfig()
    )

    def raising(router, packet):
        if packet.dst == router.node:
            return [(0, 0, True)]
        raise KeyError("no route table entry")

    network.set_routing(raising)
    analysis = analyse_reachability(network)
    assert analysis.failures
    report = Report(system=spec.name)
    fold_reachability(analyse_reachability(network), report)
    assert "REACH-RAISES" in report.codes()
    assert not report.ok


def test_fault_target_prefixes_findings():
    spec, network, _ = make_network(
        "parallel_mesh", ChipletGrid(2, 1, 2, 2), SimConfig()
    )
    network.set_routing(
        lambda router, packet: [(0, 0, True)] if packet.dst == router.node else []
    )
    report = Report(system=spec.name)
    fold_reachability(analyse_reachability(network), report, fault_target="fault link 9: ")
    assert any(f.target.startswith("fault link 9: ") for f in report.errors)

"""Static verification: CDG modes, livelock bounds, linter, reports.

The positive direction — every registered family verifies cleanly under
virtual cut-through — is what ``repro prove --all --mode vct`` certifies
in CI.  The negative direction injects known-bad configurations (cyclic
escape routing, ping-pong adaptive routing, undersized reorder buffers,
malformed candidates) and requires the one pass that owns each property
to flag it, once.
"""

from collections import defaultdict

import pytest

from repro.analysis import (
    MODES,
    Report,
    RouteTable,
    Severity,
    analyse_reachability,
    build_cdg,
    lint_network,
    prove_all,
    prove_family,
    prove_network,
)
from repro.noc.flit import Packet
from repro.routing.dimension_order import DimensionOrderRouting
from repro.sim.config import SimConfig
from repro.topology.grid import ChipletGrid
from repro.topology.system import FAMILIES, build_system

from .conftest import make_network
from .helpers import ring_routing


# -- positive: every family is clean under the VCT discipline ----------------


def static(family, **kwargs):
    """The report of ``prove``'s static passes: no fault sweep, and a
    one-state model checker budget, so a CDG cycle keeps its error."""
    return prove_family(family, fault_masks=False, max_states=1, **kwargs).report


def test_family_verifies_clean_vct(family):
    report = static(family)
    assert report.ok, report.render(verbose=True)
    assert report.passes == ["lint", "deadlock", "reachability"]
    assert report.metrics["escape_channels"] > 0
    assert report.metrics["direct_deps"] > 0
    assert report.metrics["max_hops_bound"] > 0
    assert report.metrics["max_misroute"] >= 0


def test_verify_all_covers_every_family():
    results = prove_all(modes=("vct",), fault_masks=False)
    assert [r.report.system for r in results] == [
        build_system(f, ChipletGrid(2, 2, 3, 3), SimConfig()).name for f in FAMILIES
    ]
    assert all(r.certified for r in results)


def test_verify_family_rejects_unknown_family_and_mode():
    with pytest.raises(ValueError):
        prove_family("ring_of_rings")
    spec = build_system("parallel_mesh", ChipletGrid(2, 1, 2, 2), SimConfig())
    built = []
    with pytest.raises(ValueError):
        prove_network(spec, lambda: built.append(1), mode="store_and_forward")
    assert not built, "an unknown mode is refused before anything is built"


# -- CDG: direct vs. extended dependencies ------------------------------------


def test_cdg_modes_constant():
    assert MODES == ("vct", "wormhole")


def test_route_table_offers_both_classes():
    config = SimConfig()
    _, network, _ = make_network("serial_torus", ChipletGrid(2, 2, 3, 3), config)
    table = RouteTable(network)
    route = table.query(0, network.n_nodes - 1)
    assert table.query(0, network.n_nodes - 1) is route, "each question is asked once"
    escape = [(link, vc) for link, vc, is_escape, _next in route.hops if is_escape]
    adaptive = [(link, vc) for link, vc, is_escape, _next in route.hops if not is_escape]
    assert escape, "adaptive families always offer an escape candidate"
    assert adaptive, "corner-to-corner traffic should see adaptive choices"
    assert all(isinstance(link, int) and isinstance(vc, int) for link, vc in escape)
    assert all(network.links[link].spec.dst == nxt for link, _vc, _e, nxt in route.hops)


def test_wormhole_mode_adds_indirect_dependencies():
    config = SimConfig()
    _, network, _ = make_network("serial_torus", ChipletGrid(2, 2, 3, 3), config)
    direct = build_cdg(network, "vct")
    extended = build_cdg(network, "wormhole")
    assert direct.n_indirect == 0
    assert extended.n_indirect > 0
    assert extended.n_direct == direct.n_direct
    assert extended.n_channels == direct.n_channels


def test_adaptive_family_has_extended_cycle_under_wormhole():
    """The paper's escape argument needs VCT: under plain wormhole the
    negative-first escape + minimal adaptive routing acquires an indirect
    dependency cycle (docs/routing.md), which the extended CDG exposes."""
    report = static("serial_torus", mode="wormhole")
    assert not report.ok
    assert "CDG-CYCLE-EXTENDED" in report.codes()
    assert report.metrics["indirect_deps"] > 0


@pytest.mark.parametrize(
    ("family", "target"),
    [("parallel_mesh", "4-channel cycle"), ("serial_torus", "1-channel cycle")],
)
def test_cycle_target_counts_channels_not_walk_length(family, target):
    """The cycle is a closed walk (first channel repeated at the end), so
    the channel count is its length minus one: four channels round a mesh
    loop, one for a self-dependency."""
    report = static(family, mode="wormhole")
    [finding] = [f for f in report.findings if f.code.startswith("CDG-CYCLE")]
    assert finding.target == target


def test_hypercube_family_is_wormhole_clean():
    """Minus-first hypercube routing restricts adaptivity enough that even
    the extended dependency graph stays acyclic."""
    report = static("serial_hypercube", mode="wormhole")
    assert report.ok, report.render(verbose=True)


def test_deterministic_xy_is_wormhole_clean():
    """Escape-only XY routing has no adaptive channels, hence no indirect
    dependencies: it must verify even under the wormhole assumption."""
    config = SimConfig()
    spec, network, _ = make_network(
        "parallel_mesh", ChipletGrid(2, 2, 3, 3), config
    )
    network.set_routing(DimensionOrderRouting(spec))
    report = prove_network(spec, lambda: network, mode="wormhole", fault_masks=False).report
    assert report.ok, report.render(verbose=True)
    assert report.metrics["indirect_deps"] == 0


def _reachable_hops(network, dst):
    """Oracle: each reachable routing state for ``dst`` -> its forwarding hops
    ``(channel, is_escape, next state)``, asked of the routing functions
    directly (ban rule as in the VC allocator, subnet choice carried)."""
    hops = {}
    frontier = [(src, False, None) for src in range(network.n_nodes) if src != dst]
    while frontier:
        state = frontier.pop()
        if state in hops or state[0] == dst:
            continue
        node, banned, choice = state
        router = network.routers[node]
        packet = Packet(node, dst, 1, 0)
        packet.adaptive_banned, packet.subnet_choice = banned, choice
        offered = [
            ((link.index, vc), is_escape, link.spec.dst)
            for port, vc, is_escape in router.routing_fn(router, packet)
            if (link := router.outputs[port].link) is not None
        ]
        saw_adaptive = not all(is_escape for _c, is_escape, _n in offered)
        banned = banned or packet.adaptive_banned
        hops[state] = [
            (channel, esc, (nxt, banned or (esc and saw_adaptive), packet.subnet_choice))
            for channel, esc, nxt in offered
        ]
        frontier.extend(nxt for _c, _e, nxt in hops[state])
    return hops


@pytest.mark.parametrize("family", FAMILIES)
def test_cdg_covers_every_reachable_state(family):
    """The graph must over-approximate every reachable routing state: per
    destination, an escape channel into node ``w`` depends on every escape
    channel any reachable state offers at ``w`` (direct), and under wormhole
    also at every node reached from ``w`` by adaptive hops any reachable
    state offers (indirect)."""
    _, network, _ = make_network(family, ChipletGrid(4, 4, 2, 2), SimConfig())
    direct = build_cdg(network, "vct").edges
    extended = build_cdg(network, "wormhole").edges
    for dst in range(network.n_nodes):
        escape, adaptive_next = defaultdict(set), defaultdict(set)
        for (node, _banned, _choice), out in _reachable_hops(network, dst).items():
            for channel, is_escape, (nxt, _b, _c) in out:
                if is_escape:
                    escape[node].add(channel)
                elif nxt != dst:
                    adaptive_next[node].add(nxt)
        for channels in list(escape.values()):
            for channel in channels:
                downstream = network.links[channel[0]].spec.dst
                assert escape[downstream] <= direct.get(channel, set()), (dst, channel)
                seen, frontier = set(), list(adaptive_next[downstream])
                while frontier:
                    node = frontier.pop()
                    if node not in seen:
                        seen.add(node)
                        frontier.extend(adaptive_next[node])
                indirect = escape[downstream].union(*(escape[node] for node in seen))
                assert indirect <= extended.get(channel, set()), (dst, channel)


def test_build_cdg_rejects_unknown_mode():
    config = SimConfig()
    _, network, _ = make_network("parallel_mesh", ChipletGrid(2, 1, 2, 2), config)
    with pytest.raises(ValueError):
        build_cdg(network, "cut_through")


# -- negative: deliberately broken routing must be flagged --------------------


def test_cyclic_escape_routing_is_flagged():
    config = SimConfig()
    spec, network, _ = make_network("serial_torus", ChipletGrid(2, 1, 2, 2), config)
    network.set_routing(ring_routing)
    report = prove_network(spec, lambda: network, fault_masks=False, replay=False).report
    assert not report.ok
    assert "CDG-CYCLE" in report.codes()


def test_pingpong_adaptive_routing_is_flagged_as_livelock():
    config = SimConfig()
    spec, network, _ = make_network(
        "parallel_mesh", ChipletGrid(2, 1, 2, 2), config
    )
    grid = spec.grid

    def pingpong(router, packet):
        # Adaptive (non-escape) east/west shuttling: never banned, never
        # progressing -- the routing state graph must contain a cycle.
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
    assert analysis.max_hops == -1 and analysis.max_misroute == -1
    assert analysis.cycle
    report = prove_network(spec, lambda: network, fault_masks=False).report
    # One cycle, one finding: the reachability pass owns livelock.
    assert [f.code for f in report.errors if f.code.endswith("CYCLE")] == ["REACH-CYCLE"]
    assert "max_hops_bound" not in report.metrics
    assert not report.ok


def test_livelock_bound_matches_minimal_routing():
    """Fully minimal families (mesh) never misroute: bound == shortest."""
    report = static("parallel_mesh")
    assert report.metrics["max_misroute"] == 0


def test_misrouting_family_reports_positive_slack():
    """Torus chiplet-first routing detours around wraps: slack > 0."""
    report = static("serial_torus")
    assert report.metrics["max_misroute"] > 0


# -- linter -------------------------------------------------------------------


def test_lint_flags_undersized_rob():
    report = static("hetero_phy_torus", config=SimConfig(rob_capacity=1))
    assert not report.ok
    assert "ROB-UNDERSIZED" in report.codes()


def test_lint_flags_sub_packet_buffers():
    """The whole-packet premise is checked where it holds: a virtual
    cut-through build refuses sub-packet buffers, and wormhole routers,
    which allocate a VC on one credit, lint clean with them."""
    bad = SimConfig().replace(onchip_buffer=8)  # < 16-flit packets
    with pytest.raises(ValueError, match="whole-packet"):
        static("parallel_mesh", config=bad)
    spec, network, _ = make_network(
        "parallel_mesh", ChipletGrid(2, 1, 2, 2), bad, vct=False
    )
    report = Report(system=spec.name)
    lint_network(spec, network, report)
    assert report.ok and not report.findings, report.render(verbose=True)


def test_lint_flags_malformed_candidates():
    config = SimConfig()
    spec, network, _ = make_network(
        "parallel_mesh", ChipletGrid(2, 1, 2, 2), config
    )

    def bad_vc_routing(router, packet):
        if packet.dst == router.node:
            return [(0, 0, True)]
        port = next(iter(router.out_port_by_tag.values()))
        return [(port, 99, True)]  # VC 99 does not exist

    network.set_routing(bad_vc_routing)
    report = Report(system=spec.name)
    lint_network(spec, network, report)
    assert "CAND-VC" in report.codes()
    # One finding per routing question, until the evidence is truncated.
    questions = [f.target for f in report.findings if f.code == "CAND-VC"]
    assert len(questions) == len(set(questions)) == 33
    assert report.findings[-1].code == "CAND-TRUNCATED"


# -- report plumbing ----------------------------------------------------------


def test_report_ok_gates_on_errors_only():
    report = Report(system="unit")
    assert report.ok
    report.info("NOTE", "x", "just a note")
    report.warning("WARN", "y", "a warning")
    assert report.ok
    report.error("BOOM", "z", "an error")
    assert not report.ok
    assert report.codes() == {"NOTE", "WARN", "BOOM"}
    assert [f.severity for f in report.findings] == [
        Severity.INFO,
        Severity.WARNING,
        Severity.ERROR,
    ]


def test_report_render_shows_verdict_and_metrics():
    report = Report(system="unit", mode="wormhole")
    report.metrics["escape_channels"] = 12
    text = report.render()
    assert "PASS" in text and "unit" in text and "wormhole" in text
    assert "escape_channels=12" in text
    report.error("BOOM", "z", "an error")
    assert "FAIL" in report.render()

"""One generated whole-run property over every way to describe a system.

Hypothesis draws a system (the five families, plus the multi-package
hetero-channel system whose ``hetero_channel`` label and link kinds
disagree), a grid, an offered load, a seed, a packet length, a dispatch
policy and VCT or wormhole allocation.  Each example is built through the
topology seam — routing, selector and escape structure read off the
channel list — run to drain under ``InvariantChecker``, ``LatencyLedger``
and ``RunDigest``, and must:

* raise no invariant violation and no ``AttributionError``;
* deliver every injected packet, each one attributed, and leave the
  network empty;
* reproduce its statistics exactly, energy floats included, on a second
  same-seed run with no observer attached;
* leave no cyclic garbage once observers are detached and the network is
  closed (collector off).

The second run matters because the observers subscribe to the per-flit
events, which hold every switch grant to one flit; with no subscriber a
sole contender moves its whole run of ready flits per grant
(docs/architecture.md, "Hot path").  The fixed cases below the property
hold the plain runs of the bypass mix, a MOC trace replay and wormhole
allocation to their digested pins.

``derandomize=True`` keeps the examples fixed, so the tier-1 cost is
known (a few seconds); a counter-example found with more examples becomes
a pinned regression test below the property.
"""

from __future__ import annotations

import gc
import json
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import InvariantChecker
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.experiment import run_trace
from repro.sim.stats import Stats
from repro.telemetry import LatencyLedger, RunDigest, pins
from repro.topology.grid import ChipletGrid
from repro.topology.multipackage import build_hetero_channel_packages
from repro.topology.system import FAMILIES, build_system
from repro.traffic.hpc import embed_ranks, generate_moc_trace
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import make_pattern

from .helpers import uniform_engine
from .test_kernel_equivalence import GRID, STORE, _MixedClassWorkload

#: Cycles with injection; the run then drains.
HORIZON = 150
DRAIN_LIMIT = 20_000

ANY = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]
POW2 = [(2, 1), (1, 2), (2, 2), (4, 1), (4, 2)]
EVEN_X_POW2 = [(2, 1), (2, 2), (4, 1), (4, 2)]

#: label -> (builder(grid, config), chiplet grids it can be built on).
SYSTEMS = {
    "parallel_mesh": (partial(build_system, "parallel_mesh"), ANY),
    "serial_torus": (partial(build_system, "serial_torus"), ANY),
    "hetero_phy_torus": (partial(build_system, "hetero_phy_torus"), ANY),
    "serial_hypercube": (partial(build_system, "serial_hypercube"), POW2),
    "hetero_channel": (partial(build_system, "hetero_channel"), POW2),
    "hetero_channel_packages": (
        partial(build_hetero_channel_packages, packages=(2, 1)),
        EVEN_X_POW2,
    ),
}
DISPATCH = ["performance", "balanced", "energy_efficient", "application_aware", "passive_aware"]


@st.composite
def cases(draw):
    label = draw(st.sampled_from(sorted(SYSTEMS)))
    build, chiplets = SYSTEMS[label]
    grid = ChipletGrid(
        *draw(st.sampled_from(chiplets)),
        *draw(st.sampled_from([(2, 2), (2, 3), (3, 3)])),
    )
    packet_length = draw(st.sampled_from([4, 8, 16]))
    spec = build(grid, SimConfig(packet_length=packet_length))
    exclusive = ["mesh", "cube"] if spec.has_subnet_choice else []
    return (
        spec,
        draw(st.sampled_from(DISPATCH + exclusive)),
        draw(st.sampled_from([True, False])),  # VCT, else wormhole
        draw(st.floats(0.02, 0.3)),
        draw(st.integers(0, 2**16)),
    )


def run_once(spec, policy, vct, rate, seed, *, observed=True) -> tuple[str, dict]:
    """Build, observe (or not), run to drain, detach and close; the stats
    fingerprint and summary."""
    stats = Stats()
    network = build_network(spec, stats, policy=policy)
    for router in network.routers:
        router.vct = vct
    observers = (
        (InvariantChecker(network), LatencyLedger(network), RunDigest(network))
        if observed
        else ()
    )
    n = spec.grid.n_nodes
    workload = SyntheticWorkload(
        make_pattern("uniform", n), n, rate, spec.config.packet_length,
        until=HORIZON, seed=seed,
    )
    Engine(network, workload, stats).run_until_drained(DRAIN_LIMIT)
    assert not network.holds_flits()
    assert stats.packets_delivered == stats.packets_injected > 0
    if observed:
        checker, ledger, _digest = observers
        assert ledger.summary()["packets"] == stats.packets_delivered
        assert checker.checks_run > 0
    for observer in observers:
        observer.detach()
    network.close()
    return pins.stats_fingerprint(stats), stats.summary()


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(cases())
def test_every_described_system_runs_clean(case):
    gc.collect()
    gc.disable()
    try:
        observed = run_once(*case)
        assert run_once(*case, observed=False) == observed
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- plain runs against their digested pins --------------------------------------
def assert_matches_pin(case: str, stats) -> None:
    """A run made with no subscriber has the statistics of its digested pin."""
    pinned = STORE[case]
    assert pins.stats_fingerprint(stats) == pinned["fingerprint"]
    assert json.loads(json.dumps(stats.summary())) == pinned["stats"]


def test_plain_bypass_mix_matches_its_pin():
    network, engine = uniform_engine(
        "hetero_phy_torus", GRID, cycles=600, warmup=100, rate=0.3, seed=11,
        workload=_MixedClassWorkload,
    )
    engine.run(600)
    assert sum(getattr(link, "flits_bypassed", 0) for link in network.links) > 0
    assert_matches_pin("hetero_phy_torus-bypass", network.stats)


def test_plain_moc_trace_replay_matches_its_pin():
    grid = ChipletGrid(4, 2, 3, 3)
    trace = embed_ranks(
        generate_moc_trace(128, 2, sweep_bytes=64, partners_per_sweep=7, seed=2),
        grid,
        core_only=True,
    ).scaled(0.5)
    result = run_trace(build_system("hetero_channel", grid, SimConfig()), trace)
    assert_matches_pin("hetero_channel-moc-trace", result.stats)


@pytest.mark.parametrize("family", FAMILIES)
def test_plain_wormhole_run_matches_its_pin(family):
    network, engine = uniform_engine(
        family, GRID, cycles=600, warmup=100, rate=0.5, seed=3, vct=False
    )
    engine.run(600)
    assert_matches_pin(f"{family}-wormhole", network.stats)


def count_accepts(network) -> dict[str, int]:
    """Count ``Link.accept`` calls and the flits they carry, per network."""
    tally = {"calls": 0, "flits": 0}
    for link in network.links:
        def counted(packet, index, count, vc, now, _accept=link.accept):
            tally["calls"] += 1
            tally["flits"] += count
            _accept(packet, index, count, vc, now)

        link.accept = counted
    return tally


def test_a_sole_contender_hands_a_link_its_flits_in_runs():
    """Plain, a 2x2(4x4) hetero-PHY torus point calls ``accept`` fewer
    times than it carries flits; with a ``flit_send`` subscriber, once per
    flit — and both runs carry the same flits."""
    tallies = []
    for subscribed in (False, True):
        network, engine = uniform_engine(
            "hetero_phy_torus", ChipletGrid(2, 2, 4, 4), cycles=400, rate=0.15, seed=7
        )
        tally = count_accepts(network)
        if subscribed:
            network.telemetry.subscribe("flit_send", lambda *args: None)
        engine.run(400)
        network.close()
        tallies.append(tally)
    plain, per_flit = tallies
    assert plain["flits"] == per_flit["flits"] > 0
    assert plain["calls"] < plain["flits"]
    assert per_flit["calls"] == per_flit["flits"]

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

The second run holds the observers passive: a switch grant moves the same
run of flits whoever subscribes, and the router emits the per-flit events
of that run (docs/architecture.md, "Hot path").  The fixed cases below the
property hold the plain runs of the bypass mix, a MOC trace replay and
wormhole allocation to their digested pins — each run from its pin's own
meta with no telemetry attached — and the event order of a run.

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
from repro.sim.stats import Stats
from repro.telemetry import LatencyLedger, RunDigest, pins
from repro.telemetry.diff import run_described
from repro.topology.grid import ChipletGrid
from repro.topology.multipackage import build_hetero_channel_packages
from repro.topology.system import FAMILIES, build_system
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import make_pattern

from .helpers import uniform_engine
from .test_golden import GRID, STORE

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
    network = build_network(spec, stats, policy=policy, vct=vct)
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
def assert_matches_pin(case: str) -> None:
    """The run a pin describes, made with no subscriber, has the statistics
    of its digested pin."""
    pinned = STORE[case]
    stats = run_described(pinned["digest"]["meta"], telemetry=None).stats
    assert pins.stats_fingerprint(stats) == pinned["fingerprint"]
    assert json.loads(json.dumps(stats.summary())) == pinned["stats"]


def test_plain_bypass_mix_matches_its_pin():
    assert_matches_pin("hetero_phy_torus-bypass")


def test_plain_moc_trace_replay_matches_its_pin():
    assert_matches_pin("hetero_channel-moc-trace")


@pytest.mark.parametrize("family", FAMILIES)
def test_plain_wormhole_run_matches_its_pin(family):
    assert_matches_pin(f"{family}-wormhole")


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
    """A 2x2(4x4) hetero-PHY torus point calls ``accept`` fewer times than
    it carries flits, and exactly as often with the three per-flit events
    subscribed as with none."""
    tallies = []
    for subscribed in (False, True):
        network, engine = uniform_engine(
            "hetero_phy_torus", ChipletGrid(2, 2, 4, 4), cycles=400, rate=0.15, seed=7
        )
        tally = count_accepts(network)
        if subscribed:
            for name in ("credit_return", "flit_send", "link_accept"):
                network.telemetry.subscribe(name, lambda *args: None)
        engine.run(400)
        network.close()
        tallies.append(tally)
    plain, observed = tallies
    assert plain == observed
    assert 0 < plain["calls"] < plain["flits"]


def record_run_events(network) -> list[tuple]:
    """Log ``credit_return``, ``flit_send`` and ``link_accept`` in emission
    order, plus a ``grant`` entry for each ``Link.accept`` call (one per run,
    made after the run's events)."""
    log: list[tuple] = []
    bus = network.telemetry
    bus.subscribe(
        "credit_return", lambda link, vc, now: log.append(("credit", link.index, vc, now))
    )

    def on_send(router, flit, out_port, out_vc, now):
        ivc = router.outputs[out_port].vc_owner[out_vc]
        link = router.outputs[out_port].link
        log.append((
            "send", flit.packet.pid, flit.index,
            None if ivc.in_link is None else (ivc.in_link.index, ivc.index),
            None if link is None else (link.index, out_vc),
            now,
        ))

    bus.subscribe("flit_send", on_send)
    bus.subscribe(
        "link_accept",
        lambda link, flit, vc, now: log.append(
            ("accept", link.index, vc, flit.packet.pid, flit.index, now)
        ),
    )
    for link in network.links:
        def granted(packet, index, count, vc, now, _accept=link.accept, _link=link):
            log.append(("grant", _link.index, vc, packet.pid, index, count, now))
            _accept(packet, index, count, vc, now)

        link.accept = granted
    return log


@pytest.mark.parametrize("family", ["parallel_mesh", "hetero_phy_torus"])
def test_a_run_emits_credit_send_accept_per_flit_in_index_order(family):
    """Invariant 3 on runs: per flit, ``credit_return`` when the input VC
    has an upstream link, then ``flit_send``, then ``link_accept`` unless
    the flit ejects; a run's flits in index order."""
    network, engine = uniform_engine(family, GRID, cycles=300, rate=0.2, seed=5)
    log = record_run_events(network)
    engine.run(300)
    network.close()
    sends = credits = accepts = 0
    for k, entry in enumerate(log):
        if entry[0] != "send":
            continue
        sends += 1
        _, pid, index, upstream, downstream, now = entry
        if upstream is not None:
            credits += 1
            assert log[k - 1] == ("credit", *upstream, now)
        if downstream is not None:
            accepts += 1
            assert log[k + 1] == ("accept", *downstream, pid, index, now)
    # Every event belongs to one send.
    assert (credits, accepts) == (
        sum(entry[0] == "credit" for entry in log),
        sum(entry[0] == "accept" for entry in log),
    )
    runs = 0
    for k, entry in enumerate(log):
        if entry[0] != "grant":
            continue
        _, link_index, vc, pid, index, count, now = entry
        runs += count > 1
        # A flit's events are at most three entries; the run's sends are the
        # last ``count`` before its grant.
        block = [e for e in log[max(0, k - 3 * count):k] if e[0] == "send"][-count:]
        assert [(e[1], e[2], e[4], e[5]) for e in block] == [
            (pid, i, (link_index, vc), now) for i in range(index, index + count)
        ]
    assert sends > 0 and runs > 0

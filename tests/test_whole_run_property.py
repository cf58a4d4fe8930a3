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
* reproduce its digest chain on a second same-seed run;
* leave no cyclic garbage once observers are detached and the network is
  closed (collector off).

``derandomize=True`` keeps the examples fixed, so the tier-1 cost is
known (a few seconds); a counter-example found with more examples becomes
a pinned regression test below the property.
"""

from __future__ import annotations

import gc
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import InvariantChecker
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.telemetry import LatencyLedger, RunDigest
from repro.topology.grid import ChipletGrid
from repro.topology.multipackage import build_hetero_channel_packages
from repro.topology.system import build_system
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import make_pattern

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


def run_once(spec, policy, vct, rate, seed) -> str:
    """Build, observe, run to drain, detach and close; the digest chain."""
    stats = Stats()
    network = build_network(spec, stats, policy=policy)
    for router in network.routers:
        router.vct = vct
    observers = (InvariantChecker(network), LatencyLedger(network), RunDigest(network))
    checker, ledger, digest = observers
    n = spec.grid.n_nodes
    workload = SyntheticWorkload(
        make_pattern("uniform", n), n, rate, spec.config.packet_length,
        until=HORIZON, seed=seed,
    )
    Engine(network, workload, stats).run_until_drained(DRAIN_LIMIT)
    assert not network.holds_flits()
    assert stats.packets_delivered == stats.packets_injected > 0
    assert ledger.summary()["packets"] == stats.packets_delivered
    assert checker.checks_run > 0
    for observer in observers:
        observer.detach()
    network.close()
    return digest.final


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(cases())
def test_every_described_system_runs_clean(case):
    gc.collect()
    gc.disable()
    try:
        first = run_once(*case)
        assert run_once(*case) == first
        assert gc.collect() == 0
    finally:
        gc.enable()

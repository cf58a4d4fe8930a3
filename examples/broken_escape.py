"""A broken escape discipline, certified broken end to end.

The repository's families break torus cycles with a dateline escape VC
(Sec 6.2).  This script deliberately installs the opposite: an
eastward-only *escape* ring on a 4-node torus row, i.e. a cyclic escape
channel-dependency graph.  It then walks the exact pipeline ``repro
prove`` automates:

1. the static CDG pass flags the cycle (``CDG-CYCLE``) — conservative:
   deadlock cannot be *ruled out*;
2. the bounded model checker does NOT refute it: best-first search over
   the credit/VC-occupancy space reaches a concrete deadlock state and
   emits a :class:`~repro.analysis.modelcheck.CounterexampleTrace` of
   injections;
3. replaying that trace in the cycle-accurate simulator reproduces a real
   :class:`~repro.sim.stats.DeadlockError` (and, with ``--forensics-dir``,
   captures a postmortem bundle you can render with ``repro postmortem``).

Contrast with the shipped families, where step 2 *refutes* every cycle
the wormhole-mode CDG reports and certification succeeds — see
``docs/analysis.md`` (Certification) and ``tests/test_prove.py``.
"""

import argparse
import sys

from repro.analysis import (
    build_cdg,
    check_network,
    cycle_feed_pool,
    replay_counterexample,
)
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system

#: 2x1 chiplets of 2x1 nodes: one 4-node torus row.
RING_GRID = ChipletGrid(2, 1, 2, 1)


def ring_routing(router, packet):
    """Eastward-only ring routing offered as the *escape* discipline."""
    if packet.dst == router.node:
        return [(0, 0, True)]
    by_tag = router.out_port_by_tag
    port = by_tag.get(("mesh", "E"), by_tag.get(("wrap", "E")))
    if port is None:
        port = by_tag.get(("mesh", "N"), by_tag.get(("mesh", "S")))
    return [(port, 0, True)]


def build_broken_network(stats=None):
    """A serial-torus row with the cyclic escape ring installed."""
    spec = build_system("serial_torus", RING_GRID, SimConfig())
    return spec, build_network(spec, stats or Stats(), routing=ring_routing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--forensics-dir",
        default=None,
        metavar="DIR",
        help="also capture a postmortem bundle of the replayed deadlock",
    )
    parser.add_argument("--max-states", type=int, default=4_000)
    args = parser.parse_args(argv)

    spec, network = build_broken_network()
    packet_length = spec.config.packet_length

    graph = build_cdg(network, "vct")
    cycle = graph.cycle()
    if not cycle:
        print("escape CDG is acyclic — nothing to refute (unexpected)",
              file=sys.stderr)
        return 1
    shown = " -> ".join(f"(link {link}, vc {vc})" for link, vc in cycle)
    print(f"[1/3] CDG pass: escape cycle {shown}")

    pool = cycle_feed_pool(network, cycle, packet_length=packet_length)
    result = check_network(
        network,
        packet_length=packet_length,
        pool=pool,
        focus_cycle=cycle,
        max_states=args.max_states,
    )
    if not result.deadlock:
        print(f"model checker refuted the cycle ({result.verdict}) — "
              "the ring survived (unexpected)", file=sys.stderr)
        return 1
    trace = result.counterexample
    print(f"[2/3] model checker: deadlock realized after exploring "
          f"{result.explored} state(s)")
    print(trace.render())

    session = None
    stats = Stats()
    _spec, replay_network = build_broken_network(stats)
    if args.forensics_dir:
        from repro.telemetry import TelemetryConfig, TelemetrySession

        session = TelemetrySession.attach(
            replay_network,
            TelemetryConfig(
                epoch_metrics=False, forensics=True, bundle_dir=args.forensics_dir
            ),
        )
    outcome = replay_counterexample(
        replay_network, stats, trace, telemetry=session
    )
    if not outcome.deadlocked:
        print("replay did not wedge the simulator (unexpected)", file=sys.stderr)
        return 1
    print(f"[3/3] replay: DeadlockError at cycle {outcome.cycles} — "
          "the counterexample is real")
    if outcome.bundle_path:
        print(f"postmortem bundle: {outcome.bundle_path}")
        print(f"inspect it with: repro postmortem {outcome.bundle_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

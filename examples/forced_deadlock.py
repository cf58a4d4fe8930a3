"""Force a routing deadlock and capture a postmortem forensics bundle.

Eastward-only ring routing on a torus row builds a cyclic channel
dependency (the textbook deadlock the paper's escape-VC discipline
exists to break).  Under saturating load the ring wedges within a few
hundred cycles; the engine's deadlock detector fires, the attached
:class:`~repro.telemetry.session.TelemetrySession` captures a bundle
(network snapshot, in-flight packet table, wait-for graph with the
blocking cycle, flight-recorder tail, the health checks of every closed
250-cycle epoch), and this script prints its path.

Render the bundle afterwards with::

    python examples/forced_deadlock.py --bundle-dir forensics
    repro postmortem forensics/BUNDLE_deadlock_<cycle>.json --html report.html

The same wedge is cross-checked against the *static* channel-dependency
graph in ``tests/test_forensics.py``: the dynamic wait-for cycle names
exactly the channels the CDG analysis predicts.
"""

import argparse
import sys

from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import DeadlockError, Stats
from repro.telemetry import TelemetryConfig, TelemetrySession
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic import SyntheticWorkload
from repro.traffic.patterns import make_pattern


def ring_routing(router, packet):
    """Eastward-only ring routing: cyclic, therefore deadlock-prone."""
    if packet.dst == router.node:
        return [(0, 0, True)]
    by_tag = router.out_port_by_tag
    port = by_tag.get(("mesh", "E"), by_tag.get(("wrap", "E")))
    if port is None:
        port = by_tag.get(("mesh", "N"), by_tag.get(("mesh", "S")))
    return [(port, 0, True)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bundle-dir",
        default="forensics",
        help="where the postmortem bundle goes (default: forensics/)",
    )
    parser.add_argument("--cycles", type=int, default=4_000)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    grid = ChipletGrid(2, 1, 2, 2)
    config = SimConfig(sim_cycles=args.cycles, warmup_cycles=0)
    spec = build_system("serial_torus", grid, config)
    stats = Stats()
    network = build_network(spec, stats, routing=ring_routing)

    # Health checks read the epoch sampler: one check per closed epoch.
    session = TelemetrySession.attach(
        network,
        TelemetryConfig(
            epoch_length=250,
            forensics=True,
            bundle_dir=args.bundle_dir,
            flight_recorder=True,
            recorder_window=2_048,
            health=True,
            health_stream=sys.stderr,
        ),
    )
    engine = Engine(network, _workload(grid, config, args.seed), stats,
                    deadlock_threshold=300)
    engine.telemetry = session

    print(f"running eastward ring routing on {spec.name} at rate 1.0 ...")
    try:
        engine.run(args.cycles)
    except DeadlockError as exc:
        print(f"deadlock detected at cycle {exc.cycle}: "
              f"{exc.buffered} flits wedged")
        print(f"postmortem bundle: {exc.bundle_path}")
        print(f"inspect it with: repro postmortem {exc.bundle_path}")
        return 0
    print("no deadlock occurred — the ring survived (unexpected)", file=sys.stderr)
    return 1


def _workload(grid, config, seed):
    pattern = make_pattern("uniform", grid.n_nodes)
    return SyntheticWorkload(
        pattern, grid.n_nodes, 1.0, config.packet_length, seed=seed
    )


if __name__ == "__main__":
    sys.exit(main())

"""Interface design-space exploration with the V-t model (Fig 8).

Uses the analytic Eq (2) model to answer a designer's question before any
simulation: *given a fixed I/O pin budget, how should lanes be split
between a parallel and a serial PHY?*  The script

1. prints the V-t curves of the Table 1 technologies (AIB-like parallel,
   SerDes-like serial, BoW-like compromised) and the hetero-PHY fold,
2. sweeps the pin split of a pin-constrained hetero-PHY interface and
   reports the delivery time of small (latency-critical) and large
   (bandwidth-critical) transfers, and
3. cross-checks one point of the analytic model against a cycle-accurate
   simulation of the corresponding hetero-PHY link.

Run with::

    python examples/interface_design_space.py
"""

from repro import (
    ChipletGrid,
    SimConfig,
    VTCurve,
    build_system,
    hetero_curve,
    pin_constrained_hetero,
    run_synthetic,
)

PARALLEL = VTCurve(bandwidth=2, delay=5, name="parallel (AIB-like)")
SERIAL = VTCurve(bandwidth=4, delay=20, name="serial (SerDes-like)")
COMPROMISED = VTCurve(bandwidth=3, delay=10, name="compromised (BoW-like)")


def ascii_curves() -> None:
    """A small text rendering of Fig 8(a)."""
    hetero = hetero_curve(PARALLEL, SERIAL)
    curves = [PARALLEL, SERIAL, COMPROMISED, hetero]
    print("V(t): volume delivered by time t (flits)")
    print(f"{'t':>4s}", *(f"{c.name.split()[0]:>12s}" for c in curves))
    for t in range(0, 41, 4):
        print(f"{t:4d}", *(f"{c.volume(t):12.0f}" for c in curves))
    print()


def pin_split_sweep() -> None:
    print("pin-constrained hetero-PHY: lane-split sweep (Fig 8b)")
    print(f"{'parallel share':>15s} {'8-flit xfer':>12s} {'512-flit xfer':>14s}")
    best_small = best_large = None
    for share in (0.1, 0.25, 0.5, 0.75, 0.9):
        curve = pin_constrained_hetero(PARALLEL, SERIAL, share)
        small = curve.time_to_deliver(8)
        large = curve.time_to_deliver(512)
        print(f"{share:15.2f} {small:12.1f} {large:14.1f}")
        if best_small is None or small < best_small[1]:
            best_small = (share, small)
        if best_large is None or large < best_large[1]:
            best_large = (share, large)
    print(
        f"\nlatency-critical traffic favours a parallel-heavy split "
        f"(best at {best_small[0]:.0%}); bulk transfers favour serial lanes "
        f"(best at {best_large[0]:.0%}) - Sec 5.1's ratio adjustment.\n"
    )


def cross_check_with_simulation() -> None:
    print("cross-check: analytic V-t vs cycle-accurate simulation")
    grid = ChipletGrid(2, 1, 2, 2)  # two chiplets joined by hetero-PHY links
    config = SimConfig(sim_cycles=3_000, warmup_cycles=300, packet_length=16)
    spec = build_system("hetero_phy_torus", grid, config)
    result = run_synthetic(spec, "uniform", 0.05, policy="performance", seed=1)
    hetero = hetero_curve(PARALLEL, SERIAL)
    analytic = hetero.time_to_deliver(config.packet_length)
    print(
        f"  analytic time to push one {config.packet_length}-flit packet "
        f"through the interface: {analytic:.1f} cycles"
    )
    print(
        f"  simulated end-to-end latency (includes on-chip hops and "
        f"router pipelines): {result.avg_latency:.1f} cycles"
    )
    assert result.avg_latency > analytic  # end-to-end includes more stages


def main() -> None:
    ascii_curves()
    pin_split_sweep()
    cross_check_with_simulation()


if __name__ == "__main__":
    main()

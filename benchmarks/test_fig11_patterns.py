"""Fig 11: hetero-PHY networks on six synthetic traffic patterns."""

import math

from .conftest import run_experiment


def test_fig11(benchmark, scale, results_dir):
    result = run_experiment(benchmark, "fig11", scale, results_dir)
    patterns = sorted(set(result.column("pattern")))
    assert len(patterns) == 6
    rates = sorted(set(result.column("rate")))
    low = rates[0]
    for pattern in patterns:
        by_net = {
            row[1]: row[3]
            for row in result.filtered(pattern=pattern, rate=low)
        }
        # low load: the serial torus pays its 20-cycle interface delay and
        # is the slowest full-bandwidth network (Sec 8.1.1).
        assert by_net["serial-torus"] > by_net["parallel-mesh"]
        assert by_net["hetero-phy-full"] < by_net["serial-torus"]
        # the pin-constrained variant sits between full hetero and serial
        assert by_net["hetero-phy-half"] <= by_net["serial-torus"] * 1.1
    # at the highest common rate the hetero network must not be the worst.
    high = rates[-1]
    for pattern in patterns:
        rows = {row[1]: row[3] for row in result.filtered(pattern=pattern, rate=high)}
        if len(rows) < 4 or any(math.isnan(v) for v in rows.values()):
            continue  # some baseline saturated and stopped sweeping - fine
        hetero = rows.pop("hetero-phy-full")
        assert hetero < max(rows.values()), (pattern, hetero, rows)

"""Tests for the experiment harness."""

import math

import pytest

from repro.sim.config import SimConfig
from repro.sim.experiment import (
    SweepPoint,
    latency_rate_sweep,
    run_synthetic,
    run_trace,
    saturation_rate,
)
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system
from repro.traffic.trace import Trace, TraceRecord

CONFIG = SimConfig(sim_cycles=1_200, warmup_cycles=200)
GRID = ChipletGrid(2, 2, 3, 3)


def spec():
    return build_system("hetero_phy_torus", GRID, CONFIG)


def test_run_synthetic_returns_result():
    result = run_synthetic(spec(), "uniform", 0.1)
    assert result.n_nodes == 36
    assert result.cycles == 1_200
    assert result.workload == "uniform@0.1"
    assert result.stats.packets_delivered > 0
    assert not result.saturated


def test_run_synthetic_policy_override():
    result = run_synthetic(spec(), "uniform", 0.1, policy="energy_efficient")
    assert result.policy == "energy_efficient"
    assert result.phy_split[1] == 0


def test_run_trace_collects_phy_split():
    records = [TraceRecord(t, 0, 35, 8) for t in range(0, 200, 20)]
    result = run_trace(spec(), Trace(records, name="t"))
    assert result.stats.packets_delivered == len(records)
    assert result.workload == "t"


def test_run_trace_strict_raises_on_overload():
    # one packet per cycle from everyone to node 0: cannot drain in margin.
    records = [
        TraceRecord(t, src, 0, 16)
        for t in range(50)
        for src in range(1, 36)
    ]
    with pytest.raises(RuntimeError):
        run_trace(spec(), Trace(records, name="flood"), drain_margin=50)


def test_run_trace_nonstrict_returns_partial():
    records = [
        TraceRecord(t, src, 0, 16)
        for t in range(50)
        for src in range(1, 36)
    ]
    result = run_trace(spec(), Trace(records, name="flood"), drain_margin=50, strict=False)
    assert result.stats.delivered_fraction < 1.0


def test_run_trace_rejects_endpoints_outside_the_system_up_front(monkeypatch):
    """A node id the system does not have fails before the first cycle, not
    at the cycle the record comes due."""
    from repro.sim import experiment

    def no_build(*args, **kwargs):
        raise AssertionError("the trace must be checked before anything is built")

    monkeypatch.setattr(experiment, "build_network", no_build)
    late = Trace([TraceRecord(0, 1, 2), TraceRecord(90_000, 1, 99, 2)], name="late")
    with pytest.raises(ValueError) as err:
        run_trace(spec(), late)
    for part in ("trace 'late'", "row 1", "node 99", "n_nodes=36"):
        assert part in str(err.value)
    with pytest.raises(ValueError, match=r"row 0 \(-1 -> 2\): node -1 "):
        run_trace(spec(), Trace([TraceRecord(5, -1, 2)], name="negative"))


def test_sweep_stops_after_saturation():
    points = latency_rate_sweep(
        spec(), "uniform", [0.05, 2.0, 3.0, 4.0], cycles=800, warmup=100
    )
    # sweeping stops at the first saturated point: it may only be the last.
    assert len(points) < 4
    for point in points[:-1]:
        assert not point.saturated


def test_sweep_point_saturation_flags():
    ok = SweepPoint(0.1, 30.0, 0.99, 100.0)
    bad = SweepPoint(0.5, 300.0, 0.3, 100.0)
    starved = SweepPoint(0.5, math.nan, 0.0, math.nan)  # injected, none delivered
    empty = SweepPoint(0.0005, math.nan, math.nan, math.nan)  # nothing injected
    assert not ok.saturated
    assert bad.saturated
    assert starved.saturated
    assert not empty.saturated


def test_an_empty_point_is_not_a_saturated_point():
    # 16 nodes x 200 measured cycles at 0.0005 injects no measured packet:
    # the point has nothing to report, and the sweep must go on past it.
    mesh = build_system("parallel_mesh", ChipletGrid(2, 2, 2, 2), CONFIG)
    points = latency_rate_sweep(
        mesh, "uniform", (0.0005, 0.05, 0.1), cycles=300, warmup=100
    )
    assert [point.rate for point in points] == [0.0005, 0.05, 0.1]
    assert math.isnan(points[0].avg_latency) and not points[0].saturated
    assert points[1].avg_latency > 0
    assert saturation_rate(points) == 0.1
    # RunResult answers with the same predicate.
    result = run_synthetic(mesh, "uniform", 0.0005, cycles=300, warmup=100)
    assert result.stats.measured_injected == 0 and not result.saturated


def test_saturation_rate_picks_last_good():
    points = [
        SweepPoint(0.1, 30, 0.99, 1),
        SweepPoint(0.2, 40, 0.98, 1),
        SweepPoint(0.3, 500, 0.2, 1),
    ]
    assert saturation_rate(points) == 0.2
    assert math.isnan(saturation_rate([points[2]]))

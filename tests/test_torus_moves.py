"""Tests for weighted torus direction planning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.weighted_path import HopCostModel
from repro.noc.channel import ChannelKind
from repro.routing.torus_moves import TorusAxisPlanner
from repro.sim.config import SimConfig


def make_planner(width=16, span=4, wrapped=True, kind=ChannelKind.HETERO_PHY):
    model = HopCostModel.performance_first(SimConfig())
    return TorusAxisPlanner(width, span, kind, ChannelKind.SERIAL, model, wrapped=wrapped)


def test_validation():
    model = HopCostModel.performance_first(SimConfig())
    with pytest.raises(ValueError):
        TorusAxisPlanner(10, 4, ChannelKind.SERIAL, ChannelKind.SERIAL, model)  # not a multiple


def test_no_move_when_aligned():
    planner = make_planner()
    assert planner.directions(3, 3) == ()
    assert planner.axis_cost(3, 3, +1) == 0.0


def test_short_distance_prefers_direct():
    planner = make_planner()
    assert planner.directions(0, 1) == (1,)
    assert planner.directions(5, 3) == (-1,)


def test_wraparound_chosen_for_far_pairs():
    planner = make_planner()
    # 0 -> 15: direct needs 15 hops; the wrap is one (expensive) hop.
    assert planner.directions(0, 15) == (-1,)
    assert planner.directions(15, 0) == (1,)


def test_unwrapped_axis_never_wraps():
    planner = make_planner(wrapped=False)
    assert planner.directions(0, 15) == (1,)
    assert planner.axis_cost(0, 15, -1) == float("inf")


def test_sign_validation():
    planner = make_planner()
    with pytest.raises(ValueError):
        planner.axis_cost(0, 1, 0)


@given(st.integers(0, 15), st.integers(0, 15))
def test_costs_positive_and_directions_nonempty(cur, dst):
    planner = make_planner()
    if cur == dst:
        assert planner.directions(cur, dst) == ()
        return
    dirs = planner.directions(cur, dst)
    assert dirs and set(dirs) <= {1, -1}
    for sign in (1, -1):
        assert planner.axis_cost(cur, dst, sign) > 0


@given(st.integers(0, 15), st.integers(0, 15))
def test_chosen_direction_is_cheapest(cur, dst):
    planner = make_planner()
    if cur == dst:
        return
    dirs = planner.directions(cur, dst)
    plus = planner.axis_cost(cur, dst, +1)
    minus = planner.axis_cost(cur, dst, -1)
    best = min(plus, minus)
    for sign in dirs:
        assert planner.axis_cost(cur, dst, sign) == best


@given(st.integers(0, 15), st.integers(0, 15))
def test_progress_is_monotone(cur, dst):
    """Following a chosen direction strictly decreases that direction's cost.

    This is the livelock-freedom argument for torus routing: after one
    step the same direction stays (weakly) preferred, so a packet cannot
    ping-pong between directions.
    """
    planner = make_planner()
    if cur == dst:
        return
    sign = planner.directions(cur, dst)[0]
    nxt = (cur + sign) % planner.width
    before = planner.axis_cost(cur, dst, sign)
    after = planner.axis_cost(nxt, dst, sign)
    assert after < before


def test_cost_decomposition_matches_hop_classes():
    """A direct path's cost equals the sum of its per-class hop costs."""
    config = SimConfig()
    model = HopCostModel.performance_first(config)
    planner = TorusAxisPlanner(8, 4, ChannelKind.SERIAL, ChannelKind.SERIAL, model)
    onchip = model.hop_cost(ChannelKind.ONCHIP)
    boundary = model.hop_cost(ChannelKind.SERIAL)
    # 1 -> 5 crosses one chiplet boundary (between 3 and 4), 3 on-chip hops.
    assert planner.axis_cost(1, 5, +1) == pytest.approx(3 * onchip + boundary)


def test_directions_memoized():
    planner = make_planner()
    first = planner.directions(2, 9)
    assert planner.directions(2, 9) is first

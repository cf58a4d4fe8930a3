"""Tests for the Eq (3)/(4) weighted path-length model."""

import pytest

from repro.core.weighted_path import ROUTER_PIPELINE_CYCLES, HopCostModel
from repro.noc.channel import ChannelKind
from repro.noc.flit import FLIT_BITS
from repro.sim.config import SimConfig

CONFIG = SimConfig()


def test_delays_follow_config():
    model = HopCostModel(CONFIG)
    assert model.delay(ChannelKind.ONCHIP) == ROUTER_PIPELINE_CYCLES + 1
    assert model.delay(ChannelKind.PARALLEL) == ROUTER_PIPELINE_CYCLES + 5
    assert model.delay(ChannelKind.SERIAL) == ROUTER_PIPELINE_CYCLES + 20
    # hetero is costed by its parallel component's delay
    assert model.delay(ChannelKind.HETERO_PHY) == model.delay(ChannelKind.PARALLEL)


def test_bandwidths():
    model = HopCostModel(CONFIG)
    assert model.bandwidth(ChannelKind.ONCHIP) == 2
    assert model.bandwidth(ChannelKind.SERIAL) == 4
    assert model.bandwidth(ChannelKind.HETERO_PHY) == 6


def test_energy_per_flit():
    model = HopCostModel(CONFIG)
    assert model.energy_pj(ChannelKind.SERIAL) == pytest.approx(FLIT_BITS * 2.4)
    assert model.energy_pj(ChannelKind.PARALLEL) == pytest.approx(FLIT_BITS * 1.0)


def test_eq3_components():
    model = HopCostModel(CONFIG, alpha=2.0, beta=8.0, gamma=0.5)
    expected = (
        2.0 * model.delay(ChannelKind.SERIAL)
        + 8.0 / model.bandwidth(ChannelKind.SERIAL)
        + 0.5 * model.energy_pj(ChannelKind.SERIAL)
    )
    assert model.hop_cost(ChannelKind.SERIAL) == pytest.approx(expected)


def test_eq4_path_length_sums_hops():
    model = HopCostModel.performance_first(CONFIG)
    kinds = [ChannelKind.ONCHIP, ChannelKind.ONCHIP, ChannelKind.SERIAL]
    assert model.path_length(kinds) == pytest.approx(
        2 * model.hop_cost(ChannelKind.ONCHIP) + model.hop_cost(ChannelKind.SERIAL)
    )


def test_performance_first_ignores_energy():
    model = HopCostModel.performance_first(CONFIG)
    assert model.gamma == 0.0
    # the serial hop is costlier purely on latency grounds
    assert model.hop_cost(ChannelKind.SERIAL) > model.hop_cost(ChannelKind.PARALLEL)


def test_energy_efficient_penalizes_serial_heavily():
    perf = HopCostModel.performance_first(CONFIG)
    energy = HopCostModel.energy_efficient(CONFIG)
    ratio_perf = perf.hop_cost(ChannelKind.SERIAL) / perf.hop_cost(ChannelKind.PARALLEL)
    ratio_energy = energy.hop_cost(ChannelKind.SERIAL) / energy.hop_cost(
        ChannelKind.PARALLEL
    )
    assert ratio_energy > ratio_perf


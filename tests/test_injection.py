"""Tests for the synthetic injection process."""

import pytest

from repro.traffic.injection import SyntheticWorkload
from repro.traffic.patterns import UniformHotspot, UniformRandom


def total_flits(workload, cycles):
    total = 0
    for now in range(cycles):
        for packet in workload.step(now):
            total += packet.length
    return total


def test_rate_is_respected_on_average():
    n, rate, cycles = 64, 0.2, 4000
    workload = SyntheticWorkload(UniformRandom(n), n, rate, packet_length=16, seed=1)
    flits = total_flits(workload, cycles)
    measured = flits / (n * cycles)
    assert measured == pytest.approx(rate, rel=0.1)


def test_zero_rate_injects_nothing():
    workload = SyntheticWorkload(UniformRandom(8), 8, 0.0, packet_length=4)
    assert total_flits(workload, 100) == 0


def test_until_limits_generation():
    workload = SyntheticWorkload(
        UniformRandom(16), 16, 0.5, packet_length=4, until=50, seed=2
    )
    assert not workload.done(49)
    flits_before = total_flits(workload, 50)
    assert flits_before > 0
    assert workload.done(50)
    assert list(workload.step(60)) == []


def test_packets_have_valid_endpoints():
    n = 32
    workload = SyntheticWorkload(UniformRandom(n), n, 0.3, packet_length=8, seed=3)
    for now in range(50):
        for packet in workload.step(now):
            assert 0 <= packet.src < n
            assert 0 <= packet.dst < n
            assert packet.src != packet.dst
            assert packet.length == 8
            assert packet.create_cycle == now


def test_hotspot_sources_only():
    n = 100
    pattern = UniformHotspot(n, fraction=0.1, seed=5)
    allowed = set(pattern.sources())
    workload = SyntheticWorkload(pattern, n, 0.5, packet_length=2, seed=6)
    seen = set()
    for now in range(200):
        for packet in workload.step(now):
            seen.add(packet.src)
    assert seen
    assert seen <= allowed


def test_rate_averaged_over_hotspot_sources():
    """The offered rate is per *injecting* node, not per network node."""
    n, rate, cycles = 100, 0.4, 3000
    pattern = UniformHotspot(n, fraction=0.1, seed=7)
    workload = SyntheticWorkload(pattern, n, rate, packet_length=4, seed=8)
    flits = total_flits(workload, cycles)
    measured = flits / (len(pattern.sources()) * cycles)
    assert measured == pytest.approx(rate, rel=0.15)


def test_validation():
    with pytest.raises(ValueError):
        SyntheticWorkload(UniformRandom(4), 4, -0.1, packet_length=4)
    with pytest.raises(ValueError):
        SyntheticWorkload(UniformRandom(4), 4, 0.1, packet_length=0)


def test_deterministic_given_seed():
    def collect(seed):
        w = SyntheticWorkload(UniformRandom(16), 16, 0.3, packet_length=4, seed=seed)
        return [(p.src, p.dst, p.create_cycle) for now in range(100) for p in w.step(now)]

    assert collect(9) == collect(9)
    assert collect(9) != collect(10)

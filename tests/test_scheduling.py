"""Tests for hetero-PHY dispatch policies (Sec 5.3)."""

import pytest

from repro.core.scheduling import (
    PARALLEL,
    SERIAL,
    ApplicationAwarePolicy,
    BalancedPolicy,
    EnergyEfficientPolicy,
    PerformanceFirstPolicy,
)
from repro.noc.flit import Packet
from repro.sim.build import POLICIES
from repro.sim.config import SimConfig


def packet(priority=0, msg_class="data"):
    """The packet a policy is asked about: a 1-flit one by default."""
    return Packet(0, 1, 1, 0, priority=priority, msg_class=msg_class)


def test_performance_first_prefers_parallel():
    policy = PerformanceFirstPolicy()
    assert policy.choose_phy(packet(), 1, par_free=2, ser_free=4) == PARALLEL


def test_performance_first_falls_to_serial():
    policy = PerformanceFirstPolicy()
    assert policy.choose_phy(packet(), 1, par_free=0, ser_free=4) == SERIAL


def test_performance_first_stalls_when_both_busy():
    policy = PerformanceFirstPolicy()
    assert policy.choose_phy(packet(), 1, par_free=0, ser_free=0) is None


def test_energy_efficient_never_serial():
    policy = EnergyEfficientPolicy()
    assert policy.choose_phy(packet(), 100, par_free=0, ser_free=4) is None
    assert policy.choose_phy(packet(), 100, par_free=1, ser_free=4) == PARALLEL
    assert not policy.bypass_enabled


def test_balanced_threshold_gates_serial():
    policy = BalancedPolicy(threshold=8)
    # Below threshold: parallel only.
    assert policy.choose_phy(packet(), 7, par_free=0, ser_free=4) is None
    # At/above threshold: serial joins in.
    assert policy.choose_phy(packet(), 8, par_free=0, ser_free=4) == SERIAL
    # Parallel still preferred when free.
    assert policy.choose_phy(packet(), 8, par_free=1, ser_free=4) == PARALLEL


def test_balanced_threshold_validation():
    with pytest.raises(ValueError):
        BalancedPolicy(threshold=0)


def test_application_aware_priority_waits_for_parallel():
    policy = ApplicationAwarePolicy()
    urgent = packet(priority=2)
    assert policy.choose_phy(urgent, 0, par_free=1, ser_free=4) == PARALLEL
    # High priority never takes the slow PHY, even if it must wait.
    assert policy.choose_phy(urgent, 0, par_free=0, ser_free=4) is None


def test_application_aware_bulk_prefers_serial():
    policy = ApplicationAwarePolicy()
    bulk = packet(msg_class="bulk")
    assert policy.choose_phy(bulk, 0, par_free=2, ser_free=4) == SERIAL
    assert policy.choose_phy(bulk, 0, par_free=2, ser_free=0) == PARALLEL
    assert policy.choose_phy(bulk, 0, par_free=0, ser_free=0) is None


def test_application_aware_delegates_default_traffic():
    policy = ApplicationAwarePolicy(EnergyEfficientPolicy())
    assert policy.choose_phy(packet(), 50, par_free=0, ser_free=4) is None
    assert not policy.bypass_enabled


def test_passive_aware_short_packets_parallel():
    from repro.core.scheduling import PassiveApplicationAwarePolicy

    policy = PassiveApplicationAwarePolicy(short_threshold=2)
    short = packet()  # 1-flit packet
    assert policy.choose_phy(short, 0, par_free=2, ser_free=4) == PARALLEL
    assert policy.choose_phy(short, 0, par_free=0, ser_free=4) == SERIAL  # no stall


def test_passive_aware_long_packets_serial():
    from repro.core.scheduling import PassiveApplicationAwarePolicy
    from repro.noc.flit import Packet

    policy = PassiveApplicationAwarePolicy(short_threshold=2)
    long_packet = Packet(0, 1, 16, 0)
    assert policy.choose_phy(long_packet, 0, par_free=2, ser_free=4) == SERIAL
    assert policy.choose_phy(long_packet, 0, par_free=2, ser_free=0) == PARALLEL
    assert policy.choose_phy(long_packet, 0, par_free=0, ser_free=0) is None


def test_passive_aware_validation_and_factory():
    from repro.core.scheduling import PassiveApplicationAwarePolicy

    with pytest.raises(ValueError):
        PassiveApplicationAwarePolicy(short_threshold=0)
    policy = POLICIES["passive_aware"].dispatch(SimConfig())
    assert isinstance(policy, PassiveApplicationAwarePolicy)

"""Tests for the simulation configuration."""

import pytest

from repro.sim.config import DEFAULT_CONFIG, SimConfig


def test_table2_defaults():
    config = DEFAULT_CONFIG
    assert config.packet_length == 16
    assert config.onchip_buffer == 32
    assert config.interface_buffer == 64
    assert config.n_vcs == 2
    assert config.onchip_bandwidth == 2
    assert config.parallel_bandwidth == 2
    assert config.parallel_delay == 5
    assert config.serial_bandwidth == 4
    assert config.serial_delay == 20
    assert config.sim_cycles == 100_000
    assert config.warmup_cycles == 10_000


def test_energy_defaults_follow_sec83():
    assert DEFAULT_CONFIG.parallel_energy_pj_per_bit == 1.0
    assert DEFAULT_CONFIG.serial_energy_pj_per_bit == 2.4


def test_halved_variant():
    half = DEFAULT_CONFIG.halved()
    assert half.parallel_bandwidth == 1
    assert half.serial_bandwidth == 2
    # delays are technology constants, not lane counts
    assert half.parallel_delay == DEFAULT_CONFIG.parallel_delay
    assert half.serial_delay == DEFAULT_CONFIG.serial_delay


def test_halved_never_below_one():
    config = SimConfig(parallel_bandwidth=1, serial_bandwidth=1)
    half = config.halved()
    assert half.parallel_bandwidth == 1
    assert half.serial_bandwidth == 1


def test_replace_and_scaled():
    config = DEFAULT_CONFIG.replace(packet_length=8)
    assert config.packet_length == 8
    assert config.serial_delay == DEFAULT_CONFIG.serial_delay
    short = config.scaled(5_000)
    assert short.sim_cycles == 5_000
    assert short.warmup_cycles == 500
    explicit = config.scaled(5_000, warmup=100)
    assert explicit.warmup_cycles == 100


def test_validation():
    with pytest.raises(ValueError):
        SimConfig(packet_length=0)
    with pytest.raises(ValueError):
        SimConfig(sim_cycles=100, warmup_cycles=100)
    with pytest.raises(ValueError):
        SimConfig(n_vcs=0)


@pytest.mark.parametrize("name", [
    "injection_vcs", "ejection_bandwidth", "onchip_delay", "parallel_delay", "serial_delay",
])
def test_a_value_that_would_fail_late_is_rejected_up_front(name):
    """Each simulated wrongly or crashed with a misleading error mid-run."""
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        SimConfig(**{name: 0})


def test_phy_bundles():
    config = DEFAULT_CONFIG
    assert config.parallel_phy.bandwidth == 2
    assert config.parallel_phy.delay == 5
    assert config.serial_phy.energy_pj_per_bit == 2.4
    assert config.onchip_phy.delay == 1


def test_config_immutable():
    with pytest.raises(Exception):
        DEFAULT_CONFIG.packet_length = 8  # frozen dataclass

"""Unit tests for the flit/packet data model."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.noc.flit import FLIT_BITS, Flit, Packet


def test_packet_basic_fields():
    packet = Packet(1, 2, 16, 100)
    assert packet.src == 1
    assert packet.dst == 2
    assert packet.length == 16
    assert packet.create_cycle == 100
    assert packet.arrive_cycle is None
    assert packet.latency is None


def test_packet_rejects_zero_length():
    with pytest.raises(ValueError):
        Packet(0, 1, 0, 0)


def test_packet_rejects_self_loop():
    with pytest.raises(ValueError):
        Packet(3, 3, 1, 0)


def test_packet_ids_unique():
    a = Packet(0, 1, 1, 0)
    b = Packet(0, 1, 1, 0)
    assert a.pid != b.pid


def test_packet_bits():
    packet = Packet(0, 1, 4, 0)
    assert packet.bits == 4 * FLIT_BITS


def test_latency_after_arrival():
    packet = Packet(0, 1, 1, 10)
    packet.arrive_cycle = 35
    assert packet.latency == 25


def test_energy_sums_components():
    packet = Packet(0, 1, 1, 0)
    packet.energy_onchip_pj = 3.0
    packet.energy_interface_pj = 4.5
    assert packet.energy_pj == pytest.approx(7.5)


def test_make_flits_single():
    packet = Packet(0, 1, 1, 0)
    flits = packet.make_flits()
    assert len(flits) == 1
    assert flits[0].is_head and flits[0].is_tail


@given(length=st.integers(min_value=1, max_value=64))
def test_make_flits_structure(length):
    packet = Packet(0, 1, length, 0)
    flits = packet.make_flits()
    assert len(flits) == length
    assert flits[0].is_head
    assert flits[-1].is_tail
    assert sum(f.is_head for f in flits) == 1
    assert sum(f.is_tail for f in flits) == 1
    assert [f.index for f in flits] == list(range(length))
    assert all(f.packet is packet for f in flits)


def test_flit_destination_delegates_to_packet():
    packet = Packet(7, 9, 2, 0)
    head = packet.make_flits()[0]
    assert head.dst == 9
    assert head.src == 7


def test_flit_sequence_number_defaults_none():
    """A flit carries no link-level sequence number: the hetero-PHY pipes and
    the reorder buffer's keys hold it, so a flit is four slots (64 B)."""
    flit = Packet(0, 1, 1, 0).make_flits()[0]
    assert getattr(flit, "sn", None) is None
    assert Flit.__slots__ == ("packet", "index", "is_head", "is_tail")
    assert sys.getsizeof(flit) == 64


def test_packet_defaults():
    packet = Packet(0, 1, 1, 0)
    assert packet.ordered
    assert packet.priority == 0
    assert packet.msg_class == "data"
    assert not packet.adaptive_banned
    assert packet.subnet_choice is None


def test_packet_metadata_roundtrip():
    packet = Packet(0, 1, 1, 0, ordered=False, priority=3, msg_class="bulk")
    assert not packet.ordered
    assert packet.priority == 3
    assert packet.msg_class == "bulk"

"""Tests for the PARSEC-like trace generator."""

import pytest

from repro.topology.grid import ChipletGrid
from repro.traffic.parsec import (
    CONTROL_FLITS,
    DATA_FLITS,
    PARSEC_PROFILES,
    generate_parsec_trace,
)

from .helpers import rows_sha256

GRID = ChipletGrid(4, 4, 2, 2)  # the paper's 64-node PARSEC system


def test_nine_applications_defined():
    assert len(PARSEC_PROFILES) == 9
    assert "canneal" in PARSEC_PROFILES and "blackscholes" in PARSEC_PROFILES


def test_unknown_app_rejected():
    with pytest.raises(ValueError):
        generate_parsec_trace("doom", GRID, 100)


def test_duration_validation():
    with pytest.raises(ValueError):
        generate_parsec_trace("canneal", GRID, 0)


def test_netrace_packet_sizes_only():
    trace = generate_parsec_trace("canneal", GRID, 2000)
    sizes = {r.length for r in trace.records}
    assert sizes <= {CONTROL_FLITS, DATA_FLITS}
    assert sizes == {CONTROL_FLITS, DATA_FLITS}


def test_requests_have_matching_replies():
    trace = generate_parsec_trace("ferret", GRID, 2000)
    # request/reply pairing: equal numbers of both packet sizes.
    controls = sum(1 for r in trace.records if r.length == CONTROL_FLITS)
    datas = sum(1 for r in trace.records if r.length == DATA_FLITS)
    assert controls == datas


def test_endpoints_within_grid():
    trace = generate_parsec_trace("x264", GRID, 1000)
    for record in trace.records:
        assert 0 <= record.src < GRID.n_nodes
        assert 0 <= record.dst < GRID.n_nodes
        assert record.src != record.dst


def test_rate_ordering_matches_profiles():
    """Heavier applications generate proportionally more traffic."""
    heavy = generate_parsec_trace("canneal", GRID, 4000)
    light = generate_parsec_trace("blackscholes", GRID, 4000)
    assert heavy.total_flits > 2 * light.total_flits


def test_deterministic_given_seed():
    a = generate_parsec_trace("dedup", GRID, 1000, seed=3)
    b = generate_parsec_trace("dedup", GRID, 1000, seed=3)
    assert a.records == b.records
    c = generate_parsec_trace("dedup", GRID, 1000, seed=4)
    assert a.records != c.records


def test_locality_shifts_distance_distribution():
    """A high-locality profile produces shorter-range traffic."""
    import dataclasses

    from repro.traffic import parsec

    local = dataclasses.replace(PARSEC_PROFILES["canneal"], locality=0.9)
    with_patch = dict(PARSEC_PROFILES)
    with_patch["canneal"] = local
    original = parsec.PARSEC_PROFILES
    parsec.PARSEC_PROFILES = with_patch
    try:
        near = parsec.generate_parsec_trace("canneal", GRID, 3000)
    finally:
        parsec.PARSEC_PROFILES = original
    far = generate_parsec_trace("canneal", GRID, 3000)

    def mean_dist(trace):
        total = n = 0
        for r in trace.records:
            (sx, sy), (dx, dy) = GRID.coords(r.src), GRID.coords(r.dst)
            total += abs(sx - dx) + abs(sy - dy)
            n += 1
        return total / n

    assert mean_dist(near) < mean_dist(far)


def test_traffic_present_across_nodes():
    trace = generate_parsec_trace("vips", GRID, 4000)
    sources = {r.src for r in trace.records}
    assert len(sources) > GRID.n_nodes // 2


# (records, sha256 over the rows) of Fig 12's traces at tiny scale (all nine
# applications) and small scale (the lightest and the heaviest), recorded on
# the commit before traces became columnar.
PARSEC_PINS = {
    ('blackscholes', 2000): (458, 'b5e110295099a6b22c72eceaf25d6b01abbda17b42fba7a393d099efe8369595'),
    ('bodytrack', 2000): (1778, 'f98160853175ddbdf0acb0a2668bed471650f3fadbcfc823a6fb30cdc7c0ea10'),
    ('canneal', 2000): (5274, 'd8adf553130df598ae1d27ab1be407f07395a8faa816cf90ea8973e25ae446e9'),
    ('dedup', 2000): (2256, '31328cf0ae816d236d26be3adee9be17d285d68a22b04cc2df650b5f7282434c'),
    ('ferret', 2000): (2954, 'acae1480eb37e28e3aaccdde5f0af2ae3d57f61d83be6035817ac448c0fe795f'),
    ('fluidanimate', 2000): (1544, 'e4b3843a23c36dadffe280880aff6c2173f6030a50f3d83120652a1646b69143'),
    ('swaptions', 2000): (712, '383e3bd1f013b812eafe5a1e10ad687dcf13d666a8a19eb91b5318a66a933cdd'),
    ('vips', 2000): (2054, 'f7fe272ad5f26f2bf5d3295176b7d558a2e5afbb15a5574b13355fc2b15c4fd4'),
    ('x264', 2000): (4356, '0f9bf762e36db709e2c0e92706f528670ca6de686d5d188ef110a74b2de00187'),
    ('blackscholes', 6000): (1478, '67577c24019ddfd30c0d21405bcd494eca856da63757a98663708c05c399e4fb'),
    ('canneal', 6000): (15544, '5ddf3058c1b935b8b65259168ea2d2f764e8bbd391768da2e4b7f43308452674'),
}


@pytest.mark.parametrize("args, pin", PARSEC_PINS.items())
def test_rows_are_pinned(args, pin):
    app, duration = args
    trace = generate_parsec_trace(app, GRID, duration)
    assert (len(trace), rows_sha256(trace)) == pin
    assert trace.classes == ("coherence", "data")

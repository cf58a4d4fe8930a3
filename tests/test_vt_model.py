"""Tests for the Eq (2) bandwidth-latency model (Fig 8)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.vt_model import (
    HeteroVTCurve,
    VTCurve,
    hetero_curve,
    pin_constrained_hetero,
    sample_curves,
)

curve_params = st.tuples(
    st.floats(0.5, 16.0), st.floats(0.0, 40.0)
)


def test_eq2_basic_shape():
    curve = VTCurve(bandwidth=4, delay=20)
    assert curve.volume(0) == 0
    assert curve.volume(20) == 0
    assert curve.volume(25) == pytest.approx(20)


def test_validation():
    with pytest.raises(ValueError):
        VTCurve(0, 5)
    with pytest.raises(ValueError):
        VTCurve(2, -1)
    with pytest.raises(ValueError):
        HeteroVTCurve(())


def test_time_to_deliver_inverse():
    curve = VTCurve(bandwidth=2, delay=5)
    assert curve.time_to_deliver(0) == 0
    t = curve.time_to_deliver(30)
    assert curve.volume(t) == pytest.approx(30)


@given(curve_params, curve_params)
def test_hetero_volume_is_sum(a, b):
    pa = VTCurve(*a, name="a")
    pb = VTCurve(*b, name="b")
    hetero = hetero_curve(pa, pb)
    for t in (0.0, 5.0, 17.3, 60.0):
        assert hetero.volume(t) == pytest.approx(pa.volume(t) + pb.volume(t))


@given(curve_params, curve_params)
def test_hetero_dominates_components(a, b):
    """The hetero fold delivers at least as much as either component."""
    pa = VTCurve(*a, name="a")
    pb = VTCurve(*b, name="b")
    hetero = hetero_curve(pa, pb)
    for t in (i * 2.5 for i in range(33)):  # 0 to 80
        assert hetero.volume(t) >= pa.volume(t) - 1e-9
        assert hetero.volume(t) >= pb.volume(t) - 1e-9


@given(curve_params, curve_params, st.floats(0.5, 200.0))
def test_hetero_time_to_deliver_not_worse(a, b, volume):
    pa = VTCurve(*a, name="a")
    pb = VTCurve(*b, name="b")
    hetero = hetero_curve(pa, pb)
    t_h = hetero.time_to_deliver(volume)
    assert t_h <= pa.time_to_deliver(volume) + 1e-6
    assert t_h <= pb.time_to_deliver(volume) + 1e-6
    assert hetero.volume(t_h) == pytest.approx(volume, rel=1e-4, abs=1e-4)


def test_hetero_t_intercept_is_fast_component():
    parallel = VTCurve(2, 5, name="p")
    serial = VTCurve(4, 20, name="s")
    assert hetero_curve(parallel, serial).min_delay == 5


def test_pin_constrained_scaling():
    parallel = VTCurve(2, 5, name="p")
    serial = VTCurve(4, 20, name="s")
    half = pin_constrained_hetero(parallel, serial, 0.5)
    assert half.components[0].bandwidth == pytest.approx(1.0)
    assert half.components[1].bandwidth == pytest.approx(2.0)
    # Delays are technology properties; pin share only scales lanes.
    assert half.components[0].delay == 5
    assert half.components[1].delay == 20


def test_pin_share_validation():
    parallel = VTCurve(2, 5)
    serial = VTCurve(4, 20)
    with pytest.raises(ValueError):
        pin_constrained_hetero(parallel, serial, 0.0)
    with pytest.raises(ValueError):
        pin_constrained_hetero(parallel, serial, 1.0)
    with pytest.raises(ValueError):
        parallel.scaled(0.0)


def test_sample_curves_grid():
    parallel = VTCurve(2, 5, name="p")
    data = sample_curves([parallel], t_max=10, points=11)
    t, v = data["p"]
    assert t == tuple(float(i) for i in range(11))
    assert len(v) == 11 and all(type(x) is float for x in t + v)
    assert v[0] == 0
    assert v[-1] == pytest.approx(parallel.volume(10.0))
    assert type(hetero_curve(parallel, parallel).volume(3)) is float


def test_sample_curves_validation():
    with pytest.raises(ValueError):
        sample_curves([VTCurve(1, 1)], t_max=0)

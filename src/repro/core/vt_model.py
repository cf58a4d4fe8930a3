"""Bandwidth-latency (V-t) interface model (Sec 5.1, Fig 8).

Eq (2) models the data volume received and restored in the receiver
adapter's buffer::

    V(t) = R(B * (t - D)),   R(x) = max(x, 0)

for an interface with bandwidth ``B`` and total delay ``D`` (t = 0 is when
the transmitter adapter starts processing).  A serial interface has a
large slope but a large t-intercept; a parallel interface the opposite.
The hetero-PHY curve is the *sum* of its component curves — a piecewise
fold that transmits more data with lower latency than either component.

Pin-constrained comparison (Fig 8b): since I/O pin count determines
silicon area and cost, curves can be compared at a fixed total pin budget
by scaling each interface's bandwidth with the share of pins it gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class VTCurve:
    """Eq (2) for one interface (bandwidth in flits/cycle, delay in cycles)."""

    bandwidth: float
    delay: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")

    def volume(self, t: float) -> float:
        """V(t): data volume delivered by time t."""
        return max(self.bandwidth * (t - self.delay), 0.0)

    def time_to_deliver(self, volume: float) -> float:
        """Inverse of V(t): the time to deliver a given volume."""
        if volume < 0:
            raise ValueError("volume must be >= 0")
        if volume == 0:
            return 0.0
        return self.delay + volume / self.bandwidth

    def scaled(self, pin_share: float) -> "VTCurve":
        """The same technology with ``pin_share`` of its lanes (Fig 8b)."""
        if not 0 < pin_share <= 1:
            raise ValueError("pin_share must be in (0, 1]")
        return VTCurve(self.bandwidth * pin_share, self.delay, f"{self.name}*{pin_share:g}")


@dataclass(frozen=True)
class HeteroVTCurve:
    """Sum of component V-t curves: the hetero-PHY fold of Fig 8a."""

    components: tuple[VTCurve, ...]
    name: str = "hetero"

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("need at least one component")

    def volume(self, t: float) -> float:
        return sum(curve.volume(t) for curve in self.components)

    def time_to_deliver(self, volume: float) -> float:
        """Inverse of the summed piecewise-linear V(t) (binary search)."""
        if volume < 0:
            raise ValueError("volume must be >= 0")
        if volume == 0:
            return 0.0
        lo = min(c.delay for c in self.components)
        hi = max(c.time_to_deliver(volume) for c in self.components)
        for _ in range(64):
            mid = (lo + hi) / 2
            if self.volume(mid) < volume:
                lo = mid
            else:
                hi = mid
        return hi

    @property
    def min_delay(self) -> float:
        """The t-intercept: the fastest component's delay."""
        return min(c.delay for c in self.components)


def hetero_curve(parallel: VTCurve, serial: VTCurve) -> HeteroVTCurve:
    """The hetero-PHY V-t curve from its two component interfaces."""
    return HeteroVTCurve((parallel, serial), name=f"{parallel.name}+{serial.name}")


def pin_constrained_hetero(
    parallel: VTCurve,
    serial: VTCurve,
    parallel_pin_share: float,
) -> HeteroVTCurve:
    """A hetero-PHY curve under a fixed total pin budget (Fig 8b).

    ``parallel_pin_share`` of the pins implement the parallel PHY, the
    rest the serial PHY; each component's bandwidth scales with its share,
    modelling the lane/channel ratio adjustment of Sec 5.1.
    """
    if not 0 < parallel_pin_share < 1:
        raise ValueError("parallel_pin_share must be in (0, 1)")
    return HeteroVTCurve(
        (parallel.scaled(parallel_pin_share), serial.scaled(1 - parallel_pin_share)),
        name=f"hetero@{parallel_pin_share:g}",
    )


def sample_curves(
    curves: Sequence[VTCurve | HeteroVTCurve], t_max: float, points: int = 50
) -> dict[str, tuple[tuple[float, ...], tuple[float, ...]]]:
    """Evaluate curves on a common time grid (the Fig 8 plot data)."""
    if t_max <= 0 or points < 2:
        raise ValueError("t_max must be > 0 and points >= 2")
    step = t_max / (points - 1)
    t = tuple(i * step for i in range(points - 1)) + (float(t_max),)
    return {curve.name: (t, tuple(map(curve.volume, t))) for curve in curves}

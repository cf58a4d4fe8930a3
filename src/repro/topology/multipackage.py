"""Multi-package (higher-hierarchy) hetero-channel systems (Sec 3.2).

Fig 6(b) of the paper shows the hetero-channel interface's defining
freedom: while the parallel PHYs connect neighbours inside a package, the
long-reach serial PHYs can "lead out of the package for higher-hierarchy
interconnection".  This builder realizes that: the chiplet grid is tiled
into ``packages_x x packages_y`` packages; the parallel mesh is unchanged
(it never crosses a package boundary by construction when the package
split aligns with the chiplet grid), and hypercube serial links whose
endpoints sit in different packages become *off-package* links with
higher delay and energy (cable/substrate SerDes vs on-package reach).

Routing is untouched: it is read off the links, which still form a global
mesh plus a hypercube, so Algorithm 1's escape remains the (partly serial)
mesh and the cube links stay fully adaptive — Theorem 1 carries over
verbatim, though the ``hetero_channel`` label no longer names the link
kinds.
"""

from __future__ import annotations

from dataclasses import replace

from repro.noc.channel import ChannelKind, PhyParams
from repro.sim.config import SimConfig
from .grid import ChipletGrid
from .system import SystemSpec, build_system


def package_of(grid: ChipletGrid, chiplet: int, packages: tuple[int, int]) -> int:
    """The package index hosting a chiplet."""
    px, py = packages
    if grid.chiplets_x % px or grid.chiplets_y % py:
        raise ValueError(
            f"package split {packages} does not tile the "
            f"{grid.chiplets_x}x{grid.chiplets_y} chiplet grid"
        )
    cx, cy = grid.chiplet_coords(chiplet)
    span_x = grid.chiplets_x // px
    span_y = grid.chiplets_y // py
    return (cy // span_y) * px + (cx // span_x)


def build_hetero_channel_packages(
    grid: ChipletGrid,
    config: SimConfig,
    *,
    packages: tuple[int, int],
    off_package_delay_factor: float = 2.0,
    off_package_energy_factor: float = 1.5,
) -> SystemSpec:
    """A hetero-channel system spanning several packages.

    Short-reach parallel PHYs cannot leave a package, so mesh-position
    links crossing a package boundary are realized with serial PHYs
    instead (the topology — and with it Algorithm 1's escape mesh — is
    unchanged; only the physical kind of those links changes).  All
    off-package serial links, mesh-position and hypercube alike, get
    ``off_package_delay_factor`` x the serial delay and
    ``off_package_energy_factor`` x the serial energy.
    """
    if off_package_delay_factor < 1 or off_package_energy_factor < 1:
        raise ValueError("off-package factors must be >= 1")
    px, py = packages
    if px < 1 or py < 1:
        raise ValueError("need at least one package per axis")
    spec = build_system("hetero_channel", grid, config)
    serial = config.serial_phy
    off_package_phy = PhyParams(
        serial.bandwidth,
        max(1, round(serial.delay * off_package_delay_factor)),
        serial.energy_pj_per_bit * off_package_energy_factor,
    )
    channels = []
    n_off_package = 0
    for channel in spec.channels:
        src_pkg = package_of(grid, grid.chiplet_of(channel.src), packages)
        dst_pkg = package_of(grid, grid.chiplet_of(channel.dst), packages)
        if src_pkg == dst_pkg:
            channels.append(channel)
            continue
        # Off-package: realized with (slower, hotter) serial PHYs.
        channel = replace(channel, kind=ChannelKind.SERIAL, phy=off_package_phy)
        channels.append(channel)
        n_off_package += 1
    if n_off_package == 0 and (px > 1 or py > 1):
        raise ValueError("package split produced no off-package serial links")
    return replace(spec, name=f"{spec.name}-pkg{px}x{py}", channels=channels)

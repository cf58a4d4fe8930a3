"""Golden regression values.

Simulations are deterministic given a seed, so the pinned numbers lock in
the current behaviour of the whole stack (routing, allocation, adapters,
energy accounting) for one fixed configuration per family: the
``<family>-seed42`` pins of ``benchmarks/goldens/PINS.json`` (1,500 cycles
of uniform 0.1 on 2x2 chiplets of 3x3 nodes) hold packets delivered,
average latency and energy next to the run's digest chain.  A change to
any cycle-level mechanism will move them — which is the point: behavioural
changes must be deliberate, reviewed, and re-pinned (docs/architecture.md
"Re-pinning").

Note hetero_channel equals parallel_mesh here: at 2x2 chiplets Eq (5)
never prefers the cube (H_P <= H_S for every pair), so the hetero-channel
system degenerates to its parallel mesh, byte for byte.
"""

import pytest

from repro.topology.grid import ChipletGrid
from repro.topology.system import FAMILIES

from .test_kernel_equivalence import STORE, assert_reproduces_pin

GRID = ChipletGrid(2, 2, 3, 3)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_golden_uniform_run(family):
    assert_reproduces_pin(f"{family}-seed42")


def test_hetero_channel_degenerates_at_tiny_scale():
    """Document the Eq (5) degeneracy the pinned numbers show."""
    from repro.routing.policies import HopCountSelector

    selector = HopCountSelector(GRID)
    for src in range(GRID.n_chiplets):
        for dst in range(GRID.n_chiplets):
            assert selector.select(src, dst) == "mesh"
    mesh, channel = STORE["parallel_mesh-seed42"], STORE["hetero_channel-seed42"]
    assert mesh["digest"]["final"] == channel["digest"]["final"]
    assert mesh["stats"] == channel["stats"]

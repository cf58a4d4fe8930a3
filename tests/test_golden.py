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

hetero_channel's pin sits on 4x2 chiplets of 2x3 nodes instead: at 2x2
chiplets Eq (5) never prefers the cube (H_P <= H_S for every pair), so the
hetero-channel system degenerates to its parallel mesh, byte for byte, and
its pin would pin nothing the mesh's does not.
"""

import pytest

from repro.telemetry.diff import parse_sim_spec, resimulate
from repro.topology.grid import ChipletGrid
from repro.topology.system import FAMILIES

from .test_kernel_equivalence import STORE, assert_reproduces_pin

GRID = ChipletGrid(2, 2, 3, 3)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_golden_uniform_run(family):
    assert_reproduces_pin(f"{family}-seed42")


def test_hetero_channel_degenerates_at_tiny_scale():
    """Document the Eq (5) degeneracy: at 2x2 chiplets the hetero-channel
    system runs its parallel mesh's run exactly, so its pin sits where the
    cube is chosen."""
    from repro.routing.policies import HopCountSelector

    def picks(grid):
        selector = HopCountSelector(grid)
        chiplets = range(grid.n_chiplets)
        return {selector.select(src, dst) for src in chiplets for dst in chiplets}

    assert picks(GRID) == {"mesh"}
    point = "sim:chiplets=2x2,nodes=3x3,rate=0.2,seed=5,cycles=200,warmup=50,family="
    mesh, channel = (
        resimulate(parse_sim_spec(point + family)) for family in ("parallel_mesh", "hetero_channel")
    )
    assert channel.digest["final"] == mesh.digest["final"]
    assert channel.stats.summary() == mesh.stats.summary()

    pinned = STORE["hetero_channel-seed42"]["digest"]["meta"]
    assert picks(ChipletGrid(*pinned["chiplets"], *pinned["nodes"])) == {"mesh", "cube"}

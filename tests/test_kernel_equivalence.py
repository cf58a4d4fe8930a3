"""Kernel-equivalence safety net: pinned digests for every engine path.

The committed goldens cover 3 of 5 families, VCT only, uniform traffic
only.  This matrix pins the full digest chain (final value plus every
checkpoint), the event total and a ``Stats`` fingerprint for every family
in both switching modes, a saturated mesh, two trace replays (which also
pin the drain cycle) and a hetero-PHY run whose packets use the bypass.

The pins were recorded with the engine as it stood *before* the per-flit
hot path was flattened, so any change to the cycle kernel that alters the
activation order, the links-before-routers order or the bus-event order
inside a cycle fails here — ``repro diff`` then names the first divergent
cycle.  Re-record (``python tests/test_kernel_equivalence.py``) only for a
deliberate model change, never for a speed change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.noc.channel import ChannelKind
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.experiment import run_synthetic, run_trace
from repro.sim.stats import Stats
from repro.telemetry import TelemetryConfig
from repro.telemetry.digest import RunDigest, chain_hex
from repro.topology.grid import ChipletGrid
from repro.topology.system import FAMILIES, build_system
from repro.traffic.hpc import embed_ranks, generate_moc_trace
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.patterns import make_pattern

GRID = ChipletGrid(2, 2, 3, 3)
CHECKPOINT_EVERY = 200
DIGEST = TelemetryConfig(
    digest=True, digest_checkpoint_every=CHECKPOINT_EVERY, epoch_metrics=False
)


def stats_fingerprint(stats: Stats) -> str:
    """Hash of every seed-determined counter a kernel change could move.

    Energy sums are floats accumulated per flit / per delivered packet, so
    they also pin the *order* of link accepts and ejections.
    """
    identity = [
        stats.packets_injected,
        stats.flits_injected,
        stats.packets_delivered,
        stats.flits_delivered,
        stats.router_flits,
        stats.hops_onchip,
        stats.hops_interface,
        stats.latencies,
        sorted((kind.name, n) for kind, n in stats.link_flits.items()),
        sorted((kind.name, repr(e)) for kind, e in stats.link_energy_pj.items()),
        repr(stats.energy_onchip_pj),
        repr(stats.energy_interface_pj),
        stats.last_movement_cycle,
    ]
    return hashlib.sha256(json.dumps(identity).encode()).hexdigest()[:16]


def _observation(digest: RunDigest, stats: Stats, cycles: int) -> dict:
    checkpoints = "".join(chain_hex(chain) for _cycle, chain in digest.checkpoints)
    return {
        "chain": digest.final,
        "checkpoints": hashlib.sha256(checkpoints.encode()).hexdigest()[:16],
        "events": digest.events_total,
        "stats": stats_fingerprint(stats),
        "cycles": cycles,
    }


def _from_result(result) -> dict:
    return _observation(result.telemetry.digest, result.stats, result.cycles)


class _MixedClassWorkload(SyntheticWorkload):
    """Uniform traffic with bypass-eligible packets mixed in.

    Every third packet is unordered and every fifth carries priority 1, so
    hetero-PHY links run the bypass queue, the ``_bypass_vcs`` bookkeeping
    and the ordered FIFO side by side.
    """

    _made = 0

    def step(self, now: int):
        packets = super().step(now)
        for packet in packets:
            self._made += 1
            if self._made % 3 == 0:
                packet.ordered = False
            if self._made % 5 == 0:
                packet.priority = 1
        return packets


def _uniform_run(family: str, rate: float, seed: int, *, vct=True, workload=SyntheticWorkload):
    """600 cycles of uniform traffic on GRID, digested; returns (observation, network)."""
    cycles, warmup = 600, 100
    config = SimConfig(sim_cycles=cycles, warmup_cycles=warmup)
    spec = build_system(family, GRID, config)
    stats = Stats(measure_from=warmup)
    network = build_network(spec, stats)
    for router in network.routers:
        router.vct = vct
    source = workload(
        make_pattern("uniform", GRID.n_nodes),
        GRID.n_nodes,
        rate,
        config.packet_length,
        until=cycles,
        seed=seed,
    )
    digest = RunDigest(network, checkpoint_every=CHECKPOINT_EVERY)
    Engine(network, source, stats).run(cycles)
    digest.detach()
    return _observation(digest, stats, cycles), network


def _family_case(family: str, vct: bool) -> dict:
    return _uniform_run(family, 0.5, 3, vct=vct)[0]


def _saturated_mesh_case() -> dict:
    config = SimConfig(sim_cycles=500, warmup_cycles=100)
    spec = build_system("parallel_mesh", GRID, config)
    return _from_result(run_synthetic(spec, "uniform", 0.6, seed=5, telemetry=DIGEST))


def _moc_trace_case() -> dict:
    # 4x2 chiplets: on a 2x2 grid the Eq (5) selector never picks the
    # hypercube, and hetero-channel degenerates to the parallel mesh.
    grid = ChipletGrid(4, 2, 3, 3)
    trace = embed_ranks(
        generate_moc_trace(128, 2, sweep_bytes=64, partners_per_sweep=7, seed=2),
        grid,
        core_only=True,
    ).scaled(0.5)
    spec = build_system("hetero_channel", grid, SimConfig())
    result = run_trace(spec, trace, strict=True, telemetry=DIGEST)
    assert result.stats.link_flits[ChannelKind.SERIAL] > 0
    return _from_result(result)


def _parsec_trace_case() -> dict:
    trace = generate_parsec_trace("canneal", GRID, 500, seed=4)
    spec = build_system("hetero_phy_torus", GRID, SimConfig())
    return _from_result(run_trace(spec, trace, strict=True, telemetry=DIGEST))


def _bypass_case() -> dict:
    observed, network = _uniform_run(
        "hetero_phy_torus", 0.3, 11, workload=_MixedClassWorkload
    )
    bypassed = sum(getattr(link, "flits_bypassed", 0) for link in network.links)
    assert bypassed > 0, "the bypass case must exercise the bypass queue"
    observed["bypassed"] = bypassed
    return observed


CASES = {
    **{
        f"{family}-{'vct' if vct else 'wormhole'}": (
            lambda family=family, vct=vct: _family_case(family, vct)
        )
        for family in FAMILIES
        for vct in (True, False)
    },
    "parallel_mesh-saturated": _saturated_mesh_case,
    "hetero_channel-moc-trace": _moc_trace_case,
    "hetero_phy_torus-parsec-trace": _parsec_trace_case,
    "hetero_phy_torus-bypass": _bypass_case,
}

#: Recorded at the parent of the hot-path flattening (see module docstring).
PINS: dict[str, dict] = {
    "hetero_channel-moc-trace": {
        "chain": "7247e4cfda98ecb6", "checkpoints": "9cfdb5874e074e30",
        "events": 139302, "stats": "f33da9c1fb91bb4e", "cycles": 2659,
    },
    "hetero_channel-vct": {
        "chain": "e281d087284fb7b4", "checkpoints": "fb67452c8a33efbe",
        "events": 188744, "stats": "22d21fdfc3d04ef5", "cycles": 600,
    },
    "hetero_channel-wormhole": {
        "chain": "9568d745bfaded49", "checkpoints": "5e0f0a3cf3bd55b5",
        "events": 188744, "stats": "aa314e00b23db951", "cycles": 600,
    },
    "hetero_phy_torus-bypass": {
        "chain": "62e3f4a8aafb87de", "checkpoints": "6e3b61ce8dca2f6e",
        "events": 94110, "stats": "0c3c060827c61131", "cycles": 600, "bypassed": 2038,
    },
    "hetero_phy_torus-parsec-trace": {
        "chain": "749b00ad4cefdedf", "checkpoints": "be708c2d89c4e951",
        "events": 61517, "stats": "c50d87d10e186fea", "cycles": 554,
    },
    "hetero_phy_torus-vct": {
        "chain": "2d775807d72de295", "checkpoints": "aeb127fd3cd5caa3",
        "events": 170685, "stats": "fbc5dc1ac3b50ad6", "cycles": 600,
    },
    "hetero_phy_torus-wormhole": {
        "chain": "2d775807d72de295", "checkpoints": "aeb127fd3cd5caa3",
        "events": 170685, "stats": "fbc5dc1ac3b50ad6", "cycles": 600,
    },
    "parallel_mesh-saturated": {
        "chain": "45812c0cdcba7d6b", "checkpoints": "25ca7899bf175e1c",
        "events": 176032, "stats": "157361cfe2d37468", "cycles": 500,
    },
    "parallel_mesh-vct": {
        "chain": "e281d087284fb7b4", "checkpoints": "fb67452c8a33efbe",
        "events": 188744, "stats": "22d21fdfc3d04ef5", "cycles": 600,
    },
    "parallel_mesh-wormhole": {
        "chain": "9568d745bfaded49", "checkpoints": "5e0f0a3cf3bd55b5",
        "events": 188744, "stats": "aa314e00b23db951", "cycles": 600,
    },
    "serial_hypercube-vct": {
        "chain": "49b60ad9ea18852c", "checkpoints": "b763bbc04dc6a0ba",
        "events": 175896, "stats": "f32ba139a93f798b", "cycles": 600,
    },
    "serial_hypercube-wormhole": {
        "chain": "33091ef58a12687d", "checkpoints": "2c9afd5d84d44785",
        "events": 176310, "stats": "10794dde444669bb", "cycles": 600,
    },
    "serial_torus-vct": {
        "chain": "3e5788ee88c3e276", "checkpoints": "e6aabdc2b09cf38c",
        "events": 146410, "stats": "ce6723470bb51ba6", "cycles": 600,
    },
    "serial_torus-wormhole": {
        "chain": "3e5788ee88c3e276", "checkpoints": "e6aabdc2b09cf38c",
        "events": 146410, "stats": "ce6723470bb51ba6", "cycles": 600,
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_pinned_digest(case):
    assert case in PINS, f"no pin recorded for {case}"
    assert CASES[case]() == PINS[case]


def test_every_family_and_mode_is_pinned():
    assert len(FAMILIES) == 5
    assert set(PINS) == set(CASES)


if __name__ == "__main__":  # re-record: prints the PINS literal
    print(json.dumps({name: CASES[name]() for name in sorted(CASES)}, indent=4))

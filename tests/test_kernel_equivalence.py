"""Kernel-equivalence safety net: every pinned run, checked against the pin store.

``benchmarks/goldens/PINS.json`` pins the full digest chain (final value
plus every checkpoint), the per-kind event counts, the headline statistics
and a ``Stats`` fingerprint for the three bench cases, every family in both
switching modes, a saturated mesh, two trace replays (which also pin the
drain cycle), a hetero-PHY run whose packets use the bypass, and the five
seed-42 runs ``tests/test_golden.py`` loops over.  A pin that carries
re-simulation meta is re-run from the file alone; the eight below need
machinery only tests have, so their builders live here — observed,
compared and recorded through ``repro.telemetry.pins`` like the rest.

The chains were recorded with the engine as it stood *before* the per-flit
hot path was flattened, so any change to the cycle kernel that alters the
activation order, the links-before-routers order or the bus-event order
inside a cycle fails here with the event-census deltas and the checkpoint
bracket.  Re-record (``python -m tests.test_kernel_equivalence``, all 22;
docs/architecture.md "Re-pinning") only for a deliberate model change,
never for a speed change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.noc.channel import ChannelKind
from repro.sim.config import SimConfig
from repro.sim.experiment import run_trace
from repro.telemetry import TelemetryConfig, pins
from repro.telemetry.diff import missing_resim_keys
from repro.topology.grid import ChipletGrid
from repro.topology.system import FAMILIES, build_system
from repro.traffic.hpc import embed_ranks, generate_moc_trace
from repro.traffic.injection import SyntheticWorkload
from repro.traffic.parsec import generate_parsec_trace

from .helpers import digested_uniform_run

PINS_PATH = Path(__file__).resolve().parents[1] / pins.DEFAULT_PINS_PATH
STORE = pins.load(PINS_PATH)
GRID = ChipletGrid(2, 2, 3, 3)
DIGEST = TelemetryConfig(
    digest=True, digest_checkpoint_every=200, epoch_metrics=False
)


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


def _wormhole_case(family: str) -> dict:
    network, digest = digested_uniform_run(family, GRID, rate=0.5, seed=3, vct=False)
    return pins.observe(digest.summary(), network.stats)


def bypass_pin(network, digest) -> dict:
    bypassed = sum(getattr(link, "flits_bypassed", 0) for link in network.links)
    assert bypassed > 0, "the bypass case must exercise the bypass queue"
    return {**pins.observe(digest.summary(), network.stats), "bypassed": bypassed}


def _bypass_case() -> dict:
    return bypass_pin(
        *digested_uniform_run(
            "hetero_phy_torus", GRID, rate=0.3, seed=11, workload=_MixedClassWorkload
        )
    )


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
    return pins.observe(result.digest, result.stats)


def _parsec_trace_case() -> dict:
    trace = generate_parsec_trace("canneal", GRID, 500, seed=4)
    spec = build_system("hetero_phy_torus", GRID, SimConfig())
    result = run_trace(spec, trace, strict=True, telemetry=DIGEST)
    return pins.observe(result.digest, result.stats)


#: The pins re-simulation meta cannot describe.
BUILDERS = {
    **{
        f"{family}-wormhole": (lambda family=family: _wormhole_case(family))
        for family in FAMILIES
    },
    "hetero_channel-moc-trace": _moc_trace_case,
    "hetero_phy_torus-parsec-trace": _parsec_trace_case,
    "hetero_phy_torus-bypass": _bypass_case,
}


def assert_reproduces_pin(case: str) -> None:
    observed = BUILDERS[case]() if case in BUILDERS else pins.reobserve(STORE[case])
    ok, report = pins.check(case, STORE[case], observed)
    assert ok, report


@pytest.mark.parametrize(
    "case", sorted(case for case in STORE if not case.endswith("-seed42"))
)
def test_kernel_matches_pinned_digest(case):
    assert_reproduces_pin(case)


def test_every_family_and_mode_is_pinned():
    assert len(FAMILIES) == 5
    for family in FAMILIES:
        assert {f"{family}-vct", f"{family}-wormhole", f"{family}-seed42"} <= set(STORE)
    # Nothing in the file is beyond checking: a pin either describes
    # itself or has its builder here.
    assert {c for c in STORE if missing_resim_keys(STORE[c]["digest"]["meta"])} == set(BUILDERS)
    assert len(STORE) == 22


def test_benchmark_pins_agree_with_the_committed_figure():
    """``benchmarks/perf/expected.json`` is the benchmark's own pin file (read
    here, re-pinned only in a benchmark PR).  What it shares with the
    artefacts this repository pins is the Fig 11 ``tiny`` CSV, which a
    re-pin regenerates through ``pytest benchmarks/``."""
    root = PINS_PATH.parents[2]
    expected = json.loads((root / "benchmarks/perf/expected.json").read_text())
    csv_text = (root / "benchmarks/results/fig11_tiny.csv").read_text().strip()
    assert (
        hashlib.sha256(csv_text.encode()).hexdigest()
        == expected["workloads"]["fig11_cli_tiny"]["csv_sha256"]
    )


if __name__ == "__main__":  # re-record all 22 pins (model changes only)
    print(f"recorded {pins.record(STORE, PINS_PATH, BUILDERS)}")

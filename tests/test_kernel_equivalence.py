"""Kernel-equivalence safety net: every pinned run, checked against the pin store.

``benchmarks/goldens/PINS.json`` pins the full digest chain (final value
plus every checkpoint), the per-kind event counts, the headline statistics
and a ``Stats`` fingerprint for the three bench cases, every family in both
switching modes, a saturated mesh, two trace replays (which also pin the
drain cycle), a hetero-PHY run whose packets use the bypass, and the five
seed-42 runs ``tests/test_golden.py`` loops over.  Every pin describes
itself: it is re-run from its own ``meta`` through ``pins.reobserve``, the
path ``repro golden check`` takes, and must write that meta back unchanged.

The chains were recorded with the engine as it stood *before* the per-flit
hot path was flattened, so any change to the cycle kernel that alters the
activation order, the links-before-routers order or the bus-event order
inside a cycle fails here with the event-census deltas and the checkpoint
bracket.  Re-record (``repro golden record``, all 22; docs/architecture.md
"Re-pinning") only for a deliberate model change, never for a speed change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.telemetry import pins
from repro.telemetry.diff import missing_resim_keys
from repro.topology.system import FAMILIES

PINS_PATH = Path(__file__).resolve().parents[1] / pins.DEFAULT_PINS_PATH
STORE = pins.load(PINS_PATH)


def assert_reproduces_pin(case: str) -> None:
    pinned = STORE[case]
    observed = pins.reobserve(pinned)
    ok, report = pins.check(case, pinned, observed)
    assert ok, report
    # ``check`` skips the meta; a key the run fails to write back would
    # make ``repro golden record`` rewrite the file.
    assert observed["digest"]["meta"] == pinned["digest"]["meta"]


@pytest.mark.parametrize(
    "case", sorted(case for case in STORE if not case.endswith("-seed42"))
)
def test_kernel_matches_pinned_digest(case):
    assert_reproduces_pin(case)


def test_every_family_and_mode_is_pinned():
    assert len(FAMILIES) == 5
    for family in FAMILIES:
        assert {f"{family}-vct", f"{family}-wormhole", f"{family}-seed42"} <= set(STORE)
        wormhole, vct = (STORE[f"{family}-{m}"]["digest"]["meta"] for m in ("wormhole", "vct"))
        assert wormhole["vct"] is False and "vct" not in vct
        assert wormhole["config_hash"] != vct["config_hash"]
    # No pin lacks re-simulation meta.
    assert not [c for c in STORE if missing_resim_keys(STORE[c]["digest"]["meta"])]
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

"""Static-pass safety net: every pass's findings and prove's verdict, pinned.

``tests/data/static_passes.json`` records, for every family at 2x2(3x3)
and 4x2(2x3) (the geometry where Eq 5 puts the hypercube in front of the
passes), the finding codes (in report order), the metrics and the
certificate verdict of ``prove_family`` with the single-link fault-mask
sweep on, in both switching modes (the ``prove/<mode>`` entries).  A
refactor of the analysis code must reproduce every entry exactly.

Re-record (``PYTHONPATH=src python -m tests.test_static_passes_pinned``)
only for a deliberate change to what a pass reports.

The 4x2(2x3) rows are marked ``slow``: tier-1 deselects them and CI runs
them in its ``python -m pytest -m slow`` step, so every pin still runs on
every push.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import prove_family
from repro.topology.system import FAMILIES

PINS = Path(__file__).parent / "data" / "static_passes.json"
GEOMETRIES = {"2x2(3x3)": ((2, 2), (3, 3)), "4x2(2x3)": ((4, 2), (2, 3))}
MODES = ("vct", "wormhole")


def observe(family: str, geometry: str) -> dict:
    chiplets, nodes = GEOMETRIES[geometry]
    record: dict = {}
    for mode in MODES:
        proof = prove_family(family, chiplets=chiplets, nodes=nodes, mode=mode)
        record[f"prove/{mode}"] = {
            "codes": [f.code for f in proof.report.findings],
            "metrics": proof.report.metrics,
            "certified": proof.certified,
        }
    return record


@pytest.mark.parametrize(
    "geometry",
    ["2x2(3x3)", pytest.param("4x2(2x3)", marks=pytest.mark.slow)],
)
@pytest.mark.parametrize("family", FAMILIES)
def test_static_passes_match_pins(family, geometry):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))[f"{family} {geometry}"]
    assert observe(family, geometry) == pinned


if __name__ == "__main__":
    pins = {
        f"{family} {geometry}": observe(family, geometry)
        for geometry in GEOMETRIES
        for family in FAMILIES
    }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} pins to {PINS}")

"""The pin store: every pinned run of the repository in one committed file.

``benchmarks/goldens/PINS.json`` maps a case name to one *pin* — what
:func:`observe` reads off a finished, digested run: its ``digest`` block
(final chain, every checkpoint, per-kind event counts, cycles, ``meta``),
its ``stats`` (:meth:`Stats.summary`) and a ``fingerprint`` of every
seed-determined counter.  Every pin describes itself: its ``meta`` says
how the run was made, wormhole allocation, class mix and trace generator
included, and :func:`reobserve` runs it again from the file alone through
:func:`~repro.telemetry.diff.resimulate` — the one way ``repro golden``,
``repro diff`` and the tier-1 tests observe a pin.  The file carries no
dates or revisions — git has them — so recording on an unchanged tree
rewrites it byte for byte.  When a change may re-record:
docs/architecture.md, "Re-pinning".
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Optional

from .diff import Diffable, diff_runs, resimulate
from .digest import DigestError, validate_digest_block

#: Version of the ``PINS.json`` schema.
PINS_SCHEMA_VERSION = 1

#: The committed store, relative to the repository root.
DEFAULT_PINS_PATH = "benchmarks/goldens/PINS.json"

Pin = dict[str, Any]


def stats_fingerprint(stats: Any) -> str:
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


def observe(digest: dict[str, Any], stats: Any) -> Pin:
    """The pin of one finished run: its digest block and its ``Stats``."""
    return {
        "digest": digest,
        "stats": stats.summary(),
        "fingerprint": stats_fingerprint(stats),
    }


def reobserve(pin: Pin) -> Pin:
    """Run a self-describing pin again on this build and observe it."""
    result = resimulate(pin["digest"]["meta"])
    return observe(result.digest, result.stats)


def differences(pinned: Pin, observed: Pin) -> list[str]:
    """Dotted names of the pinned values ``observed`` does not reproduce.

    Everything is compared exactly (as JSON, so NaN equals NaN) except
    ``digest.meta``, which describes the run rather than its behaviour.
    """

    def flat(pin: Pin) -> dict[str, str]:
        return {
            f"{key}.{sub}" if sub else key: json.dumps(value, sort_keys=True)
            for key, block in pin.items()
            for sub, value in (block.items() if isinstance(block, dict) else [("", block)])
            if (key, sub) != ("digest", "meta")
        }

    a, b = flat(pinned), flat(observed)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def check(case: str, pinned: Pin, observed: Pin) -> tuple[bool, str]:
    """Whether a fresh observation reproduces its pin, and the report.

    On a digest mismatch the report carries ``repro diff``'s event-census
    deltas and checkpoint bracket.  It stops there: both sides would
    re-simulate on *this* build, so there is no second behaviour to
    localize against.
    """
    changed = differences(pinned, observed)
    if not changed:
        return True, f"{case}: OK ({pinned['digest']['final']})"
    lines = [f"{case}: MISMATCH in {', '.join(changed)}"]
    report = diff_runs(
        Diffable(f"pin:{case} (recorded)", "pin", pinned["digest"], pinned["stats"]),
        Diffable("this build", "sim", observed["digest"], observed["stats"]),
        localize=False,
    )
    if not report.identical:
        lines.append(report.render())
    return False, "\n".join(lines)


def load(path: Optional[str | Path] = None) -> dict[str, Pin]:
    """Load and schema-check the store (default: the committed one).

    Returns ``{case: pin}``.  A foreign or damaged file raises
    :class:`DigestError` naming what is wrong; a missing one ``OSError``.
    """
    path = Path(path or DEFAULT_PINS_PATH)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DigestError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != "pins":
        raise DigestError(f"{path}: not a pin store")
    version = doc.get("schema_version")
    if version != PINS_SCHEMA_VERSION:
        raise DigestError(
            f"{path}: pin schema v{version!r} is not supported "
            f"(this build reads v{PINS_SCHEMA_VERSION})"
        )
    pins = doc.get("pins")
    if not isinstance(pins, dict):
        raise DigestError(f"{path}: missing field 'pins'")
    for case, pin in pins.items():
        where = f"{path}: pin {case!r}"
        if not isinstance(pin, dict):
            raise DigestError(f"{where}: not a JSON object")
        validate_digest_block(pin.get("digest"), where=where)
        if not isinstance(pin.get("stats"), dict) or "fingerprint" not in pin:
            raise DigestError(f"{where}: missing 'stats' or 'fingerprint'")
    return pins


def record(
    pins: dict[str, Pin],
    path: Optional[str | Path] = None,
    cases: Optional[Iterable[str]] = None,
) -> Path:
    """Observe the pins of a loaded store again on this build and write it.

    Every case (or each one named in ``cases``) is observed from its own
    ``meta``; one that cannot be re-simulated raises
    :class:`~repro.telemetry.diff.DiffError`.
    """
    path = Path(path or DEFAULT_PINS_PATH)
    for case in sorted(pins) if cases is None else cases:
        pins[case] = reobserve(pins[case])
    doc = {"kind": "pins", "schema_version": PINS_SCHEMA_VERSION, "pins": pins}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path

"""Differential comparison of two runs (``repro diff A B``).

Turns "the numbers look different" into "first divergence at cycle 412"
by comparing two runs' :mod:`~repro.telemetry.digest` blocks at three
escalating granularities:

1. **Summary** — headline statistics and the per-event-kind census.  Two
   runs with equal digest chains are behaviorally identical and the diff
   stops here with exit status 0.
2. **Census** — per-event-kind count deltas plus a binary search over the
   recorded ``(cycle, chain)`` checkpoints.  Chained hashes diverge
   permanently once they diverge, so "is checkpoint *i* divergent?" is a
   monotone predicate and bisection pins the divergence to one
   checkpoint interval without any re-simulation.
3. **Cycle** — both sides are re-simulated from the digest's ``meta``
   (family, geometry, workload, horizon, policy, allocation) with
   per-cycle chain capture over the divergent interval; a second
   bisection over the captured chains names the **first divergent
   cycle**, and the losing side is re-run once more with the flight
   recorder windowed on that cycle to print the event-level context.

Diffable sources (``load_diffable``): a pin of the committed pin store
(``pin:<case>``, see :mod:`repro.telemetry.pins`), run-registry records (a
record JSON or a ``runs.jsonl`` store, optionally ``#run_id``-suffixed),
and live re-simulations described by a ``sim:`` spec string such as::

    sim:family=hetero_phy_torus,chiplets=2x2,nodes=4x4,pattern=uniform,
        rate=0.15,seed=1,cycles=2000,warmup=400

A ``perturb=CYCLE`` key injects one extra single-flit packet at that
cycle — a real behavioral perturbation the localization tests and CI's
determinism-smoke job use to prove the diff names the exact cycle.
``vct=0`` runs wormhole routers; ``mix=N/M`` makes every N-th packet
unordered and every M-th a priority one.  A trace replay's meta carries a
``trace`` block instead (no ``sim:`` syntax: reach it as ``pin:<case>``);
:func:`run_described` turns either kind of meta back into a run.

Import note: simulator modules are imported inside functions only (see
the package initializer's import note).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional

from .digest import (
    DEFAULT_CHECKPOINT_EVERY,
    chain_hex,
    digests_comparable,
    run_meta,
    validate_digest_block,
)
from .runstore import RunRecord, RunStore, RunStoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.flit import Packet
    from repro.sim.experiment import RunResult
    from repro.traffic.trace import Trace

    from .session import TelemetryConfig

#: Meta keys a digest must carry to be re-simulated: a synthetic run's, or
#: (when the meta has a ``trace`` block) a trace replay's.
RESIM_KEYS = ("family", "chiplets", "nodes", "pattern", "rate", "seed", "cycles")
TRACE_RESIM_KEYS = ("family", "chiplets", "nodes", "trace")

#: Flight-recorder retention (cycles) on the event-context re-run.
_CONTEXT_WINDOW = 64


class DiffError(ValueError):
    """A diff input could not be loaded or re-simulated."""


def missing_resim_keys(meta: Optional[dict[str, Any]]) -> list[str]:
    """The re-simulation keys a ``meta`` block lacks (empty: re-simulable)."""
    meta = meta or {}
    keys = TRACE_RESIM_KEYS if "trace" in meta else RESIM_KEYS
    return [key for key in keys if meta.get(key) is None]


@dataclass
class Diffable:
    """One side of a diff: a digest block plus optional summary stats."""

    label: str
    #: ``"pin"``, ``"record"`` or ``"sim"``.
    source: str
    digest: dict[str, Any]
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def meta(self) -> dict[str, Any]:
        return self.digest.get("meta") or {}

    @property
    def resimulable(self) -> bool:
        """Whether the digest carries enough meta to re-run the simulation."""
        return not missing_resim_keys(self.meta)


@dataclass
class DiffReport:
    """Outcome of one ``repro diff`` invocation, at its final granularity."""

    label_a: str
    label_b: str
    digest_a: dict[str, Any]
    digest_b: dict[str, Any]
    identical: bool
    #: False when the blocks cannot be meaningfully compared (algorithm or
    #: horizon mismatch); the divergence fields are then meaningless.
    comparable: bool = True
    notes: list[str] = field(default_factory=list)
    #: ``(stat, a, b)`` for summary statistics that differ.
    stats_diffs: list[tuple[str, Any, Any]] = field(default_factory=list)
    #: ``(event, a, b)`` for event-kind counts that differ.
    event_diffs: list[tuple[str, int, int]] = field(default_factory=list)
    #: Checkpoint interval ``(lo, hi]`` (in cycles-completed labels) whose
    #: chains bracket the divergence (None until granularity 2 ran).
    interval: Optional[tuple[int, int]] = None
    #: First divergent simulation cycle (0-based engine ``now``; None
    #: until granularity 3 localized it).
    divergent_cycle: Optional[int] = None
    #: Decoded loser-side events at the divergent cycle.
    context: list[dict[str, Any]] = field(default_factory=list)
    #: Context events beyond the cap that were not included.
    context_truncated: int = 0

    @property
    def exit_code(self) -> int:
        return 0 if self.identical else 1

    def render(self) -> str:
        """Plain-text report, one granularity per section."""
        from .forensics import event_line

        a, b = self.digest_a, self.digest_b
        lines = [
            f"repro diff: {self.label_a}  vs  {self.label_b}",
            f"  A: {a.get('final', '?')}  ({a.get('events_total', '?')} events, "
            f"{a.get('cycles', '?')} cycles)",
            f"  B: {b.get('final', '?')}  ({b.get('events_total', '?')} events, "
            f"{b.get('cycles', '?')} cycles)",
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        if not self.comparable:
            lines.append("verdict: NOT COMPARABLE")
            return "\n".join(lines)
        if self.identical:
            lines.append("verdict: IDENTICAL (digest chains match)")
            return "\n".join(lines)
        lines.append("verdict: DIVERGED")
        if self.stats_diffs:
            lines.append("granularity 1 — summary stats that differ:")
            for stat, va, vb in self.stats_diffs:
                lines.append(f"  {stat:<26s} {va!s:>14s} {vb!s:>14s}")
        else:
            lines.append("granularity 1 — summary stats agree")
        if self.event_diffs:
            lines.append("granularity 2 — event census deltas:")
            for event, ca, cb in self.event_diffs:
                lines.append(f"  {event:<26s} {ca:>14d} {cb:>14d} ({cb - ca:+d})")
        else:
            lines.append("granularity 2 — event census agrees")
        if self.interval is not None:
            lo, hi = self.interval
            lines.append(
                f"  checkpoint bisection: chains agree through cycle {lo}, "
                f"diverged by cycle {hi}"
            )
        if self.divergent_cycle is not None:
            lines.append(
                f"granularity 3 — first divergent cycle: {self.divergent_cycle}"
            )
            if self.context:
                lines.append(
                    f"  event context at cycle {self.divergent_cycle} "
                    f"({self.label_b}):"
                )
                lines.extend(f"    {event_line(event)}" for event in self.context)
                if self.context_truncated:
                    lines.append(
                        f"    … {self.context_truncated} more event(s) at this cycle"
                    )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# re-simulation harness
# ---------------------------------------------------------------------------


class PerturbedWorkload:
    """Wraps a workload, injecting one extra single-flit packet at a cycle.

    The extra packet is a real behavioral perturbation — it occupies a
    VC, consumes credits and shifts every later packet's canonical id —
    so the digest diverges at exactly the perturbed cycle and stays
    diverged, which is what the localization tests assert.
    """

    def __init__(self, inner: Any, cycle: int, *, src: int = 0, dst: int = 1) -> None:
        self.inner = inner
        self.cycle = cycle
        self.src = src
        self.dst = dst

    def step(self, now: int) -> Iterable["Packet"]:
        from repro.noc.flit import Packet

        packets = list(self.inner.step(now))
        if now == self.cycle:
            packets.append(Packet(self.src, self.dst, 1, now))
        return packets

    def done(self, now: int) -> bool:
        return self.inner.done(now)


class MixedClassWorkload:
    """Wraps a workload, marking a share of its packets bypass-eligible.

    Every ``unordered_every``-th packet is unordered and every
    ``priority_every``-th carries priority 1 (meta ``mix``), so hetero-PHY
    links run the bypass queue, its VC bookkeeping and the ordered FIFO
    side by side.
    """

    def __init__(self, inner: Any, unordered_every: int, priority_every: int) -> None:
        if min(unordered_every, priority_every) < 1:
            raise ValueError(f"mix periods must be >= 1: {unordered_every}/{priority_every}")
        self.inner = inner
        self.unordered_every = unordered_every
        self.priority_every = priority_every
        self.made = 0

    def step(self, now: int) -> Iterable["Packet"]:
        packets = list(self.inner.step(now))
        for packet in packets:
            self.made += 1
            if self.made % self.unordered_every == 0:
                packet.ordered = False
            if self.made % self.priority_every == 0:
                packet.priority = 1
        return packets

    def done(self, now: int) -> bool:
        return self.inner.done(now)


def _generate_trace(block: dict[str, Any], grid: Any) -> "Trace":
    """The trace a meta ``trace`` block describes, on ``grid``."""
    from repro.traffic.hpc import embed_ranks, generate_moc_trace
    from repro.traffic.parsec import generate_parsec_trace

    args, generator = block.get("args") or {}, block.get("generator")
    if generator == "moc":
        core_only = bool(block.get("core_only"))
        trace = embed_ranks(generate_moc_trace(**args), grid, core_only=core_only)
    elif generator == "parsec":
        trace = generate_parsec_trace(grid=grid, **args)
    else:
        raise ValueError(f"unknown trace generator {generator!r} (known: moc, parsec)")
    scale = block.get("scaled")
    return trace if scale is None else trace.scaled(scale)


def run_described(
    meta: dict[str, Any],
    *,
    telemetry: Optional["TelemetryConfig"],
    cycles: Optional[int] = None,
) -> "RunResult":
    """Run what a digest's ``meta`` block describes, ``telemetry`` attached.

    The one path from a meta block to a run: :func:`resimulate` calls it
    digested, and a test holding a plain run to its pin calls it with
    ``telemetry=None``.  A synthetic run is built from its pattern, rate,
    seed and horizon; a ``trace`` block is generated and replayed until
    drained (like :func:`~repro.sim.experiment.run_trace`).  ``cycles``
    truncates the run there, a replay included.  A description the
    simulator rejects raises :class:`DiffError`.
    """
    missing = missing_resim_keys(meta)
    if missing:
        raise DiffError(
            f"digest meta cannot be re-simulated; missing: {', '.join(missing)}"
        )
    from repro.sim.config import SimConfig
    from repro.sim.experiment import TRACE_DRAIN_MARGIN, run_workload
    from repro.topology.grid import ChipletGrid
    from repro.topology.system import build_system
    from repro.traffic.injection import SyntheticWorkload
    from repro.traffic.patterns import make_pattern
    from repro.traffic.trace import TraceWorkload

    warmup, block, mix = int(meta.get("warmup") or 0), meta.get("trace"), meta.get("mix")
    vct = meta.get("vct", True)
    if not isinstance(vct, bool):
        raise DiffError(f"digest meta vct must be true or false, got {vct!r}")
    workload: Any
    try:  # a description the builders reject is a bad operand, not a crash
        grid = ChipletGrid(*meta["chiplets"], *meta["nodes"])
        n = grid.n_nodes
        if block is None:
            horizon, drain = int(meta["cycles"]), False
            config = SimConfig().replace(sim_cycles=horizon, warmup_cycles=warmup)
            workload = SyntheticWorkload(
                make_pattern(meta["pattern"], n), n, meta["rate"], config.packet_length,
                until=horizon, seed=meta["seed"],
            )
            name = f"{meta['pattern']}@{meta['rate']:g}"
            described = {key: meta[key] for key in ("pattern", "rate", "seed", "cycles")}
        else:
            config, trace = SimConfig(), _generate_trace(block, grid)
            horizon, drain = trace.duration + TRACE_DRAIN_MARGIN, True
            workload, name = TraceWorkload(trace), trace.name
            described = {"workload": name, "trace": block}
        spec = build_system(meta["family"], grid, config)
        if mix is not None:
            workload, name = MixedClassWorkload(workload, *mix), f"{name} mix {mix[0]}/{mix[1]}"
        if meta.get("perturb") is not None:
            workload = PerturbedWorkload(workload, int(meta["perturb"]), dst=max(1, n - 1))
    except (TypeError, ValueError) as exc:
        raise DiffError(f"digest meta cannot be simulated: {exc}") from None
    if cycles is not None:
        horizon, drain = min(int(cycles), horizon), False
    described.update((key, meta.get(key)) for key in ("mix", "perturb", "checkpoint_every"))
    return run_workload(
        spec, workload, name, described, horizon, drain=drain,
        policy=meta.get("policy") or None, warmup=warmup, telemetry=telemetry,
        seed=meta.get("seed"), vct=vct,
    )


def resimulate(
    meta: dict[str, Any],
    *,
    cycles: Optional[int] = None,
    capture: Optional[tuple[int, int]] = None,
    recorder: bool = False,
) -> "RunResult":
    """Re-run a simulation described by a digest's ``meta`` block, digested.

    The result carries the finalized session: ``result.digest`` is the
    block, ``result.telemetry.digest.captured`` the per-cycle chains of the
    ``capture`` window, ``result.telemetry.recorder`` the flight
    recorder (``recorder=True``: the event-context pass).  ``cycles``
    truncates the horizon — determinism makes any prefix of the run
    identical to the same prefix of the full run, so localization passes
    never simulate past the cycle they care about.
    """
    from .session import TelemetryConfig

    every = meta.get("checkpoint_every")
    if every is None:
        every = DEFAULT_CHECKPOINT_EVERY
    elif every < 1:
        raise DiffError(f"checkpoint_every must be >= 1, got {every}")
    return run_described(
        meta,
        cycles=cycles,
        telemetry=TelemetryConfig(
            epoch_metrics=False,
            digest=True,
            digest_checkpoint_every=every,
            digest_capture=capture,
            # The event-context pass leaves a bundle if it wedges.
            forensics=recorder,
            flight_recorder=recorder,
            recorder_window=_CONTEXT_WINDOW,
            recorder_events="full",
        ),
    )


# ---------------------------------------------------------------------------
# diffable loading
# ---------------------------------------------------------------------------

def _pair(value: str) -> list[int]:
    x, y = value.lower().split("x")
    return [int(x), int(y)]


def _vct(value: str) -> Optional[bool]:
    """``0``/``false``, or ``1``/``true``: the default, left out of the meta."""
    if value.lower() not in ("0", "1", "false", "true"):
        raise ValueError(value)
    return False if value.lower() in ("0", "false") else None


def _mix(value: str) -> list[int]:
    unordered, priority = value.split("/")
    periods = [int(unordered), int(priority)]
    if min(periods) < 1:
        raise ValueError(value)
    return periods


#: ``sim:`` spec keys and the type each value parses to (family is required).
_SIM_KEYS: dict[str, Any] = {
    "family": str, "chiplets": _pair, "nodes": _pair, "pattern": str,
    "rate": float, "seed": int, "cycles": int, "warmup": int,
    "policy": str, "perturb": int, "checkpoint_every": int,
    "vct": _vct, "mix": _mix,
}
_SIM_DEFAULTS = {
    "chiplets": "2x2", "nodes": "3x3", "pattern": "uniform", "rate": "0.1",
    "seed": "1", "cycles": "2000", "warmup": "400",
}
_SIM_EXAMPLES = {**_SIM_DEFAULTS, "vct": "0", "mix": "3/5"}


def parse_sim_spec(text: str) -> dict[str, Any]:
    """Parse a ``sim:key=value,...`` spec into a re-simulation meta dict."""
    raw = dict(_SIM_DEFAULTS)
    for item in filter(None, text[len("sim:"):].split(",")):
        if "=" not in item:
            raise DiffError(f"sim spec item {item!r} is not key=value")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    unknown = set(raw) - set(_SIM_KEYS)
    if unknown:
        raise DiffError(f"unknown sim spec key(s): {', '.join(sorted(unknown))}")
    if not raw.get("family"):
        raise DiffError("sim spec requires family=<system family>")
    parsed = {}
    for key, value in raw.items():
        try:
            parsed[key] = _SIM_KEYS[key](value)
        except ValueError:
            example = _SIM_EXAMPLES.get(key, "1")
            raise DiffError(f"invalid {key} {value!r}; expected e.g. {example}") from None
    return run_meta(parsed.pop("family"), parsed.pop("chiplets"), parsed.pop("nodes"), **parsed)


def _record_diffable(record: RunRecord, label: str) -> Diffable:
    if not record.digest:
        raise DiffError(
            f"{label}: run record {record.run_id or '?'} carries no digest "
            "block — record one with `repro simulate --digest`"
        )
    validate_digest_block(record.digest, where=label)
    return Diffable(
        label=label, source="record", digest=record.digest, stats=dict(record.stats)
    )


def load_diffable(token: str, *, runs_dir: str | Path = "runs") -> Diffable:
    """Resolve one ``repro diff`` operand into a :class:`Diffable`.

    Accepts a ``sim:`` spec (re-simulates now), ``pin:<case>`` (a pin of
    the committed pin store), a run-record JSON, or a ``runs.jsonl`` store
    (latest digest-bearing record; ``store.jsonl#run_id`` selects one
    record).
    """
    if token.startswith("sim:"):
        try:
            result = resimulate(parse_sim_spec(token))
        except DiffError as exc:
            raise DiffError(f"{token}: {exc}") from None
        return Diffable(token, "sim", result.digest, result.stats.summary())
    if token.startswith("pin:"):
        from .pins import load

        pins = load()
        pin = pins.get(token[len("pin:"):])
        if pin is None:
            raise DiffError(f"no such pin: {token}; known: {', '.join(sorted(pins))}")
        return Diffable(token, "pin", pin["digest"], pin["stats"])
    path_text, _, selector = token.partition("#")
    path = Path(path_text)
    if not path.is_file():
        raise DiffError(f"no such file: {path}")
    if path.suffix == ".jsonl":
        store = RunStore(path.parent)
        chosen: Optional[RunRecord] = None
        for record in store.iter_records(strict=False):
            if selector and record.run_id != selector:
                continue
            if selector or record.digest:
                chosen = record
        if chosen is None:
            what = f"record {selector!r}" if selector else "digest-bearing record"
            raise DiffError(f"{path}: no {what} in the run store")
        return _record_diffable(chosen, token)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DiffError(f"{path}: not valid JSON: {exc}") from None
    if isinstance(doc, dict) and "workloads" in doc:
        raise DiffError(
            f"{path}: bench documents are judged with `repro regress A B`; "
            "diff pins or run records instead"
        )
    if isinstance(doc, dict) and "run_id" in doc:
        try:
            record = RunRecord.from_dict(doc)
        except RunStoreError as exc:
            raise DiffError(f"{path}: {exc}") from None
        return _record_diffable(record, token)
    raise DiffError(f"{path}: not a run record or runs.jsonl store")


# ---------------------------------------------------------------------------
# the three-granularity diff
# ---------------------------------------------------------------------------


def _stats_diffs(a: dict[str, Any], b: dict[str, Any]) -> list[tuple[str, Any, Any]]:
    diffs = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb and not (va != va and vb != vb):  # NaN == NaN for our purposes
            diffs.append((key, va, vb))
    return diffs


def _event_diffs(a: dict[str, Any], b: dict[str, Any]) -> list[tuple[str, int, int]]:
    counts_a = a.get("events") or {}
    counts_b = b.get("events") or {}
    return [
        (event, int(counts_a.get(event, 0)), int(counts_b.get(event, 0)))
        for event in sorted(set(counts_a) | set(counts_b))
        if counts_a.get(event, 0) != counts_b.get(event, 0)
    ]


def _bisect_first_divergent(
    labels: list[int], chain_a: dict[int, Any], chain_b: dict[int, Any]
) -> Optional[int]:
    """First label whose chains differ (None: all agree).

    Sound because chained digests diverge permanently: "diverged at label
    i" is monotone in i, so binary search applies.
    """
    if not labels or chain_a[labels[-1]] == chain_b[labels[-1]]:
        return None
    lo, hi = 0, len(labels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if chain_a[labels[mid]] != chain_b[labels[mid]]:
            hi = mid
        else:
            lo = mid + 1
    return labels[lo]


def _checkpoint_interval(
    a: dict[str, Any], b: dict[str, Any]
) -> tuple[tuple[int, int], list[str]]:
    """Granularity 2: bracket the divergence between two checkpoints.

    Returns ``((lo, hi], notes)`` where chains agree at label ``lo``
    (0 = start of run) and differ at label ``hi``.
    """
    notes: list[str] = []
    map_a = {int(cycle): chain for cycle, chain in a.get("checkpoints") or []}
    map_b = {int(cycle): chain for cycle, chain in b.get("checkpoints") or []}
    labels = sorted(set(map_a) & set(map_b))
    if (map_a or map_b) and not labels:
        notes.append(
            "no common checkpoint cycles (different checkpoint_every?); "
            "bisecting from the start of the run"
        )
    first = _bisect_first_divergent(labels, map_a, map_b)
    if first is None:
        # Every common checkpoint agrees; the divergence sits in the tail
        # between the last checkpoint and the final chain.
        lo = labels[-1] if labels else 0
        hi = min(int(a.get("cycles") or 0), int(b.get("cycles") or 0))
        return (lo, hi), notes
    index = labels.index(first)
    lo = labels[index - 1] if index > 0 else 0
    return (lo, first), notes


def diff_runs(
    a: Diffable,
    b: Diffable,
    *,
    localize: bool = True,
    context: int = 12,
) -> DiffReport:
    """Compare two diffables at escalating granularity (see module doc)."""
    validate_digest_block(a.digest, where=a.label)
    validate_digest_block(b.digest, where=b.label)
    report = DiffReport(
        label_a=a.label,
        label_b=b.label,
        digest_a=a.digest,
        digest_b=b.digest,
        identical=False,
    )
    reason = digests_comparable(a.digest, b.digest)
    if reason is not None:
        report.comparable = False
        report.notes.append(reason)
        return report
    if a.digest.get("final") == b.digest.get("final"):
        report.identical = True
        return report

    # Granularity 1 — summary stats; granularity 2 — census + bisection.
    report.stats_diffs = _stats_diffs(a.stats, b.stats)
    report.event_diffs = _event_diffs(a.digest, b.digest)
    report.interval, notes = _checkpoint_interval(a.digest, b.digest)
    report.notes.extend(notes)
    if not localize:
        return report

    # Granularity 3 — re-simulate both sides with per-cycle capture over
    # the divergent interval and bisect down to the exact cycle.
    if not (a.resimulable and b.resimulable):
        stuck = [d.label for d in (a, b) if not d.resimulable]
        report.notes.append(
            "cannot localize beyond the checkpoint interval — no "
            f"re-simulation meta for: {', '.join(stuck)}"
        )
        return report
    lo, hi = report.interval
    if hi <= lo:
        report.notes.append(
            "degenerate checkpoint interval; cannot localize further"
        )
        return report
    window = (lo + 1, hi)
    rerun_a = resimulate(a.meta, cycles=hi, capture=window).telemetry.digest
    rerun_b = resimulate(b.meta, cycles=hi, capture=window).telemetry.digest
    for side, original, rerun in (("A", a, rerun_a), ("B", b, rerun_b)):
        recorded = dict(
            (int(cycle), chain) for cycle, chain in original.digest["checkpoints"]
        )
        expected = recorded.get(hi) or (
            original.digest.get("final") if hi == original.digest.get("cycles") else None
        )
        got = rerun.captured.get(hi)
        if expected is not None and got is not None and chain_hex(got) != expected:
            report.notes.append(
                f"warning: side {side} ({original.label}) did not re-simulate "
                "reproducibly — its localization may be unreliable"
            )
    labels = sorted(set(rerun_a.captured) & set(rerun_b.captured))
    first = _bisect_first_divergent(
        labels, rerun_a.captured, rerun_b.captured
    )
    if first is None:
        report.notes.append(
            "re-simulated chains agree over the divergent interval — the "
            "recorded digests disagree with this build's behavior"
        )
        return report
    divergent_now = first - 1  # chain labels count completed cycles
    report.divergent_cycle = divergent_now

    # Re-run the loser with the flight recorder windowed on that cycle.
    flight = resimulate(b.meta, cycles=first, recorder=True).telemetry.recorder
    at_cycle = [
        event for event in flight.events() if event.get("cycle") == divergent_now
    ]
    report.context = at_cycle[:context]
    report.context_truncated = max(0, len(at_cycle) - context)
    return report

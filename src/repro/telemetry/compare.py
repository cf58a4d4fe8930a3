"""Noise-aware comparison of bench files and run records (``repro compare``).

Simulator throughput jitters run to run, so a naive A/B diff flags noise
as regressions.  Every metric is judged against a threshold of

    ``max(rel_floor * |baseline|, k * IQR)``

where the IQR comes from the bench repetitions (zero for single run
records).  A metric moves past the threshold in the wrong direction →
``regressed``; in the right direction → ``improved``; otherwise
``noise``.  ``repro compare`` prints one verdict per metric and exits
non-zero only when ``--strict`` is given *and* at least one (gated)
metric regressed — without ``--strict`` it always exits 0, which is the
warn-only CI mode of ``docs/perf.md``.

Given more than two operands, ``repro compare`` chains them in the
given order (oldest first) and renders one table of adjacent-step
verdicts; ``--json PATH`` writes the verdicts machine-readably.

Pure stdlib; knows nothing about the simulator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from .bench import load_bench
from .runstore import RunRecord, RunStore, RunStoreError

#: Default relative floor under which a delta is noise regardless of IQR.
DEFAULT_REL_FLOOR = 0.05
#: Default IQR multiplier of the noise threshold.
DEFAULT_IQR_K = 1.5
#: Relative floor for per-phase host-time metrics.  A single strided
#: attribution repetition backs them (no IQR), and small phases jitter
#: hard, so only large per-phase movements are signal.
HOST_REL_FLOOR = 0.25
#: Host phases whose ns/cycle is below this fraction of the total are
#: skipped by :func:`compare_bench` — a 0.5% phase tripling is noise in
#: absolute terms but would read as a 200% regression.
HOST_MIN_SHARE = 0.02
#: Relative floor for peak-heap comparisons.  A single untimed tracing
#: repetition backs the ``mem`` block (no IQR) and allocator behaviour
#: shifts a few percent run to run, so only double-digit movements are
#: signal.
MEM_REL_FLOOR = 0.10


@dataclass
class MetricVerdict:
    """The comparison outcome for one metric of one case."""

    case: str
    metric: str
    a: float
    b: float
    threshold: float
    higher_is_better: bool
    #: ``"improved"``, ``"regressed"``, ``"noise"`` or ``"n/a"``.
    verdict: str

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel_delta(self) -> float:
        if self.a == 0 or math.isnan(self.a) or math.isnan(self.b):
            return math.nan
        return (self.b - self.a) / abs(self.a)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form for ``repro compare --json`` (NaN → null)."""

        def num(value: float) -> Optional[float]:
            return None if math.isnan(value) else value

        return {
            "case": self.case,
            "metric": self.metric,
            "a": num(self.a),
            "b": num(self.b),
            "threshold": num(self.threshold),
            "higher_is_better": self.higher_is_better,
            "rel_delta": num(self.rel_delta),
            "verdict": self.verdict,
        }


def classify(
    case: str,
    metric: str,
    a: float,
    b: float,
    *,
    higher_is_better: bool,
    iqr: float = 0.0,
    rel_floor: float = DEFAULT_REL_FLOOR,
    k: float = DEFAULT_IQR_K,
) -> MetricVerdict:
    """Judge one metric pair against the noise threshold."""
    if math.isnan(a) or math.isnan(b):
        verdict = "n/a"
        threshold = math.nan
    else:
        threshold = max(rel_floor * abs(a), k * (iqr if not math.isnan(iqr) else 0.0))
        delta = b - a
        if abs(delta) <= threshold:
            verdict = "noise"
        elif (delta > 0) == higher_is_better:
            verdict = "improved"
        else:
            verdict = "regressed"
    return MetricVerdict(
        case=case,
        metric=metric,
        a=a,
        b=b,
        threshold=threshold,
        higher_is_better=higher_is_better,
        verdict=verdict,
    )


def compare_bench(
    a: dict[str, Any],
    b: dict[str, Any],
    *,
    rel_floor: float = DEFAULT_REL_FLOOR,
    k: float = DEFAULT_IQR_K,
) -> list[MetricVerdict]:
    """Per-case, per-metric verdicts between two bench documents.

    Cases present in only one document are skipped.  Event counts are
    deterministic for a fixed seed, so they use the relative floor alone
    (a count drift beyond it means the simulated work itself changed).
    """
    verdicts: list[MetricVerdict] = []
    cases_a = a.get("cases", {})
    cases_b = b.get("cases", {})
    for name in cases_a:
        if name not in cases_b:
            continue
        ca, cb = cases_a[name], cases_b[name]
        verdicts.append(
            classify(
                name,
                "cycles_per_second",
                ca["cps"]["median"],
                cb["cps"]["median"],
                higher_is_better=True,
                iqr=max(ca["cps"]["iqr"], cb["cps"]["iqr"]),
                rel_floor=rel_floor,
                k=k,
            )
        )
        verdicts.append(
            classify(
                name,
                "wall_seconds",
                ca["wall_s"]["median"],
                cb["wall_s"]["median"],
                higher_is_better=False,
                iqr=max(ca["wall_s"]["iqr"], cb["wall_s"]["iqr"]),
                rel_floor=rel_floor,
                k=k,
            )
        )
        events_a = ca.get("events", {})
        events_b = cb.get("events", {})
        for event in sorted(set(events_a) | set(events_b)):
            verdicts.append(
                classify(
                    name,
                    f"events.{event}",
                    float(events_a.get(event, 0)),
                    float(events_b.get(event, 0)),
                    higher_is_better=False,
                    iqr=0.0,
                    rel_floor=rel_floor,
                    k=k,
                )
            )
        verdicts.extend(_compare_host(name, ca.get("host"), cb.get("host")))
        verdicts.append(_compare_mem(name, ca.get("mem"), cb.get("mem")))
        verdicts.append(_compare_digest(name, ca.get("digest"), cb.get("digest")))
    return verdicts


def _compare_mem(case: str, ma: Optional[dict], mb: Optional[dict]) -> MetricVerdict:
    """One ``mem.peak_bytes`` verdict between two ``mem`` blocks.

    Pre-mem bench files carry no ``mem`` block — the verdict then reads
    ``n/a`` rather than failing the compare.  Lower peak heap is better;
    the wide :data:`MEM_REL_FLOOR` keeps allocator jitter out.
    """

    def peak(block: Optional[dict]) -> float:
        if isinstance(block, dict) and isinstance(block.get("peak_bytes"), (int, float)):
            return float(block["peak_bytes"])
        return math.nan

    return classify(
        case,
        "mem.peak_bytes",
        peak(ma),
        peak(mb),
        higher_is_better=False,
        iqr=0.0,
        rel_floor=MEM_REL_FLOOR,
    )


def _compare_digest(
    case: str, da: Optional[dict], db: Optional[dict]
) -> MetricVerdict:
    """One ``digest.match`` verdict between two ``digest`` blocks.

    Older bench files (pre run-digest) carry no ``digest`` block — the
    verdict then reads ``n/a`` rather than failing the compare, as do
    blocks an algorithm or horizon change made incomparable.  Matching
    final chains score 1/1 (noise); a mismatch scores 1/0 and reads
    ``regressed`` — the simulated behavior itself changed, which is what
    ``repro diff`` then localizes.
    """
    comparable = (
        isinstance(da, dict)
        and isinstance(db, dict)
        and da.get("final")
        and db.get("final")
    )
    if comparable:
        from .digest import digests_comparable

        comparable = digests_comparable(da, db) is None  # type: ignore[arg-type]
    if not comparable:
        a = b = math.nan
    else:
        assert isinstance(da, dict) and isinstance(db, dict)
        a = 1.0
        b = 1.0 if da["final"] == db["final"] else 0.0
    return classify(
        case, "digest.match", a, b, higher_is_better=True, iqr=0.0, rel_floor=0.0
    )


def _compare_host(
    case: str, ha: Optional[dict], hb: Optional[dict]
) -> list[MetricVerdict]:
    """Per-phase ns/cycle verdicts between two ``host`` blocks.

    Older bench files (pre host-time ledger) carry no ``host`` block —
    every phase then reads ``n/a`` rather than failing the compare.
    Lower ns/cycle is better; the wide :data:`HOST_REL_FLOOR` and the
    :data:`HOST_MIN_SHARE` cut keep single-repetition jitter out of the
    verdict column so a named phase only flags on a real slowdown.
    """
    npc_a = (ha or {}).get("ns_per_cycle") or {}
    npc_b = (hb or {}).get("ns_per_cycle") or {}

    def total(npc: dict) -> float:
        return sum(v for v in npc.values() if isinstance(v, (int, float)) and v == v)

    total_a, total_b = total(npc_a), total(npc_b)
    verdicts = []
    for phase in sorted(set(npc_a) | set(npc_b)):
        a = float(npc_a.get(phase, math.nan))
        b = float(npc_b.get(phase, math.nan))
        share_a = a / total_a if total_a and a == a else 0.0
        share_b = b / total_b if total_b and b == b else 0.0
        if max(share_a, share_b) < HOST_MIN_SHARE:
            continue
        verdicts.append(
            classify(
                case,
                f"host.{phase}",
                a,
                b,
                higher_is_better=False,
                iqr=0.0,
                rel_floor=HOST_REL_FLOOR,
            )
        )
    return verdicts


#: Run-record metrics compared by :func:`compare_records`.
_RECORD_METRICS: tuple[tuple[str, bool], ...] = (
    ("cycles_per_second", True),
    ("wall_seconds", False),
    ("stats.avg_latency", False),
    ("stats.delivered_fraction", True),
    ("stats.avg_energy_pj", False),
)


def _record_metric(record: RunRecord, dotted: str) -> float:
    if dotted.startswith("stats."):
        value = record.stats.get(dotted[len("stats."):], math.nan)
    else:
        value = getattr(record, dotted, math.nan)
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def compare_records(
    a: RunRecord,
    b: RunRecord,
    *,
    rel_floor: float = DEFAULT_REL_FLOOR,
    k: float = DEFAULT_IQR_K,
) -> list[MetricVerdict]:
    """Verdicts between two run records (no repetition IQR available)."""
    case = a.label or a.workload or "run"
    return [
        classify(
            case,
            metric,
            _record_metric(a, metric),
            _record_metric(b, metric),
            higher_is_better=higher_is_better,
            iqr=0.0,
            rel_floor=rel_floor,
            k=k,
        )
        for metric, higher_is_better in _RECORD_METRICS
    ]


def load_comparable(path: str | Path) -> tuple[str, Any]:
    """Load ``path`` as ``("bench", doc)`` or ``("record", RunRecord)``.

    Accepts a ``BENCH_<n>.json`` file, a single-record JSON file, or a
    ``runs.jsonl`` store (the latest record is used).
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    if path.suffix == ".jsonl":
        latest = RunStore(path.parent).latest(1)
        if not latest:
            raise RunStoreError(f"{path}: run store holds no readable records")
        return "record", latest[0]
    doc = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(doc, dict) and "cases" in doc:
        return "bench", load_bench(path)
    if isinstance(doc, dict) and "stats" in doc:
        return "record", RunRecord.from_dict(doc)
    raise ValueError(f"{path}: neither a bench document nor a run record")


def compare_chain(
    paths: Sequence[str | Path],
    *,
    rel_floor: float = DEFAULT_REL_FLOOR,
    k: float = DEFAULT_IQR_K,
) -> list[tuple[str, str, list[MetricVerdict]]]:
    """Adjacent-pair verdicts across N files given oldest → newest.

    Every operand must load as the same kind (all bench or all record);
    each returned step is ``(label_a, label_b, verdicts)`` with labels
    taken from the file names.  Two paths degenerate to one step — the
    classic A/B compare.
    """
    if len(paths) < 2:
        raise ValueError("compare_chain needs at least two paths")
    loaded = [load_comparable(path) for path in paths]
    kinds = {kind for kind, _ in loaded}
    if len(kinds) > 1:
        raise ValueError(
            f"cannot compare mixed kinds ({', '.join(sorted(kinds))}) across "
            f"{len(paths)} operands"
        )
    kind = loaded[0][0]
    steps: list[tuple[str, str, list[MetricVerdict]]] = []
    for (before_path, (_, before)), (after_path, (_, after)) in zip(
        zip(paths, loaded), zip(paths[1:], loaded[1:])
    ):
        if kind == "bench":
            verdicts = compare_bench(before, after, rel_floor=rel_floor, k=k)
        else:
            verdicts = compare_records(before, after, rel_floor=rel_floor, k=k)
        steps.append((Path(before_path).name, Path(after_path).name, verdicts))
    return steps


def render_chain(steps: Sequence[tuple[str, str, list[MetricVerdict]]]) -> str:
    """One combined table across every chained comparison step."""
    if len(steps) == 1:
        label_a, label_b, verdicts = steps[0]
        return render_comparison(verdicts, label_a=label_a, label_b=label_b)
    blocks = []
    total = 0
    for index, (label_a, label_b, verdicts) in enumerate(steps, start=1):
        total += len(regressions(verdicts))
        blocks.append(f"step {index}/{len(steps)}: {label_a} -> {label_b}")
        blocks.append(render_comparison(verdicts, label_a="before", label_b="after"))
        blocks.append("")
    blocks.append(f"chain total: {total} regression(s) across {len(steps)} step(s)")
    return "\n".join(blocks)


def chain_report(
    steps: Sequence[tuple[str, str, list[MetricVerdict]]],
    *,
    gate: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """The machine-readable ``repro compare --json`` document."""
    return {
        "kind": "compare",
        "steps": [
            {
                "a": label_a,
                "b": label_b,
                "verdicts": [v.to_dict() for v in verdicts],
                "regressions": len(regressions(verdicts, gate=gate)),
            }
            for label_a, label_b, verdicts in steps
        ],
        "regressions": sum(
            len(regressions(verdicts, gate=gate)) for _, _, verdicts in steps
        ),
    }


def regressions(
    verdicts: list[MetricVerdict],
    *,
    gate: Optional[Sequence[str]] = None,
) -> list[MetricVerdict]:
    """Regressed verdicts, optionally filtered to gated metric names.

    ``gate`` entries match a metric exactly or as a dotted prefix
    (``"events"`` gates every ``events.*`` metric).  ``None`` / empty
    gates everything — the pre-``--gate`` behaviour.
    """
    flagged = [v for v in verdicts if v.verdict == "regressed"]
    if not gate:
        return flagged
    return [
        v
        for v in flagged
        if any(v.metric == g or v.metric.startswith(g + ".") for g in gate)
    ]


def _fmt(value: float) -> str:
    if math.isnan(value):
        return "n/a"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def render_comparison(
    verdicts: list[MetricVerdict], *, label_a: str = "A", label_b: str = "B"
) -> str:
    """Aligned text report of the verdict list."""
    if not verdicts:
        return "no overlapping cases/metrics to compare"
    marks = {"improved": "+", "regressed": "!", "noise": "=", "n/a": "?"}
    lines = [
        f"{'case':>24s} {'metric':>26s} {label_a:>12s} {label_b:>12s} "
        f"{'delta':>8s}  verdict"
    ]
    for v in verdicts:
        rel = v.rel_delta
        delta = "n/a" if math.isnan(rel) else f"{rel:+.1%}"
        lines.append(
            f"{v.case:>24s} {v.metric:>26s} {_fmt(v.a):>12s} {_fmt(v.b):>12s} "
            f"{delta:>8s}  {marks[v.verdict]} {v.verdict}"
        )
    worst = regressions(verdicts)
    summary = (
        f"{len(worst)} regression(s), "
        f"{sum(1 for v in verdicts if v.verdict == 'improved')} improvement(s), "
        f"{sum(1 for v in verdicts if v.verdict == 'noise')} within noise"
    )
    lines.append(summary)
    return "\n".join(lines)

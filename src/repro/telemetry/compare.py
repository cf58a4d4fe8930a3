"""Noise-aware comparison of bench files and run records (``repro compare``).

Simulator throughput jitters run to run, so a naive A/B diff flags noise
as regressions.  Every timed metric is judged against a threshold of

    ``max(rel_floor * |baseline|, k * IQR)``

where the floor is the metric's bound in ``BENCHMARK.json`` and the IQR
comes from the timed repetitions' samples (zero for single run records):
past it in the wrong direction → ``regressed``, in the right one →
``improved``, otherwise ``noise``.  The exact rows of a bench file (counts,
fingerprints, digest chains) have no threshold — any difference between
two runs of the same seed and ``smoke`` flag reads ``regressed`` — and
host-time layer rows are printed without a verdict (``info``): the rule of
``benchmarks/perf/run.py --agree``.  ``repro compare`` exits non-zero only
when ``--strict`` is given *and* at least one (gated) metric regressed —
without it it always exits 0, the warn-only CI mode of ``docs/perf.md``.

Given more than two operands, ``repro compare`` chains them in the
given order (oldest first) and renders one table of adjacent-step
verdicts; ``--json PATH`` writes the verdicts machine-readably.

Pure stdlib; knows nothing about the simulator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional, Sequence

from .bench import load_bench, run_inputs, stack_metrics, workloads_of
from .runstore import RunRecord, RunStore, RunStoreError

#: Default relative floor under which a delta is noise regardless of IQR.
DEFAULT_REL_FLOOR = 0.05
#: Default IQR multiplier of the noise threshold.
DEFAULT_IQR_K = 1.5
#: One mark per verdict word, shared by the compare and sentinel tables.
VERDICT_MARKS = {
    "improved": "+",
    "regressed": "!",
    "noise": "=",
    "ok": "=",
    "insufficient-history": "~",
    "n/a": "?",
    "info": " ",
}


def noise_band(baseline: float, iqr: float, rel_floor: float, k: float) -> float:
    """``max(rel_floor * |baseline|, k * IQR)`` — the one noise threshold."""
    return max(rel_floor * abs(baseline), k * (iqr if math.isfinite(iqr) else 0.0))


def json_num(value: float) -> Optional[float]:
    """``value`` for a JSON report: NaN / inf have no JSON form, so null."""
    return value if math.isfinite(value) else None


def fmt_metric(value: float, unit: str = "") -> str:
    """One metric value as the compare / regress / dashboard tables print it."""
    if not math.isfinite(value):
        return "n/a"
    if unit == "hash48":
        return f"{int(value):012x}"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


@dataclass
class MetricVerdict:
    """The comparison outcome for one metric of one case."""

    case: str
    metric: str
    a: float
    b: float
    threshold: float
    higher_is_better: bool
    #: ``"improved"``, ``"regressed"``, ``"noise"``, ``"n/a"`` or ``"info"``.
    verdict: str
    unit: str = ""
    #: A seed-determined row: ``n/a`` here with both values present means
    #: the two runs' inputs differ (see :func:`render_comparison`).
    exact: bool = False

    @property
    def rel_delta(self) -> float:
        if self.a == 0 or math.isnan(self.a) or math.isnan(self.b):
            return math.nan
        return (self.b - self.a) / abs(self.a)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form for ``repro compare --json`` (NaN → null)."""
        return {
            "case": self.case,
            "metric": self.metric,
            "a": json_num(self.a),
            "b": json_num(self.b),
            "threshold": json_num(self.threshold),
            "higher_is_better": self.higher_is_better,
            "rel_delta": json_num(self.rel_delta),
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
    rel_floor: Optional[float] = DEFAULT_REL_FLOOR,
    k: float = DEFAULT_IQR_K,
    exact: bool = False,
    unit: str = "",
) -> MetricVerdict:
    """Judge one metric pair against the noise threshold.

    ``exact`` rows have none: a seed-determined count that moved either way
    means the simulated behaviour changed, which no speed-up may do.
    ``rel_floor=None`` marks a row that is printed but not judged.
    """
    threshold = math.nan
    if math.isnan(a) or math.isnan(b):
        verdict = "n/a"
    elif rel_floor is None:
        verdict = "info"
    else:
        threshold = 0.0 if exact else noise_band(a, iqr, rel_floor, k)
        delta = b - a
        if abs(delta) <= threshold:
            verdict = "noise"
        elif exact or (delta > 0) != higher_is_better:
            verdict = "regressed"
        else:
            verdict = "improved"
    return MetricVerdict(case, metric, a, b, threshold, higher_is_better, verdict, unit, exact)


def compare_bench(
    a: dict[str, Any],
    b: dict[str, Any],
    *,
    rel_floor: Optional[float] = None,
    k: float = DEFAULT_IQR_K,
) -> list[MetricVerdict]:
    """Per-workload, per-metric verdicts between two bench documents.

    Workloads present in only one document are skipped.  What is judged,
    and against which bound, is the bench catalogue's decision
    (:func:`~repro.telemetry.bench.stack_metrics`); ``rel_floor`` overrides
    the bounds of the timed end-to-end rows (a CI gate that only wants
    halvings).  Exact rows compare only between runs of the same seed and
    ``smoke`` flag and read ``n/a`` otherwise.
    """
    same_inputs = run_inputs(a) == run_inputs(b)
    verdicts: list[MetricVerdict] = []
    workloads_b = workloads_of(b)
    for name, wa in workloads_of(a).items():
        if name not in workloads_b:
            continue
        for metric, (ma, mb) in stack_metrics([wa, workloads_b[name]]).items():
            floor = ma.rel_floor
            if rel_floor is not None and floor:  # a timed end-to-end row
                floor = rel_floor
            verdict = classify(
                name, metric, ma.value, mb.value, higher_is_better=ma.higher_is_better,
                iqr=max(ma.iqr, mb.iqr), rel_floor=floor, k=k, exact=ma.exact, unit=ma.unit,
            )
            if ma.exact and not same_inputs:
                verdict = replace(verdict, verdict="n/a", threshold=math.nan)
            verdicts.append(verdict)
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
    if isinstance(doc, dict) and "workloads" in doc:
        return "bench", load_bench(path)
    if isinstance(doc, dict) and "stats" in doc:
        return "record", RunRecord.from_dict(doc)
    raise ValueError(f"{path}: neither a bench document nor a run record")


def compare_chain(
    paths: Sequence[str | Path],
    *,
    rel_floor: Optional[float] = None,
    k: float = DEFAULT_IQR_K,
) -> list[tuple[str, str, list[MetricVerdict]]]:
    """Adjacent-pair verdicts across N files given oldest → newest.

    Every operand must load as the same kind (all bench or all record);
    each returned step is ``(label_a, label_b, verdicts)`` with labels
    taken from the file names.  Two paths degenerate to one step — the
    classic A/B compare.  ``rel_floor=None`` is each bench metric's own
    bound and :data:`DEFAULT_REL_FLOOR` for run records.
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
            record_floor = DEFAULT_REL_FLOOR if rel_floor is None else rel_floor
            verdicts = compare_records(before, after, rel_floor=record_floor, k=k)
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
    (``"sim"`` gates every ``sim.*`` metric).  ``None`` / empty
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


def render_comparison(
    verdicts: list[MetricVerdict], *, label_a: str = "A", label_b: str = "B"
) -> str:
    """Aligned text report of the verdict list."""
    if not verdicts:
        return "no overlapping cases/metrics to compare"
    lines = [
        f"{'case':>24s} {'metric':>38s} {label_a:>14s} {label_b:>14s} "
        f"{'delta':>8s}  verdict"
    ]
    for v in verdicts:
        rel = v.rel_delta
        delta = "n/a" if math.isnan(rel) or v.unit == "hash48" else f"{rel:+.1%}"
        lines.append(
            f"{v.case:>24s} {v.metric:>38s} {fmt_metric(v.a, v.unit):>14s} "
            f"{fmt_metric(v.b, v.unit):>14s} {delta:>8s}  {VERDICT_MARKS[v.verdict]} {v.verdict}"
        )
    if any(v.exact and v.verdict == "n/a" and v.a == v.a and v.b == v.b for v in verdicts):
        lines.append(
            "exact rows read n/a: the two runs differ in seed or --smoke, so their "
            "seed-determined counts, fingerprints and digest chains are not comparable"
        )
    worst = regressions(verdicts)
    summary = (
        f"{len(worst)} regression(s), "
        f"{sum(1 for v in verdicts if v.verdict == 'improved')} improvement(s), "
        f"{sum(1 for v in verdicts if v.verdict == 'noise')} within noise"
    )
    lines.append(summary)
    return "\n".join(lines)

"""The BENCH document, read: the one description of a measured tree.

A ``BENCH_<n>.json`` is what ``python benchmarks/perf/run.py --all --trace 1
--out FILE`` writes — four workloads, each with ``end_to_end`` medians and
their samples, ``per_layer`` values and the ``fingerprint`` /
``digest_chain`` / ``matches_pinned`` of what was simulated — stamped by
``repro bench`` with ``git_rev`` and ``created``.  This module measures
nothing and never loads the simulator: it holds the file helpers, the
median/IQR rule, and :func:`case_metrics`, the one catalogue ``repro
regress`` and the fleet page's performance panel read a workload block
through.

The catalogue's names, units, better-directions and end-to-end bounds are
the root ``BENCHMARK.json``'s and the exact-count flags are
``benchmarks/perf/spec.py::PER_LAYER``'s, both read on first use: there is
no second metric list here (see ``docs/perf.md``).
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import re
import statistics
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .bus import EVENT_NAMES

#: Version of the ``BENCH_<n>.json`` schema (``run.py``'s ``schema`` key).
BENCH_SCHEMA_VERSION = 1

#: The checkout this package runs from (``src/repro/telemetry`` -> root).
ROOT = Path(__file__).resolve().parents[3]
#: The repo benchmark: the only harness that measures (``repro bench`` runs it).
HARNESS = ROOT / "benchmarks" / "perf" / "run.py"

#: The end-to-end metric the trajectory charts draw and culprit hints explain.
THROUGHPUT = "flit_hops_per_s"
#: Per-layer rows with this suffix split the engine loop into its phases.
PHASE_SUFFIX = "_ns_per_flit_hop"

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


class EventCounters:
    """Counts every telemetry-bus event by name, live, for the life of the network.

    ``benchmarks/perf/child.py`` reads ``counts`` while its census run
    advances.
    """

    def __init__(self, network: Any) -> None:  # a repro.noc.network.Network
        self.counts = counts = dict.fromkeys(EVENT_NAMES, 0)

        def counter(name: str) -> Callable[..., None]:
            def on_event(*_args: Any) -> None:
                counts[name] += 1

            return on_event

        self._subscription = network.telemetry.attach(
            {name: counter(name) for name in EVENT_NAMES}
        )


def median_iqr(samples: Sequence[float]) -> tuple[float, float]:
    """Median and interquartile range — the one IQR rule (inclusive quantiles)."""
    if not samples:
        return float("nan"), float("nan")
    if len(samples) == 1:
        return float(samples[0]), 0.0
    quartiles = statistics.quantiles(samples, n=4, method="inclusive")
    return float(statistics.median(samples)), float(quartiles[2] - quartiles[0])


class Metric(NamedTuple):
    """One number of a workload block, and how it is judged."""

    value: float  #: NaN when the block does not carry it
    unit: str
    higher_is_better: bool
    iqr: float  #: spread of the timed reps' samples; 0.0 for single values
    #: Relative noise floor: the end-to-end bound of ``BENCHMARK.json``;
    #: ``None`` for a host-time layer row, which is printed, never judged.
    rel_floor: Optional[float]
    #: A seed-determined count, hash or flag: two runs of the same seed and
    #: ``smoke`` flag must agree bit for bit, any difference is a regression.
    exact: bool


def num(value: Any, default: float = math.nan) -> float:
    """A finite float, or ``default`` for anything missing or malformed."""
    if isinstance(value, (int, float)) and math.isfinite(value):
        return float(value)
    return default


def block_of(block: dict[str, Any], key: str) -> dict[str, Any]:
    """``block[key]`` when it is a dict, else ``{}`` (missing or malformed block)."""
    inner = block.get(key)
    return inner if isinstance(inner, dict) else {}


#: The contract line's ``failed``: a count of ``points``, 0 on a healthy tree
#: (``BENCHMARK.json`` cannot list it: a metric that is always 0 carries no
#: relative bound).
_FAILED_POINTS = Metric(math.nan, "count", False, 0.0, 0.0, True)


@functools.lru_cache(maxsize=1)
def catalogue() -> tuple[dict[str, Metric], dict[str, Metric]]:
    """``(end_to_end, per_layer)``: every metric as a value-less template, in print order.

    The end-to-end rows carry their ``BENCHMARK.json`` bounds; a per-layer row
    is exact where ``spec.PER_LAYER`` says so, informational otherwise.
    """
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    name = "repro_benchmark_spec"
    loader = importlib.util.spec_from_file_location(name, HARNESS.with_name("spec.py"))
    assert loader is not None and loader.loader is not None
    spec = sys.modules[name] = importlib.util.module_from_spec(loader)  # dataclasses look it up
    loader.loader.exec_module(spec)

    def template(entry: dict[str, Any], rel_floor: Optional[float], exact: bool) -> Metric:
        return Metric(math.nan, entry["unit"], entry["better"] == "higher", 0.0, rel_floor, exact)

    end_to_end = {e["name"]: template(e, e["bound"], False) for e in contract["end_to_end"]}
    per_layer = {}
    for entry in contract["per_layer"]:
        exact = spec.PER_LAYER[entry["name"]].exact
        per_layer[entry["name"]] = template(entry, 0.0 if exact else None, exact)
    return end_to_end, per_layer


def case_metrics(workload: dict[str, Any]) -> dict[str, Metric]:
    """The metric catalogue read off one workload block of a BENCH document.

    ``repro regress`` stacks N of these (:func:`stack_metrics`), so a pair
    and a trajectory cannot disagree about what a bench run measures.
    End-to-end rows carry the
    IQR of their samples and read NaN where the block lacks them; a block
    written with ``--trace 0`` has no ``per_layer`` and yields the
    end-to-end rows only.
    """
    end_to_end, per_layer = catalogue()
    cells = block_of(workload, "end_to_end")
    metrics = {}
    for name, template in end_to_end.items():
        cell = block_of(cells, name)
        samples = [v for v in map(num, cell.get("samples") or ()) if v == v]
        metrics[name] = template._replace(
            value=num(cell.get("median")), iqr=median_iqr(samples)[1] if samples else 0.0
        )
    metrics["failed_points"] = _FAILED_POINTS._replace(value=num(workload.get("failed_points")))
    layers = block_of(workload, "per_layer")
    if layers:
        for name, template in per_layer.items():
            metrics[name] = template._replace(value=num(block_of(layers, name).get("value")))
    return metrics


def stack_metrics(workloads: Sequence[dict[str, Any]]) -> dict[str, list[Metric]]:
    """The catalogue of several runs of one workload, aligned by metric name.

    A metric one run lacks reads NaN there, which every consumer renders
    ``n/a``; catalogue order is kept.
    """
    per_run = [case_metrics(workload) for workload in workloads]
    widest = max(per_run, key=len, default={})
    return {
        name: [metrics.get(name, template._replace(value=math.nan, iqr=0.0)) for metrics in per_run]
        for name, template in widest.items()
    }


def run_inputs(doc: dict[str, Any]) -> str:
    """What a document's exact rows depend on: two runs agree on them only
    when this reads the same (``seed=1``, ``seed=1 smoke``)."""
    return f"seed={doc.get('seed')}" + (" smoke" if doc.get("smoke") else "")


def workloads_of(doc: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Workload name -> block, dropping anything that is not a block."""
    blocks = block_of(doc, "workloads").items()
    return {str(name): block for name, block in blocks if isinstance(block, dict)}


def bench_files(directory: str | Path = ".") -> list[Path]:
    """All ``BENCH_<n>.json`` files under ``directory``, in index order."""
    indexed = [
        (int(match.group(1)), path)
        for path in Path(directory).glob("BENCH_*.json")
        if (match := _BENCH_NAME.match(path.name))
    ]
    return [path for _, path in sorted(indexed)]


def next_bench_path(directory: str | Path = ".") -> Path:
    """The first unused ``BENCH_<n>.json`` path under ``directory``."""
    taken = bench_files(directory)
    index = int(taken[-1].stem.partition("_")[2]) + 1 if taken else 0
    return Path(directory) / f"BENCH_{index}.json"


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load and schema-check one bench file."""
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    version = doc.get("schema") if isinstance(doc, dict) else None
    if version != BENCH_SCHEMA_VERSION or not isinstance(doc.get("workloads"), dict):
        raise ValueError(
            f"{path}: bench schema v{version!r} is not supported (this build reads "
            f"v{BENCH_SCHEMA_VERSION}, the `benchmarks/perf/run.py --out` document)"
        )
    return doc

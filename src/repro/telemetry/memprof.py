"""Heap observability for the simulator (``repro profile --mem``).

The host-time ledger answers "where does wall time go?"; this module
answers the twin question **"where does memory go?"** — the batched
struct-of-arrays engine (ROADMAP item 1) will change the allocation
profile drastically, and a regression sentinel that only watches
throughput would wave a 3× heap blow-up straight through.

:class:`MemLedger` wraps :mod:`tracemalloc` (exact Python-heap peaks and
per-site attribution) plus ``resource.ru_maxrss`` (the OS's view, which
also sees C-level allocations).  Allocation sites are folded onto the
hostprof phase taxonomy via :func:`~repro.telemetry.hostprof.phase_of`,
so the memory table's rows line up with the wall-time table's.

Tracing roughly doubles allocation cost, so the ledger never rides a
timed run: ``repro profile --mem`` gives it its own pass, and the
deterministic peak-heap budgets live in ``tests/test_run_lifecycle.py``.

Pure stdlib; no simulator imports (the package initializer's rule).
"""

from __future__ import annotations

import sys
import tracemalloc
from typing import Any

from .hostprof import ALL_PHASES, phase_of

try:  # pragma: no cover - absent on Windows
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

#: Version stamp of the ``mem`` block written as ``profile.mem.json``.
MEM_SCHEMA_VERSION = 1

#: Default number of top allocation sites kept in a summary.
DEFAULT_TOP_N = 10


class MemProfError(RuntimeError):
    """A memory summary failed validation or the ledger was misused."""


def _ru_maxrss_bytes() -> int | None:
    """Process peak RSS in bytes, or ``None`` where unavailable.

    ``getrusage`` reports ``ru_maxrss`` in kilobytes on Linux but bytes
    on macOS — one of the oldest portability traps in the book.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


class MemLedger:
    """Measures Python-heap usage across one observed region.

    Usage mirrors the host ledger: surround the region of interest
    (``with MemLedger() as mem: run(...)``), then read
    :meth:`record_summary`.  Peaks are reported **relative to the
    baseline at start**, so a ledger started inside a long-lived process
    measures the observed run, not the interpreter's warm-up.

    If tracemalloc is already tracing (an outer profiler, ``-X
    tracemalloc``), the ledger piggybacks on the running trace instead
    of restarting it, and leaves it running on stop.
    """

    def __init__(self, *, top_n: int = DEFAULT_TOP_N, frames: int = 1) -> None:
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        self.top_n = top_n
        self.frames = frames
        self._owns_trace = False
        self._baseline = 0
        self._running = False
        #: Filled by :meth:`stop`.
        self.peak_bytes = 0
        self.current_bytes = 0
        self.phases: dict[str, int] = {}
        self.top_sites: list[dict[str, Any]] = []

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise MemProfError("MemLedger.start() called twice")
        if tracemalloc.is_tracing():
            self._owns_trace = False
            tracemalloc.reset_peak()
            self._baseline = tracemalloc.get_traced_memory()[0]
        else:
            self._owns_trace = True
            self._baseline = 0
            tracemalloc.start(self.frames)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            raise MemProfError("MemLedger.stop() without start()")
        current, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
        if self._owns_trace:
            tracemalloc.stop()
        self._running = False
        self.current_bytes = max(0, current - self._baseline)
        self.peak_bytes = max(0, peak - self._baseline)
        self._fold_snapshot(snapshot)

    def __enter__(self) -> "MemLedger":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- folding ------------------------------------------------------------
    def _fold_snapshot(self, snapshot: tracemalloc.Snapshot) -> None:
        """Fold live allocations at stop time onto the phase taxonomy."""
        phases: dict[str, int] = {}
        sites: list[dict[str, Any]] = []
        for stat in snapshot.statistics("lineno"):
            frame = stat.traceback[0]
            phase = phase_of(frame.filename, "")
            phases[phase] = phases.get(phase, 0) + stat.size
            sites.append(
                {
                    "site": f"{_site_label(frame.filename)}:{frame.lineno}",
                    "phase": phase,
                    "bytes": stat.size,
                    "count": stat.count,
                }
            )
        sites.sort(key=lambda s: s["bytes"], reverse=True)
        self.phases = phases
        self.top_sites = sites[: self.top_n]

    # -- output -------------------------------------------------------------
    def record_summary(self) -> dict[str, Any]:
        """The compact ``mem`` block (``profile.mem.json``)."""
        return {
            "schema_version": MEM_SCHEMA_VERSION,
            "top_n": self.top_n,
            "peak_bytes": self.peak_bytes,
            "current_bytes": self.current_bytes,
            "ru_maxrss_bytes": _ru_maxrss_bytes(),
            "phases": dict(self.phases),
            "top_sites": [dict(s) for s in self.top_sites],
        }


def _site_label(filename: str) -> str:
    """Package-relative path of an allocation site, like hostprof frames."""
    path = filename.replace("\\", "/")
    parts = path.split("/")
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return parts[-1]


def validate_mem_block(block: Any) -> dict[str, Any]:
    """Check a ``mem`` block's shape; returns it or raises MemProfError."""
    if not isinstance(block, dict):
        raise MemProfError(f"mem block must be a dict, got {type(block).__name__}")
    version = block.get("schema_version")
    if version != MEM_SCHEMA_VERSION:
        raise MemProfError(f"mem schema version {version!r} not supported")
    for field in ("peak_bytes", "current_bytes"):
        value = block.get(field)
        if not isinstance(value, int) or value < 0:
            raise MemProfError(f"mem block field {field!r} must be a non-negative int")
    rss = block.get("ru_maxrss_bytes")
    if rss is not None and (not isinstance(rss, int) or rss < 0):
        raise MemProfError("ru_maxrss_bytes must be a non-negative int or null")
    phases = block.get("phases")
    if not isinstance(phases, dict):
        raise MemProfError("mem block carries no phases dict")
    known = set(ALL_PHASES) | {"other"}
    for name, size in phases.items():
        if name not in known:
            raise MemProfError(f"unknown mem phase {name!r}")
        if not isinstance(size, int) or size < 0:
            raise MemProfError(f"mem phase {name!r} has a bad size")
    sites = block.get("top_sites")
    if not isinstance(sites, list):
        raise MemProfError("mem block carries no top_sites list")
    for site in sites:
        if not isinstance(site, dict) or not {"site", "phase", "bytes"} <= set(site):
            raise MemProfError(f"malformed allocation site: {site!r}")
    return block


def fmt_bytes(size: float | None) -> str:
    """Human-readable byte count (``None`` renders as ``n/a``)."""
    if size is None:
        return "n/a"
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{value:,.0f} B"
        value /= 1024.0
    return f"{value:,.1f} GiB"  # pragma: no cover - unreachable


def render_mem_table(block: dict[str, Any]) -> str:
    """Plain-text memory report for ``repro profile --mem``."""
    lines = [
        "memory attribution (tracemalloc, observed region only):",
        f"  peak heap    : {fmt_bytes(block['peak_bytes'])}",
        f"  live at end  : {fmt_bytes(block['current_bytes'])}",
        f"  process RSS  : {fmt_bytes(block.get('ru_maxrss_bytes'))} (lifetime peak, OS view)",
    ]
    phases = block.get("phases") or {}
    if phases:
        lines.append(f"  {'phase':>10}  {'live bytes':>12}    share")
        total = sum(phases.values()) or 1
        for name, size in sorted(phases.items(), key=lambda kv: kv[1], reverse=True):
            lines.append(f"  {name:>10}  {fmt_bytes(size):>12}  {size / total:6.1%}")
    sites = block.get("top_sites") or []
    if sites:
        lines.append(f"  top {len(sites)} allocation sites:")
        for site in sites:
            lines.append(
                f"    {fmt_bytes(site['bytes']):>12}  [{site['phase']}] {site['site']}"
            )
    return "\n".join(lines)


__all__ = [
    "DEFAULT_TOP_N",
    "MEM_SCHEMA_VERSION",
    "MemLedger",
    "MemProfError",
    "fmt_bytes",
    "render_mem_table",
    "validate_mem_block",
]

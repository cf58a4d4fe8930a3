"""Trace format and replay.

A trace is a time-ordered list of packet records.  During replay, packets
are injected at their trace timestamps even if source queueing occurs —
the paper's methodology for the PARSEC and HPC traces (Sec 7.2).  Traces
support time scaling, which is how the latency-vs-injection-scale sweeps
of Fig 13/15 are produced: compressing the timeline raises the offered
load without changing the communication structure.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

from repro.noc.flit import Packet


@dataclass(frozen=True, order=True)
class TraceRecord:
    """One packet of a trace."""

    cycle: int
    src: int
    dst: int
    length: int = 1
    msg_class: str = "data"
    priority: int = 0
    ordered: bool = True

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("cycle must be >= 0")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.src == self.dst:
            raise ValueError("src and dst must differ")


#: Sort key giving the order of ``TraceRecord.__lt__`` (all fields, in
#: declaration order) with the comparisons done in C.
_RECORD_ORDER = attrgetter(*(f.name for f in fields(TraceRecord) if f.compare))


@dataclass
class Trace:
    """An ordered collection of trace records."""

    records: list[TraceRecord] = field(default_factory=list)
    name: str = "trace"

    def __post_init__(self) -> None:
        self.records = sorted(self.records, key=_RECORD_ORDER)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def duration(self) -> int:
        """Last injection cycle + 1 (0 for an empty trace)."""
        return self.records[-1].cycle + 1 if self.records else 0

    @property
    def total_flits(self) -> int:
        return sum(r.length for r in self.records)

    def offered_load(self, n_nodes: int) -> float:
        """Average offered load in flits/cycle/node over the trace span."""
        if not self.records or n_nodes <= 0:
            return 0.0
        return self.total_flits / (self.duration * n_nodes)

    def scaled(self, time_scale: float) -> "Trace":
        """Compress (>1) or dilate (<1) the timeline by ``time_scale``.

        Scaling time by ``s`` multiplies the offered injection rate by
        ``s`` while preserving communication structure and ordering.
        """
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        records = [
            TraceRecord(
                int(r.cycle / time_scale),
                r.src,
                r.dst,
                r.length,
                r.msg_class,
                r.priority,
                r.ordered,
            )
            for r in self.records
        ]
        return Trace(records, name=f"{self.name}@x{time_scale:g}")

    # -- persistence (simple CSV; keeps examples self-contained) -----------
    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("cycle,src,dst,length,msg_class,priority,ordered\n")
            for r in self.records:
                fh.write(
                    f"{r.cycle},{r.src},{r.dst},{r.length},"
                    f"{r.msg_class},{r.priority},{int(r.ordered)}\n"
                )

    @classmethod
    def load(cls, path: str | Path, name: str | None = None) -> "Trace":
        path = Path(path)
        records: list[TraceRecord] = []
        with path.open("r", encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith("cycle,"):
                raise ValueError(f"{path} is not a trace file")
            for line in fh:
                cycle, src, dst, length, msg_class, priority, ordered = (
                    line.rstrip("\n").split(",")
                )
                records.append(
                    TraceRecord(
                        int(cycle),
                        int(src),
                        int(dst),
                        int(length),
                        msg_class,
                        int(priority),
                        bool(int(ordered)),
                    )
                )
        return cls(records, name=name or path.stem)


class TraceWorkload:
    """Replays a trace: packets appear exactly at their trace timestamps."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._cycles = [r.cycle for r in trace.records]
        self._pos = 0

    def step(self, now: int) -> Iterable[Packet]:
        pos = self._pos
        end = bisect.bisect_right(self._cycles, now, lo=pos)
        if end == pos:
            return []
        records = self.trace.records
        packets = [
            Packet(
                r.src,
                r.dst,
                r.length,
                r.cycle,
                ordered=r.ordered,
                priority=r.priority,
                msg_class=r.msg_class,
            )
            for r in records[pos:end]
        ]
        self._pos = end
        return packets

    def done(self, now: int) -> bool:
        return self._pos >= len(self.trace.records)

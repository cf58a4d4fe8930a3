"""Trace format and replay.

A trace is a time-ordered table of packet records.  During replay, packets
are injected at their trace timestamps even if source queueing occurs —
the paper's methodology for the PARSEC and HPC traces (Sec 7.2).  Traces
support time scaling, which is how the latency-vs-injection-scale sweeps
of Fig 13/15 are produced: compressing the timeline raises the offered
load without changing the communication structure.

The table is stored by column (one numpy array per field), so generating,
embedding, scaling and replaying a paper-scale trace are array operations;
:class:`TraceRecord` is the row view and the input for hand-written traces.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from itertools import starmap
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

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
            raise ValueError(f"cycle must be >= 0, got {self.cycle}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.src == self.dst:
            raise ValueError(f"src and dst must differ, both are {self.src}")


#: Column names in record (and sort-key) order, and their storage types;
#: ``msg_class`` holds codes into ``Trace.classes``.
_FIELDS = tuple(f.name for f in fields(TraceRecord))
_DTYPES = (np.int64, np.int32, np.int32, np.int32, np.uint8, np.int32, np.bool_)
_AS_ROW = attrgetter(*_FIELDS)


class Trace:
    """A packet trace stored by column, rows in ``sorted(TraceRecord)`` order.

    ``cycle`` (int64), ``src``, ``dst``, ``length``, ``priority`` (int32),
    ``ordered`` (bool) and ``msg_class`` (uint8 codes into ``classes``, the
    alphabetically sorted names in use, so code order is name order) are
    numpy arrays of equal length.  Treat them as read-only.
    """

    __hash__ = None  # mutable name, array-valued equality

    def __init__(self, records: Iterable[TraceRecord] = (), name: str = "trace") -> None:
        columns = list(zip(*map(_AS_ROW, records))) or [()] * len(_FIELDS)
        self._set(name, *columns)

    @classmethod
    def from_columns(
        cls,
        cycle: Sequence[int],
        src: Sequence[int],
        dst: Sequence[int],
        length: Sequence[int] | int = 1,
        msg_class: Sequence[str] | str = "data",
        priority: Sequence[int] | int = 0,
        ordered: Sequence[bool] | bool = True,
        *,
        name: str = "trace",
        where: Callable[[int], str] | None = None,
    ) -> "Trace":
        """Build a trace from one sequence (or one shared value) per field.

        Rows may come in any order.  The first row that breaks a
        :class:`TraceRecord` rule raises ``ValueError`` naming the trace and
        the row index (or ``where(row_index)``, e.g. a file and line).
        """
        trace = cls.__new__(cls)
        trace._set(name, cycle, src, dst, length, msg_class, priority, ordered, where=where)
        return trace

    def _set(
        self,
        name: str,
        *columns,
        classes: tuple[str, ...] | None = None,
        where: Callable[[int], str] | None = None,
    ) -> None:
        """Check the record rules, sort the rows into record order, keep them.

        ``msg_class`` is one name, a name per row, or (with ``classes``, a
        sorted name table) a code per row.
        """
        columns = list(columns)
        if classes is None:
            msg_class = columns[4]
            if isinstance(msg_class, str):
                classes, columns[4] = (msg_class,), 0
            else:
                names, columns[4] = np.unique(np.asarray(msg_class, str), return_inverse=True)
                classes = tuple(names.tolist())
        if len(classes) > 256:
            raise ValueError(f"trace {name!r} has {len(classes)} message classes (max 256)")
        n = len(columns[0])
        cycle, src, dst, length, codes, priority, ordered = (
            np.broadcast_to(np.asarray(column, dtype), (n,))
            for column, dtype in zip(columns, _DTYPES)
        )
        bad = (cycle < 0) | (length < 1) | (src == dst)
        if bad.any():
            row = int(bad.argmax())
            try:
                TraceRecord(int(cycle[row]), int(src[row]), int(dst[row]), int(length[row]))
            except ValueError as exc:
                at = where(row) if where else f"trace {name!r} row {row}"
                raise ValueError(f"{at}: {exc}") from None
        # Names no row uses are dropped, so equal rows mean equal columns.
        used = np.bincount(codes, minlength=len(classes)) > 0
        if not used.all():
            codes = (np.cumsum(used) - 1).astype(np.uint8)[codes]
            classes = tuple(c for c, keep in zip(classes, used) if keep)
        # lexsort's last key is the primary one: all fields, declaration order.
        order = np.lexsort((ordered, priority, codes, length, dst, src, cycle))
        self.name = name
        self.classes = classes
        self.cycle, self.src, self.dst = cycle[order], src[order], dst[order]
        self.length, self.msg_class = length[order], codes[order]
        self.priority, self.ordered = priority[order], ordered[order]

    def with_columns(self, name: str, *, keep: np.ndarray | None = None, **changed) -> "Trace":
        """A new trace with some columns replaced, keeping only rows where
        ``keep`` (a bool mask, applied after the replacement) is true."""
        if unknown := changed.keys() - set(_FIELDS):
            raise TypeError(f"unknown trace columns: {sorted(unknown)}")
        columns = [changed.get(f, getattr(self, f)) for f in _FIELDS]
        if keep is not None:
            columns = [np.asarray(c)[keep] for c in columns]
        trace = Trace.__new__(Trace)
        trace._set(name, *columns, classes=self.classes)
        return trace

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
        """Rows ``start:stop`` as tuples of Python values in field order."""
        part = slice(start, stop)
        names = self.classes
        return zip(
            self.cycle[part].tolist(),
            self.src[part].tolist(),
            self.dst[part].tolist(),
            self.length[part].tolist(),
            [names[code] for code in self.msg_class[part].tolist()],
            self.priority[part].tolist(),
            self.ordered[part].tolist(),
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        return starmap(TraceRecord, self.rows())

    @property
    def records(self) -> list[TraceRecord]:
        """The rows as records (a fresh list: the trace keeps no records)."""
        return list(self)

    def __len__(self) -> int:
        return len(self.cycle)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.name == other.name
            and self.classes == other.classes
            and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _FIELDS)
        )

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, records={len(self)}, duration={self.duration})"

    @property
    def duration(self) -> int:
        """Last injection cycle + 1 (0 for an empty trace)."""
        return int(self.cycle[-1]) + 1 if len(self) else 0

    @property
    def total_flits(self) -> int:
        return int(self.length.sum(dtype=np.int64))

    def offered_load(self, n_nodes: int) -> float:
        """Average offered load in flits/cycle/node over the trace span."""
        if not len(self) or n_nodes <= 0:
            return 0.0
        return self.total_flits / (self.duration * n_nodes)

    def scaled(self, time_scale: float) -> "Trace":
        """Compress (>1) or dilate (<1) the timeline by ``time_scale``.

        Scaling time by ``s`` multiplies the offered injection rate by
        ``s`` while preserving communication structure and ordering.
        """
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        return self.with_columns(
            f"{self.name}@x{time_scale:g}",
            cycle=(self.cycle / time_scale).astype(np.int64),  # truncates like int()
        )

    # -- persistence (simple CSV; keeps examples self-contained) -----------
    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(",".join(_FIELDS) + "\n")
            for *row, ordered in self.rows():
                fh.write(",".join(map(str, row)) + f",{int(ordered)}\n")

    @classmethod
    def load(cls, path: str | Path, name: str | None = None) -> "Trace":
        """Read a trace written by :meth:`save`; blank lines are skipped.

        A malformed line raises ``ValueError`` naming ``path:line`` and the
        offending field.
        """
        path = Path(path)
        columns: list[list] = [[] for _ in _FIELDS]
        line_of_row: list[int] = []
        with path.open("r", encoding="utf-8") as fh:
            if not fh.readline().startswith("cycle,"):
                raise ValueError(f"{path} is not a trace file")
            for line_no, line in enumerate(fh, start=2):
                if not line.strip():
                    continue  # e.g. the trailing newline of a hand-edited file
                parts = line.strip().split(",")
                if len(parts) != len(_FIELDS):
                    raise ValueError(
                        f"{path}:{line_no}: expected {len(_FIELDS)} fields "
                        f"({','.join(_FIELDS)}), got {len(parts)}"
                    )
                for column, field, text in zip(columns, _FIELDS, parts):
                    try:
                        column.append(text if field == "msg_class" else int(text))
                    except ValueError:
                        raise ValueError(
                            f"{path}:{line_no}: {field} must be an integer, got {text!r}"
                        ) from None
                line_of_row.append(line_no)
        return cls.from_columns(
            *columns,
            name=name or path.stem,
            where=lambda row: f"{path}:{line_of_row[row]}",
        )


class TraceWorkload:
    """Replays a trace: packets appear exactly at their trace timestamps.

    Only the rows of the cycle being injected are turned into Python
    objects; the workload holds no copy of the trace.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._pos = 0
        self._due = 0  # cycle of row ``_pos``: nothing to do before it

    def step(self, now: int) -> Iterable[Packet]:
        if now < self._due:
            return ()
        trace = self.trace
        end = int(trace.cycle.searchsorted(now, side="right"))
        packets = [
            Packet(src, dst, length, cycle, ordered=ordered, priority=priority, msg_class=msg_class)
            for cycle, src, dst, length, msg_class, priority, ordered in trace.rows(self._pos, end)
        ]
        self._pos = end
        self._due = int(trace.cycle[end]) if end < len(trace) else sys.maxsize
        return packets

    def done(self, now: int) -> bool:
        return self._pos >= len(self.trace)

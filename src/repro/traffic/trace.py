"""Trace format and replay.

A trace is a time-ordered table of packet records.  During replay, packets
are injected at their trace timestamps even if source queueing occurs —
the paper's methodology for the PARSEC and HPC traces (Sec 7.2).  Traces
support time scaling, which is how the latency-vs-injection-scale sweeps
of Fig 13/15 are produced: compressing the timeline raises the offered
load without changing the communication structure.

The table is stored by column (one :class:`array.array` per field), so a
paper-scale trace costs 26 bytes a row and generating, embedding, scaling
and replaying it are column passes in C; :class:`TraceRecord` is the row
view and the input for hand-written traces.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import reduce
from itertools import compress, repeat, starmap
from operator import and_, attrgetter, eq, lshift, or_, rshift
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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


#: Column names in record (and sort-key) order, and their ``array``
#: typecodes: int64 cycles, one byte for a ``msg_class`` code (into
#: ``Trace.classes``) or an ``ordered`` flag, C int (32 bits) for the rest.
_FIELDS = tuple(f.name for f in fields(TraceRecord))
_TYPECODES = ("q", "i", "i", "i", "B", "i", "B")
_AS_ROW = attrgetter(*_FIELDS)


class Trace:
    """A packet trace stored by column, rows in ``sorted(TraceRecord)`` order.

    ``cycle`` (typecode ``q``), ``src``, ``dst``, ``length``, ``priority``
    (``i``), ``ordered`` (``B``, 0 or 1) and ``msg_class`` (``B`` codes into
    ``classes``, the alphabetically sorted names in use, so code order is
    name order) are :class:`array.array` columns of equal length.  Treat
    them as read-only: derived traces share the columns they do not change.
    """

    __hash__ = None  # mutable name, column-valued equality

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
        """Check the record rules, then keep the rows in record order.

        ``msg_class`` is one name, a name per row, or (with ``classes``, a
        sorted name table) a code per row.
        """
        columns = list(columns)
        if classes is None:
            msg_class = columns[4]
            if isinstance(msg_class, str):
                classes, columns[4] = (msg_class,), 0
            else:
                classes = tuple(sorted(set(msg_class)))
                code = {c: i for i, c in enumerate(classes)}
                columns[4] = list(map(code.__getitem__, msg_class))
        if len(classes) > 256:
            raise ValueError(f"trace {name!r} has {len(classes)} message classes (max 256)")
        if not isinstance(columns[6], (int, array)):
            columns[6] = list(map(bool, columns[6]))  # any true value is stored as 1
        n = len(columns[0])
        columns = [
            _column(values, typecode, n, f"trace {name!r} column {field}")
            for values, typecode, field in zip(columns, _TYPECODES, _FIELDS)
        ]
        cycle, src, dst, length = columns[:4]
        if n and (min(cycle) < 0 or min(length) < 1 or any(map(eq, src, dst))):
            for row, values in enumerate(zip(cycle, src, dst, length)):
                try:
                    TraceRecord(*values)
                except ValueError as exc:
                    at = where(row) if where else f"trace {name!r} row {row}"
                    raise ValueError(f"{at}: {exc}") from None
        self._keep(name, classes, columns)

    def _keep(
        self, name: str, classes: tuple[str, ...], columns: list[array], in_order: bool = False
    ) -> None:
        """Keep columns whose rows obey the record rules, sorting them unless
        they are ``in_order`` already.  Names no row uses are dropped, so
        equal rows mean equal columns."""
        codes = columns[4]
        present = codes.tobytes()
        used = [code for code in range(len(classes)) if code in present]
        if len(used) < len(classes):
            renumber = dict(zip(used, range(len(used))))
            columns[4] = array("B", map(renumber.__getitem__, codes))
            classes = tuple(classes[code] for code in used)
        if not in_order:
            columns = _sort_rows(columns)
        self.name = name
        self.classes = classes
        (self.cycle, self.src, self.dst, self.length,
         self.msg_class, self.priority, self.ordered) = columns

    def with_columns(
        self, name: str, *, keep: Sequence[bool] | None = None, **changed
    ) -> "Trace":
        """A new trace with some columns replaced, keeping only rows where
        ``keep`` (a flag per row, applied after the replacement) is true.

        The result is checked against the record rules and re-sorted.
        """
        columns = self._columns(changed, keep)
        trace = Trace.__new__(Trace)
        trace._set(name, *columns, classes=self.classes)
        return trace

    def _derived(
        self,
        name: str,
        *,
        keep: Sequence[bool] | None = None,
        in_order: bool = False,
        **changed: array,
    ) -> "Trace":
        """:meth:`with_columns` for replacement columns (of the storage
        typecodes) that keep the record rules: nothing is checked, and the
        rows are sorted only if their order can have changed."""
        trace = Trace.__new__(Trace)
        trace._keep(name, self.classes, self._columns(changed, keep), in_order)
        return trace

    def _columns(self, changed: dict, keep: Sequence[bool] | None) -> list:
        if unknown := changed.keys() - set(_FIELDS):
            raise TypeError(f"unknown trace columns: {sorted(unknown)}")
        columns = [changed.get(f, getattr(self, f)) for f in _FIELDS]
        if keep is not None and not all(keep):
            columns = [array(t, compress(c, keep)) for c, t in zip(columns, _TYPECODES)]
        return columns

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
        """Rows ``start:stop`` as tuples of Python values in field order."""
        part = slice(start, stop)
        return zip(
            self.cycle[part],
            self.src[part],
            self.dst[part],
            self.length[part],
            map(self.classes.__getitem__, self.msg_class[part]),
            self.priority[part],
            map(bool, self.ordered[part]),
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
            and all(getattr(self, f) == getattr(other, f) for f in _FIELDS)
        )

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, records={len(self)}, duration={self.duration})"

    @property
    def duration(self) -> int:
        """Last injection cycle + 1 (0 for an empty trace)."""
        return self.cycle[-1] + 1 if len(self) else 0

    @property
    def total_flits(self) -> int:
        return sum(self.length)

    def offered_load(self, n_nodes: int) -> float:
        """Average offered load in flits/cycle/node over the trace span."""
        if not len(self) or n_nodes <= 0:
            return 0.0
        return self.total_flits / (self.duration * n_nodes)

    def scaled(self, time_scale: float) -> "Trace":
        """Compress (>1) or dilate (<1) the timeline by ``time_scale``.

        Scaling time by ``s`` multiplies the offered injection rate by
        ``s`` while preserving communication structure and ordering.  A
        cycle ``c`` becomes ``int(c / s)``, truncated.
        """
        if not (math.isfinite(time_scale) and time_scale > 0):
            raise ValueError(f"time_scale must be finite and > 0, got {time_scale!r}")
        last = self.cycle[-1] / time_scale if len(self) else 0.0
        if last >= 2**63:
            raise ValueError(
                f"time_scale {time_scale!r} moves cycle {self.cycle[-1]} of trace "
                f"{self.name!r} to {last:.3g}, past the int64 cycle column"
            )
        cycle = array("q")
        for value, count in _runs(self.cycle):  # one division per distinct cycle
            cycle += array("q", [int(value / time_scale)]) * count
        # s <= 1 puts distinct cycles at least 1 apart, so truncation keeps
        # them distinct and the rows keep their order (exactly while the
        # quotients stay below 2**52, where doubles still resolve halves).
        return self._derived(
            f"{self.name}@x{time_scale:g}", in_order=time_scale <= 1 and last < 2**52, cycle=cycle
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


def _column(values, typecode: str, n: int, what: str) -> array:
    """``values`` (a sequence, or one int for every row) as an ``n``-row
    column; an array of the right typecode is kept, not copied."""
    if isinstance(values, int):
        return array(typecode, [values]) * n
    if not (isinstance(values, array) and values.typecode == typecode):
        try:
            values = array(typecode, values)
        except OverflowError as exc:
            raise ValueError(f"{what}: {exc}") from None
    if len(values) != n:
        raise ValueError(f"{what} has {len(values)} rows, the cycle column {n}")
    return values


def _runs(column: array) -> Iterator[tuple[int, int]]:
    """``(value, count)`` of each run of equal values in a sorted column."""
    start, n = 0, len(column)
    while start < n:
        value = column[start]
        end = bisect_right(column, value, start)
        yield value, end - start
        start = end


# -- sorting rows -----------------------------------------------------------
_LITTLE_ENDIAN = sys.byteorder == "little"
#: ``bytes.translate`` tables: flip a byte's top bit; delete bytes below 0x80.
_FLIP_TOP_BIT = bytes(range(128, 256)) + bytes(range(128))
_BELOW_128 = bytes(range(128))
_MASK64 = (1 << 64) - 1


def _sort_rows(columns: list[array]) -> list[array]:
    """New columns holding the rows in ascending order, every field in
    declaration order part of the key.

    A row's key is its fields written one after another as a big-endian
    byte string: a constant field adds nothing, a field that holds a
    negative value all its bytes with the sign bit flipped, any other field
    only its significant bytes.  Cut into 64-bit words (one, for every
    trace this repository generates), the keys sort as integers, so the
    only per-row Python work is ``sorted``; building the keys and taking
    them apart again is byte slicing.
    """
    n = len(columns[0])
    layout = [_key_planes(column) for column in columns]
    planes = [plane for kept in layout for plane, _, _ in kept]
    if n < 2 or not planes:
        return columns
    places = [[(offset, flipped) for _, offset, flipped in kept] for kept in layout]
    del layout
    pad = -len(planes) % 8
    planes[:0] = [bytes(n)] * pad
    words = [_pack_words(planes[i:i + 8]) for i in range(0, len(planes), 8)]
    del planes
    keys = sorted(reduce(lambda high, low: map(or_, map(lshift, high, repeat(64)), low), words))
    shifts = range(64 * (len(words) - 1), -1, -64)
    words = [  # the sorted keys' words, most significant first
        array("Q", map(and_, map(rshift, keys, repeat(shift)), repeat(_MASK64)))
        if len(shifts) > 1 else array("Q", keys)
        for shift in shifts
    ]
    del keys
    planes = iter([plane for word in words for plane in _word_planes(word)][pad:])
    del words
    result = []
    for column, kept in zip(columns, places):
        if not kept:
            result.append(column[:1] * n)
            continue
        raw = bytearray(n * column.itemsize)
        for (offset, flipped), plane in zip(kept, planes):
            raw[offset::column.itemsize] = plane.translate(_FLIP_TOP_BIT) if flipped else plane
        result.append(array(column.typecode, raw))
    return result


def _key_planes(column: array) -> list[tuple[bytes, int, bool]]:
    """A column's share of the row key as byte planes (byte ``k`` of every
    item), most significant first: ``(plane, k, top bit flipped)``."""
    raw, size = column.tobytes(), column.itemsize
    if raw == raw[:size] * len(column):
        return []  # a constant column orders nothing
    offsets = range(size - 1, -1, -1) if _LITTLE_ENDIAN else range(size)
    kept = [(raw[offset::size], offset, False) for offset in offsets]
    top, offset, _ = kept[0]
    if column.typecode.islower() and top.translate(None, _BELOW_128):
        # Holds a negative value: offset binary keeps two's complement in order.
        kept[0] = (top.translate(_FLIP_TOP_BIT), offset, True)
        return kept
    while kept[0][0].count(0) == len(column):
        del kept[0]
    return kept


def _pack_words(planes: list[bytes]) -> array:
    """Eight byte planes, most significant first, as 64-bit integers."""
    buffer = bytearray(8 * len(planes[0]))
    for byte, plane in enumerate(planes):
        buffer[byte::8] = plane
    words = array("Q", buffer)
    if _LITTLE_ENDIAN:
        words.byteswap()
    return words


def _word_planes(words: array) -> list[bytes]:
    """The eight byte planes of 64-bit integers (byte-swapped in place),
    most significant first."""
    if _LITTLE_ENDIAN:
        words.byteswap()
    buffer = words.tobytes()
    return [buffer[byte::8] for byte in range(8)]


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
        end = bisect_right(trace.cycle, now, self._pos)
        packets = [
            Packet(src, dst, length, cycle, ordered=ordered, priority=priority, msg_class=msg_class)
            for cycle, src, dst, length, msg_class, priority, ordered in trace.rows(self._pos, end)
        ]
        self._pos = end
        self._due = trace.cycle[end] if end < len(trace) else sys.maxsize
        return packets

    def done(self, now: int) -> bool:
        return self._pos >= len(self.trace)

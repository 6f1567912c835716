"""Data ingestion, serialization, and the flat key-value configuration.

Trajectory CSV schema (one row per sample, SI units, 9 significant digits):

    vehicle_id,t,s,lane,lat,v,a_lon,a_lat,d_left,d_right

The marking-distance columns may be empty (aerial-style inputs).  Vehicle
shapes are not part of the trajectory schema; they travel in a companion
vehicles CSV (``vehicle_id,class,length,width``) or fall back to a
configured default.  ``ingest`` parses a clean trajectory file
column-wise with ``np.loadtxt`` in one streaming pass, a chunk of rows
per call, and any other file, a marked one with an empty marking among
them, row by row with ``csv.reader``, the only reader that names a
rejected row; it splits either parser's rows by vehicle, so both give
the same report.

Configuration files are ``key = value`` lines with ``#`` comments.  JSON
reports carry a top-level ``"schema": 1``.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields, is_dataclass, replace
from io import StringIO
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .criticality import METRIC_NAMES, CriticalityRecord, Thresholds, record_field
from .detection import (DEFAULT_DISTANCE_THRESHOLD, DEFAULT_MIN_EXTENT, Direction,
                        EventKind, LaneChangeEvent, PeakParams, check_distance_threshold)
from .mis import MISConfig
from .robustness import Perturbation, RobustnessReport
from .synth import DEFAULT_N, DEFAULT_TRUCK_FRACTION
from .trajectory import (CHANNELS, DEFAULT_CUTOFF, DEFAULT_RATE, MARKINGS, NUMBER, LaneLayout,
                         Trajectory, VehicleClass, VehicleShape, check_range, fmt)
from .wiedemann import SampledScenarioSet, ScenarioSpec, W99Params, check_dt

__all__ = [
    "TRAJECTORY_HEADER",
    "EVENT_HEADER",
    "IngestReport",
    "RunConfig",
    "fmt",
    "ingest",
    "write_trajectories",
    "write_vehicles",
    "read_vehicles",
    "write_events",
    "read_events",
    "write_robustness",
    "write_records",
    "write_thw_traces",
    "write_json",
    "parse_keyvalues",
    "field_types",
    "parse_fields",
    "key_error",
]

TRAJECTORY_HEADER = ["vehicle_id", *CHANNELS, *MARKINGS]
EVENT_HEADER = ["vehicle_id", "criterion", "t_start", "t_mid", "t_end",
                "duration", "direction", "v_mid", "lateral_extent", "kind"]
VEHICLE_HEADER = ["vehicle_id", "class", "length", "width"]
RECORD_HEADER = ["vehicle_id", "t_start", "t_end", "direction",
                 *map(record_field, METRIC_NAMES), *("flag_" + m for m in METRIC_NAMES)]


# --------------------------------------------------------------------------
# trajectories

@dataclass
class IngestReport:
    trajectories: list[Trajectory] = field(default_factory=list)
    rejected_rows: list[tuple[int, str]] = field(default_factory=list)
    rejected_vehicles: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _parse_float(text: str) -> float:
    return float(text) if text != "" else math.nan


def _data_rows(fh, path: str | Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each row after the header of the open CSV
    ``fh``; a first row other than ``header`` is a ValueError."""
    reader = csv.reader(fh)
    first = next(reader, None)
    if first != header:
        raise ValueError(f"malformed header in {path}: {first}")
    return enumerate(reader, start=2)


def _read_table(path: str | Path, header: list[str],
                parse: Callable[[list[str]], object], unique: bool = False) -> list:
    """``parse`` of each data row of the CSV at ``path``; a row without one
    field per column of ``header``, one ``parse`` refuses with a
    ValueError or else, with ``unique``, one whose first field an earlier
    row holds, is a ValueError naming the file and line (and the earlier)."""
    out = []
    line_of: dict[str, int] = {}
    with Path(path).open(newline="") as fh:
        for lineno, row in _data_rows(fh, path, header):
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                out.append(parse(row))
                if unique and line_of.setdefault(row[0], lineno) != lineno:
                    raise ValueError(f"{header[0]} {row[0]!r} already listed on line "
                                     f"{line_of[row[0]]}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


_HEADER_LINE = ",".join(TRAJECTORY_HEADER)
_LANE = CHANNELS.index("lane")  # its column in the rows of t..d_right
_BLOCK_CHARS = 1 << 14  # size hint of the line blocks the columnar parse reads
# Rows per array of the columnar parse, a few hundred kB.  One array of a
# whole large file, freed as ingest returns, leaves a heap hole that the
# next ingest's array may or may not fit in, so a long-lived process's peak
# memory would depend on what it ran before.
_CHUNK_ROWS = 1 << 13
# Characters with which csv.reader or float() may read a line otherwise
# than np.loadtxt does: a quote (csv.reader unquotes), a NUL (csv.reader
# refuses it before Python 3.11), and the separators U+001C..U+001F, which
# loadtxt strips around a number and float() refuses.
_UNSAFE = ('"', "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


class _Unclean(Exception):
    """Data the columnar parse cannot read exactly as csv.reader does."""


def _unmarked(text: str) -> int:
    """Lines of ``text`` that end in two empty fields."""
    return text.count(",,\n") + text.count(",,\r") + text.endswith(",,")


def _scan_lines(fh, block: list[str], unmarked: bool,
                runs: list[tuple[str, int]]) -> Iterator[list[str]]:
    """Blocks of data lines of an open trajectory CSV, ``block`` first.

    Lines come in blocks of about ``_BLOCK_CHARS`` characters, split where
    ``csv.reader`` splits them (``\n``, ``\r\n`` or ``\r``).  The runs of
    equal ``vehicle_id`` go to ``runs`` as ``(vehicle_id, first row)``.
    Raises ``_Unclean`` on a blank line (np.loadtxt skips it), on a block
    with a character of ``_UNSAFE`` or with other than nine commas per line
    (loadtxt drops extra columns) and, with ``unmarked``, on a block with a
    line whose two last fields are not both empty.  As loadtxt refuses a
    line with fewer fields than it reads, every line it returns had ten.
    """
    row = 0
    prefix = "\n,"  # starts no line: "\n" ends one
    while block:
        n = len(block)
        text = "".join(block)
        if (text.count(",") != (len(TRAJECTORY_HEADER) - 1) * n
                or any(c in text for c in _UNSAFE) or unmarked and _unmarked(text) != n):
            raise _Unclean
        # the block continues the run if its first line and every line
        # after a "\n" start with prefix ("\n" only ends a line)
        if not (block[0].startswith(prefix) and text.count("\n" + prefix) == n - 1):
            for i, line in enumerate(block):
                if not line.startswith(prefix):
                    end = line.find(",")
                    if end < 0:  # a blank line, which loadtxt skips
                        raise _Unclean
                    prefix = line[:end + 1]
                    runs.append((line[:end], row + i))
        row += n
        yield block
        block = fh.readlines(_BLOCK_CHARS)


def _parse_clean(fh) -> tuple[list[np.ndarray], list[tuple[str, int]]] | None:
    """Columns t..d_right of a clean file (see ``ingest``) as arrays of
    ``_CHUNK_ROWS`` rows (the last one shorter), plus its id runs; None
    for any other file.  When the first line has empty markings the
    arrays hold columns t..a_lat only.
    """
    if fh.readline().rstrip("\r\n") != _HEADER_LINE:
        return None
    block = fh.readlines(_BLOCK_CHARS)
    if not block:
        return None
    unmarked = _unmarked(block[0]) == 1
    columns = CHANNELS if unmarked else CHANNELS + MARKINGS
    runs: list[tuple[str, int]] = []
    lines = chain.from_iterable(_scan_lines(fh, block, unmarked, runs))
    chunks = []
    try:
        for first in lines:  # loadtxt reads no line past max_rows
            data = np.loadtxt(chain([first], lines), delimiter=",", max_rows=_CHUNK_ROWS,
                              usecols=range(1, 1 + len(columns)), comments=None, ndmin=2)
            lane = data[:, _LANE]
            if not (np.isfinite(data[:, :len(CHANNELS)]).all()
                    and (np.floor(lane) == lane).all()):
                return None
            chunks.append(data)
    except (_Unclean, ValueError):
        return None
    return chunks, runs


def ingest(path: str | Path,
           shapes: Mapping[str, VehicleShape] | None = None,
           default_shape: VehicleShape | None = None) -> IngestReport:
    """Read and validate a trajectory CSV.

    Rows with non-finite values or a non-integer lane are rejected and
    counted; vehicles with non-monotone time or fewer than two valid
    samples are rejected with a diagnostic.  A malformed header is a hard
    error.

    A clean file is parsed in one streaming pass by ``np.loadtxt``, a
    chunk of ``_CHUNK_ROWS`` rows per call.  Clean means no row would be
    rejected and no field is empty: the header is exact, no line is blank
    or holds a quote, every line has ten fields, the columns ``t``..``a_lat``
    are finite and every lane is integral; the one exception is a file
    whose first line has empty markings, where every line's must be
    empty.  Any other file goes through the row-by-row
    ``csv.reader`` parser, the only one that names a rejected row's line
    and reason.  Either parser's rows are then split by vehicle here, a
    vehicle's rows in file order even where other vehicles' rows
    interleave.  Both give the same report, bit for bit: loadtxt and
    ``float()`` both round correctly.
    """
    path = Path(path)
    default_shape = default_shape or VehicleShape()
    report = IngestReport()
    try:
        with path.open(newline="") as fh:
            parsed = _parse_clean(fh)
    except UnicodeDecodeError:  # the row parser raises it again
        parsed = None
    chunks, runs = parsed or _ingest_rows(path, report)
    if not runs:
        report.warnings.append(f"{path}: no data rows, empty corpus")
    firsts = [0, *accumulate(len(c) for c in chunks)]  # each chunk's first row, then the end
    spans: dict[str, list[tuple[int, int]]] = {}
    ends = [start for _, start in runs[1:]] + [firsts[-1]]
    for (vid, start), end in zip(runs, ends):
        spans.setdefault(vid, []).append((start, end))
    for vid, parts in spans.items():
        rows = np.concatenate([piece for a, b in parts for piece in _rows(chunks, firsts, a, b)])
        _add_vehicle(report, vid, rows, shapes, default_shape)
    return report


def _rows(chunks: list[np.ndarray], firsts: list[int], a: int, b: int) -> Iterator[np.ndarray]:
    """Rows ``a`` to ``b`` of the concatenated ``chunks``, a view of each chunk they span."""
    i = bisect_right(firsts, a) - 1
    while a < b:
        end = min(b, firsts[i + 1])
        yield chunks[i][a - firsts[i]:end - firsts[i]]
        a, i = end, i + 1


def _ingest_rows(path: Path,
                 report: IngestReport) -> tuple[list[np.ndarray], list[tuple[str, int]]]:
    """Columns t..d_right of the accepted rows of the file at ``path``, in
    one array, and their id runs, as ``_parse_clean`` gives them, read row
    by row with ``csv.reader``; each rejected row goes to ``report`` with
    its reason."""
    rows: list[list[float]] = []
    runs: list[tuple[str, int]] = []
    with path.open(newline="") as fh:
        for lineno, row in _data_rows(fh, path, TRAJECTORY_HEADER):
            if len(row) != len(TRAJECTORY_HEADER):
                report.rejected_rows.append((lineno, "wrong column count"))
                continue
            vid = row[0]
            try:
                values = [_parse_float(c) for c in row[1:]]
            except ValueError:
                report.rejected_rows.append((lineno, "unparseable number"))
                continue
            # the CHANNELS must be finite; the MARKINGS may be empty
            if not all(math.isfinite(v) for v in values[:len(CHANNELS)]):
                report.rejected_rows.append((lineno, "non-finite value"))
                continue
            if not values[_LANE].is_integer():
                report.rejected_rows.append((lineno, "non-integer lane"))
                continue
            if not runs or runs[-1][0] != vid:
                runs.append((vid, len(rows)))
            rows.append(values)
    return [np.array(rows, dtype=float).reshape(-1, len(CHANNELS + MARKINGS))], runs


def _add_vehicle(report: IngestReport, vid: str, rows: np.ndarray,
                 shapes: Mapping[str, VehicleShape] | None,
                 default_shape: VehicleShape) -> None:
    """Append the vehicle of ``rows`` or its rejection.

    ``rows`` holds the columns ``CHANNELS`` and ``MARKINGS``, or the
    ``CHANNELS`` only for a vehicle without markings; the markings count
    only where they are all finite.
    """
    columns = dict(zip(CHANNELS + MARKINGS, rows.T))
    t = columns["t"]
    if np.any(np.diff(t) <= 0.0):
        report.rejected_vehicles.append((vid, "non-monotone time"))
        return
    if len(t) < 2:
        report.rejected_vehicles.append((vid, "fewer than 2 samples"))
        return
    if not np.isfinite(rows[:, len(CHANNELS):]).all():
        columns.update(dict.fromkeys(MARKINGS))
    report.trajectories.append(Trajectory(
        vehicle_id=vid, shape=(shapes or {}).get(vid, default_shape),
        rate=1.0 / float(np.median(np.diff(t))), **columns))


def write_trajectories(path: str | Path, trajectories: Iterable[Trajectory]) -> None:
    """One ``csv.writer`` line per sample, written one vehicle at a time.

    A vehicle whose channels hold no NaN is one ``%`` call per row on a row
    template: its quoted id, then ``NUMBER`` per number, ``%d`` for the lane
    and an empty field for a missing marking.  ``fmt`` writes NaN as an
    empty field where ``%`` would write ``nan``, so a vehicle with a NaN
    anywhere is written with ``fmt`` per value."""
    with Path(path).open("w", newline="") as fh:
        fh.write(_HEADER_LINE + "\r\n")
        for traj in trajectories:
            vid = _csv_field(traj.vehicle_id)
            columns = [getattr(traj, name) for name in CHANNELS + MARKINGS]
            if any(np.isnan(c).any() for c in columns if c is not None):
                rows = zip(repeat(vid), *(
                    map(str, c.tolist()) if c is traj.lane else _fmt_column(c) for c in columns))
                lines = map(",".join, rows)
            else:
                template = ",".join([_escape(vid), *(
                    "" if c is None else "%d" if c is traj.lane else NUMBER for c in columns)])
                lines = map(template.__mod__, zip(*(c.tolist() for c in columns if c is not None)))
            fh.write("\r\n".join(lines) + "\r\n")  # a track has 2+ samples


def _fmt_column(values: np.ndarray | None) -> Iterable[str]:
    """``fmt`` of every element; endless empty fields for a missing channel."""
    return repeat("") if values is None else [fmt(x) for x in values.tolist()]


def _escape(text: str) -> str:
    """``text`` as a ``%`` template writes it."""
    return text.replace("%", "%%")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one of several fields: quoted,
    its quotes doubled, if it holds a comma, a quote or a line break."""
    buf = StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]  # less the empty field's ",\r\n"


def write_vehicles(path: str | Path, trajectories: Iterable[Trajectory]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(VEHICLE_HEADER)
        for traj in trajectories:
            writer.writerow([traj.vehicle_id, traj.shape.vclass.value,
                             fmt(traj.shape.length), fmt(traj.shape.width)])


def read_vehicles(path: str | Path) -> dict[str, VehicleShape]:
    """The shape of each vehicle of the vehicles CSV at ``path``; a vehicle
    listed twice is a ValueError naming the file and both lines."""

    def shape(row: list[str]) -> tuple[str, VehicleShape]:
        return row[0], VehicleShape(length=float(row[2]), width=float(row[3]),
                                    vclass=VehicleClass(row[1]))

    return dict(_read_table(path, VEHICLE_HEADER, shape, unique=True))


# --------------------------------------------------------------------------
# events

def write_events(path: str | Path, events: Iterable[LaneChangeEvent]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_HEADER)
        for e in events:
            writer.writerow([
                e.vehicle_id, e.criterion,
                fmt(e.t_start), fmt(e.t_mid), fmt(e.t_end), fmt(e.duration),
                e.direction.value, fmt(e.v_mid), fmt(e.lateral_extent),
                e.kind.value,
            ])


def _finite_event_field(row: list[str], i: int, missing: bool = False) -> float:
    """Field ``i`` of an events row, finite or, with ``missing``, empty or nan."""
    x = _parse_float(row[i]) if missing else float(row[i])
    if math.isinf(x) or math.isnan(x) and not missing:
        expected = "a finite number, empty or nan" if missing else "a finite number"
        raise ValueError(f"{EVENT_HEADER[i]}: expected {expected}, got {row[i]!r}")
    return x


def _event(row: list[str]) -> LaneChangeEvent:
    """The event of an events row.  ``t_end >= t_start`` and ``duration >=
    0``; ``t_mid`` may lie outside the window (a gradient event puts it at
    the marking jump)."""
    event = LaneChangeEvent(
        vehicle_id=row[0],
        criterion=row[1],
        t_start=_finite_event_field(row, 2),
        t_mid=_finite_event_field(row, 3),
        t_end=_finite_event_field(row, 4),
        duration=_finite_event_field(row, 5),
        direction=Direction(row[6]),
        v_mid=_finite_event_field(row, 7, missing=True),
        lateral_extent=_finite_event_field(row, 8),
        kind=EventKind(row[9]),
    )
    if event.t_end < event.t_start:
        raise ValueError(f"t_end: expected at least t_start {row[2]}, got {row[4]!r}")
    if event.duration < 0.0:
        raise ValueError(f"duration: expected a number >= 0, got {row[5]!r}")
    return event


def read_events(path: str | Path) -> list[LaneChangeEvent]:
    return _read_table(path, EVENT_HEADER, _event)


# --------------------------------------------------------------------------
# reports

def write_robustness(csv_path: str | Path, json_path: str | Path,
                     report: RobustnessReport) -> None:
    with Path(csv_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["criterion", "kind", "magnitude", "detected", "truth", "ratio"])
        for p in report.points:
            writer.writerow([p.criterion, p.kind, fmt(p.magnitude),
                             p.detected, p.truth, fmt(p.ratio)])
    series = []
    seen = sorted({(p.criterion, p.kind) for p in report.points})
    for criterion, kind in seen:
        x, y = report.series(criterion, kind)
        series.append({"criterion": criterion, "kind": kind,
                       "x": x.tolist(), "y": y.tolist()})
    write_json(json_path, {"series": series})


def write_records(path: str | Path, records: Iterable[CriticalityRecord]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_HEADER)
        for r in records:
            writer.writerow([
                r.vehicle_id, fmt(r.t_start), fmt(r.t_end), r.direction,
                *(fmt(r.value(m)) for m in METRIC_NAMES),
                *(int(r.flags[m]) for m in METRIC_NAMES),
            ])


def write_thw_traces(path: str | Path, result: SampledScenarioSet) -> None:
    """One line per (cc1, opponent, t): scenarios in run order, opponents
    sorted by id, ``thw`` empty where that opponent is not the leader.
    Each (scenario, opponent) block is one write.  A block whose trace is
    all NaN, an opponent that never leads, is one ``str.join`` over the
    shared ``t`` column, as its lines differ only there; in any other block
    a line with a THW is one ``%`` call on the block's line template, and a
    line without one (``fmt`` of NaN, an empty field) the t text and the
    block's fixed fields."""
    t_col = [fmt(tk) for tk in result.t.tolist()]
    t_cells = t_col + [""]  # joined, the t column with a separator after each
    with Path(path).open("w", newline="") as fh:
        fh.write("t,opponent_id,thw,cc1\r\n")
        for sc in result.scenarios:
            tail = f",{fmt(sc.cc1)}\r\n"
            for opp_id, trace in sorted(sc.thw_traces.items()):
                mid = f",{_csv_field(opp_id)},"
                if np.isnan(trace).all():
                    fh.write((mid + tail).join(t_cells))
                else:
                    line = "%s" + _escape(mid) + NUMBER + tail
                    fh.write("".join([t + mid + tail if x != x else line % (t, x)
                                      for t, x in zip(t_col, trace.tolist())]))


def write_json(path: str | Path, payload: dict) -> None:
    """Schema-versioned JSON for byte-reproducible reports.

    The bytes are those of ``json.dump(..., indent=1, sort_keys=True)``
    plus a final newline: keys sorted, one space of indent per level,
    strings ASCII with ``\\uXXXX`` escapes, a float as ``float.__repr__``
    writes it and a non-finite one as ``null``.  A dataclass instance is
    written as the object of its fields.  Keys must be ``str``; a value
    other than a dict, list, tuple, str, int, float, bool, None or
    dataclass instance is a TypeError.
    """
    body = {"schema": 1}
    body.update(payload)
    out: list[str] = []
    _json_text(body, "\n", out)
    out.append("\n")
    with Path(path).open("w") as fh:
        fh.write("".join(out))


_json_str = json.encoder.encode_basestring_ascii


def _flat_texts(items: list | tuple) -> list[str] | None:
    """The JSON texts of ``items`` if it holds only finite ``float`` or only
    ``str`` objects, as the time series of a report do; else None."""
    kinds = set(map(type, items))
    if kinds == {float}:
        return list(map(float.__repr__, items)) if all(map(math.isfinite, items)) else None
    if kinds == {str}:
        return list(map(_json_str, items))
    return None


def _json_text(obj, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``newline`` is the line
    break and indent that close ``obj`` when it is a container.  A list of
    finite floats or of strings is one ``join`` (``_flat_texts``); any
    other list goes item by item."""
    if isinstance(obj, (list, tuple, dict)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        if not obj:
            out.append(brackets)
            return
        inner = newline + " "
        sep = "," + inner
        texts = None if isinstance(obj, dict) else _flat_texts(obj)
        if texts is not None:
            out.append("[" + inner + sep.join(texts) + newline + "]")
            return
        first = len(out)
        if isinstance(obj, dict):
            for key in sorted(obj):
                out.append(sep + _json_str(key) + ": ")
                _json_text(obj[key], inner, out)
        else:
            for item in obj:
                if isinstance(item, float):
                    out.append(sep + (float.__repr__(item) if math.isfinite(item) else "null"))
                elif isinstance(item, str):
                    out.append(sep + _json_str(item))
                else:
                    out.append(sep)
                    _json_text(item, inner, out)
        out[first] = brackets[0] + out[first][1:]
        out.append(newline + brackets[1])
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif is_dataclass(obj) and not isinstance(obj, type):
        _json_text({f.name: getattr(obj, f.name) for f in fields(obj)}, newline, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# --------------------------------------------------------------------------
# configuration

def parse_keyvalues(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` file with ``#`` comments; a key set twice is a
    ValueError."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in line_of:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        out[key] = value
    return out


def field_types(obj) -> dict[str, type]:
    """The type of each field of dataclass ``obj`` that holds a bool, int,
    float or tuple in ``obj``: the fields a key-value file can set."""
    kinds = {f.name: type(getattr(obj, f.name)) for f in fields(obj)}
    return {name: kind for name, kind in kinds.items() if kind in (bool, int, float, tuple)}


def parse_fields(raw: Mapping[str, str], types: Mapping[str, type], what: str,
                 source: str | Path | None = None) -> dict:
    """``raw`` with each value parsed as the type ``types`` gives its key; a
    ValueError names an unknown key or a bad value as ``what`` in ``source``."""
    where = f"{source}: " if source is not None else ""
    out = {}
    for key, text in raw.items():
        if key not in types:
            raise ValueError(f"{where}unknown {what} {key!r}")
        out[key] = _coerce(text, types[key], f"{where}{what} {key!r}")
    return out


def key_error(exc: ValueError, keys: Mapping[str, str]) -> ValueError:
    """``exc`` naming the key ``keys`` gives for the field name that opens
    its message, as ``check_range`` writes one; else ``exc`` as it is."""
    name, sep, rest = str(exc).partition(" ")
    return ValueError(keys[name] + sep + rest) if name in keys else exc


_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
             **dict.fromkeys(("false", "0", "no", "off"), False)}


def _coerce(text: str, kind: type, name: str):
    """``text`` as a ``kind``: a bool is spelt as in ``_BOOLEANS``, in any
    case, and a tuple is a comma list of floats."""
    try:
        if kind is bool:
            return _BOOLEANS[text.lower()]
        if kind is tuple:
            return tuple(float(part) for part in text.split(",") if part.strip() != "")
        return kind(text)
    except (KeyError, ValueError):
        expected = {bool: "boolean", tuple: "comma list of floats"}.get(kind, kind.__name__)
        raise ValueError(f"{name}: expected {expected}, got {text!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """All tunables of the pipeline, SI units throughout.

    The sections ``layout``, ``peak``, ``thresholds``, ``w99`` (the model
    of ``sample``), ``mis`` and ``default_shape`` (the shape of a vehicle no
    vehicles file names) are the library's parameter dataclasses with their
    own defaults and checks; the other fields are the pipeline's settings.
    Every number of a section or setting must be finite; ``__post_init__``
    checks the settings' ranges, each error naming the key.  A config
    key is the name of a field that ``field_types`` lists: a setting's, or a
    section field's after the section's prefix in ``_SECTIONS``.
    """

    layout: LaneLayout = field(default_factory=LaneLayout)
    peak: PeakParams = field(default_factory=PeakParams)
    thresholds: Thresholds = field(default_factory=Thresholds)
    w99: W99Params = field(default_factory=W99Params)
    mis: MISConfig = field(default_factory=MISConfig)
    default_shape: VehicleShape = field(default_factory=VehicleShape)
    # preprocessing
    resample_rate: float = DEFAULT_RATE  # [Hz]
    lowpass_cutoff: float = DEFAULT_CUTOFF  # [Hz]
    # detection
    distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD  # [m]
    min_lateral_extent: float = DEFAULT_MIN_EXTENT  # [m]
    # robustness sweep
    bias_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)  # [m]
    brownian_grid: tuple[float, ...] = (0.0, 0.005, 0.01, 0.02, 0.05)  # [m/sqrt(resampled step)]
    # car following
    sim_dt: float = ScenarioSpec.dt  # [s]
    # synthetic corpus / misc
    synth_n: int = DEFAULT_N
    truck_fraction: float = DEFAULT_TRUCK_FRACTION
    marking_tolerance: float = 0.05  # [m] d_left + d_right consistency check
    seed: int = 0

    def __post_init__(self) -> None:
        check_range(self)
        check_range(self, "resample_rate", "lowpass_cutoff", positive=True)
        check_range(self, "min_lateral_extent", "marking_tolerance", "synth_n", low=0.0)
        check_distance_threshold("distance_threshold", self.distance_threshold, self.layout)
        check_dt("sim_dt", self.sim_dt)
        if not 0.0 <= self.truck_fraction <= 1.0:
            raise ValueError("truck_fraction must be in [0, 1]")
        for name, kind in (("bias_grid", "bias"), ("brownian_grid", "brownian")):
            for magnitude in getattr(self, name):
                try:
                    Perturbation(kind, magnitude)
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(parse_keyvalues(path))

    @classmethod
    def from_dict(cls, raw: Mapping[str, str]) -> "RunConfig":
        """The config ``raw`` sets; each section's own checks and the
        settings' range checks run on it."""
        cfg, raw, sections = cls(), dict(raw), {}
        for section, prefix in _SECTIONS.items():
            default = getattr(cfg, section)
            kinds = {prefix + name: kind for name, kind in field_types(default).items()}
            values = parse_fields({k: raw.pop(k) for k in kinds if k in raw}, kinds, "config key")
            if values:
                changes = {k[len(prefix):]: value for k, value in values.items()}
                try:
                    sections[section] = replace(default, **changes)
                except ValueError as exc:
                    raise key_error(exc, {name: prefix + name for name in changes}) from None
        return replace(cfg, **parse_fields(raw, field_types(cfg), "config key"), **sections)


# RunConfig section -> prefix of its config keys
_SECTIONS = {"layout": "", "thresholds": "", "w99": "", "peak": "", "mis": "mis_",
             "default_shape": "vehicle_"}

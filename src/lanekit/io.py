"""Data ingestion, serialization, and the flat key-value configuration.

Trajectory CSV schema (one row per sample, SI units, 9 significant digits):

    vehicle_id,t,s,lane,lat,v,a_lon,a_lat,d_left,d_right

The marking-distance columns may be empty (aerial-style inputs).  Vehicle
shapes are not part of the trajectory schema; they travel in a companion
vehicles CSV (``vehicle_id,class,length,width``) or fall back to a
configured default.  ``ingest`` parses a clean trajectory file
column-wise with ``np.loadtxt`` in one streaming pass and any other file
row by row with ``csv.reader``, the only reader that names a rejected row;
both give the same report.

Configuration files are ``key = value`` lines with ``#`` comments.  JSON
reports carry a top-level ``"schema": 1``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .criticality import METRIC_NAMES, CriticalityRecord, Thresholds, record_field
from .detection import (DEFAULT_DISTANCE_THRESHOLD, DEFAULT_MIN_EXTENT, Direction,
                        EventKind, LaneChangeEvent, PeakParams)
from .mis import MISConfig
from .robustness import RobustnessReport
from .synth import DEFAULT_N, DEFAULT_TRUCK_FRACTION
from .trajectory import DEFAULT_CUTOFF, LaneLayout, Trajectory, VehicleClass, VehicleShape
from .wiedemann import ScenarioSpec, W99Params

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
    "write_json",
    "parse_keyvalues",
    "field_types",
    "parse_fields",
]

TRAJECTORY_HEADER = ["vehicle_id", "t", "s", "lane", "lat", "v",
                     "a_lon", "a_lat", "d_left", "d_right"]
EVENT_HEADER = ["vehicle_id", "criterion", "t_start", "t_mid", "t_end",
                "duration", "direction", "v_mid", "lateral_extent", "kind"]
VEHICLE_HEADER = ["vehicle_id", "class", "length", "width"]
RECORD_HEADER = ["vehicle_id", "t_start", "t_end", "direction",
                 *map(record_field, METRIC_NAMES), *("flag_" + m for m in METRIC_NAMES)]


def fmt(x: float) -> str:
    """Decimal serialization at 9 significant digits; empty for nan."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.9g}"


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


_HEADER_LINE = ",".join(TRAJECTORY_HEADER)
_BLOCK_CHARS = 1 << 14  # size hint of the line blocks the columnar parse reads
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


def _nan_markings(line: str) -> str:
    """``line`` with ``nan`` in its empty ``d_left`` and ``d_right`` fields;
    a line without ten fields is left for np.loadtxt to refuse."""
    body = line.rstrip("\r\n")
    if body.count(",") != 9:
        return line
    head, d_left, d_right = body.rsplit(",", 2)
    return f"{head},{d_left or 'nan'},{d_right or 'nan'}{line[len(body):]}"


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
    Without ``unmarked``, empty ``d_left`` and ``d_right`` fields are
    returned as ``nan``, which loadtxt reads as ``_parse_float`` reads "".
    """
    row = 0
    prefix = "\n,"  # starts no line: "\n" ends one
    while block:
        n = len(block)
        text = "".join(block)
        if (text.count(",") != 9 * n or any(c in text for c in _UNSAFE)
                or unmarked and _unmarked(text) != n):
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
        if not unmarked and (",," in text or ",\n" in text or ",\r" in text
                             or text.endswith(",")):
            block = [_nan_markings(line) for line in block]
        yield block
        block = fh.readlines(_BLOCK_CHARS)


def _parse_clean(fh) -> tuple[np.ndarray, list[tuple[str, int]]] | None:
    """Columns t..d_right of a clean file (see ``ingest``) as one array,
    plus its id runs; None for any other file.  When the first line has
    empty markings the array holds columns t..a_lat only.
    """
    if fh.readline().rstrip("\r\n") != _HEADER_LINE:
        return None
    block = fh.readlines(_BLOCK_CHARS)
    if not block:
        return None
    unmarked = _unmarked(block[0]) == 1
    runs: list[tuple[str, int]] = []
    lines = chain.from_iterable(_scan_lines(fh, block, unmarked, runs))
    try:
        data = np.loadtxt(lines, delimiter=",", usecols=range(1, 8 if unmarked else 10),
                          comments=None, ndmin=2)
    except (_Unclean, ValueError):
        return None
    if not (np.isfinite(data[:, :7]).all() and (np.floor(data[:, 2]) == data[:, 2]).all()):
        return None
    return data, runs


def ingest(path: str | Path,
           shapes: Mapping[str, VehicleShape] | None = None,
           default_shape: VehicleShape | None = None) -> IngestReport:
    """Read and validate a trajectory CSV.

    Rows with non-finite values or a non-integer lane are rejected and
    counted; vehicles with non-monotone time or fewer than two valid
    samples are rejected with a diagnostic.  A malformed header is a hard
    error.

    A clean file is parsed in one streaming pass by ``np.loadtxt`` and its
    rows are then split by vehicle, a vehicle's rows in file order even
    where other vehicles' rows interleave.  Clean means no row would be
    rejected: the header is exact, no line is blank or holds a quote,
    every line has ten fields, the columns ``t``..``a_lat`` are finite and
    every lane is integral; when the first line's markings are empty, so
    are every line's.  Any other file goes through the row-by-row ``csv.reader``
    parser, the only one that names a rejected row's line and reason.
    Both give the same report, bit for bit: loadtxt and ``float()`` both
    round correctly.
    """
    path = Path(path)
    default_shape = default_shape or VehicleShape()
    try:
        with path.open(newline="") as fh:
            parsed = _parse_clean(fh)
    except UnicodeDecodeError:  # the row parser raises it again
        parsed = None
    if parsed is None:
        return _ingest_rows(path, shapes, default_shape)
    data, runs = parsed
    spans: dict[str, list[tuple[int, int]]] = {}
    ends = [start for _, start in runs[1:]] + [len(data)]
    for (vid, start), end in zip(runs, ends):
        spans.setdefault(vid, []).append((start, end))
    report = IngestReport()
    for vid, parts in spans.items():
        rows = np.concatenate([data[a:b] for a, b in parts])
        _add_vehicle(report, vid, rows, shapes, default_shape)
    return report


def _ingest_rows(path: Path, shapes: Mapping[str, VehicleShape] | None,
                 default_shape: VehicleShape) -> IngestReport:
    """``ingest`` row by row with ``csv.reader``, naming every rejected row."""
    report = IngestReport()
    per_vehicle: dict[str, list[list[float]]] = {}
    order: list[str] = []

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"malformed header in {path}: {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(TRAJECTORY_HEADER):
                report.rejected_rows.append((lineno, "wrong column count"))
                continue
            vid = row[0]
            try:
                values = [_parse_float(c) for c in row[1:]]
            except ValueError:
                report.rejected_rows.append((lineno, "unparseable number"))
                continue
            # t,s,lane,lat,v,a_lon,a_lat must be finite; markings may be empty
            if not all(math.isfinite(v) for v in values[:7]):
                report.rejected_rows.append((lineno, "non-finite value"))
                continue
            if not values[2].is_integer():
                report.rejected_rows.append((lineno, "non-integer lane"))
                continue
            if vid not in per_vehicle:
                per_vehicle[vid] = []
                order.append(vid)
            per_vehicle[vid].append(values)

    if not per_vehicle:
        report.warnings.append(f"{path}: no data rows, empty corpus")
        return report

    for vid in order:
        _add_vehicle(report, vid, np.array(per_vehicle[vid], dtype=float),
                     shapes, default_shape)
    return report


def _add_vehicle(report: IngestReport, vid: str, rows: np.ndarray,
                 shapes: Mapping[str, VehicleShape] | None,
                 default_shape: VehicleShape) -> None:
    """Append the vehicle of ``rows`` or its rejection.

    ``rows`` holds columns t..d_right, or t..a_lat for a vehicle without
    markings.
    """
    t = rows[:, 0]
    if np.any(np.diff(t) <= 0.0):
        report.rejected_vehicles.append((vid, "non-monotone time"))
        return
    if len(t) < 2:
        report.rejected_vehicles.append((vid, "fewer than 2 samples"))
        return
    shape = (shapes or {}).get(vid, default_shape)
    has_marks = rows.shape[1] == 9 and bool(np.all(np.isfinite(rows[:, 7]))
                                             and np.all(np.isfinite(rows[:, 8])))
    dt = np.median(np.diff(t))
    report.trajectories.append(Trajectory(
        vehicle_id=vid,
        shape=shape,
        t=t,
        s=rows[:, 1],
        lane=rows[:, 2].astype(int),
        lat=rows[:, 3],
        v=rows[:, 4],
        a_lon=rows[:, 5],
        a_lat=rows[:, 6],
        rate=1.0 / float(dt),
        d_left=rows[:, 7] if has_marks else None,
        d_right=rows[:, 8] if has_marks else None,
    ))


def write_trajectories(path: str | Path, trajectories: Iterable[Trajectory]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_HEADER)
        for traj in trajectories:
            writer.writerows(zip(
                repeat(traj.vehicle_id), _fmt_column(traj.t), _fmt_column(traj.s),
                traj.lane.tolist(), _fmt_column(traj.lat), _fmt_column(traj.v),
                _fmt_column(traj.a_lon), _fmt_column(traj.a_lat),
                _fmt_column(traj.d_left), _fmt_column(traj.d_right)))


def _fmt_column(values: np.ndarray | None) -> Iterable[str]:
    """``fmt`` of every element; endless empty fields for a missing channel."""
    return repeat("") if values is None else [fmt(x) for x in values.tolist()]


def write_vehicles(path: str | Path, trajectories: Iterable[Trajectory]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(VEHICLE_HEADER)
        for traj in trajectories:
            writer.writerow([traj.vehicle_id, traj.shape.vclass.value,
                             fmt(traj.shape.length), fmt(traj.shape.width)])


def read_vehicles(path: str | Path) -> dict[str, VehicleShape]:
    shapes: dict[str, VehicleShape] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != VEHICLE_HEADER:
            raise ValueError(f"malformed header in {path}: {header}")
        for row in reader:
            shapes[row[0]] = VehicleShape(length=float(row[2]), width=float(row[3]),
                                          vclass=VehicleClass(row[1]))
    return shapes


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


def read_events(path: str | Path) -> list[LaneChangeEvent]:
    events: list[LaneChangeEvent] = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != EVENT_HEADER:
            raise ValueError(f"malformed header in {path}: {header}")
        for row in reader:
            events.append(LaneChangeEvent(
                vehicle_id=row[0],
                criterion=row[1],
                t_start=float(row[2]),
                t_mid=float(row[3]),
                t_end=float(row[4]),
                duration=float(row[5]),
                direction=Direction(row[6]),
                v_mid=_parse_float(row[7]),
                lateral_extent=float(row[8]),
                kind=EventKind(row[9]),
            ))
    return events


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


def _json_safe(obj):
    """Replace non-finite floats with null; JSON has no nan/inf tokens."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def write_json(path: str | Path, payload: dict) -> None:
    """Schema-versioned, key-sorted JSON for byte-reproducible reports."""
    body = {"schema": 1}
    body.update(payload)
    with Path(path).open("w") as fh:
        json.dump(_json_safe(body), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


# --------------------------------------------------------------------------
# configuration

def parse_keyvalues(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` file with ``#`` comments."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
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
    own defaults; the other fields are the pipeline's settings.  A config
    key is a field's name; ``_SECTIONS`` gives the section fields a key can
    set and the prefix of their keys.
    """

    layout: LaneLayout = field(default_factory=LaneLayout)
    peak: PeakParams = field(default_factory=PeakParams)
    thresholds: Thresholds = field(default_factory=Thresholds)
    w99: W99Params = field(default_factory=W99Params)
    mis: MISConfig = field(default_factory=MISConfig)
    default_shape: VehicleShape = field(default_factory=VehicleShape)
    # preprocessing
    resample_rate: float = 5.0  # [Hz]
    lowpass_cutoff: float = DEFAULT_CUTOFF  # [Hz]
    lowpass_aerial: bool = True  # also filter marking-free (aerial) inputs
    # detection
    distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD  # [m]
    min_lateral_extent: float = DEFAULT_MIN_EXTENT  # [m]
    # robustness sweep
    bias_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)  # [m]
    brownian_grid: tuple[float, ...] = (0.0, 0.005, 0.01, 0.02, 0.05)  # [m/sqrt(step)]
    sweep_refilter: bool = True
    # car following
    sim_dt: float = ScenarioSpec.dt  # [s]
    # synthetic corpus / misc
    synth_n: int = DEFAULT_N
    truck_fraction: float = DEFAULT_TRUCK_FRACTION
    marking_tolerance: float = 0.05  # [m] d_left + d_right consistency check
    seed: int = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(parse_keyvalues(path))

    @classmethod
    def from_dict(cls, raw: Mapping[str, str]) -> "RunConfig":
        """The config ``raw`` sets; each section's own checks run on it."""
        cfg, raw, sections = cls(), dict(raw), {}
        for section, (prefix, names) in _SECTIONS.items():
            default = getattr(cfg, section)
            kinds = {prefix + name: kind for name, kind in field_types(default).items()
                     if names is None or name in names}
            values = parse_fields({k: raw.pop(k) for k in kinds if k in raw}, kinds, "config key")
            if values:
                sections[section] = replace(
                    default, **{k[len(prefix):]: value for k, value in values.items()})
        return replace(cfg, **parse_fields(raw, field_types(cfg), "config key"), **sections)


# RunConfig section -> (prefix of its config keys, the fields they set; None: all)
_SECTIONS = {"layout": ("", None), "thresholds": ("", None), "w99": ("", None),
             "peak": ("", ("prominence_min", "min_peak_separation")),
             "mis": ("mis_", ("rear_detect_range", "delta_v_min", "thw_increase",
                              "comfort_decel_cap")),
             "default_shape": ("vehicle_", ("length", "width"))}

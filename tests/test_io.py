import ast
import math
import tempfile
import warnings
from dataclasses import fields, replace
from enum import IntEnum
from itertools import groupby, zip_longest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanekit import io as lkio
from lanekit.criticality import CriticalityRecord, DirectionStats, Thresholds
from lanekit.detection import Direction, EventKind, LaneChangeEvent, PeakParams
from lanekit.io import (
    RunConfig,
    fmt,
    ingest,
    parse_keyvalues,
    read_events,
    read_vehicles,
    write_events,
    write_trajectories,
    write_vehicles,
)
from lanekit.mis import MISConfig
from lanekit.stats import BoxSummary
from lanekit.synth import generate_corpus
from lanekit.trajectory import LaneLayout, Trajectory, VehicleShape
from lanekit.wiedemann import SampledScenario, SampledScenarioSet, W99Params

from helpers import (assert_same_ingest, ref_box_dict, ref_direction_box, ref_ingest,
                     ref_write_json, ref_write_thw_traces, ref_write_trajectories)


def test_fmt_nine_digits():
    assert fmt(1.0 / 3.0) == "0.333333333"
    assert fmt(float("nan")) == ""
    assert fmt(None) == ""


def _spelled(match) -> set[tuple[str, str]]:
    """(module, innermost enclosing function, "" at module level) of each
    string constant of ``src/lanekit`` that ``match`` accepts, f-string
    format specs included."""
    found = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str) \
                    and match(child.value):
                found.add((module, where))
            visit(child, module, where)

    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "lanekit").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_csv_number_text_is_spelled_once():
    # trajectory.NUMBER, which fmt and the writers' row templates use
    assert _spelled(lambda text: ".9g" in text) == {("trajectory", "")}


def test_json_schema_stamp_is_spelled_once():
    assert _spelled(lambda text: text == "schema") == {("io", "write_json")}


def test_record_schema(tmp_path):
    header = ["vehicle_id", "t_start", "t_end", "direction",
              "min_d", "max_v", "max_a_lon", "max_a_lat",
              "min_thw", "min_dce", "min_ttce",
              "flag_d", "flag_v", "flag_a_lon", "flag_a_lat",
              "flag_thw", "flag_dce", "flag_ttce"]
    assert lkio.RECORD_HEADER == header
    flags = {"d": False, "v": True, "a_lon": False, "a_lat": False,
             "thw": True, "dce": False, "ttce": True}
    record = CriticalityRecord("r00v0001", 1.0, 9.5, "left", 0.5, 40.0, 2.5, 1.25,
                               0.75, float("nan"), 1.5, flags)
    lkio.write_records(tmp_path / "records.csv", [record])
    assert (tmp_path / "records.csv").read_text().splitlines() == [
        ",".join(header), "r00v0001,1,9.5,left,0.5,40,2.5,1.25,0.75,,1.5,0,1,0,0,1,0,1"]


# ---------------------------------------------------------------------------
# trajectory round trip

def test_round_trip_bit_exact(tmp_path):
    corpus = generate_corpus(n=6, seed=9)
    path = tmp_path / "traj.csv"
    write_trajectories(path, corpus.trajectories)
    report = ingest(path, shapes={t.vehicle_id: t.shape for t in corpus.trajectories})
    assert len(report.trajectories) == 6
    assert not report.rejected_rows
    for orig, back in zip(corpus.trajectories, report.trajectories):
        assert back.vehicle_id == orig.vehicle_id
        for name in ("t", "s", "lat", "v", "a_lon", "a_lat", "d_left", "d_right"):
            assert np.array_equal(getattr(back, name), getattr(orig, name)), name
        assert np.array_equal(back.lane, orig.lane)


@pytest.mark.parametrize("markings", [True, False])
def test_writer_matches_row_writer(tmp_path, markings):
    corpus = generate_corpus(n=8, seed=5)
    trajs = [t if markings else t.with_channels(d_left=None, d_right=None)
             for t in corpus.trajectories]
    # nan and signed zeros format as the row writer formats them
    first = trajs[0]
    trajs[0] = first.with_channels(v=np.where(np.arange(len(first.t)) == 3, np.nan, first.v),
                                   a_lat=np.where(np.arange(len(first.t)) == 4, -0.0,
                                                  first.a_lat))
    # one marking channel alone is written as it is
    trajs[1] = trajs[1].with_channels(d_right=None)
    write_trajectories(tmp_path / "new.csv", trajs)
    ref_write_trajectories(tmp_path / "old.csv", trajs)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_emitted_files_byte_stable(tmp_path):
    corpus = generate_corpus(n=4, seed=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectories(p1, corpus.trajectories)
    write_trajectories(p2, corpus.trajectories)
    assert p1.read_bytes() == p2.read_bytes()


def test_ingest_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("vehicle,t,s\n")
    with pytest.raises(ValueError, match="malformed header"):
        ingest(path)


def test_ingest_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("vehicle_id,t,s,lane,lat,v,a_lon,a_lat,d_left,d_right\n")
    report = ingest(path)
    assert report.trajectories == []
    assert len(report.warnings) == 1


def test_ingest_rejects_nan_speed_row(tmp_path):
    path = tmp_path / "nan.csv"
    rows = ["vehicle_id,t,s,lane,lat,v,a_lon,a_lat,d_left,d_right"]
    for i in range(5):
        v = "nan" if i == 2 else "30"
        rows.append(f"a,{0.2 * i},." "0,0,0.1,%s,0,0,," % v)
    path.write_text("\n".join(
        [rows[0]] + [f"a,{0.2 * i},0,0,0.1,{'nan' if i == 2 else '30'},0,0,,"
                     for i in range(5)]) + "\n")
    report = ingest(path)
    assert len(report.rejected_rows) == 1
    assert len(report.trajectories) == 1
    assert len(report.trajectories[0].t) == 4


def test_ingest_rejects_non_integer_lane(tmp_path):
    path = tmp_path / "lane.csv"
    lanes = ["0", "1.0", "2.7", "1", "1e0"]
    path.write_text("\n".join(
        ["vehicle_id,t,s,lane,lat,v,a_lon,a_lat,d_left,d_right"]
        + [f"a,{0.2 * i},0,{lane},0.1,30,0,0,," for i, lane in enumerate(lanes)]) + "\n")
    report = ingest(path)
    assert report.rejected_rows == [(4, "non-integer lane")]
    assert report.trajectories[0].lane.tolist() == [0, 1, 1, 1]


def test_ingest_rejects_non_monotone_vehicle(tmp_path):
    path = tmp_path / "mono.csv"
    lines = ["vehicle_id,t,s,lane,lat,v,a_lon,a_lat,d_left,d_right",
             "a,0.0,0,0,0.1,30,0,0,,",
             "a,0.2,6,0,0.1,30,0,0,,",
             "a,0.1,9,0,0.1,30,0,0,,",
             "b,0.0,0,0,0.1,30,0,0,,",
             "b,0.2,6,0,0.1,30,0,0,,"]
    path.write_text("\n".join(lines) + "\n")
    report = ingest(path)
    assert [v for v, _ in report.rejected_vehicles] == ["a"]
    assert [t.vehicle_id for t in report.trajectories] == ["b"]


def test_ingest_two_vehicles(tmp_path):
    corpus = generate_corpus(n=2, seed=1)
    path = tmp_path / "two.csv"
    write_trajectories(path, corpus.trajectories)
    assert len(ingest(path).trajectories) == 2


def test_ingest_without_markings(tmp_path):
    path = tmp_path / "aerial.csv"
    lines = ["vehicle_id,t,s,lane,lat,v,a_lon,a_lat,d_left,d_right"]
    lines += [f"a,{0.2 * i:.1f},{6 * i},0,0.1,30,0,0,," for i in range(5)]
    path.write_text("\n".join(lines) + "\n")
    traj = ingest(path).trajectories[0]
    assert not traj.has_markings


# ---------------------------------------------------------------------------
# structured ingest against the row-by-row reference

HEADER = ",".join(lkio.TRAJECTORY_HEADER)
# ids of 63 to 65 bytes sit at the structured parse's id width, the last
# one's two-byte character across it
IDS = ("a", "ab", "veh 1", "a01v0001", "\u00fc", "", "x" * 63, "x" * 64, "x" * 65,
       "x" * 63 + "\u00fc")
# tokens float() and np.loadtxt read differently, or the checks reject
ODD_TOKENS = ("nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+Infinity",
              "1_0", "\u0663", "\uff11", " 2 ", "\t1", "2 ", "\xa01", "\u20031",
              "", " ", "1.5", "-0", "-0.0", "0x1", "1e0", "2.0", "1e400", "4e-320",
              "\x1c1", "1\x1f", '"1"', "1,5")


def _number(draw) -> str:
    kind = draw(st.sampled_from(("repr", "digits", "short")))
    if kind == "repr":
        return repr(draw(st.floats(-1e6, 1e6, allow_nan=False)))
    if kind == "digits":  # long mantissas exercise correct rounding
        mantissa = draw(st.integers(-10 ** 20, 10 ** 20))
        return f"{mantissa}e{draw(st.integers(-40, 10))}"
    return f"{draw(st.floats(-100, 100, allow_nan=False)):.9g}"


@st.composite
def trajectory_files(draw) -> str:
    """Text of a trajectory CSV, mostly clean, sometimes odd in one of many ways."""
    kind = draw(st.sampled_from(("rows",) * 8 + ("header-only", "empty")))
    if kind == "empty":
        return ""
    end = draw(st.sampled_from(("\n", "\r\n", "\r", "mixed")))
    lines = [HEADER]
    if kind == "rows":
        ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True))
        rows = []
        for vid in ids:
            n = draw(st.integers(1, 8))
            dt = draw(st.sampled_from((0.04, 0.2, 0.1)))
            start = draw(st.floats(0, 100, allow_nan=False))
            marked = draw(st.booleans())
            times = [repr(start + k * dt) for k in range(n)]
            if n > 1 and draw(st.integers(0, 9)) == 0:  # non-monotone time
                i = draw(st.integers(0, n - 2))
                times[i], times[i + 1] = times[i + 1], times[i]
            for tk in times:
                lane = draw(st.sampled_from(("0", "1", "2", "1.0", "3")))
                fields = [vid, tk, _number(draw), lane] + [_number(draw) for _ in range(4)]
                fields += [_number(draw), _number(draw)] if marked else ["", ""]
                rows.append((vid, fields))
        if draw(st.booleans()):  # interleave the vehicles
            rows = draw(st.permutations(rows))
            # keep each vehicle's own row order
            queues = {vid: [f for v, f in rows if v == vid] for vid in ids}
            rows = [(vid, queues[vid].pop(0)) for vid, _ in rows]
        body = [fields for _, fields in rows]
        odd = draw(st.sampled_from((None, "token", "lane", "short", "long", "quote",
                                    "blank", "spaces", "offset")))
        for _ in range(draw(st.integers(1, 3)) if odd else 0):
            i = draw(st.integers(0, len(body) - 1))
            fields = list(body[i])
            if len(fields) < 10:  # a blank line, or already short
                continue
            if odd == "token":
                fields[draw(st.integers(1, 9))] = draw(st.sampled_from(ODD_TOKENS))
            elif odd == "lane":
                fields[3] = draw(st.sampled_from(("1.5", "2.7", "5e-1", "-0.25")))
            elif odd == "short":
                del fields[draw(st.integers(1, 9))]
            elif odd == "long":
                fields += ["0"] * draw(st.sampled_from((1, 2, 9)))
            elif odd == "quote":
                fields[0] = '"' + fields[0] + (",x" if draw(st.booleans()) else "") + '"'
            elif odd in ("blank", "offset"):
                if odd == "offset":  # nine extra commas to make up for the blank line
                    body[i] = fields + ["0"] * 9
                body.insert(draw(st.integers(0, len(body))), [])
                continue
            else:
                body.insert(i, ["  "])
                continue
            body[i] = fields
        lines += [",".join(fields) for fields in body]
    if end == "mixed":
        ends = [draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in lines]
    else:
        ends = [end] * len(lines)
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(line + e for line, e in zip(lines, ends))


def _ingest_quietly(fn, path):
    """Report or (exception type, message); any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(path)
        except ValueError as exc:
            return type(exc), str(exc)


def _assert_ingest_matches_reference(path, chunk):
    with mock.patch.object(lkio, "_CHUNK_ROWS", chunk):
        got = _ingest_quietly(ingest, path)
    want = _ingest_quietly(ref_ingest, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_ingest(got, want)


@settings(max_examples=400, deadline=None)
@given(text=trajectory_files(), chunk=st.sampled_from((1, 3, 1 << 11)))
def test_ingest_matches_row_reference(text, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_ingest_matches_reference(path, chunk)


def _rows(vid, n=4, marks="0.5,0.6", lane="0"):
    return [f"{vid},{0.2 * i:.1f},{6 * i},{lane},0.1,30,0,0,{marks}" for i in range(n)]


def _file(lines, end="\n", last=None):
    return end.join([HEADER, *lines]) + (end if last is None else last)


# files at each edge of what the structured parse reads
EDGE_FILES = {
    "whitespace-only lines": _file(["   ", " \t "]),
    "tab and blank lines": _file([*_rows("a")[:2], "", "\t", *_rows("a")[2:]]),
    "blank last line": _file(_rows("a"), last="\n\n"),
    "lone CR ends": _file(_rows("a") + _rows("b"), end="\r"),
    "a lone CR": _file(_rows("a")).replace("\n", "\r", 3),
    "CRLF": _file(_rows("a") + _rows("b"), end="\r\n"),
    "CR CR LF": _file(_rows("a") + _rows("b"), end="\r\r\n"),
    "no final line end": _file(_rows("a") + _rows("b"), last=""),
    "a last line ended by CR": _file(_rows("a") + _rows("b"), last="\r"),
    "ids of 63 to 65 bytes": _file(_rows("x" * 63) + _rows("x" * 64) + _rows("x" * 65)),
    "empty id": _file(_rows("") + _rows("b")),
    "spaces around ids": _file(_rows(" a") + _rows("a ") + _rows("a")),
    "quoted ids": _file(_rows('"a"') + _rows('"a,b"')),
    "NUL in an id": _file(_rows("a\x00") + _rows("a")),
    "U+001C in an id": _file(_rows("a\x1c") + _rows("a")),
    "U+001C by a number": _file([r.replace(",30,", ",30\x1c,") for r in _rows("a")]),
    "an extra field": _file(_rows("a") + [_rows("b")[0] + ",1"] + _rows("b")[1:]),
    "a missing field": _file(_rows("a") + [_rows("b")[0].rsplit(",", 1)[0]] + _rows("b")[1:]),
    "nan speed": _file(_rows("a") + [_rows("b")[0].replace(",30,", ",nan,")] + _rows("b")[1:]),
    "nan marking": _file(_rows("a") + _rows("b", marks="nan,0.6")),
    "interleaved": _file([r for rows in zip(_rows("a"), _rows("b"), _rows("c")) for r in rows]),
    "marked, then unmarked": _file(_rows("a") + _rows("b", marks=",")),
    "unmarked, then marked": _file(_rows("a", marks=",") + _rows("b")),
    "a space for a marking": _file(_rows("a", marks=",") + _rows("b", marks=", ")),
    "header only, no line end": _file([], last=""),
    "header ended by CR CR LF": _file(_rows("a"), end="\n").replace("\n", "\r\r\n", 1),
    "non-ASCII id": _file(_rows("\u00fc") + _rows("a")),
    "ids in comment style": _file(_rows("#a") + _rows("b")),
}


@pytest.mark.parametrize("chunk", [1, 1 << 11])
@pytest.mark.parametrize("case", sorted(EDGE_FILES))
def test_ingest_edge_files_match_row_reference(tmp_path, case, chunk):
    # with one-line chunks a blank line is a chunk of its own
    path = tmp_path / "edge.csv"
    path.write_bytes(EDGE_FILES[case].encode())
    _assert_ingest_matches_reference(path, chunk)


@pytest.mark.parametrize("markings", [True, False])
@pytest.mark.parametrize("interleave", [False, True])
def test_ingest_clean_file_takes_columnar_parse(tmp_path, markings, interleave):
    corpus = generate_corpus(n=6, seed=4)
    trajs = [t if markings else t.with_channels(d_left=None, d_right=None)
             for t in corpus.trajectories]
    path = tmp_path / "clean.csv"
    write_trajectories(path, trajs)
    if interleave:  # the vehicles' rows in turn, each vehicle's in order
        header, *body = path.read_text().splitlines(keepends=True)
        runs = [list(rows) for _, rows in groupby(body, key=lambda r: r.split(",", 1)[0])]
        path.write_text(header + "".join(r for turn in zip_longest(*runs) for r in turn if r))
    want = ref_ingest(path)
    rows = sum(len(t.t) for t in trajs)
    for chunk in (7, 1 << 11):  # with 7-row chunks, vehicles' runs straddle chunks
        with mock.patch.object(lkio, "_ingest_rows", side_effect=AssertionError("row parser")), \
                mock.patch.object(lkio, "_CHUNK_ROWS", chunk), \
                mock.patch.object(lkio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            got = ingest(path)
        assert loadtxt.call_count == -(-rows // chunk)
        assert_same_ingest(got, want)
        assert [t.vehicle_id for t in got.trajectories] == [t.vehicle_id for t in trajs]
        assert [t.has_markings for t in got.trajectories] == [markings] * len(trajs)


@pytest.mark.parametrize("markings", [True, False])
def test_ingest_holds_each_sample_once(tmp_path, markings):
    # 40 vehicles of 500 rows in chunks of 512: most runs straddle a chunk
    # bound.  Holding every parsed chunk until the end, or each vehicle's
    # rows beside its track, would peak near twice the tracks.
    import tracemalloc
    n = 500
    t = np.arange(n) * 0.04
    marks = dict(d_left=np.full(n, 0.5), d_right=np.full(n, 0.6)) if markings else {}
    trajs = [Trajectory(vehicle_id=f"a01v{k:04d}", shape=VehicleShape(), t=t + k,
                        s=30.0 * t + k, lane=np.full(n, k % 3), lat=np.sin(t + k),
                        v=np.full(n, 30.0 + k), a_lon=np.cos(t), a_lat=np.sin(t) / 7,
                        rate=25.0, **marks) for k in range(40)]
    path = tmp_path / "big.csv"
    write_trajectories(path, trajs)
    chunk = 512
    # a chunk's lines, as bytes objects and joined, and their parsed rows:
    # each about the bytes of a line
    chunk_bytes = 4 * chunk * path.stat().st_size / sum(len(tr.t) for tr in trajs)
    with mock.patch.object(lkio, "_CHUNK_ROWS", chunk):
        ingest(path)
        tracemalloc.start()
        try:
            report = ingest(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert_same_ingest(report, ref_ingest(path))
    tracks = sum(getattr(tr, name).nbytes for tr in report.trajectories
                 for name in lkio.TRAJECTORY_HEADER[1:] if getattr(tr, name) is not None)
    assert held < 1.1 * tracks
    assert peak < held + 2 * chunk_bytes, (peak, held, tracks, chunk_bytes)


def test_ingest_invalid_utf8_raises(tmp_path):
    # a lone 0xA0 byte: loadtxt, decoding bytes as latin-1, would strip it
    # from a number as a no-break space; the structured parse leaves a
    # non-ASCII byte to the row parser, whose decoding refuses it
    path = tmp_path / "latin1.csv"
    path.write_bytes(f"{HEADER}\n".encode() + b"a,0,0,0,0.1,30\xa0,0,0,,\n"
                     + b"a,0.2,6,0,0.1,30,0,0,,\n")
    with pytest.raises(UnicodeDecodeError):
        ingest(path)


def _marked_rows():
    return [f"a,{0.2 * i:.1f},{6 * i},0,0.1,30,0,0,0.5,0.6" for i in range(4)] + \
           [f"b,{0.2 * i:.1f},{6 * i},1,0.1,30,0,0,0.7,0.4" for i in range(4)]


MARKED_FILES = {
    "fully marked": _marked_rows(),
    "empty marking": [r.replace(",0.5,0.6", ",,0.6") if r.startswith("a,0.2") else r
                      for r in _marked_rows()],
    "empty markings on a last line without line end": [
        *_marked_rows()[:-1], _marked_rows()[-1].replace(",0.7,0.4", ",,")],
    "empty s": [r.replace("a,0.4,12,", "a,0.4,,") for r in _marked_rows()],
}


@pytest.mark.parametrize("case", sorted(MARKED_FILES))
def test_ingest_marked_file_without_converter(tmp_path, case):
    path = tmp_path / "marked.csv"
    last_end = "" if "without line end" in case else "\n"
    path.write_text("\n".join([HEADER, *MARKED_FILES[case]]) + last_end)
    with mock.patch.object(lkio, "_ingest_rows", wraps=lkio._ingest_rows) as rows, \
            mock.patch.object(lkio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        got = ingest(path)
    assert_same_ingest(got, ref_ingest(path))
    # the row parser reads every file with an empty field
    assert rows.called == (case != "fully marked")
    assert loadtxt.called and all("converters" not in c.kwargs
                                  for c in loadtxt.call_args_list)


@pytest.mark.parametrize("blank_at", [0, 1])
def test_ingest_blank_line_offset_by_extra_columns(tmp_path, blank_at):
    # nine extra commas on one line make up for a blank line's missing nine
    path = tmp_path / "blank.csv"
    rows = [f"a,{0.2 * i},0,0,0.1,30,0,0,0.5,0.5" for i in range(4)]
    rows[2] += ",0" * 9
    rows.insert(blank_at, "")
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    got = ingest(path)
    assert got.rejected_rows == [(2 + blank_at, "wrong column count"),
                                 (5, "wrong column count")]
    assert_same_ingest(got, ref_ingest(path))


def test_ingest_header_only_emits_no_numpy_warning(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text(HEADER + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ingest(path)
    assert report.warnings == [f"{path}: no data rows, empty corpus"]


def test_ingest_mixed_markings_after_unmarked_first_line(tmp_path):
    path = tmp_path / "mixed.csv"
    lines = [HEADER] + [f"a,{0.2 * i:.1f},{6 * i},0,0.1,30,0,0,," for i in range(3)]
    lines += [f"b,{0.2 * i:.1f},{6 * i},1,0.1,30,0,0,0.5,0.5" for i in range(3)]
    path.write_text("\n".join(lines) + "\n")
    got = ingest(path)
    assert [t.has_markings for t in got.trajectories] == [False, True]
    assert_same_ingest(got, ref_ingest(path))


# ---------------------------------------------------------------------------
# events and vehicles

def test_events_round_trip(tmp_path):
    events = [LaneChangeEvent("v1", 10.0, 13.0, 16.0, 6.0, Direction.LEFT,
                              31.5, 3.4, EventKind.SINGLE, criterion="peak"),
              LaneChangeEvent("v2", 20.0, 23.0, 26.0, 6.0, Direction.RIGHT,
                              28.0, 7.0, EventKind.DOUBLE, criterion="distance")]
    path = tmp_path / "events.csv"
    write_events(path, events)
    back = read_events(path)
    assert back == events


def test_vehicles_round_trip(tmp_path):
    corpus = generate_corpus(n=5, seed=3)
    path = tmp_path / "veh.csv"
    write_vehicles(path, corpus.trajectories)
    shapes = read_vehicles(path)
    for traj in corpus.trajectories:
        got = shapes[traj.vehicle_id]
        assert got.vclass == traj.shape.vclass
        assert got.width == pytest.approx(traj.shape.width, rel=1e-8)


def test_vehicles_listed_twice_refused(tmp_path):
    path = tmp_path / "veh.csv"
    path.write_text("vehicle_id,class,length,width\na,car,4.5,1.8\nb,car,4.5,1.8\n"
                    "a,truck,12,2.5\n")
    with pytest.raises(ValueError, match=r"veh\.csv:4: vehicle_id 'a' already listed on line 2$"):
        read_vehicles(path)


# ---------------------------------------------------------------------------
# configuration

def test_parse_keyvalues(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# comment line
lane_width = 3.75   # trailing comment
lane_count = 4
resample_rate = 10
bias_grid = 0, 0.5, 1.0
""")
    cfg = RunConfig.from_file(path)
    assert cfg.layout.lane_width == 3.75
    assert cfg.layout.lane_count == 4
    assert cfg.resample_rate == 10.0
    assert cfg.bias_grid == (0.0, 0.5, 1.0)
    # untouched defaults
    assert cfg.thresholds.thw_crit == 0.9
    assert cfg.thresholds.ttce_gate == 2.6


def test_unknown_config_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ValueError, match="unknown config key"):
        RunConfig.from_file(path)


@pytest.mark.parametrize("key", ["lowpass_aerial", "sweep_refilter"])
def test_low_pass_switches_are_unknown_keys(tmp_path, key):
    # detect low-passes every vehicle it keeps, and the sweep measures detect
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = false\n")
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        RunConfig.from_file(path)


def test_malformed_config_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lane_width 3.5\n")
    with pytest.raises(ValueError, match="expected"):
        parse_keyvalues(path)


def test_config_key_given_twice(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lane_count = 3\n# two lanes after all\nlane_count = 2\n")
    with pytest.raises(ValueError) as exc:
        RunConfig.from_file(path)
    assert str(exc.value) == f"{path}:3: key 'lane_count' already set on line 1"


def test_config_helpers():
    cfg = RunConfig()
    assert cfg.layout.lane_width == 3.5
    assert cfg.thresholds.thw_crit == 0.9
    assert cfg.peak.prominence_min == 0.15
    assert cfg.default_shape.width == 2.0
    assert cfg.layout.speed_limit == pytest.approx(120.0 / 3.6)


def test_config_sections_are_the_library_defaults():
    cfg = RunConfig()
    assert cfg.layout == LaneLayout()
    assert cfg.peak == PeakParams()
    assert cfg.thresholds == Thresholds()
    assert cfg.w99 == W99Params()
    assert cfg.mis == MISConfig()
    assert cfg.default_shape == VehicleShape()


# every config key: (key, text, the RunConfig attribute it sets, parsed value)
CONFIG_KEYS = [
    ("lane_count", "4", "layout.lane_count", 4),
    ("lane_width", "3.75", "layout.lane_width", 3.75),
    ("speed_limit", "30", "layout.speed_limit", 30.0),
    ("resample_rate", "10", "resample_rate", 10.0),
    ("lowpass_cutoff", "1.1", "lowpass_cutoff", 1.1),
    ("distance_threshold", "0.7", "distance_threshold", 0.7),
    ("prominence_min", "0.2", "peak.prominence_min", 0.2),
    ("min_peak_separation", "3", "peak.min_peak_separation", 3.0),
    ("min_lateral_extent", "2", "min_lateral_extent", 2.0),
    ("d_crit", "1.5", "thresholds.d_crit", 1.5),
    ("v_factor", "1.2", "thresholds.v_factor", 1.2),
    ("a_lon_crit", "7", "thresholds.a_lon_crit", 7.0),
    ("a_lat_crit", "6", "thresholds.a_lat_crit", 6.0),
    ("thw_crit", "0.8", "thresholds.thw_crit", 0.8),
    ("dce_crit", "1.1", "thresholds.dce_crit", 1.1),
    ("ttce_gate", "3", "thresholds.ttce_gate", 3.0),
    ("bias_grid", "0, 0.5", "bias_grid", (0.0, 0.5)),
    ("brownian_grid", "0.01", "brownian_grid", (0.01,)),
    ("cc0", "2", "w99.cc0", 2.0),
    ("cc1", "0.5", "w99.cc1", 0.5),
    ("cc2", "5", "w99.cc2", 5.0),
    ("cc3", "-7", "w99.cc3", -7.0),
    ("cc4", "-0.3", "w99.cc4", -0.3),
    ("cc5", "0.3", "w99.cc5", 0.3),
    ("cc6", "10", "w99.cc6", 10.0),
    ("cc7", "0.3", "w99.cc7", 0.3),
    ("cc8", "3", "w99.cc8", 3.0),
    ("cc9", "1", "w99.cc9", 1.0),
    ("v_desired", "30", "w99.v_desired", 30.0),
    ("sim_dt", "0.1", "sim_dt", 0.1),
    ("mis_rear_detect_range", "80", "mis.rear_detect_range", 80.0),
    ("mis_delta_v_min", "3", "mis.delta_v_min", 3.0),
    ("mis_thw_increase", "1.5", "mis.thw_increase", 1.5),
    ("mis_comfort_decel_cap", "2", "mis.comfort_decel_cap", 2.0),
    ("synth_n", "12", "synth_n", 12),
    ("truck_fraction", "0.5", "truck_fraction", 0.5),
    ("vehicle_length", "5", "default_shape.length", 5.0),
    ("vehicle_width", "1.8", "default_shape.width", 1.8),
    ("marking_tolerance", "0.1", "marking_tolerance", 0.1),
    ("seed", "9", "seed", 9),
]


def test_config_key_set():
    # every field name of RunConfig and of its sections, bare and prefixed
    cfg = RunConfig()
    candidates = {f.name for f in fields(cfg)}
    for section, prefix in (("layout", ""), ("peak", ""), ("thresholds", ""), ("w99", ""),
                            ("mis", "mis_"), ("default_shape", "vehicle_")):
        candidates |= {name + f.name for f in fields(getattr(cfg, section))
                       for name in ("", prefix)}
    known = {key for key, *_ in CONFIG_KEYS}
    assert len(known) == 40 and known < candidates
    for key in candidates - known:
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            RunConfig.from_dict({key: "1"})


# the keys RunConfig.from_dict accepts, sorted
ACCEPTED_KEYS = [
    "a_lat_crit", "a_lon_crit", "bias_grid", "brownian_grid", "cc0", "cc1", "cc2", "cc3",
    "cc4", "cc5", "cc6", "cc7", "cc8", "cc9", "d_crit", "dce_crit", "distance_threshold",
    "lane_count", "lane_width", "lowpass_cutoff", "marking_tolerance",
    "min_lateral_extent", "min_peak_separation", "mis_comfort_decel_cap", "mis_delta_v_min",
    "mis_rear_detect_range", "mis_thw_increase", "prominence_min", "resample_rate", "seed",
    "sim_dt", "speed_limit", "synth_n", "thw_crit", "truck_fraction",
    "ttce_gate", "v_desired", "v_factor", "vehicle_length", "vehicle_width",
]


def test_accepted_config_keys_are_the_literal_set():
    # a key from_dict knows fails on the value "?", any other as unknown; the
    # candidates are every field name of RunConfig and its sections, and the
    # margin increase system's calibration names, bare and with each prefix
    cfg = RunConfig()
    names = {f.name for f in fields(cfg)} | {
        "cruise_thw", "engage_slack", "rear_reserve", "standstill_gap", "hard_decel",
        "accel_cap", "emergency_thw", "aeb_thw", "aeb_closing", "rear_gap_violation"}
    for section in ("layout", "peak", "thresholds", "w99", "mis", "default_shape"):
        names |= {f.name for f in fields(getattr(cfg, section))}
    accepted = set()
    for key in set(ACCEPTED_KEYS) | {p + n for n in names for p in ("", "mis_", "vehicle_")}:
        with pytest.raises(ValueError) as err:
            RunConfig.from_dict({key: "?"})
        if not str(err.value).startswith("unknown config key"):
            accepted.add(key)
    assert len(ACCEPTED_KEYS) == 40
    assert sorted(accepted) == ACCEPTED_KEYS


@pytest.mark.parametrize("key,text,attr,value", CONFIG_KEYS, ids=[k[0] for k in CONFIG_KEYS])
def test_config_key_lands_on_its_field(key, text, attr, value):
    cfg, default = RunConfig.from_dict({key: text}), RunConfig()
    if "." in attr:
        section, name = attr.split(".")
        got = getattr(getattr(cfg, section), name)
        expected = replace(default, **{section: replace(getattr(default, section),
                                                        **{name: value})})
    else:
        got = getattr(cfg, attr)
        expected = replace(default, **{attr: value})
    assert type(got) is type(value)
    assert cfg == expected


@pytest.mark.parametrize("key", ["rel_height", "cruise_thw", "mis_cruise_thw", "vclass",
                                 "vehicle_vclass", "layout"])
def test_unexposed_fields_are_unknown_keys(key):
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        RunConfig.from_dict({key: "0.5"})


@pytest.mark.parametrize("key,text,expected", [
    ("lane_count", "3.0", "config key 'lane_count': expected int, got '3.0'"),
    ("thw_crit", "fast", "config key 'thw_crit': expected float, got 'fast'"),
    ("bias_grid", "0, x", "config key 'bias_grid': expected comma list of floats, got '0, x'"),
])
def test_config_coercion_error_names_the_key(key, text, expected):
    with pytest.raises(ValueError) as err:
        RunConfig.from_dict({key: text})
    assert str(err.value) == expected


@pytest.mark.parametrize("text,value", [("true", True), ("1", True), ("YES", True), ("On", True),
                                        ("false", False), ("0", False), ("No", False),
                                        ("OFF", False)])
def test_boolean_spellings(text, value):
    assert lkio.parse_fields({"flag": text}, {"flag": bool}, "config key") == {"flag": value}


@pytest.mark.parametrize("key,text,message", [
    ("thw_crit", "-1", "thw_crit must be positive"),
    ("lane_count", "0", "lane_count must be >= 1"),
    ("cc4", "0.1", "require cc4 < 0 < cc5"),
    ("mis_thw_increase", "0", "thw_increase must be positive"),
    ("vehicle_width", "5", "require 0 < width < length"),
    ("prominence_min", "0", "prominence_min must be positive"),
])
def test_out_of_range_section_value_fails_on_load(key, text, message):
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict({key: text})


# ---------------------------------------------------------------------------
# writers against their csv.writer and json.dump references

def _same_bytes(write, ref, *args) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got", Path(tmp) / "want"
        write(got, *args)
        ref(want, *args)
        return got.read_bytes() == want.read_bytes()


# ids csv.writer quotes (comma, quote, line breaks), ids it leaves alone,
# and ids with a % that a row template must double
CSV_IDS = st.text(st.sampled_from('ab7,"\n\r \té%'), max_size=6)
# infinities, signed zeros, subnormals and 9-digit rounding edges
CSV_EDGES = st.sampled_from([-0.0, 5e-324, 1e16, 0.1 + 0.2, 999999999.5])
CSV_FLOATS = st.floats() | CSV_EDGES  # and nan


@st.composite
def csv_trajectories(draw, floats=CSV_FLOATS):
    out = []
    for vid in draw(st.lists(CSV_IDS, min_size=1, max_size=3)):
        n = draw(st.integers(2, 5))

        def column():
            return np.array(draw(st.lists(floats, min_size=n, max_size=n)))

        markings = {k: column() if draw(st.booleans()) else None for k in ("d_left", "d_right")}
        out.append(Trajectory(
            vehicle_id=vid, shape=VehicleShape(), rate=5.0,
            t=np.cumsum(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))),
            s=column(), lane=np.array(draw(st.lists(st.integers(-3, 9), min_size=n, max_size=n))),
            lat=column(), v=column(), a_lon=column(), a_lat=column(), **markings))
    return out


@settings(max_examples=200, deadline=None)
@given(trajs=csv_trajectories())
def test_write_trajectories_matches_csv_writer(trajs):
    assert _same_bytes(write_trajectories, ref_write_trajectories, trajs)


@settings(max_examples=200, deadline=None)
@given(trajs=csv_trajectories(st.floats(allow_nan=False) | CSV_EDGES))
def test_write_trajectories_without_nan_matches_csv_writer(trajs):
    # every vehicle on its row template
    assert _same_bytes(write_trajectories, ref_write_trajectories, trajs)


def test_write_trajectories_nan_in_one_vehicle(tmp_path):
    # one vehicle has a NaN in one channel, the others none: the NaN is an
    # empty field and the other vehicles' rows are as the row writer's
    trajs = [replace(t, vehicle_id=vid) for t, vid in zip(
        generate_corpus(n=3, seed=5).trajectories, ["a%s", '5%,"%d"', "%%"])]
    trajs[1] = trajs[1].with_channels(a_lon=np.where(np.arange(len(trajs[1].t)) == 4, np.nan,
                                                     trajs[1].a_lon))
    trajs[2] = trajs[2].with_channels(d_left=None, d_right=None)
    assert _same_bytes(write_trajectories, ref_write_trajectories, trajs)
    write_trajectories(tmp_path / "t.csv", trajs)
    text = (tmp_path / "t.csv").read_text()
    assert "nan" not in text and text.count(",,") == 1 + len(trajs[2].t)


@st.composite
def thw_results(draw):
    n = draw(st.integers(1, 6))
    traces = st.one_of(st.just([math.nan] * n),  # an opponent that never leads
                       st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n),  # one always ahead
                       st.lists(CSV_FLOATS, min_size=n, max_size=n))
    scenarios = st.builds(SampledScenario, cc1=st.floats(1e-3, 10.0), trajectory=st.none(),
                          thw_traces=st.dictionaries(CSV_IDS, traces.map(np.array), max_size=4),
                          min_thw=st.just({}))
    return SampledScenarioSet(
        t=np.array(draw(st.lists(CSV_FLOATS, min_size=n, max_size=n))),
        scenarios=tuple(draw(st.lists(scenarios, min_size=1, max_size=3))))


def _thw_edges(t):
    """Every kind of THW block over the grid ``t``: all NaN (one join over
    the t column), NaN-free, finite only first or last, non-finite values,
    an id csv.writer quotes and one with a % the line template doubles."""
    n = len(t)
    traces = {"never": [math.nan] * n, "always": [1.25 + k for k in range(n)],
              "last": [math.nan] * (n - 1) + [0.75], "first": [2.0] + [math.nan] * (n - 1),
              'id, "quoted"\n': [math.nan] * n, "mixed": [math.inf, -0.0, math.nan, 5e-324][:n],
              "%s 100%": [0.5 * k for k in range(n)]}
    return SampledScenarioSet(t=np.array(t), scenarios=tuple(
        SampledScenario(cc1, None, {k: np.array(v) for k, v in traces.items()}, {})
        for cc1 in (0.9, 0.1)))


@settings(max_examples=200, deadline=None)
@given(result=thw_results())
@example(result=_thw_edges([0.5]))
@example(result=_thw_edges([0.0, 0.05, 0.1, 0.15]))
def test_write_thw_traces_matches_csv_writer(result):
    assert _same_bytes(lkio.write_thw_traces, ref_write_thw_traces, result)


class Lane(IntEnum):
    RIGHT = 0
    LEFT = 1


# any code point: non-ASCII, control characters and lone surrogates
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | JSON_TEXT
                | st.floats() | st.floats().map(np.float64)
                | st.sampled_from([-0.0, 5e-324, 1e16, True, 1, False, 0, *Lane, *Direction]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=30)


# lists like a report's time series, which one join writes when they hold
# only finite floats or only strings, and near misses of those
FLAT_LISTS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    st.lists(st.floats()),
    st.lists(st.floats().map(np.float64)),
    st.lists(st.floats() | st.sampled_from([True, 1, np.float64(2.5)])),
    st.lists(JSON_TEXT),
    st.lists(JSON_TEXT | st.sampled_from([*Direction, None, 0.5])),
    st.lists(st.floats(allow_nan=False, allow_infinity=False)).map(tuple))


@settings(max_examples=300, deadline=None)
@given(payload=st.dictionaries(JSON_TEXT, JSON_VALUES | FLAT_LISTS
                               | st.lists(FLAT_LISTS, max_size=3), max_size=5))
def test_write_json_matches_json_dump(payload):
    assert _same_bytes(lkio.write_json, ref_write_json, payload)


def test_write_json_edge_values(tmp_path):
    payload = {"floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, np.float64(0.1),
                          np.float64(math.nan)],
               "finite": [0.1, -0.0, 5e-324, 1e16], "inf": [1.5, -math.inf],
               "float64": [np.float64(0.1), np.float64(2.0)], "with_bool": [1.5, True, 1],
               "strings": ["a", "é\n", ""], "empty": [], "series": [[0.5, 1.0], ("x", "y")],
               "ints": [True, 1, False, 0, Lane.LEFT, 2 ** 70],
               "text": ["é\x00\x1f\ud800\U0001f600\"\\/", "", Direction.RIGHT],
               "\udfff key é": {"": [], "b": {}, "a": ([1, (2.5,)], {"z": None})}}
    assert _same_bytes(lkio.write_json, ref_write_json, payload)
    lkio.write_json(tmp_path / "r.json", payload)
    text = (tmp_path / "r.json").read_text()
    assert text.isascii() and text.endswith("}\n")
    assert ('\n "floats": [\n  null,\n  null,\n  null,\n  -0.0,\n  5e-324,\n  1e+16,\n  0.1,\n'
            '  null\n ]') in text


BOX_SUMMARIES = st.builds(
    BoxSummary, n=st.integers(0, 1000), outliers=st.lists(st.floats(), max_size=4).map(tuple),
    **dict.fromkeys(("median", "q25", "q75", "whisker_low", "whisker_high", "mean"),
                    st.floats()))
DIRECTION_STATS = st.builds(
    DirectionStats, metric=JSON_TEXT, direction=st.sampled_from(["left", "right"]),
    per_recording=st.dictionaries(JSON_TEXT, st.floats(), max_size=4),
    summary=st.none() | BOX_SUMMARIES)


@settings(max_examples=200, deadline=None)
@given(groups=st.dictionaries(JSON_TEXT, st.dictionaries(
           st.sampled_from(["duration", "speed"]), BOX_SUMMARIES), max_size=3),
       boxes=st.lists(DIRECTION_STATS, max_size=4))
def test_write_json_of_report_dataclasses_matches_their_dicts(groups, boxes):
    # stats.json and direction_boxes.json as the hand-built dicts wrote them
    def ref(path, payload):
        ref_write_json(path, {
            "groups": {g: {k: ref_box_dict(b) for k, b in entry.items()}
                       for g, entry in payload["groups"].items()},
            "boxes": [ref_direction_box(b) for b in payload["boxes"]]})

    assert _same_bytes(lkio.write_json, ref, {"groups": groups, "boxes": boxes})


@pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), {1, 2}, BoxSummary])
@pytest.mark.parametrize("where", ["value", "list", "dict", "tuple"])
def test_write_json_type_error_parity(tmp_path, bad, where):
    payload = {"value": bad, "list": [1.0, bad], "dict": {"k": bad}, "tuple": ("a", bad)}[where]
    for write in (lkio.write_json, ref_write_json):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write(tmp_path / "r.json", {"x": payload})

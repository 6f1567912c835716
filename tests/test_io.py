import tempfile
import warnings
from dataclasses import fields, replace
from itertools import groupby, zip_longest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanekit import io as lkio
from lanekit.criticality import CriticalityRecord, Thresholds
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
from lanekit.synth import generate_corpus
from lanekit.trajectory import LaneLayout, VehicleShape
from lanekit.wiedemann import W99Params

from helpers import assert_same_ingest, ref_ingest, ref_write_trajectories


def test_fmt_nine_digits():
    assert fmt(1.0 / 3.0) == "0.333333333"
    assert fmt(float("nan")) == ""
    assert fmt(None) == ""


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
# columnar ingest against the row-by-row reference

HEADER = ",".join(lkio.TRAJECTORY_HEADER)
IDS = ("a", "ab", "veh 1", "a01v0001", "\u00fc", "")
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


@settings(max_examples=400, deadline=None)
@given(text=trajectory_files(), block=st.sampled_from((1, 120, 1 << 14)))
def test_ingest_matches_row_reference(text, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(lkio, "_BLOCK_CHARS", block):
            got = _ingest_quietly(ingest, path)
        want = _ingest_quietly(ref_ingest, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_ingest(got, want)


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
    with mock.patch.object(lkio, "_ingest_rows", side_effect=AssertionError("row parser")), \
            mock.patch.object(lkio, "_BLOCK_CHARS", 4096):
        got = ingest(path)
    assert_same_ingest(got, ref_ingest(path))
    assert [t.vehicle_id for t in got.trajectories] == [t.vehicle_id for t in trajs]
    assert [t.has_markings for t in got.trajectories] == [markings] * len(trajs)


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
    # an empty s still takes the row parser, which names the row
    assert rows.called == (case == "empty s")
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


# ---------------------------------------------------------------------------
# configuration

def test_parse_keyvalues(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# comment line
lane_width = 3.75   # trailing comment
lane_count = 4
sweep_refilter = false
bias_grid = 0, 0.5, 1.0
""")
    cfg = RunConfig.from_file(path)
    assert cfg.layout.lane_width == 3.75
    assert cfg.layout.lane_count == 4
    assert cfg.sweep_refilter is False
    assert cfg.bias_grid == (0.0, 0.5, 1.0)
    # untouched defaults
    assert cfg.thresholds.thw_crit == 0.9
    assert cfg.thresholds.ttce_gate == 2.6


def test_unknown_config_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ValueError, match="unknown config key"):
        RunConfig.from_file(path)


def test_malformed_config_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lane_width 3.5\n")
    with pytest.raises(ValueError, match="expected"):
        parse_keyvalues(path)


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
    ("lowpass_aerial", "no", "lowpass_aerial", False),
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
    ("sweep_refilter", "Off", "sweep_refilter", False),
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
    assert len(known) == 42 and known < candidates
    for key in candidates - known:
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            RunConfig.from_dict({key: "1"})


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
    ("sweep_refilter", "maybe", "config key 'sweep_refilter': expected boolean, got 'maybe'"),
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

import numpy as np
import pytest

from lanekit.detection import Direction, EventKind, LaneChangeEvent
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
from lanekit.synth import generate_corpus


def test_fmt_nine_digits():
    assert fmt(1.0 / 3.0) == "0.333333333"
    assert fmt(float("nan")) == ""
    assert fmt(None) == ""


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
    assert cfg.lane_width == 3.75
    assert cfg.lane_count == 4
    assert cfg.sweep_refilter is False
    assert cfg.bias_grid == (0.0, 0.5, 1.0)
    # untouched defaults
    assert cfg.thw_crit == 0.9
    assert cfg.ttce_gate == 2.6


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
    assert cfg.layout().lane_width == 3.5
    assert cfg.thresholds().thw_crit == 0.9
    assert cfg.peak_params().prominence_min == 0.15
    assert cfg.default_shape().width == 2.0
    assert cfg.speed_limit == pytest.approx(120.0 / 3.6)

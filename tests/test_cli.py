import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lanekit

from lanekit.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small corpus generated once for the CLI pipeline tests."""
    out = tmp_path_factory.mktemp("cli")
    assert run("synth", "--out", out, "--n", "10", "--seed", "3") == 0
    return out


def test_synth_outputs(workdir):
    for name in ("trajectories.csv", "vehicles.csv", "truth_events.csv"):
        assert (workdir / name).exists()


def test_main_builds_one_parser(tmp_path, monkeypatch):
    import argparse

    from lanekit import cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert run("synth", "--out", tmp_path / "a", "--n", "2") == 0
    assert run("synth", "--out", tmp_path / "b", "--n", "2") == 0
    # the parser and its seven subcommands' parsers, once for both calls
    assert len(built) == 8 and built[0] == "lanekit"


def test_synth_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--out", a, "--n", "5", "--seed", "7") == 0
    assert run("synth", "--out", b, "--n", "5", "--seed", "7") == 0
    for name in ("trajectories.csv", "vehicles.csv", "truth_events.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_detect(workdir, tmp_path):
    out = tmp_path / "det"
    assert run("detect", "--traj", workdir / "trajectories.csv",
               "--vehicles", workdir / "vehicles.csv", "--out", out) == 0
    header = (out / "events.csv").read_text().splitlines()[0]
    assert header == ("vehicle_id,criterion,t_start,t_mid,t_end,duration,"
                      "direction,v_mid,lateral_extent,kind")


def test_detect_reproducible(workdir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("detect", "--traj", workdir / "trajectories.csv",
                   "--vehicles", workdir / "vehicles.csv", "--out", out) == 0
    assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()


def test_detect_rejects_unknown_criterion(workdir, tmp_path, capsys):
    out = tmp_path / "det"
    assert run("detect", "--traj", workdir / "trajectories.csv", "--criteria", "gradiant,peek",
               "--out", out) == 1
    assert "error: unknown criterion 'gradiant'" in capsys.readouterr().err
    assert not (out / "events.csv").exists()


def test_detect_skips_short_track(workdir, tmp_path, capsys):
    import numpy as np
    from lanekit.io import ingest, write_trajectories
    from helpers import make_trajectory

    normal = ingest(workdir / "trajectories.csv").trajectories
    t = np.arange(0.0, 1.0, 0.2)  # 5 samples at 5 Hz: too short to low-pass
    short = make_trajectory(t, np.zeros(len(t)), vehicle_id="short")
    write_trajectories(tmp_path / "normal.csv", normal)
    write_trajectories(tmp_path / "mixed.csv", [normal[0], short, *normal[1:]])

    assert run("detect", "--traj", tmp_path / "normal.csv", "--out", tmp_path / "a") == 0
    capsys.readouterr()
    assert run("detect", "--traj", tmp_path / "mixed.csv", "--out", tmp_path / "b") == 0
    assert "warning: vehicle short skipped: insufficient samples" in capsys.readouterr().err
    events = (tmp_path / "b" / "events.csv").read_text()
    assert events == (tmp_path / "a" / "events.csv").read_text()
    assert len(events.splitlines()) > 1


@pytest.mark.parametrize("command", ["detect", "robustness"])
def test_file_of_skipped_vehicles_gives_empty_results(workdir, tmp_path, capsys, command):
    # no vehicle reaches the low-pass, which then filters no rows at all
    import numpy as np
    from lanekit.io import write_trajectories
    from helpers import make_trajectory

    t = np.arange(0.0, 1.0, 0.2)
    write_trajectories(tmp_path / "short.csv", [make_trajectory(t, np.zeros(len(t)),
                                                                vehicle_id="short")])
    truth = ("--truth", workdir / "truth_events.csv") if command == "robustness" else ()
    assert run(command, "--traj", tmp_path / "short.csv", *truth, "--out", tmp_path / "out") == 0
    assert "warning: vehicle short skipped: insufficient samples" in capsys.readouterr().err


def test_robustness_counts_no_truth_of_vehicles_it_does_not_sweep(workdir, tmp_path, capsys):
    # a trajectory file with no data rows: the truth file's events belong
    # to no swept vehicle, so none is a miss
    import csv
    from lanekit.io import read_events, write_events
    truth = read_events(workdir / "truth_events.csv")[:5]
    write_events(tmp_path / "truth.csv", truth)
    header = (workdir / "trajectories.csv").read_text().splitlines()[0]
    (tmp_path / "empty.csv").write_text(header + "\n")
    assert run("robustness", "--traj", tmp_path / "empty.csv", "--truth", tmp_path / "truth.csv",
               "--out", tmp_path / "out") == 0
    assert ("warning: 5 true events of vehicles not swept left out of the truth count"
            in capsys.readouterr().err.splitlines())
    with (tmp_path / "out" / "robustness.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(truth) == 5 and rows
    assert all((r["detected"], r["truth"], r["ratio"]) == ("0", "0", "") for r in rows)


def _write_corpus(corpus, out):
    from lanekit.io import write_events, write_trajectories, write_vehicles
    out.mkdir()
    write_trajectories(out / "trajectories.csv", corpus.trajectories)
    write_vehicles(out / "vehicles.csv", corpus.trajectories)
    write_events(out / "truth_events.csv", corpus.truth_events)
    return [f"--{flag}={out / name}" for flag, name in (
        ("traj", "trajectories.csv"), ("vehicles", "vehicles.csv"))], out / "truth_events.csv"


def test_detect_and_robustness_skip_the_same_vehicles(tmp_path, capsys):
    # a 1 s track at 25 Hz has 25 samples, 5 once resampled to 5 Hz
    from helpers import aerial_corpus
    inputs, truth = _write_corpus(aerial_corpus(n=4), tmp_path / "in")
    (tmp_path / "no_grid.cfg").write_text("bias_grid =\nbrownian_grid =\n")
    warnings = {}
    for name, argv in (("detect", ["detect"]), ("robustness", ["robustness", "--truth", truth]),
                       ("no grid", ["robustness", "--truth", truth,
                                    "--config", tmp_path / "no_grid.cfg"])):
        assert run(*argv, *inputs, "--out", tmp_path / name) == 0
        err = capsys.readouterr().err.splitlines()
        warnings[name] = [line for line in err if " skipped: " in line]
    assert warnings["detect"] == ["warning: vehicle short skipped: insufficient samples"]
    assert warnings["robustness"] == warnings["no grid"] == warnings["detect"]


@pytest.mark.parametrize("rate", [5.0, 25.0])
def test_detect_counts_are_the_sweeps_unperturbed_row(tmp_path, capsys, monkeypatch, rate):
    # under the sweep's raw-count rules: every extent kept, no event merged
    # into a double
    import csv
    from lanekit import cli
    from lanekit.synth import generate_corpus
    from helpers import aerial_corpus
    corpus = generate_corpus(n=24, seed=3) if rate == 5.0 else aerial_corpus()
    inputs, truth = _write_corpus(corpus, tmp_path / "in")
    (tmp_path / "raw.cfg").write_text("min_lateral_extent = 0\nbias_grid = 0\n"
                                      "brownian_grid = 0\n")
    monkeypatch.setattr(cli, "classify_double", lambda events, layout: list(events))
    config = ("--config", tmp_path / "raw.cfg")
    assert run("detect", *config, *inputs, "--criteria", "peak,distance",
               "--out", tmp_path / "det") == 0
    assert run("robustness", *config, *inputs, "--truth", truth, "--out", tmp_path / "rob") == 0
    with (tmp_path / "det" / "events.csv").open() as fh:
        events = [row["criterion"] for row in csv.DictReader(fh)]
    with (tmp_path / "rob" / "robustness.csv").open() as fh:
        points = list(csv.DictReader(fh))
    assert len(points) == 4
    for point in points:
        assert int(point["detected"]) == events.count(point["criterion"]) > 0
    err = capsys.readouterr().err
    assert ("short skipped" in err) == (rate == 25.0)


def test_detect_skips_lane_out_of_range(workdir, tmp_path, capsys):
    import numpy as np
    from lanekit.io import ingest, write_trajectories
    from helpers import make_trajectory

    normal = ingest(workdir / "trajectories.csv").trajectories
    t = np.arange(0.0, 20.0, 0.2)
    wide = make_trajectory(t, np.zeros(len(t)), vehicle_id="wide")
    wide = wide.with_channels(lane=np.where(t < 10.0, 2, 3))  # lane 3 of lanes 0-2
    write_trajectories(tmp_path / "normal.csv", normal)
    write_trajectories(tmp_path / "mixed.csv", [normal[0], wide, *normal[1:]])

    assert run("detect", "--traj", tmp_path / "normal.csv", "--out", tmp_path / "a") == 0
    capsys.readouterr()
    assert run("detect", "--traj", tmp_path / "mixed.csv", "--out", tmp_path / "b") == 0
    err = capsys.readouterr().err
    assert "warning: vehicle wide skipped: lane index out of range for layout" in err
    events = (tmp_path / "b" / "events.csv").read_text()
    assert events == (tmp_path / "a" / "events.csv").read_text()
    assert len(events.splitlines()) > 1


def _with_wide_vehicle(workdir, tmp_path):
    """normal.csv (the corpus) and mixed.csv (plus ``wide``, in lane 3 of 0-2).

    ``wide`` comes last: the sweep keys its noise by trajectory index.
    """
    import numpy as np
    from lanekit.io import ingest, write_trajectories
    from helpers import make_trajectory

    normal = ingest(workdir / "trajectories.csv").trajectories
    t = np.arange(0.0, 20.0, 0.2)
    wide = make_trajectory(t, np.zeros(len(t)), vehicle_id="wide")
    wide = wide.with_channels(lane=np.where(t < 10.0, 2, 3),
                              s=normal[0].s[0] + 30.0 * t)
    write_trajectories(tmp_path / "normal.csv", normal)
    write_trajectories(tmp_path / "mixed.csv", [*normal, wide])
    return tmp_path / "normal.csv", tmp_path / "mixed.csv"


def test_robustness_skips_lane_out_of_range(workdir, tmp_path, capsys):
    normal, mixed = _with_wide_vehicle(workdir, tmp_path)
    truth = workdir / "truth_events.csv"
    assert run("robustness", "--traj", normal, "--truth", truth, "--out", tmp_path / "a") == 0
    capsys.readouterr()
    assert run("robustness", "--traj", mixed, "--truth", truth, "--out", tmp_path / "b") == 0
    err = capsys.readouterr().err
    assert "warning: vehicle wide skipped: lane index out of range for layout" in err
    for name in ("robustness.csv", "robustness_plot.json"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_criticality_skips_lane_out_of_range(workdir, tmp_path, capsys):
    from lanekit.detection import Direction, EventKind, LaneChangeEvent
    from lanekit.io import read_events, write_events

    normal, mixed = _with_wide_vehicle(workdir, tmp_path)
    assert run("detect", "--traj", normal, "--out", tmp_path / "det") == 0
    events = read_events(tmp_path / "det" / "events.csv")
    assert any(e.kind is EventKind.SINGLE for e in events)
    # an event of the dropped vehicle itself, which must yield no record
    events.append(LaneChangeEvent("wide", 8.0, 10.0, 12.0, 4.0, Direction.LEFT,
                                  30.0, 3.5, EventKind.SINGLE, criterion="peak"))
    write_events(tmp_path / "events.csv", events)

    assert run("criticality", "--traj", normal, "--events", tmp_path / "events.csv",
               "--out", tmp_path / "a") == 0
    capsys.readouterr()
    assert run("criticality", "--traj", mixed, "--events", tmp_path / "events.csv",
               "--out", tmp_path / "b") == 0
    err = capsys.readouterr().err
    assert "warning: vehicle wide skipped: lane index out of range for layout" in err
    for name in ("criticality_records.csv", "histograms.json", "direction_boxes.json"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_criticality_warns_of_events_without_a_vehicle(workdir, tmp_path, capsys):
    from lanekit.detection import Direction, EventKind, LaneChangeEvent
    from lanekit.io import read_events, write_events

    normal, mixed = _with_wide_vehicle(workdir, tmp_path)
    assert run("detect", "--traj", normal, "--out", tmp_path / "det") == 0
    events = read_events(tmp_path / "det" / "events.csv")
    write_events(tmp_path / "events.csv", events)

    def orphan(vid, t):
        return LaneChangeEvent(vid, t, t + 2.0, t + 4.0, 4.0, Direction.LEFT, 30.0, 3.5,
                               EventKind.SINGLE, criterion="peak")

    # "wide" is quarantined by its lane, "ghost" is in no trajectories file
    write_events(tmp_path / "orphans.csv", [orphan("ghost", 3.0), *events, orphan("wide", 8.0),
                                            orphan("ghost", 9.0)])
    assert run("criticality", "--traj", normal, "--events", tmp_path / "events.csv",
               "--out", tmp_path / "a") == 0
    assert "events skipped" not in capsys.readouterr().err
    assert run("criticality", "--traj", mixed, "--events", tmp_path / "orphans.csv",
               "--out", tmp_path / "b") == 0
    err = capsys.readouterr().err.splitlines()
    assert ("warning: 3 events skipped: vehicle not in trajectories (ids ghost, wide)"
            in err)
    for name in ("criticality_records.csv", "histograms.json", "direction_boxes.json"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_criticality_records_match_reference(workdir, tmp_path):
    from lanekit.detection import EventKind
    from lanekit.io import ingest, read_events, read_vehicles, write_records
    from helpers import LAYOUT, ref_most_critical

    det = tmp_path / "det"
    assert run("detect", "--traj", workdir / "trajectories.csv",
               "--vehicles", workdir / "vehicles.csv", "--out", det) == 0
    assert run("criticality", "--traj", workdir / "trajectories.csv",
               "--vehicles", workdir / "vehicles.csv", "--events", det / "events.csv",
               "--out", tmp_path / "crit") == 0
    trajectories = ingest(workdir / "trajectories.csv",
                          shapes=read_vehicles(workdir / "vehicles.csv")).trajectories
    by_id = {traj.vehicle_id: traj for traj in trajectories}
    events = [e for e in read_events(det / "events.csv") if e.kind is EventKind.SINGLE]
    assert len({e.vehicle_id for e in events}) > 1 and len(events) > len(
        {e.vehicle_id for e in events})
    write_records(tmp_path / "ref.csv", [
        ref_most_critical(by_id[e.vehicle_id], trajectories, (e.t_start, e.t_end), LAYOUT,
                          direction=e.direction.value) for e in events])
    assert ((tmp_path / "crit" / "criticality_records.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_robustness(workdir, tmp_path):
    out = tmp_path / "rob"
    assert run("robustness", "--traj", workdir / "trajectories.csv",
               "--truth", workdir / "truth_events.csv", "--out", out,
               "--seed", "1") == 0
    assert (out / "robustness.csv").exists()
    plot = json.loads((out / "robustness_plot.json").read_text())
    assert plot["schema"] == 1
    kinds = {(s["criterion"], s["kind"]) for s in plot["series"]}
    assert kinds == {("peak", "bias"), ("peak", "brownian"),
                     ("distance", "bias"), ("distance", "brownian")}


def test_robustness_skips_short_track(workdir, tmp_path, capsys):
    import numpy as np
    from lanekit.io import ingest, write_trajectories
    from helpers import make_trajectory

    normal = ingest(workdir / "trajectories.csv").trajectories
    t = np.arange(0.0, 1.6, 0.2)  # 8 samples at 5 Hz: too short to low-pass
    short = make_trajectory(t, np.zeros(len(t)), vehicle_id="short")
    write_trajectories(tmp_path / "mixed.csv", [*normal, short])

    truth = workdir / "truth_events.csv"
    assert run("robustness", "--traj", workdir / "trajectories.csv", "--truth", truth,
               "--out", tmp_path / "a") == 0
    capsys.readouterr()
    assert run("robustness", "--traj", tmp_path / "mixed.csv", "--truth", truth,
               "--out", tmp_path / "b") == 0
    assert "warning: vehicle short skipped: insufficient samples" in capsys.readouterr().err
    for name in ("robustness.csv", "robustness_plot.json"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_robustness_sweeps_resampled_tracks_in_place(tmp_path, monkeypatch):
    # a 25 Hz file with a too-short vehicle first: the sweep gets each kept
    # track resampled in its raw track's place, the skipped one raw, and
    # writes what the sweep of the raw ingested corpus writes
    from lanekit import cli
    from lanekit.io import (IngestReport, RunConfig, ingest, read_events, read_vehicles,
                            write_robustness)
    from lanekit.robustness import Perturbation, sweep
    from lanekit.synth import SyntheticCorpus
    from lanekit.trajectory import resample
    from helpers import aerial_corpus, assert_same_ingest
    aerial = aerial_corpus(n=6)
    *tracks, short = aerial.trajectories
    assert len(short.t) == 25 and all(t.rate == 25.0 for t in tracks)
    inputs, truth = _write_corpus(SyntheticCorpus((short, *tracks), aerial.truth_events,
                                                  aerial.layout), tmp_path / "in")
    handed = []

    def spy(corpus, *args, **kwargs):
        handed.append(corpus)
        return sweep(corpus, *args, **kwargs)

    monkeypatch.setattr(cli, "sweep", spy)
    assert run("robustness", *inputs, "--truth", truth, "--out", tmp_path / "cli") == 0

    cfg = RunConfig()
    raw = ingest(tmp_path / "in" / "trajectories.csv",
                 shapes=read_vehicles(tmp_path / "in" / "vehicles.csv")).trajectories
    grid = ([Perturbation("bias", b) for b in cfg.bias_grid]
            + [Perturbation("brownian", b) for b in cfg.brownian_grid])
    report = sweep(SyntheticCorpus(tuple(raw), tuple(read_events(truth)), cfg.layout),
                   ("peak", "distance"), grid, cfg.layout, cfg.peak,
                   distance_threshold=cfg.distance_threshold, seed=cfg.seed,
                   cutoff=cfg.lowpass_cutoff, rate=cfg.resample_rate)
    assert report.skipped == (("short", "insufficient samples"),)
    write_robustness(tmp_path / "ref.csv", tmp_path / "ref.json", report)
    assert (tmp_path / "cli" / "robustness.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert ((tmp_path / "cli" / "robustness_plot.json").read_bytes()
            == (tmp_path / "ref.json").read_bytes())

    [corpus] = handed
    assert [t.rate == cfg.resample_rate for t in corpus.trajectories] == [False] + [True] * 6
    assert_same_ingest(IngestReport(list(corpus.trajectories)), IngestReport(
        [raw[0], *(resample(t, cfg.resample_rate) for t in raw[1:])]))


def test_criticality_and_stats(workdir, tmp_path):
    det = tmp_path / "det"
    assert run("detect", "--traj", workdir / "trajectories.csv",
               "--vehicles", workdir / "vehicles.csv", "--out", det,
               "--criteria", "peak") == 0
    crit = tmp_path / "crit"
    assert run("criticality", "--traj", workdir / "trajectories.csv",
               "--vehicles", workdir / "vehicles.csv",
               "--events", det / "events.csv", "--out", crit) == 0
    assert (crit / "criticality_records.csv").exists()
    hist = json.loads((crit / "histograms.json").read_text())
    assert hist["schema"] == 1
    assert "v" in hist["histograms"]
    assert hist["histograms"]["v"]["threshold"] == pytest.approx(1.3 * 120 / 3.6)

    st = tmp_path / "stats"
    assert run("stats", "--events", det / "events.csv",
               "--vehicles", workdir / "vehicles.csv", "--out", st) == 0
    payload = json.loads((st / "stats.json").read_text())
    assert payload["schema"] == 1
    assert "all" in payload["groups"]
    assert {"duration", "speed"} <= set(payload["groups"]["all"].keys())


def test_criticality_skips_double_events(workdir, tmp_path):
    from dataclasses import replace
    from lanekit.detection import EventKind
    from lanekit.io import read_events, write_events
    assert run("detect", "--traj", workdir / "trajectories.csv", "--criteria", "peak",
               "--out", tmp_path / "det") == 0
    singles = [e for e in read_events(tmp_path / "det" / "events.csv")
               if e.kind is EventKind.SINGLE]
    assert singles
    write_events(tmp_path / "singles.csv", singles)
    write_events(tmp_path / "doubled.csv", [ev for e in singles
                                            for ev in (replace(e, kind=EventKind.DOUBLE), e)])
    for name in ("singles", "doubled"):
        assert run("criticality", "--traj", workdir / "trajectories.csv",
                   "--events", tmp_path / f"{name}.csv", "--out", tmp_path / name) == 0
    for name in ("criticality_records.csv", "histograms.json", "direction_boxes.json"):
        assert (tmp_path / "doubled" / name).read_bytes() == (tmp_path / "singles" / name).read_bytes()


def test_histograms_leave_out_a_metric_without_values(tmp_path):
    # a vehicle alone has no opponent: its distance, THW, DCE and TTCE are NaN
    import csv
    from lanekit.criticality import METRIC_NAMES, record_field
    from lanekit.detection import Direction, LaneChangeEvent
    from lanekit.io import write_events, write_trajectories
    from helpers import sigmoid_lane_change
    write_trajectories(tmp_path / "alone.csv", [sigmoid_lane_change(vehicle_id="r01v0001")])
    write_events(tmp_path / "events.csv", [LaneChangeEvent(
        "r01v0001", 27.0, 30.0, 33.0, 6.0, Direction.LEFT, 30.0, 3.5, criterion="peak")])
    assert run("criticality", "--traj", tmp_path / "alone.csv", "--events", tmp_path / "events.csv",
               "--out", tmp_path / "crit") == 0
    with (tmp_path / "crit" / "criticality_records.csv").open() as fh:
        [record] = list(csv.DictReader(fh))
    empty = {m for m in METRIC_NAMES if record[record_field(m)] == ""}
    assert empty == {"d", "thw", "dce", "ttce"}
    histograms = json.loads((tmp_path / "crit" / "histograms.json").read_text())["histograms"]
    assert set(histograms) == set(METRIC_NAMES) - empty


def test_rejected_vehicles_are_named_on_stderr(workdir, tmp_path, capsys):
    text = (workdir / "trajectories.csv").read_text()
    (tmp_path / "mixed.csv").write_text(text + "back,0.4,12,0,0.1,30,0,0,,\r\n"
                                        "back,0.2,6,0,0.1,30,0,0,,\r\nsolo,1.0,0,0,0.1,30,0,0,,\r\n")
    assert run("detect", "--traj", tmp_path / "mixed.csv", "--out", tmp_path / "det") == 0
    err = capsys.readouterr().err.splitlines()
    assert "warning: vehicle back rejected: non-monotone time" in err
    assert "warning: vehicle solo rejected: fewer than 2 samples" in err


@pytest.mark.parametrize("v_mids,null_speed", [
    (("", ""), {"all", "car", "car/left", "car/right", "left", "right"}),
    (("", "30"), {"car/left", "left"}),
], ids=["all-empty", "mixed"])
def test_stats_speed_is_null_where_no_event_has_v_mid(tmp_path, v_mids, null_speed):
    events = tmp_path / "events.csv"
    events.write_text(
        "vehicle_id,criterion,t_start,t_mid,t_end,duration,direction,v_mid,lateral_extent,kind\n"
        f"a,peak,1,3,5,4,left,{v_mids[0]},3.5,single\n"
        f"b,peak,2,5,8,6,right,{v_mids[1]},3.5,single\n")
    assert run("stats", "--events", events, "--out", tmp_path / "st") == 0
    groups = json.loads((tmp_path / "st" / "stats.json").read_text())["groups"]
    assert {name for name, g in groups.items() if g["speed"] is None} == null_speed
    for g in groups.values():
        assert g["duration"]["n"] >= 1
        assert g["speed"] is None or (g["speed"]["n"], g["speed"]["median"]) == (1, 30.0)


def test_sample_scenario(tmp_path):
    from lanekit.io import write_trajectories, write_vehicles
    from lanekit.synth import overtake_scenario

    spec = overtake_scenario()
    write_trajectories(tmp_path / "scenario_traj.csv", spec.trajectories)
    write_vehicles(tmp_path / "scenario_veh.csv", spec.trajectories)
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("""
trajectories = scenario_traj.csv
vehicles = scenario_veh.csv
substituted_id = ego
duration = 60
cc1_values = 0.9, 0.5
v_desired = 33.0
""")
    out = tmp_path / "sample"
    assert run("sample", "--scenario", scenario, "--out", out) == 0
    header = (out / "thw_traces.csv").read_text().splitlines()[0]
    assert header == "t,opponent_id,thw,cc1"
    assert (out / "simulated_cc1_0.9.csv").exists()
    assert (out / "simulated_cc1_0.5.csv").exists()


@pytest.mark.parametrize("values,message", [
    ("0.3, 0.3000001", "cc1 values 0.3 and 0.3000001 both write simulated_cc1_0.3.csv"),
    ("0.9, 0.5, 0.9", "cc1 values 0.9 and 0.9 both write simulated_cc1_0.9.csv"),
], ids=["near-equal", "repeated"])
def test_sample_rejects_cc1_values_sharing_a_file(tmp_path, capsys, values, message):
    from lanekit.io import write_trajectories
    from lanekit.synth import overtake_scenario

    write_trajectories(tmp_path / "scenario_traj.csv", overtake_scenario().trajectories)
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("trajectories = scenario_traj.csv\nsubstituted_id = ego\n"
                        f"cc1_values = {values}\n")
    out = tmp_path / "sample"
    assert run("sample", "--scenario", scenario, "--out", out) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_mis_eval_scenario(tmp_path):
    scenario = tmp_path / "mis.cfg"
    scenario.write_text("""
mis_on = true
ego_v0 = 30
front_v0 = 30
rear_v0 = 42
front_gap0 = 29
rear_gap0 = 110
""")
    out = tmp_path / "mis"
    assert run("mis-eval", "--scenario", scenario, "--out", out) == 0
    report = json.loads((out / "mis_report.json").read_text())
    assert report["schema"] == 1
    assert report["engaged"] is True
    assert report["planned_decel"] == pytest.approx(1.0, abs=0.2)


@pytest.fixture
def roles_csv(tmp_path):
    """roles.csv with an ego 'e', its front 'f' and a faster rear 'r'."""
    import numpy as np
    from lanekit.io import write_trajectories
    from helpers import make_trajectory

    t = np.arange(0.0, 10.0, 0.2)
    ego = make_trajectory(t, np.zeros(len(t)), v=30.0, vehicle_id="e", markings=False)
    ego = ego.with_channels(s=0.0 + 30.0 * t)
    front = make_trajectory(t, np.zeros(len(t)), v=30.0, vehicle_id="f", markings=False)
    front = front.with_channels(s=33.8 + 30.0 * t)
    rear = make_trajectory(t, np.zeros(len(t)), v=42.0, vehicle_id="r", markings=False)
    rear = rear.with_channels(s=-114.8 + 42.0 * t)
    write_trajectories(tmp_path / "roles.csv", [ego, front, rear])
    return tmp_path / "roles.csv"


def test_mis_eval_role_tagged_trajectories(tmp_path, roles_csv):
    scenario = tmp_path / "mis_roles.cfg"
    scenario.write_text("""
trajectories = roles.csv
role.e = ego
role.f = front
role.r = rear
duration = 45
""")
    out = tmp_path / "mis2"
    assert run("mis-eval", "--scenario", scenario, "--out", out) == 0
    report = json.loads((out / "mis_report.json").read_text())
    assert report["engaged"] is True
    # the initial net gaps of the tagged tracks, as the loop measures gaps
    from lanekit.cli import _mis_scenario_from_file
    from lanekit.io import RunConfig
    from lanekit.wiedemann import CFState, net_gap
    sc, _, _ = _mis_scenario_from_file(str(scenario), RunConfig())
    ego, front, rear = (CFState(s0, v0, length=4.8)
                        for s0, v0 in ((0.0, 30.0), (33.8, 30.0), (-114.8, 42.0)))
    assert (sc.front_gap0, sc.rear_gap0) == (net_gap(ego, front), net_gap(rear, ego))
    assert (sc.front_gap0, sc.rear_gap0) == pytest.approx((29.0, 110.0))


ROLES_CSV = "trajectories = roles.csv\n"


@pytest.mark.parametrize("text,message", [
    (ROLES_CSV + "role.e = ego\nrole.f = frnt\nrole.r = rear\n",
     "scenario key 'role.f': expected ego, front or rear, got 'frnt'"),
    (ROLES_CSV + "role.e = ego\nrole.r = rear\n", "no scenario key 'role.<vehicle_id> = front'"),
    (ROLES_CSV + "role.e = ego\nrole.f = front\nrole.r = front\n",
     "scenario key 'role.r': role 'front' already given by 'role.f'"),
    (ROLES_CSV + "role.x = ego\nrole.f = front\nrole.r = rear\n",
     "scenario key 'role.x': no vehicle 'x' in the trajectories file"),
    ("role.e = ego\nrole.f = front\nrole.r = rear\n",
     "scenario key 'role.e' needs a 'trajectories' key"),
], ids=["misspelt", "missing", "twice", "unknown-id", "no-trajectories"])
def test_mis_eval_role_errors_name_file_and_key(tmp_path, roles_csv, capsys, text, message):
    scenario = tmp_path / "bad_roles.cfg"
    scenario.write_text(text)
    assert run("mis-eval", "--scenario", scenario, "--out", tmp_path / "mis") == 1
    assert f"bad_roles.cfg: {message}" in capsys.readouterr().err
    assert not (tmp_path / "mis" / "mis_report.json").exists()


def test_mis_eval_role_key_given_twice(tmp_path, roles_csv, capsys):
    scenario = tmp_path / "twice.cfg"
    scenario.write_text(ROLES_CSV + "role.e = ego\nrole.f = front\nrole.r = rear\nrole.f = front\n")
    assert run("mis-eval", "--scenario", scenario, "--out", tmp_path / "mis") == 1
    assert "twice.cfg:5: key 'role.f' already set on line 3" in capsys.readouterr().err


MIS_FIXTURE = "ego_v0 = 30\nfront_v0 = 30\nrear_v0 = 42\nfront_gap0 = 29\nrear_gap0 = 110\n"


def _mis_eval(tmp_path, name, text):
    # ``text`` replaces the fixture's lines of the keys it sets: a key given twice is an error
    keys = {line.split("=")[0].strip() for line in text.splitlines()}
    fixture = [line for line in MIS_FIXTURE.splitlines(keepends=True)
               if line.split("=")[0].strip() not in keys]
    scenario = tmp_path / f"{name}.cfg"
    scenario.write_text("".join(fixture) + text)
    out = tmp_path / name
    return run("mis-eval", "--scenario", scenario, "--out", out), out / "mis_report.json"


def test_mis_eval_boolean_spellings(tmp_path, capsys):
    rc_false, report_false = _mis_eval(tmp_path, "false", "mis_on = false\n")
    rc_off, report_off = _mis_eval(tmp_path, "off", "mis_on = off\n")
    assert rc_false == rc_off == 0
    assert json.loads(report_off.read_text())["engaged"] is False
    assert report_off.read_bytes() == report_false.read_bytes()

    rc, report = _mis_eval(tmp_path, "blocked", "left_lane_blocked = yes\nduration = 15\n")
    assert rc == 0
    assert json.loads(report.read_text())["engaged"] is False

    capsys.readouterr()
    assert _mis_eval(tmp_path, "maybe", "mis_on = maybe\n")[0] == 1
    assert "scenario key 'mis_on': expected boolean, got 'maybe'" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("dt = 0\n", "dt must be positive"),
    ("dt = -0.05\n", "dt must be positive"),
    ("lc_duration = 0\n", "lc_duration must be positive"),
    ("duration = -1\n", "duration must be >= 0"),
    ("rear_reaction_delay = -1\n", "rear_reaction_delay must be >= 0"),
    ("duration = inf\n", "duration must be finite"),
    ("rear_reaction_delay = inf\n", "rear_reaction_delay must be finite"),
], ids=["dt-zero", "dt-negative", "lc-duration-zero", "duration-negative", "delay-negative",
        "duration-infinite", "delay-infinite"])
def test_mis_eval_rejects_bad_timing(tmp_path, capsys, text, message):
    assert _mis_eval(tmp_path, "timing", text)[0] == 1
    assert f"error: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("ego_v0 = nan\n", "ego_v0 must be finite"),
    ("ego_v0 = -5\n", "ego_v0 must be >= 0"),
    ("rear_v0 = inf\n", "rear_v0 must be finite"),
    ("front_gap0 = inf\n", "front_gap0 must be finite"),
    ("rear_gap0 = -3\n", "rear_gap0 must be >= 0"),
    ("rear_v_desired = -1\n", "rear_v_desired must be positive"),
    ("rear_cc1 = 0.5\nrear_v0 = 0\n", "rear_v0 must be positive"),
], ids=["ego-speed-nan", "ego-speed-negative", "rear-speed-infinite", "front-gap-infinite",
        "rear-gap-negative", "rear-desired-speed-negative", "rear-desired-speed-from-rear-v0"])
def test_mis_eval_rejects_bad_speeds_and_gaps(tmp_path, capsys, text, message):
    rc, report = _mis_eval(tmp_path, "kinematics", text)
    assert rc == 1 and not report.exists()
    assert f"error: {message}\n" in capsys.readouterr().err


def test_mis_eval_rejects_a_tagged_front_overlapping_the_ego(tmp_path, capsys):
    # the gaps come from the tagged tracks: a front 3 m ahead of the ego
    # overlaps it (two 4.8 m cars), a net gap of -1.8 m
    import numpy as np
    from lanekit.io import write_trajectories
    from helpers import make_trajectory

    t = np.arange(0.0, 10.0, 0.2)
    write_trajectories(tmp_path / "roles.csv", [
        make_trajectory(t, np.zeros(len(t)), v=v, vehicle_id=vid,
                        markings=False).with_channels(s=s0 + v * t)
        for vid, s0, v in (("e", 0.0, 30.0), ("f", 3.0, 30.0), ("r", -114.8, 42.0))])
    scenario = tmp_path / "overlap.cfg"
    scenario.write_text(ROLES_CSV + "role.e = ego\nrole.f = front\nrole.r = rear\n")
    assert run("mis-eval", "--scenario", scenario, "--out", tmp_path / "mis") == 1
    assert "error: front_gap0 must be >= 0\n" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("dt = 0\n", "dt must be positive and <= 0.1 s"),
    ("dt = -0.05\n", "dt must be positive and <= 0.1 s"),
    ("duration = -5\n", "duration must be positive"),
    ("duration = 0.01\n", "duration 0.01 s is less than one rollout step of dt 0.05 s: "
                          "need round(duration / dt) >= 1"),
    ("duration = 0.05\ndt = 0.1\n", "duration 0.05 s is less than one rollout step of "
                                    "dt 0.1 s: need round(duration / dt) >= 1"),
], ids=["dt-zero", "dt-negative", "duration-negative", "duration-under-a-step",
        "duration-half-a-step"])
def test_sample_rejects_bad_timing(tmp_path, capsys, text, message):
    from lanekit.io import write_trajectories
    from lanekit.synth import overtake_scenario

    write_trajectories(tmp_path / "scenario_traj.csv", overtake_scenario().trajectories)
    scenario = tmp_path / "timing.cfg"
    scenario.write_text("trajectories = scenario_traj.csv\nsubstituted_id = ego\n" + text)
    assert run("sample", "--scenario", scenario, "--out", tmp_path / "sample") == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not any((tmp_path / "sample").iterdir())


@pytest.mark.parametrize("text,message", [
    ("cc1_values = 0.9, nan\n", "cc1 must be finite"),
    ("cc1_values = 0.9, inf\n", "cc1 must be finite"),
    ("duration = inf\n", "duration must be finite"),
    ("v_desired = nan\n", "v_desired must be finite"),
], ids=["cc1-nan", "cc1-infinite", "duration-infinite", "v-desired-nan"])
def test_sample_rejects_non_finite_values(tmp_path, capsys, text, message):
    from lanekit.io import write_trajectories
    from lanekit.synth import overtake_scenario

    write_trajectories(tmp_path / "scenario_traj.csv", overtake_scenario().trajectories)
    scenario = tmp_path / "values.cfg"
    scenario.write_text("trajectories = scenario_traj.csv\nsubstituted_id = ego\n" + text)
    assert run("sample", "--scenario", scenario, "--out", tmp_path / "sample") == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not any((tmp_path / "sample").iterdir())


@pytest.mark.parametrize("text,message", [
    ("inject_front_brake = nan\n", "inject_front_brake must be finite"),
    ("inject_front_brake = 4\ninject_t = nan\n", "inject_t must be finite"),
    ("overtake_trigger_thw = nan\n", "overtake_trigger_thw must be finite"),
    ("rear_cc1 = nan\n", "rear_cc1 must be finite"),
    ("rear_v_desired = inf\n", "rear_v_desired must be finite"),
    ("rear_cc1 = 0.5\nrear_v0 = nan\n", "rear_v0 must be finite"),
], ids=["brake-nan", "brake-time-nan", "trigger-nan", "rear-cc1-nan", "rear-v-desired-infinite",
        "rear-speed-nan"])
def test_mis_eval_rejects_non_finite_values(tmp_path, capsys, text, message):
    rc, report = _mis_eval(tmp_path, "values", text)
    assert rc == 1 and not any(report.parent.iterdir())
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_scenario_key(tmp_path, capsys):
    assert _mis_eval(tmp_path, "typo", "inject_front_brak = 4\n")[0] == 1
    err = capsys.readouterr().err
    assert "typo.cfg: unknown scenario key 'inject_front_brak'" in err

    from lanekit.io import write_trajectories
    from lanekit.synth import overtake_scenario

    write_trajectories(tmp_path / "scenario_traj.csv", overtake_scenario().trajectories)
    scenario = tmp_path / "sample_typo.cfg"
    scenario.write_text("trajectories = scenario_traj.csv\nsubstituted_id = ego\n"
                        "cc1_value = 0.5\n")
    assert run("sample", "--scenario", scenario, "--out", tmp_path / "sample") == 1
    assert "sample_typo.cfg: unknown scenario key 'cc1_value'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["substituted_id = ego\n",
                                  "trajectories = scenario_traj.csv\nduration = 5\n"])
def test_sample_scenario_needs_trajectories_and_substituted_id(tmp_path, capsys, text):
    from lanekit.io import write_trajectories
    from lanekit.synth import overtake_scenario

    write_trajectories(tmp_path / "scenario_traj.csv", overtake_scenario().trajectories)
    scenario = tmp_path / "short.cfg"
    scenario.write_text(text)
    assert run("sample", "--scenario", scenario, "--out", tmp_path / "sample") == 1
    assert "needs 'trajectories' and 'substituted_id'" in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [("sample", "substituted_id = ego\n"),
                                          ("mis-eval", MIS_FIXTURE)], ids=["sample", "mis-eval"])
def test_scenario_vehicles_need_trajectories(workdir, tmp_path, capsys, command, text):
    scenario = tmp_path / "no_traj.cfg"
    scenario.write_text(f"vehicles = {workdir / 'vehicles.csv'}\n" + text)
    assert run(command, "--scenario", scenario, "--out", tmp_path / "out") == 1
    assert ("no_traj.cfg: scenario key 'vehicles' needs a 'trajectories' key"
            in capsys.readouterr().err)
    assert not any((tmp_path / "out").iterdir())


def test_scenario_coercion_error_names_the_key(tmp_path, capsys):
    assert _mis_eval(tmp_path, "lane", "lane = 0.5\n")[0] == 1
    assert "lane.cfg: scenario key 'lane': expected int, got '0.5'" in capsys.readouterr().err


def test_config_error_names_the_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("lane_count = 3.0\n")
    assert run("synth", "--config", config, "--out", tmp_path / "s", "--n", "2") == 1
    assert "error: config key 'lane_count': expected int, got '3.0'" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("thw_crit = -1", "thw_crit must be positive"),
    ("lane_count = 0", "lane_count must be >= 1"),
    ("resample_rate = nan", "resample_rate must be finite\n"),
    ("lowpass_cutoff = nan", "lowpass_cutoff must be finite\n"),
    ("min_lateral_extent = -1", "min_lateral_extent must be >= 0\n"),
    ("marking_tolerance = inf", "marking_tolerance must be finite\n"),
    ("truck_fraction = 1.5", "truck_fraction must be in [0, 1]"),
    ("synth_n = -3", "synth_n must be >= 0"),
    ("bias_grid = 0, nan", "bias_grid: magnitude must be finite"),
    ("brownian_grid = 0, -0.01", "brownian_grid: magnitude must be >= 0"),
    ("distance_threshold = 5", "distance_threshold must be in (0, lane_width/2)\n"),
    ("sim_dt = 1", "sim_dt must be positive and <= 0.1 s\n"),
    ("v_desired = -1", "v_desired must be positive\n"),
])
def test_out_of_range_config_fails_for_any_subcommand(workdir, tmp_path, capsys, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    # stats reads neither the thresholds nor the layout
    assert run("stats", "--config", config, "--events", workdir / "truth_events.csv",
               "--out", tmp_path / "st") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "st").exists()


def _float_config_keys():
    """Every float key a config file can set, from the sections and
    settings of ``RunConfig``."""
    from lanekit.io import _SECTIONS, RunConfig, field_types

    cfg = RunConfig()
    keys = [name for name, kind in field_types(cfg).items() if kind is float]
    for section, prefix in _SECTIONS.items():
        keys += [prefix + name for name, kind in field_types(getattr(cfg, section)).items()
                 if kind is float]
    return keys


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _float_config_keys())
def test_non_finite_config_float_fails_for_any_subcommand(workdir, tmp_path, capsys, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    assert run("stats", "--config", config, "--events", workdir / "truth_events.csv",
               "--out", tmp_path / "st") == 1
    assert capsys.readouterr().err == f"error: {key} must be finite\n"
    assert not (tmp_path / "st").exists()


# each subcommand's required options; the files need not exist
REQUIRED_ARGS = {
    "synth": (),
    "detect": ("--traj", "t.csv"),
    "robustness": ("--traj", "t.csv", "--truth", "e.csv"),
    "criticality": ("--traj", "t.csv", "--events", "e.csv"),
    "stats": ("--events", "e.csv"),
    "sample": ("--scenario", "s.cfg"),
    "mis-eval": ("--scenario", "s.cfg"),
}


@pytest.mark.parametrize("command", REQUIRED_ARGS)
def test_config_that_fails_to_load_creates_no_output(tmp_path, capsys, command):
    config = tmp_path / "run.cfg"
    config.write_text("thw_crit = -1\n")
    assert run(command, *REQUIRED_ARGS[command], "--config", config,
               "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == "error: thw_crit must be positive\n"
    assert not (tmp_path / "out").exists()


def test_negative_synth_n_option_fails(tmp_path, capsys):
    assert run("synth", "--n", "-3", "--out", tmp_path / "neg") == 1
    assert capsys.readouterr().err == "error: synth_n must be >= 0\n"
    assert not (tmp_path / "neg").exists()


def test_readme_ini_blocks_parse(tmp_path):
    """Each ini block of README.md parses with the parser its first line names."""
    from lanekit.cli import _mis_scenario_from_file, _scenario_from_file
    from lanekit.io import RunConfig, write_trajectories, write_vehicles
    from lanekit.synth import overtake_scenario

    spec = overtake_scenario()
    (tmp_path / "data").mkdir()
    write_trajectories(tmp_path / "data/trajectories.csv", spec.trajectories)
    write_vehicles(tmp_path / "data/vehicles.csv", spec.trajectories)
    parsers = {"# config": RunConfig.from_file,
               "# sample scenario": lambda p: _scenario_from_file(p, RunConfig()),
               "# mis-eval scenario": lambda p: _mis_scenario_from_file(p, RunConfig())}
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)
    assert sorted(block.splitlines()[0] for block in blocks) == sorted(parsers)
    for i, block in enumerate(blocks):
        path = tmp_path / f"block{i}.cfg"
        path.write_text(block)
        parsers[block.splitlines()[0]](str(path))


def test_readme_python_blocks_run():
    """The python blocks of README.md run in order in one namespace."""
    import ast

    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    namespace = {}
    for block in blocks:
        *body, last = ast.parse(block).body  # each ends in an expression, whose value we keep
        assert isinstance(last, ast.Expr)
        exec(compile(ast.Module(body, []), "README.md", "exec"), namespace)
        value = eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace)
    assert ast.unparse(last).startswith("lk.thw(")
    assert value == pytest.approx(0.84, abs=1e-12)


def _with_row(source, path, row):
    """``source`` with ``row`` appended, written to ``path``; its line number."""
    text = source.read_text() + row + "\n"
    path.write_text(text)
    return len(text.splitlines())


@pytest.mark.parametrize("row,message", [
    ("r00v0000,car,4.8", "expected 4 fields, got 3"),
    ("r00v0000,car,long,2.0", "could not convert string to float: 'long'"),
    ("r00v0000,bus,4.8,2.0", "'bus' is not a valid VehicleClass"),
], ids=["short", "number", "class"])
def test_malformed_vehicles_row_names_file_and_line(workdir, tmp_path, capsys, row, message):
    vehicles = tmp_path / "vehicles.csv"
    line = _with_row(workdir / "vehicles.csv", vehicles, row)
    assert run("detect", "--traj", workdir / "trajectories.csv", "--vehicles", vehicles,
               "--out", tmp_path / "det") == 1
    assert f"error: {vehicles}:{line}: {message}" in capsys.readouterr().err


def test_infinite_vehicle_length_fails_criticality(workdir, tmp_path, capsys):
    vehicles = tmp_path / "vehicles.csv"
    line = _with_row(workdir / "vehicles.csv", vehicles, "r00v0000,truck,inf,2.5")
    assert run("criticality", "--traj", workdir / "trajectories.csv", "--vehicles", vehicles,
               "--events", workdir / "truth_events.csv", "--out", tmp_path / "crit") == 1
    assert capsys.readouterr().err == f"error: {vehicles}:{line}: length must be finite\n"
    assert not any((tmp_path / "crit").iterdir())


@pytest.mark.parametrize("edit,message", [
    (lambda f: f[:4], "expected 10 fields, got 4"),
    (lambda f: f[:2] + ["soon"] + f[3:], "could not convert string to float: 'soon'"),
    (lambda f: f[:6] + ["up"] + f[7:], "'up' is not a valid Direction"),
    (lambda f: f[:9] + ["triple"], "'triple' is not a valid EventKind"),
    (lambda f: f[:4] + ["nan"] + f[5:], "t_end: expected a finite number, got 'nan'"),
    (lambda f: f[:2] + ["-inf"] + f[3:], "t_start: expected a finite number, got '-inf'"),
    (lambda f: f[:7] + ["inf"] + f[8:], "v_mid: expected a finite number, empty or nan, "
                                        "got 'inf'"),
    (lambda f: f[:8] + ["nan"] + f[9:], "lateral_extent: expected a finite number, got 'nan'"),
    (lambda f: f[:8] + ["-inf"] + f[9:], "lateral_extent: expected a finite number, got '-inf'"),
    (lambda f: f[:2] + [f[4], f[3], f[2]] + f[5:], "t_end: expected at least t_start "),
    (lambda f: f[:5] + ["-3"] + f[6:], "duration: expected a number >= 0, got '-3'"),
], ids=["short", "number", "direction", "kind", "nan-end", "infinite-start", "infinite-v-mid",
        "nan-extent", "infinite-extent", "reversed-window", "negative-duration"])
@pytest.mark.parametrize("command", ["stats", "criticality"])
def test_malformed_events_row_names_file_and_line(workdir, tmp_path, capsys, command, edit,
                                                  message):
    truth = workdir / "truth_events.csv"
    events = tmp_path / "events.csv"
    line = _with_row(truth, events, ",".join(edit(truth.read_text().splitlines()[1].split(","))))
    inputs = ["--traj", workdir / "trajectories.csv"] if command == "criticality" else []
    assert run(command, *inputs, "--events", events, "--out", tmp_path / "out") == 1
    assert f"error: {events}:{line}: {message}" in capsys.readouterr().err


def test_sample_warns_of_rejected_rows(tmp_path, capsys):
    from lanekit.io import write_trajectories
    from lanekit.synth import overtake_scenario

    write_trajectories(tmp_path / "clean.csv", overtake_scenario().trajectories)
    _with_row(tmp_path / "clean.csv", tmp_path / "scenario_traj.csv",
              "opp1,60.2,nan,0,0,24,0,0,,\nopp1,60.4")
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("trajectories = scenario_traj.csv\nsubstituted_id = ego\n")
    out = tmp_path / "sample"
    assert run("sample", "--scenario", scenario, "--out", out) == 0
    assert "warning: 2 rows rejected" in capsys.readouterr().err
    assert len((out / "thw_traces.csv").read_text().splitlines()) > 1


def test_error_exit_code(tmp_path):
    assert run("detect", "--traj", tmp_path / "missing.csv",
               "--out", tmp_path) == 1


def test_no_subcommand_imports_scipy(tmp_path):
    # a fresh process runs every subcommand in turn: this one imports scipy
    # for the reference tests
    from lanekit.io import write_trajectories
    from lanekit.synth import overtake_scenario

    write_trajectories(tmp_path / "scene.csv", overtake_scenario().trajectories)
    (tmp_path / "scene.cfg").write_text("trajectories = scene.csv\nsubstituted_id = ego\n"
                                        "cc1_values = 0.9\nduration = 20\n")
    (tmp_path / "mis.cfg").write_text(MIS_FIXTURE)
    d = str(tmp_path)
    commands = [
        ["synth", "--n", "5", "--seed", "3", "--out", d],
        ["detect", "--traj", f"{d}/trajectories.csv", "--vehicles", f"{d}/vehicles.csv",
         "--out", d],
        ["robustness", "--traj", f"{d}/trajectories.csv", "--truth", f"{d}/truth_events.csv",
         "--out", d],
        ["criticality", "--traj", f"{d}/trajectories.csv", "--events", f"{d}/events.csv",
         "--out", d],
        ["stats", "--events", f"{d}/events.csv", "--vehicles", f"{d}/vehicles.csv", "--out", d],
        ["sample", "--scenario", f"{d}/scene.cfg", "--out", d],
        ["mis-eval", "--scenario", f"{d}/mis.cfg", "--out", d],
    ]
    assert [c[0] for c in commands] == list(REQUIRED_ARGS)
    script = (
        "import json, sys\n"
        "import lanekit.cli\n"
        "codes = [lanekit.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    src = str(Path(lanekit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=300)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] False", done.stderr
    for name in ("events.csv", "robustness.csv", "criticality_records.csv", "stats.json",
                 "thw_traces.csv", "mis_report.json"):
        assert (tmp_path / name).exists()

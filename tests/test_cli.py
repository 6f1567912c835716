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


MIS_FIXTURE = "ego_v0 = 30\nfront_v0 = 30\nrear_v0 = 42\nfront_gap0 = 29\nrear_gap0 = 110\n"


def _mis_eval(tmp_path, name, text):
    scenario = tmp_path / f"{name}.cfg"
    scenario.write_text(MIS_FIXTURE + text)
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


def test_scenario_coercion_error_names_the_key(tmp_path, capsys):
    assert _mis_eval(tmp_path, "lane", "lane = 0.5\n")[0] == 1
    assert "lane.cfg: scenario key 'lane': expected int, got '0.5'" in capsys.readouterr().err


def test_config_error_names_the_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("lane_count = 3.0\n")
    assert run("synth", "--config", config, "--out", tmp_path / "s", "--n", "2") == 1
    assert "error: config key 'lane_count': expected int, got '3.0'" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [("thw_crit = -1", "thw_crit must be positive"),
                                          ("lane_count = 0", "lane_count must be >= 1")])
def test_out_of_range_config_fails_for_any_subcommand(workdir, tmp_path, capsys, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    # stats reads neither the thresholds nor the layout
    assert run("stats", "--config", config, "--events", workdir / "truth_events.csv",
               "--out", tmp_path / "st") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "st").exists()


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


def test_error_exit_code(tmp_path):
    assert run("detect", "--traj", tmp_path / "missing.csv",
               "--out", tmp_path) == 1


def test_stats_leaves_scipy_signal_unimported(workdir, tmp_path):
    # a fresh process: this one has long imported scipy.signal
    script = (
        "import sys\n"
        "import lanekit.cli\n"
        "rc = lanekit.cli.main(['stats', '--events', sys.argv[1], '--vehicles',"
        " sys.argv[2], '--out', sys.argv[3]])\n"
        "print(rc, 'scipy.signal' in sys.modules)\n"
    )
    src = str(Path(lanekit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, str(workdir / "truth_events.csv"),
         str(workdir / "vehicles.csv"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 False", done.stderr
    assert (tmp_path / "stats.json").exists()

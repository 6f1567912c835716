"""Acceptance suite: the exit criteria of the toolkit, one test each.

Every test prints a single PASS/FAIL line tagged with its criterion number
so the suite output doubles as the acceptance report.  Tolerances and
runtime budgets are pinned here, not configurable.
"""

import functools
import math
import time

import numpy as np
import pytest

from lanekit.criticality import KinState, Thresholds, classify, ttce_dce
from lanekit.detection import (
    detect_distance,
    detect_gradient,
    detect_peak,
    rel_height_from_widths,
)
from lanekit.io import fmt
from lanekit.mis import FrontBrakeInjection, MISConfig, MISScenario, run_closed_loop
from lanekit.robustness import Perturbation, inject_bias, sweep
from lanekit.synth import generate_corpus, overtake_scenario
from lanekit.trajectory import LaneLayout, VehicleShape
from lanekit.wiedemann import CFState, W99Params, sample_cc1, w99_accel

LAYOUT = LaneLayout()
BIAS_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
DISTANCE_THRESHOLD = 0.8


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {label}")
                raise
            print(f"\nACCEPTANCE {number}: PASS - {label}")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(n=200, seed=0)


def exported(events):
    return [(e.vehicle_id, fmt(e.t_start), fmt(e.t_mid), fmt(e.t_end),
             fmt(e.duration), e.direction.value, fmt(e.v_mid),
             fmt(e.lateral_extent), e.kind.value) for e in events]


@criterion(1, "bias invariance of the peak criterion, bias fragility of the "
              "distance criterion")
def test_criterion_1_bias(corpus):
    t0 = time.time()
    baseline = None
    for bias in BIAS_GRID:
        events = []
        for traj in corpus.trajectories:
            events.extend(detect_peak(inject_bias(traj, bias), corpus.layout))
        snap = exported(events)
        if baseline is None:
            baseline = snap
        assert snap == baseline, f"peak event list changed at bias {bias}"

    truth = len(corpus.truth_events)
    for bias in BIAS_GRID:
        detected = 0
        for traj in corpus.trajectories:
            biased = inject_bias(traj, bias)
            detected += len(detect_distance(biased, corpus.layout, DISTANCE_THRESHOLD))
        if bias >= DISTANCE_THRESHOLD:
            assert abs(detected - truth) / truth >= 0.10, (
                f"distance criterion too robust at bias {bias}: {detected}/{truth}")
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f} s"


@criterion(2, "noise-sensitivity ordering: the peak criterion is hit far "
              "harder by Brownian noise than the distance criterion")
def test_criterion_2_noise(corpus):
    grid = [Perturbation("brownian", 0.05)]
    runs = {}
    for crit in ("peak", "distance"):
        a = sweep(corpus, crit, grid, corpus.layout, refilter=False, seed=0)
        b = sweep(corpus, crit, grid, corpus.layout, refilter=False, seed=0)
        assert a == b, "sweep not deterministic under fixed seed"
        runs[crit] = a.points[0]
    truth = runs["peak"].truth
    peak_dev = abs(runs["peak"].detected - truth)
    dist_dev = abs(runs["distance"].detected - truth)
    assert peak_dev > dist_dev, (
        f"expected peak criterion to deviate more: peak {peak_dev}, "
        f"distance {dist_dev} (truth {truth})")


@criterion(3, "detection accuracy at zero perturbation: gradient recall "
              "100 %, peak recall/precision >= 95 %, durations within 20 %")
def test_criterion_3_accuracy(corpus):
    truth_by_vehicle = {}
    for ev in corpus.truth_events:
        truth_by_vehicle.setdefault(ev.vehicle_id, []).append(ev)

    n_truth = len(corpus.truth_events)
    n_grad = n_peak = grad_matched = peak_matched = durations_ok = 0
    for traj in corpus.trajectories:
        truth = truth_by_vehicle.get(traj.vehicle_id, [])
        grad = detect_gradient(traj, corpus.layout)
        peak = detect_peak(traj, corpus.layout)
        n_grad += len(grad)
        n_peak += len(peak)
        for te in truth:
            if any(abs(e.t_mid - te.t_mid) < 2.0 and e.direction == te.direction
                   for e in grad):
                grad_matched += 1
            hits = [e for e in peak
                    if abs(e.t_mid - te.t_mid) < 2.0 and e.direction == te.direction]
            if hits:
                peak_matched += 1
                if abs(hits[0].duration / te.duration - 1.0) <= 0.20:
                    durations_ok += 1

    assert grad_matched == n_truth, "gradient recall below 100 %"
    assert peak_matched / n_truth >= 0.95
    assert peak_matched / n_peak >= 0.95
    assert durations_ok / peak_matched >= 0.90


@criterion(4, "relative evaluation height formula")
def test_criterion_4_rel_height():
    expected = 1.0 - (2.0 / 3.5) / 2.0
    assert abs(rel_height_from_widths(2.0, 3.5) - expected) <= 1e-12


@criterion(5, "closest-encounter closed form matches the 1 ms brute-force "
              "minimizer within 1e-3 on 1000 seeded pairs")
def test_criterion_5_oracle():
    t0 = time.time()
    point = VehicleShape(1e-9, 0.5e-9)
    rng = np.random.default_rng(42)
    grid = np.arange(0.0, 60.0 + 5e-4, 1e-3)
    for _ in range(1000):
        speed = rng.uniform(2.0, 30.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        vs, vy = speed * np.cos(ang), speed * np.sin(ang)
        miss = rng.uniform(0.5, 30.0)
        side = rng.choice([-1.0, 1.0])
        ms, my = -vy / speed * miss * side, vs / speed * miss * side
        t_star = (-rng.uniform(0.5, 20.0) if rng.random() < 0.25
                  else rng.uniform(0.0, 40.0))
        ps, py = ms - t_star * vs, my - t_star * vy

        tc, dc = ttce_dce(KinState(0, 0, 0, 0),
                          KinState(ps, py, vs, vy), point, point)
        d = np.hypot(ps + grid * vs, py + grid * vy)
        i = int(np.argmin(d))
        assert abs(tc - grid[i]) <= 1e-3
        assert abs(dc - d[i]) <= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"criterion 5 took {elapsed:.1f} s"


@criterion(6, "threshold classification on 14 hand-built boundary cases")
def test_criterion_6_thresholds():
    thr = Thresholds()
    v_lim = LAYOUT.speed_limit

    def gated_dce(dce, ttce):
        return dce if ttce < thr.ttce_gate else math.nan

    blank = {m: math.nan for m in ("d", "v", "a_lon", "a_lat", "thw", "dce", "ttce")}
    cases = [
        ({"d": 1.0}, "d", False),
        ({"d": 0.999}, "d", True),
        ({"v": 1.3 * v_lim}, "v", False),
        ({"v": 1.3 * v_lim + 0.07}, "v", True),
        ({"a_lon": 8.0}, "a_lon", False),
        ({"a_lon": 8.01}, "a_lon", True),
        ({"a_lat": 8.0}, "a_lat", False),
        ({"a_lat": 8.01}, "a_lat", True),
        ({"thw": 0.9}, "thw", False),
        ({"thw": 0.899}, "thw", True),
        ({"dce": gated_dce(0.5, 3.0)}, "dce", False),   # gate blocks
        ({"dce": gated_dce(0.5, 2.5)}, "dce", True),    # gate admits
        ({"ttce": 2.6}, "ttce", False),
        ({"ttce": 2.599}, "ttce", True),
    ]
    assert len(cases) == 14
    for overrides, metric, expected in cases:
        flags = classify(dict(blank, **overrides), thr, v_lim)
        assert flags[metric] is expected, (metric, overrides, expected)


@criterion(7, "car-following steady state and cc1 sampling pattern")
def test_criterion_7_w99():
    t0 = time.time()
    dt = 0.05
    for v_leader in (15.0, 25.0, 35.0):
        p = W99Params(v_desired=v_leader + 8.0)
        s_f, v_f, a_f = 0.0, v_leader + 5.0, 0.0
        s_l = 120.0
        gaps = []
        for k in range(int(300.0 / dt)):
            a_f = w99_accel(CFState(s_f, v_f, a_f, 4.5),
                            CFState(s_l, v_leader, 0.0, 4.5), p)
            s_f += v_f * dt
            v_f = max(v_f + a_f * dt, 0.0)
            s_l += v_leader * dt
            if k * dt > 200.0:
                gaps.append(s_l - s_f - 4.5)
        target = p.desired_gap(v_leader)
        assert np.mean(gaps) == pytest.approx(target, rel=0.15), v_leader

    result = sample_cc1(overtake_scenario(), [0.9, 0.7, 0.5, 0.3, 0.1])
    m1 = [sc.min_thw["opp1"] for sc in result.scenarios]
    m2 = [sc.min_thw["opp2"] for sc in result.scenarios]
    assert all(b <= a + 1e-12 for a, b in zip(m1, m1[1:])), m1
    assert (max(m2) - min(m2)) / min(m2) < 0.05, m2
    elapsed = time.time() - t0
    assert elapsed < 20.0, f"criterion 7 took {elapsed:.1f} s"


@criterion(8, "margin increase system reference behavior")
def test_criterion_8_mis():
    t0 = time.time()
    scenario = MISScenario()
    cfg = MISConfig()

    on = run_closed_loop(scenario, cfg, None, mis_on=True)
    assert on.engaged
    # engagement fired once the rear vehicle was inside 100 m closing
    # faster than 10 km/h with the left lane free
    i = int(np.searchsorted(on.t, on.engagement_time))
    assert on.rear_gap[i] <= cfg.rear_detect_range + 1e-6
    assert on.planned_decel == pytest.approx(1.0, abs=0.2)
    assert on.target_reached_rear_gap > 5.0, "margin not built before d_R < 5 m"
    assert not on.braked_during_window
    assert not on.collision

    off = run_closed_loop(scenario, cfg, FrontBrakeInjection(decel=4.0),
                          mis_on=False)
    assert off.rear_gap_violation, (
        f"cascade without the system left min rear gap {off.min_rear_gap:.2f} m")
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"criterion 8 took {elapsed:.1f} s"


@criterion(9, "byte-identical outputs for every subcommand under a fixed seed")
def test_criterion_9_reproducibility(tmp_path):
    from lanekit.cli import main
    from lanekit.io import write_trajectories, write_vehicles

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    spec = overtake_scenario()
    write_trajectories(tmp_path / "sc_traj.csv", spec.trajectories)
    write_vehicles(tmp_path / "sc_veh.csv", spec.trajectories)
    (tmp_path / "scenario.cfg").write_text(
        "trajectories = sc_traj.csv\nvehicles = sc_veh.csv\n"
        "substituted_id = ego\nduration = 60\ncc1_values = 0.9, 0.5\n"
        "v_desired = 33.0\n")
    (tmp_path / "mis.cfg").write_text(
        "mis_on = true\nego_v0 = 30\nfront_v0 = 30\nrear_v0 = 42\n"
        "front_gap0 = 29\nrear_gap0 = 110\n")

    outputs = {}
    for run_id in ("a", "b"):
        base = tmp_path / run_id
        run("synth", "--out", base / "synth", "--n", "12", "--seed", "5")
        run("detect", "--traj", base / "synth/trajectories.csv",
            "--vehicles", base / "synth/vehicles.csv", "--out", base / "detect")
        run("robustness", "--traj", base / "synth/trajectories.csv",
            "--truth", base / "synth/truth_events.csv",
            "--out", base / "rob", "--seed", "5")
        run("criticality", "--traj", base / "synth/trajectories.csv",
            "--vehicles", base / "synth/vehicles.csv",
            "--events", base / "detect/events.csv", "--out", base / "crit")
        run("stats", "--events", base / "detect/events.csv",
            "--vehicles", base / "synth/vehicles.csv", "--out", base / "stats")
        run("sample", "--scenario", tmp_path / "scenario.cfg",
            "--out", base / "sample")
        run("mis-eval", "--scenario", tmp_path / "mis.cfg",
            "--out", base / "mis")
        outputs[run_id] = sorted(p for p in (base).rglob("*") if p.is_file())

    assert [p.name for p in outputs["a"]] == [p.name for p in outputs["b"]]
    for pa, pb in zip(outputs["a"], outputs["b"]):
        assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs between runs"

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanekit.criticality import (
    METRIC_NAMES,
    CriticalityRecord,
    KinState,
    Thresholds,
    _encounter,
    classify,
    critical_records,
    direction_stats,
    encounter,
    euclidean_distance,
    most_critical,
    thw,
    ttce_dce,
)
from lanekit.synth import generate_corpus
from lanekit.trajectory import Trajectory, VehicleShape

from helpers import (
    CAR,
    LAYOUT,
    TRUCK,
    assert_same_record,
    ref_distance,
    ref_most_critical,
    ref_thw,
    ref_ttce_dce,
    same_float,
)

POINT = VehicleShape(1e-6, 0.5e-6)
V_LIM = LAYOUT.speed_limit  # 33.33 m/s


def state(s=0.0, y=0.0, vs=0.0, vy=0.0):
    return KinState(0.0, s, y, vs, vy)


# ---------------------------------------------------------------------------
# euclidean distance

def test_overlap_gives_zero():
    assert euclidean_distance(state(), state(), CAR, CAR) == 0.0


def test_longitudinal_gap():
    a = VehicleShape(5.0, 2.0)
    assert euclidean_distance(state(0.0), state(30.0), a, a) == pytest.approx(25.0)


def test_lateral_gap():
    a = VehicleShape(5.0, 2.0)
    assert euclidean_distance(state(0.0, 0.0), state(0.0, 3.5), a, a) == pytest.approx(1.5)


@settings(max_examples=100, deadline=None)
@given(st.floats(-100, 100), st.floats(-10, 10), st.floats(-100, 100),
       st.floats(-10, 10))
def test_distance_symmetry(s1, y1, s2, y2):
    a, b = state(s1, y1), state(s2, y2)
    assert euclidean_distance(a, b, CAR, CAR) == euclidean_distance(b, a, CAR, CAR)


# ---------------------------------------------------------------------------
# time headway

def test_thw_at_critical_boundary():
    # bumper gap 27 m at 30 m/s: exactly the 0.9 s threshold, not critical
    a = VehicleShape(5.0, 2.0)
    value = thw(state(0.0, vs=30.0), state(32.0), a, a)
    assert value == pytest.approx(0.9)
    flags = classify({"d": math.nan, "v": math.nan, "a_lon": math.nan,
                      "a_lat": math.nan, "thw": value, "dce": math.nan,
                      "ttce": math.nan}, Thresholds(), V_LIM)
    assert not flags["thw"]


def test_thw_below_threshold_is_critical():
    a = VehicleShape(5.0, 2.0)
    value = thw(state(0.0, vs=30.0), state(23.0), a, a)  # gap 18 m
    assert value == pytest.approx(0.6)
    flags = classify({"d": math.nan, "v": math.nan, "a_lon": math.nan,
                      "a_lat": math.nan, "thw": value, "dce": math.nan,
                      "ttce": math.nan}, Thresholds(), V_LIM)
    assert flags["thw"]


def test_thw_undefined_behind():
    assert math.isnan(thw(state(0.0, vs=30.0), state(-20.0), CAR, CAR))


def test_thw_undefined_without_lateral_overlap():
    assert math.isnan(thw(state(0.0, 0.0, vs=30.0), state(30.0, 3.5), CAR, CAR))


def test_thw_undefined_at_standstill():
    assert math.isnan(thw(state(0.0, vs=0.05), state(30.0), CAR, CAR))


# ---------------------------------------------------------------------------
# ttce / dce

def test_head_on_closed_form():
    tc, dc = ttce_dce(state(), state(60.0, vs=-20.0), POINT, POINT)
    assert tc == pytest.approx(3.0, abs=1e-12)
    assert dc == pytest.approx(0.0, abs=1e-9)


def test_diverging_clamps_to_now():
    ego = state(vs=0.0)
    opp = state(40.0, 2.0, vs=10.0)
    tc, dc = ttce_dce(ego, opp, POINT, POINT)
    assert tc == 0.0
    assert dc == pytest.approx(euclidean_distance(ego, opp, POINT, POINT))


def test_zero_relative_velocity():
    tc, dc = ttce_dce(state(vs=20.0), state(50.0, vs=20.0), POINT, POINT)
    assert tc == 0.0
    assert dc == pytest.approx(50.0, abs=1e-5)


def test_dce_never_exceeds_current_gap():
    rng = np.random.default_rng(17)
    for _ in range(500):
        ego = state(vs=rng.uniform(0, 40))
        opp = KinState(0.0, rng.uniform(-100, 100), rng.uniform(-10, 10),
                       rng.uniform(0, 40), rng.uniform(-2, 2))
        now = euclidean_distance(ego, opp, CAR, CAR)
        _, dc = ttce_dce(ego, opp, CAR, CAR)
        assert dc <= now + 1e-12


def brute_force_encounter(ps, py, vs, vy, horizon=60.0, step=1e-3):
    t = np.arange(0.0, horizon + step / 2.0, step)
    d = np.hypot(ps + t * vs, py + t * vy)
    i = int(np.argmin(d))
    return float(t[i]), float(d[i])


def draw_pair(rng):
    """Random constant-velocity geometry with bounded miss distance.

    The miss distance is sampled directly: at tiny misses the 1 ms grid
    oracle's own discretization error exceeds the comparison tolerance.
    """
    speed = rng.uniform(2.0, 30.0)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    vs, vy = speed * np.cos(ang), speed * np.sin(ang)
    miss = rng.uniform(0.5, 30.0)
    side = rng.choice([-1.0, 1.0])
    ms, my = -vy / speed * miss * side, vs / speed * miss * side
    t_star = -rng.uniform(0.5, 20.0) if rng.random() < 0.25 else rng.uniform(0.0, 40.0)
    return ms - t_star * vs, my - t_star * vy, vs, vy


def test_matches_brute_force_oracle_sample():
    rng = np.random.default_rng(42)
    for _ in range(100):
        ps, py, vs, vy = draw_pair(rng)
        tc, dc = ttce_dce(state(), KinState(0.0, ps, py, vs, vy), POINT, POINT)
        tg, dg = brute_force_encounter(ps, py, vs, vy)
        assert tc == pytest.approx(tg, abs=1e-3)
        assert dc == pytest.approx(dg, abs=1e-3)


# ---------------------------------------------------------------------------
# most_critical

def follower_fixture(gap, v_ego=30.0, v_opp=30.0, opp_id="opp", lane=0):
    t = np.arange(0.0, 10.0, 0.2)
    shape = VehicleShape(5.0, 2.0)
    ego = Trajectory("ego", shape, t, 0.0 + v_ego * t, np.full(len(t), lane, int),
                     np.zeros(len(t)), np.full(len(t), v_ego),
                     np.zeros(len(t)), np.zeros(len(t)), 5.0)
    opp = Trajectory(opp_id, shape, t, gap + 5.0 + v_opp * t,
                     np.full(len(t), lane, int), np.zeros(len(t)),
                     np.full(len(t), v_opp), np.zeros(len(t)),
                     np.zeros(len(t)), 5.0)
    return ego, opp


def test_most_critical_two_opponents_takes_min():
    ego, near = follower_fixture(18.0, opp_id="near")  # thw 0.6
    _, far = follower_fixture(36.0, opp_id="far")      # thw 1.2
    rec = most_critical(ego, [near, far], (0.0, 9.8), LAYOUT)
    assert rec.min_thw == pytest.approx(0.6, abs=1e-9)
    assert rec.flags["thw"]


def test_dce_gate_blocks_slow_encounters():
    # lateral passing: dce 0.5 m but ttce 3.0 s -> dce not evaluated
    t = np.arange(0.0, 10.0, 0.2)
    shape = VehicleShape(4.0, 2.0)
    ego = Trajectory("ego", shape, t, 0.0 * t, np.zeros(len(t), int),
                     np.zeros(len(t)), np.zeros(len(t)),
                     np.zeros(len(t)), np.zeros(len(t)), 5.0)
    # opponent far behind closing at 20 m/s: encounter at t = 3 s of each
    # extrapolation; lateral offset keeps dce at 0.5 m footprint gap
    opp = Trajectory("opp", shape, t, -60.0 + 20.0 * t, np.zeros(len(t), int),
                     np.full(len(t), 2.5 - 3.5), np.full(len(t), 20.0),
                     np.zeros(len(t)), np.zeros(len(t)), 5.0)
    rec = most_critical(ego, [opp], (0.0, 0.35), LAYOUT,
                        Thresholds(ttce_gate=2.6))
    assert rec.min_ttce > 2.6
    assert math.isnan(rec.min_dce)


def test_speed_flag_against_limit():
    t = np.arange(0.0, 10.0, 0.2)
    ego = Trajectory("ego", CAR, t, 45.0 * t, np.zeros(len(t), int),
                     np.zeros(len(t)), np.full(len(t), 45.0),
                     np.zeros(len(t)), np.zeros(len(t)), 5.0)
    rec = most_critical(ego, [], (0.0, 9.8), LAYOUT)
    assert rec.max_v == pytest.approx(45.0)
    assert rec.flags["v"]  # 45 > 1.3 * 33.33 = 43.33
    assert math.isnan(rec.min_thw)


def test_singleton_opponent_equals_pairwise():
    ego, opp = follower_fixture(18.0)
    rec = most_critical(ego, [opp], (0.0, 9.8), LAYOUT)
    both = most_critical(ego, [opp, opp], (0.0, 9.8), LAYOUT)
    assert rec.min_thw == both.min_thw
    assert rec.min_d == both.min_d


def test_monotone_classification():
    thr = Thresholds()
    base = {"d": 5.0, "v": 30.0, "a_lon": 1.0, "a_lat": 1.0,
            "thw": 0.5, "dce": 5.0, "ttce": 5.0}
    assert classify(base, thr, V_LIM)["thw"]
    tighter = dict(base, thw=0.3)
    assert classify(tighter, thr, V_LIM)["thw"]
    faster = dict(base, v=50.0)
    assert classify(faster, thr, V_LIM)["v"]
    assert classify(dict(faster, v=60.0), thr, V_LIM)["v"]


def test_undefined_values_never_critical():
    thr = Thresholds()
    nanrow = {m: math.nan for m in ("d", "v", "a_lon", "a_lat", "thw", "dce", "ttce")}
    assert not any(classify(nanrow, thr, V_LIM).values())


# ---------------------------------------------------------------------------
# array kernel against the per-sample reference

def test_scalar_wrappers_match_reference():
    rng = np.random.default_rng(5)
    states = [(state(), state(0.0, 3.5, vs=5.0)),          # ps = 0, vy = 0
              (state(vs=20.0), state(50.0, vs=20.0)),      # v2 == 0
              (state(vs=0.05), state(30.0)),               # ego too slow
              (state(vs=30.0), state(23.0)),
              (state(vs=30.0), state(-20.0)),
              (state(), state(-10.0, vs=1e-200))]          # v2 underflows to 0
    for _ in range(300):
        states.append((KinState(0.0, rng.uniform(-50, 50), rng.uniform(-8, 8),
                                rng.uniform(-1, 40), rng.uniform(-2, 2)),
                       KinState(0.0, rng.uniform(-50, 50), rng.uniform(-8, 8),
                                rng.uniform(-1, 40), rng.uniform(-2, 2))))
    for ego, opp in states:
        for a, b in ((CAR, CAR), (CAR, TRUCK)):
            assert same_float(euclidean_distance(ego, opp, a, b),
                              ref_distance(ego, opp, a, b))
            assert same_float(thw(ego, opp, a, b), ref_thw(ego, opp, a, b))
            got, want = ttce_dce(ego, opp, a, b), ref_ttce_dce(ego, opp, a, b)
            assert same_float(got[0], want[0]) and same_float(got[1], want[1])


def test_kernel_broadcasts_over_arrays():
    ego = KinState(0.0, np.zeros(3), np.zeros(3), np.full(3, 30.0))
    opp = KinState(0.0, np.array([23.0, -20.0, 0.0]), np.array([0.0, 0.0, 3.5]),
                   np.array([30.0, 30.0, 35.0]))
    m = encounter(ego, opp, CAR, CAR)
    for i in range(3):
        e = KinState(0.0, 0.0, 0.0, 30.0)
        o = KinState(0.0, float(opp.s[i]), float(opp.y[i]), float(opp.vs[i]))
        assert same_float(float(m.d[i]), ref_distance(e, o, CAR, CAR))
        assert same_float(float(m.thw[i]), ref_thw(e, o, CAR, CAR))
        tc, dc = ref_ttce_dce(e, o, CAR, CAR)
        assert same_float(float(m.ttce[i]), tc) and same_float(float(m.dce[i]), dc)
    # alongside at a different speed: -(0 * 5 + 3.5 * 0) / 25 is -0.0
    assert math.copysign(1.0, float(m.ttce[2])) == 1.0


def test_most_critical_matches_reference_on_corpus():
    corpus = generate_corpus(n=24, seed=3)
    by_id = {t.vehicle_id: t for t in corpus.trajectories}
    assert len(corpus.truth_events) >= 10
    for ev in corpus.truth_events:
        ego = by_id[ev.vehicle_id]
        window = (ev.t_start, ev.t_end)
        assert_same_record(
            most_critical(ego, corpus.trajectories, window, LAYOUT),
            ref_most_critical(ego, corpus.trajectories, window, LAYOUT))


def edge_track(vid, s, y, v, t, shape=CAR):
    n = len(t)
    lane = np.full(n, int(round(y / LAYOUT.lane_width)))
    return Trajectory(vid, shape, t, s, lane, np.full(n, y - lane[0] * LAYOUT.lane_width),
                      np.full(n, v), np.zeros(n), np.zeros(n), 1.0 / (t[1] - t[0]))


T5 = np.arange(0.0, 10.0, 0.2)
T25 = np.arange(0.0, 7.0, 0.04)
EGO = edge_track("ego", 30.0 * T5, 0.0, 30.0, T5)

EDGE_CASES = {
    "empty window": (EGO, [edge_track("o", 20.0 + 30.0 * T5, 0.0, 30.0, T5)],
                     (20.0, 30.0)),
    "no time overlap": (EGO, [edge_track("o", 30.0 * (T5 + 12.0), 0.0, 30.0, T5 + 12.0)],
                        (0.0, 9.8)),
    "diverging": (EGO, [edge_track("o", 10.0 + 40.0 * T5, 0.0, 40.0, T5)], (1.0, 6.0)),
    # alongside at another speed: t_star is -0.0 before the clamp
    "alongside": (EGO, [edge_track("o", 30.0 * T5, 3.5, 35.0, T5)], (1.0, 6.0)),
    "equal velocity": (EGO, [edge_track("o", 25.0 + 30.0 * T5, 0.0, 30.0, T5)],
                       (0.0, 9.8)),
    # -(-52 * 20) / 20**2 is exactly the 2.6 s gate at the window's one sample
    "ttce at the gate": (edge_track("ego", 0.0 * T5, 0.0, 0.0, T5),
                         [edge_track("o", -52.0 + 20.0 * T5, 1.0, 20.0, T5)], (0.0, 0.1)),
    "ego too slow": (edge_track("ego", 0.05 * T5, 0.0, 0.05, T5),
                     [edge_track("o", 20.0 + 0.05 * T5, 0.0, 0.05, T5)], (0.0, 9.8)),
    "different rate": (EGO, [edge_track("o", 40.0 + 28.0 * T25, 1.0, 28.0, 2.02 + T25)],
                       (0.0, 9.8)),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_most_critical_matches_reference_on_edge_cases(case):
    ego, opponents, window = EDGE_CASES[case]
    got = most_critical(ego, opponents, window, LAYOUT)
    assert_same_record(got, ref_most_critical(ego, opponents, window, LAYOUT))
    if case in ("empty window", "no time overlap"):
        assert math.isnan(got.min_d) and math.isnan(got.min_ttce)
    if case in ("diverging", "alongside", "equal velocity"):
        assert got.min_ttce == 0.0 and math.copysign(1.0, got.min_ttce) == 1.0
    if case == "ttce at the gate":
        assert got.min_ttce == Thresholds().ttce_gate and math.isnan(got.min_dce)
    if case == "ego too slow":
        assert math.isnan(got.min_thw) and not math.isnan(got.min_d)


# ---------------------------------------------------------------------------
# one kernel call per event over the concatenated overlaps of all opponents

def same_array(a, b) -> bool:
    """Equal elementwise, including nan positions and the sign of zero."""
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_kernel_with_per_sample_sizes_matches_per_opponent_calls():
    rng = np.random.default_rng(11)
    shapes = [CAR, TRUCK, POINT, VehicleShape(4.2, 1.8)]
    owner = rng.integers(0, len(shapes), 400)
    ego = KinState(0.0, rng.uniform(-50, 50, 400), rng.uniform(-8, 8, 400),
                   rng.uniform(-1, 40, 400), rng.uniform(-2, 2, 400))
    opp = KinState(0.0, rng.uniform(-50, 50, 400), rng.uniform(-8, 8, 400),
                   rng.uniform(-1, 40, 400), rng.uniform(-2, 2, 400))
    opp.s[:40] = ego.s[:40]   # alongside: ps = 0
    opp.vs[40:80] = ego.vs[40:80]
    opp.vy[40:80] = ego.vy[40:80]  # equal velocity: v2 = 0
    half_len = np.array([0.5 * (CAR.length + shapes[k].length) for k in owner])
    half_wid = np.array([0.5 * (CAR.width + shapes[k].width) for k in owner])
    got = _encounter(ego, opp, half_len, half_wid)
    for k, shape in enumerate(shapes):
        sel = owner == k
        want = encounter(KinState(0.0, ego.s[sel], ego.y[sel], ego.vs[sel], ego.vy[sel]),
                         KinState(0.0, opp.s[sel], opp.y[sel], opp.vs[sel], opp.vy[sel]),
                         CAR, shape)
        for name in ("d", "thw", "ttce", "dce"):
            assert same_array(getattr(got, name)[sel], getattr(want, name)), (shape, name)


def span_track(vid, t, s0, v, y=0.0, shape=CAR):
    return edge_track(vid, s0 + v * t, y, v, t, shape)


T_START = np.arange(0.0, 3.01, 0.2)    # covers the start of a 1-9 s window
T_END = np.arange(7.0, 14.01, 0.2)     # covers its end
T_NONE = np.arange(20.0, 30.0, 0.2)    # covers none of it

# In "partial overlaps" every opponent closes in on the ego, so each sample
# has ttce > 0; a sample without an opponent would read as ttce = 0.
STACKED_CASES = {
    # the car ahead sets min_thw and the truck alongside min_d
    "car and truck": (EGO, [span_track("car", T5, 60.0, 27.0),
                            span_track("truck", T5, 12.0, 27.0, 3.5, TRUCK),
                            span_track("behind", T5, -40.0, 36.0, 7.0, TRUCK)],
                      (0.0, 9.8)),
    "partial overlaps": (EGO, [span_track("full1", T5, 60.0, 26.0),
                               span_track("start", T_START, 35.0, 20.0),
                               span_track("full2", T5, -50.0, 35.0, 3.5),
                               span_track("end", T_END, -60.0, 35.0),
                               span_track("none", T_NONE, 0.0, 20.0),
                               span_track("full3", T5, 80.0, 25.0, 3.5, TRUCK)],
                         (1.0, 9.0)),
    "mixed rates": (EGO, [span_track("a", T5, 50.0, 25.0),
                          span_track("fast", 2.02 + T25, 40.0, 22.0, 1.0),
                          span_track("b", T5, -30.0, 33.0, 3.5, TRUCK)],
                    (0.0, 9.8)),
    "no opponent overlaps": (EGO, [span_track("before", np.arange(0.0, 2.0, 0.2), 20.0, 25.0),
                                   span_track("after", np.arange(7.0, 12.0, 0.2), 20.0, 25.0),
                                   span_track("far", T_NONE, 0.0, 20.0)],
                             (3.0, 6.0)),
    "ego among opponents": (EGO, [span_track("a", T5, 50.0, 25.0), EGO,
                                  span_track("b", T5, -30.0, 33.0, 3.5, TRUCK)],
                            (0.0, 9.8)),
}


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_most_critical_stacks_opponents_like_the_reference(case):
    ego, opponents, window = STACKED_CASES[case]
    got = most_critical(ego, opponents, window, LAYOUT)
    assert_same_record(got, ref_most_critical(ego, opponents, window, LAYOUT))
    pairwise = (got.min_d, got.min_thw, got.min_ttce, got.min_dce)
    if case == "no opponent overlaps":
        assert all(math.isnan(x) for x in pairwise) and not math.isnan(got.max_v)
    else:
        assert not any(math.isnan(x) for x in pairwise[:3])
    if case == "car and truck":
        assert got.min_d == 3.5 - 0.5 * (CAR.width + TRUCK.width)
        assert got.min_thw == pytest.approx((60.0 - 3.0 * 9.8 - CAR.length) / 30.0)
    if case == "partial overlaps":
        assert got.min_ttce > 0.0
    if case == "ego among opponents":
        alone = [o for o in opponents if o is not ego]
        assert_same_record(got, most_critical(ego, alone, window, LAYOUT))


def test_nan_inside_a_track_is_still_covered():
    # a NaN s sample inside full1's track gives d = nan and ttce = 0 there,
    # as in the reference; only a sample no track covers drops out of TTCE
    ego, opponents, window = STACKED_CASES["partial overlaps"]
    assert ref_most_critical(ego, opponents, window, LAYOUT).min_ttce == 0.5
    full1 = opponents[0]
    s = full1.s.copy()
    s[20] = np.nan  # t = 4 s, inside the window
    opponents = [dataclasses.replace(full1, s=s), *opponents[1:]]
    want = ref_most_critical(ego, opponents, window, LAYOUT)
    assert want.min_ttce == 0.0
    assert_same_record(most_critical(ego, opponents, window, LAYOUT), want)
    assert_same_record(critical_records([ego, *opponents], [("ego", window, "")],
                                        LAYOUT)[0], want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 7), ego_at=st.integers(0, 6),
       start=st.floats(-5.0, 70.0), length=st.floats(0.0, 25.0),
       shifts=st.lists(st.floats(-40.0, 40.0), min_size=7, max_size=7))
def test_most_critical_matches_reference_on_random_corpus(seed, n, ego_at, start,
                                                          length, shifts):
    # shifted opponents start and end at other times than the ego
    corpus = generate_corpus(n=n, seed=seed, truck_fraction=0.5)
    ego = corpus.trajectories[ego_at % n]
    opponents = [traj if traj is ego else dataclasses.replace(traj, t=traj.t + dt)
                 for traj, dt in zip(corpus.trajectories, shifts)]
    window = (start, start + length)
    assert_same_record(most_critical(ego, opponents, window, LAYOUT),
                       ref_most_critical(ego, opponents, window, LAYOUT))


# ---------------------------------------------------------------------------
# many windows per call: one shared grid, one kernel call per ego

def assert_same_as_reference(trajectories, windows):
    by_id = {traj.vehicle_id: traj for traj in trajectories}
    got = critical_records(trajectories, windows, LAYOUT)
    assert len(got) == len(windows)
    for record, (vid, window, direction) in zip(got, windows):
        assert_same_record(record, ref_most_critical(by_id[vid], trajectories, window,
                                                     LAYOUT, direction=direction))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 6),
       shifts=st.lists(st.sampled_from([0.0, 0.0, 0.2, -3.4, 1.37, 12.051]),
                       min_size=6, max_size=6),
       spans=st.lists(st.tuples(st.integers(0, 5), st.floats(-5.0, 110.0),
                                st.floats(0.0, 12.0)), min_size=1, max_size=6))
def test_critical_records_match_reference_on_random_corpus(seed, n, shifts, spans):
    # shifted vehicles, egos among them, sample off the others' lattice
    corpus = generate_corpus(n=n, seed=seed, truck_fraction=0.5)
    trajectories = [dataclasses.replace(traj, t=traj.t + dt)
                    for traj, dt in zip(corpus.trajectories, shifts)]
    windows = [(trajectories[k % n].vehicle_id, (start, start + length), "left")
               for k, start, length in spans]
    first_id, (start, end), _ = windows[0]
    windows += [(first_id, (start + 0.5 * (end - start), end + 3.0), "right"),  # overlaps
                (first_id, (-50.0, -40.0), "left")]  # holds no ego sample
    assert_same_as_reference(trajectories, windows)


def test_critical_records_on_mixed_rates():
    # 25 Hz tracks off the 5 Hz lattice: the shared grid is not one lattice
    trajectories = [EGO, span_track("fast", 2.02 + T25, 40.0, 22.0, 1.0),
                    span_track("slow", T5, 50.0, 25.0),
                    span_track("fast2", 0.013 + T25, -20.0, 34.0, 3.5, TRUCK),
                    span_track("late", 4.1 + T5, -60.0, 35.0)]
    windows = [("ego", (0.0, 9.8), "left"), ("fast", (3.0, 6.0), "right"),
               ("fast2", (0.0, 4.0), "left"), ("fast", (5.5, 8.9), "left"),
               ("late", (4.0, 8.0), "right"), ("ego", (2.0, 2.1), "left")]
    assert_same_as_reference(trajectories, windows)


def test_critical_records_edge_cases():
    far = span_track("far", T_NONE, 0.0, 20.0)  # covers no ego sample
    opp = span_track("opp", T5, 50.0, 25.0)
    cases = [
        ([EGO, far], [("ego", (0.0, 9.8), "left"), ("far", (22.0, 25.0), "right")]),
        ([EGO], [("ego", (1.0, 6.0), "left"), ("ego", (0.0, 9.8), "right")]),
        ([EGO, opp, opp], [("ego", (1.0, 6.0), "left"), ("opp", (0.0, 3.0), "left")]),
        ([EGO, opp], []),
    ]
    for trajectories, windows in cases:
        assert_same_as_reference(trajectories, windows)
    lone = critical_records([EGO], [("ego", (1.0, 6.0), "left")], LAYOUT)[0]
    assert math.isnan(lone.min_d) and not math.isnan(lone.max_v)
    assert_same_record(most_critical(EGO, [opp, opp], (1.0, 6.0), LAYOUT),
                       most_critical(EGO, [opp], (1.0, 6.0), LAYOUT))
    assert_same_record(most_critical(EGO, [], (1.0, 6.0), LAYOUT),
                       ref_most_critical(EGO, [], (1.0, 6.0), LAYOUT))
    with pytest.raises(KeyError):
        critical_records([EGO], [("ghost", (1.0, 6.0), "left")], LAYOUT)


# ---------------------------------------------------------------------------
# the metric table

def test_threshold_limit_per_metric():
    th = Thresholds(d_crit=1.5, v_factor=1.2, a_lon_crit=7.0, a_lat_crit=6.0,
                    thw_crit=0.8, dce_crit=0.7, ttce_gate=2.4)
    named = {"d": th.d_crit, "v": th.v_factor * V_LIM, "a_lon": th.a_lon_crit,
             "a_lat": th.a_lat_crit, "thw": th.thw_crit, "dce": th.dce_crit,
             "ttce": th.ttce_gate}
    assert {m: th.limit(m, V_LIM) for m in METRIC_NAMES} == named


def test_record_value_per_metric():
    r = CriticalityRecord("v", 0.0, 1.0, "left", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, {})
    named = {"d": r.min_d, "v": r.max_v, "a_lon": r.max_a_lon, "a_lat": r.max_a_lat,
             "thw": r.min_thw, "dce": r.min_dce, "ttce": r.min_ttce}
    assert {m: r.value(m) for m in METRIC_NAMES} == named
    with pytest.raises(KeyError):
        r.value("speed")


# ---------------------------------------------------------------------------
# direction stats

def record_with(thw_flag: bool, direction="left"):
    flags = {m: False for m in ("d", "v", "a_lon", "a_lat", "thw", "dce", "ttce")}
    flags["thw"] = thw_flag
    from lanekit.criticality import CriticalityRecord
    return CriticalityRecord("v", 0.0, 1.0, direction, 5.0, 30.0, 1.0, 1.0,
                             0.5 if thw_flag else 2.0, math.nan, math.nan, flags)


def test_all_flagged_is_100_percent():
    groups = {("r0", "left"): [record_with(True), record_with(True)]}
    stats = direction_stats(groups)
    thw_left = [s for s in stats if s.metric == "thw" and s.direction == "left"][0]
    assert thw_left.per_recording["r0"] == pytest.approx(100.0)


def test_seven_of_ten_left_events():
    recs = [record_with(i < 7) for i in range(10)]
    stats = direction_stats({("r0", "left"): recs})
    thw_left = [s for s in stats if s.metric == "thw" and s.direction == "left"][0]
    assert thw_left.per_recording["r0"] == pytest.approx(70.0)


def test_empty_group_omitted_with_warning():
    warnings = []
    stats = direction_stats({("r0", "left"): []}, warn=warnings.append)
    assert stats == []
    assert len(warnings) == 1


def test_left_changes_far_more_thw_critical_than_right():
    # cut-out pattern: left changes close up on faster traffic at short
    # headway, right changes happen with room; the left critical share
    # must come out far above the right one
    rng = np.random.default_rng(8)
    shape = VehicleShape(5.0, 2.0)
    groups = {}
    for rec in range(4):
        for direction, p_crit in (("left", 0.7), ("right", 0.2)):
            records = []
            for _ in range(10):
                gap = 18.0 if rng.random() < p_crit else 45.0
                ego, opp = follower_fixture(gap)
                records.append(most_critical(ego, [opp], (0.0, 9.8), LAYOUT,
                                             Thresholds(), direction))
            groups[(f"r{rec}", direction)] = records
    stats = {(s.metric, s.direction): s for s in direction_stats(groups)}
    left = stats[("thw", "left")].summary.median
    right = stats[("thw", "right")].summary.median
    assert left > 2.0 * right

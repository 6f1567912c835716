import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanekit import wiedemann
from lanekit.synth import generate_corpus, overtake_scenario
from lanekit.trajectory import VehicleShape
from lanekit.wiedemann import (
    A_MIN,
    CFState,
    ScenarioSpec,
    W99Params,
    sample_cc1,
    _clamp,
    _scene,
    _thw_traces,
    net_gap,
    simulate,
    w99_accel,
)

from helpers import (
    LAYOUT,
    assert_same_rollout,
    make_trajectory,
    ref_simulate,
    ref_thw_trace,
    ref_w99_accel,
    same_float,
    sigmoid_profile,
)


def test_params_validation():
    with pytest.raises(ValueError):
        W99Params(cc1=-0.1)
    with pytest.raises(ValueError):
        W99Params(cc4=0.1)


def test_desired_gap():
    p = W99Params(cc0=1.5, cc1=0.9)
    assert p.desired_gap(30.0) == pytest.approx(28.5)


# ---------------------------------------------------------------------------
# regime behavior

def test_free_driving_accelerates_below_desired():
    p = W99Params(v_desired=33.33)
    a = w99_accel(CFState(0.0, 25.0), CFState(300.0, 25.0), p)
    assert a > 0.0


def test_free_driving_holds_desired_speed():
    p = W99Params(v_desired=30.0)
    assert w99_accel(CFState(0.0, 30.0), None, p) == 0.0


def test_emergency_regime_strong_deceleration():
    # net gap 1.25 m below cc0, closing at 5 m/s
    p = W99Params()
    a = w99_accel(CFState(0.0, 30.0), CFState(5.75, 25.0, 0.0, 4.5), p)
    assert a <= -2.0
    # frozen regression of the fixture
    assert a == pytest.approx(-2.67589375, abs=1e-9)


@pytest.mark.parametrize("lengths", [(4.5, 4.5), (4.8, 14.0)])
@pytest.mark.parametrize("gap", [29.0, 30.5, 32.0])
def test_following_steers_the_net_gap_to_the_band_middle(gap, lengths):
    # equal speeds and a net gap inside [cc0 + cc1 v, cc0 + cc1 v + cc2]:
    # the following regime's command is 0.15 * (net gap - band middle)
    p = W99Params()
    follower = CFState(0.0, 30.0, 0.0, lengths[0])
    leader = CFState(gap + 0.5 * sum(lengths), 30.0, 0.0, lengths[1])
    middle = p.desired_gap(30.0) + 0.5 * p.cc2
    assert w99_accel(follower, leader, p) == 0.15 * (net_gap(follower, leader) - middle)


def test_acceleration_clamped():
    p = W99Params()
    a_low = w99_accel(CFState(0.0, 40.0), CFState(4.6, 0.0, 0.0, 4.5), p)
    assert a_low >= -8.0
    a_high = w99_accel(CFState(0.0, 0.0), None, p)
    assert a_high <= p.cc8 + p.cc9


# the bounds w99_accel, plan_decel and the MIS cruise command clamp to
CLAMP_BOUNDS = [(A_MIN, 5.0), (-0.25, 0.25), (0.0, 1.5), (-6.0, 1.0),
                (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)]
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]


@settings(max_examples=500, deadline=None)
@given(x=st.one_of(st.floats(), st.sampled_from(SPECIAL)),
       bounds=st.one_of(
           st.sampled_from(CLAMP_BOUNDS),
           st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False))
           .map(sorted)),
       at_bound=st.sampled_from([None, 0, 1]))
def test_clamp_equals_np_clip(x, bounds, at_bound):
    lo, hi = bounds
    if at_bound is not None:
        x = bounds[at_bound]
    for value in (x, np.float64(x)):
        got = _clamp(value, lo, hi)
        assert type(got) is float
        assert same_float(got, float(np.clip(value, lo, hi))), (value, lo, hi, got)


# Quarter-metre and quarter-m/s values: sums and differences of them are
# exact, so a gap or a speed difference lands exactly on a regime edge
# often; arbitrary floats cover the rest.  Positions are the footprint
# centers with the follower at 0, so ``dx = s_leader - 0.5 * (lengths)``.
QUARTERS = st.integers(-8, 800).map(lambda i: i * 0.25)
SPEEDS = st.one_of(QUARTERS.filter(lambda x: x <= 50.0), st.floats(-1.0, 50.0),
                   st.sampled_from([0.0, -0.0]))
W99_PARAMS = st.builds(
    W99Params, cc0=st.sampled_from([0.5, 1.5, 3.0]),
    cc1=st.sampled_from([0.1, 0.25, 0.5, 0.9, 2.0]), cc2=st.sampled_from([0.0, 4.0]),
    cc3=st.sampled_from([-8.0, 0.0]), cc4=st.sampled_from([-0.35, -0.5]),
    cc5=st.sampled_from([0.35, 0.5]), cc6=st.sampled_from([0.0, 11.44]),
    cc7=st.sampled_from([0.25, 1.0]), cc8=st.sampled_from([3.5, 1.0]),
    cc9=st.sampled_from([1.5, 0.5]), v_desired=st.sampled_from([10.0, 33.33, 42.0]))
LEADERS = st.none() | st.builds(
    CFState, s=st.one_of(QUARTERS, st.floats(-20.0, 400.0), st.just(162.0)),
    v=SPEEDS, a=st.one_of(st.sampled_from([-3.0, -1.0, -0.5, 0.0, 1.0]),
                          st.floats(-8.0, 3.0)),
    length=st.sampled_from([4.5, 12.0]))


@settings(max_examples=1000, deadline=None)
@given(v=SPEEDS, length=st.sampled_from([4.5, 12.0]), leader=LEADERS, p=W99_PARAMS)
# no leader; a leader just beyond the look-ahead and one exactly at it;
# a stopped leader, a stopped follower, a leader braking harder than -1;
# each W99 regime is reached by an example below
@example(v=30.0, length=4.5, leader=None, p=W99Params())
@example(v=30.0, length=4.5, leader=CFState(154.75, 20.0, 0.0, 4.5), p=W99Params())
@example(v=30.0, length=4.5, leader=CFState(154.5, 20.0, 0.0, 4.5), p=W99Params())
@example(v=10.0, length=4.5, leader=CFState(8.0, 0.0, 0.0, 4.5), p=W99Params())
@example(v=0.0, length=4.5, leader=CFState(30.0, 10.0, 0.0, 4.5), p=W99Params())
@example(v=25.0, length=4.5, leader=CFState(40.0, 20.0, -2.0, 4.5), p=W99Params())
# emergency edges: dv = sdvo (cc6 = 0, so sdvo = cc5) and dx = sdxc
@example(v=20.0, length=4.5, leader=CFState(10.0, 20.5, 0.0, 4.5),
         p=W99Params(cc6=0.0, cc5=0.5))
@example(v=22.0, length=4.5, leader=CFState(16.0, 20.0, 0.0, 4.5), p=W99Params(cc1=0.5))
# emergency inside cc0, and with the follower stopped; closing in; following
@example(v=5.0, length=4.5, leader=CFState(5.5, 3.0, 0.0, 4.5), p=W99Params())
@example(v=0.0, length=4.5, leader=CFState(5.0, 0.0, 0.0, 4.5), p=W99Params())
@example(v=30.0, length=4.5, leader=CFState(45.0, 20.0, 0.0, 4.5), p=W99Params())
@example(v=25.0, length=4.5, leader=CFState(30.5, 25.0, 0.0, 4.5), p=W99Params())
def test_w99_accel_matches_frozen_law(v, length, leader, p):
    follower = CFState(0.0, v, 0.0, length)
    got = w99_accel(follower, leader, p)
    assert type(got) is float
    assert same_float(got, ref_w99_accel(follower, leader, p)), (follower, leader, p, got)


@settings(max_examples=300, deadline=None)
@given(y=st.one_of(st.floats(-20.0, 20.0),
                   st.sampled_from([0.0, -0.0, 1.75, -1.75, 5.25, 8.75])),
       w=st.sampled_from([3.5, 3.75]))
def test_round_equals_rint(y, w):
    # the MIS rear vehicle's lane: builtin round on np.float64 rounds half to even
    assert round(np.float64(y) / w) == int(np.rint(np.float64(y) / w))


def steady_gap(v_leader, cc1=0.9, seconds=300.0, dt=0.05):
    p = W99Params(cc1=cc1, v_desired=v_leader + 8.0)
    s_f, v_f, a_f = 0.0, v_leader + 5.0, 0.0
    s_l = 120.0
    gaps = []
    for k in range(int(seconds / dt)):
        a_f = w99_accel(CFState(s_f, v_f, a_f, 4.5), CFState(s_l, v_leader, 0.0, 4.5), p)
        s_f += v_f * dt
        v_f = max(v_f + a_f * dt, 0.0)
        s_l += v_leader * dt
        if k * dt > seconds - 100.0:
            gaps.append(s_l - s_f - 4.5)
    return float(np.mean(gaps))


@pytest.mark.parametrize("v_leader", [15.0, 25.0, 35.0])
def test_steady_state_gap_within_15_percent(v_leader):
    target = W99Params().desired_gap(v_leader)
    assert steady_gap(v_leader) == pytest.approx(target, rel=0.15)


def test_lower_cc1_never_increases_converged_gap():
    gaps = [steady_gap(25.0, cc1=c, seconds=200.0) for c in (0.9, 0.7, 0.5, 0.3, 0.1)]
    assert all(b <= a + 1e-6 for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# simulate

def solo_spec(v0=30.0, v_desired=30.0, dt=0.05):
    t = np.arange(0.0, 60.0, 0.2)
    rec = make_trajectory(t, np.zeros(len(t)), v=v0, vehicle_id="ego",
                          markings=False)
    return ScenarioSpec(trajectories=(rec,), substituted_id="ego",
                        model=W99Params(v_desired=v_desired), layout=LAYOUT, dt=dt)


def test_simulate_solo_equilibrium():
    out = simulate(solo_spec())
    assert np.all(np.abs(out.v - 30.0) < 1e-6)


def test_simulate_requires_substituted_vehicle():
    spec = solo_spec()
    with pytest.raises(ValueError, match="absent"):
        dataclasses.replace(spec, substituted_id="ghost")


def test_simulate_converges_to_leader():
    t = np.arange(0.0, 120.0, 0.2)
    ego = make_trajectory(t, np.zeros(len(t)), v=35.0, vehicle_id="ego",
                          markings=False)
    leader = make_trajectory(t, np.zeros(len(t)), v=25.0, vehicle_id="lead",
                             markings=False)
    leader = leader.with_channels(s=100.0 + 25.0 * t)
    spec = ScenarioSpec(trajectories=(ego, leader), substituted_id="ego",
                        model=W99Params(v_desired=40.0), layout=LAYOUT,
                        dt=0.05, duration=118.0)
    out = simulate(spec)
    tail = out.t > 100.0
    gap = (100.0 + 25.0 * out.t[tail]) - out.s[tail] - 4.8
    assert np.mean(out.v[tail]) == pytest.approx(25.0, abs=0.5)
    assert np.mean(gap) == pytest.approx(W99Params().desired_gap(25.0), rel=0.15)


def test_simulate_deterministic():
    spec = overtake_scenario()
    a = simulate(spec)
    b = simulate(spec)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.a_lon, b.a_lon)


def test_simulate_speed_never_negative():
    # aggressive stop: leader parked right ahead
    t = np.arange(0.0, 30.0, 0.2)
    ego = make_trajectory(t, np.zeros(len(t)), v=30.0, vehicle_id="ego",
                          markings=False)
    lead = make_trajectory(t, np.zeros(len(t)), v=0.0, vehicle_id="wall",
                           markings=False)
    lead = lead.with_channels(s=np.full(len(t), 60.0), v=np.zeros(len(t)))
    spec = ScenarioSpec(trajectories=(ego, lead), substituted_id="ego",
                        model=W99Params(), layout=LAYOUT, dt=0.05, duration=29.0)
    out = simulate(spec)
    assert np.all(out.v >= 0.0)
    assert np.all(out.a_lon >= -8.0 - 1e-12)


def test_simulate_step_halving_stability():
    spec = solo_spec(v0=26.0, v_desired=33.0, dt=0.05)
    fine = dataclasses.replace(spec, dt=0.025)
    a = simulate(spec)
    b = simulate(fine)
    s_b = np.interp(a.t, b.t, b.s)
    assert np.max(np.abs(a.s - s_b)) < 0.5


def test_dt_precondition():
    with pytest.raises(ValueError, match="dt"):
        dataclasses.replace(solo_spec(), dt=0.2)


@pytest.mark.parametrize("change,message", [
    ({"dt": 0.0}, "dt must be positive and <= 0.1 s"),
    ({"dt": -0.05}, "dt must be positive and <= 0.1 s"),
    ({"duration": -5.0}, "duration must be positive"),
    ({"duration": 0.0}, "duration must be positive"),
    ({"duration": 0.02}, r"duration 0.02 s is less than one rollout step of dt 0.05 s"),
    ({"duration": 0.025}, r"need round\(duration / dt\) >= 1"),
], ids=["dt-zero", "dt-negative", "duration-negative", "duration-zero", "duration-under-a-step",
        "duration-half-a-step"])
def test_scenario_timing_preconditions(change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(solo_spec(), **change)


def test_scenario_track_shorter_than_a_step():
    t = np.array([0.0, 0.02])
    rec = make_trajectory(t, np.zeros(2), vehicle_id="ego", markings=False)
    with pytest.raises(ValueError, match=r"duration \(the substituted track's\) 0.02 s is "
                                         r"less than one rollout step of dt 0.05 s"):
        ScenarioSpec(trajectories=(rec,), substituted_id="ego", model=W99Params(),
                     layout=LAYOUT)
    spec = ScenarioSpec(trajectories=(rec,), substituted_id="ego", model=W99Params(),
                        layout=LAYOUT, dt=0.02)
    assert len(simulate(spec).t) == 2


# ---------------------------------------------------------------------------
# cc1 sampling

@pytest.fixture(scope="module")
def cc1_sweep():
    return sample_cc1(overtake_scenario(), [0.9, 0.7, 0.5, 0.3, 0.1])


def test_sample_cc1_validation():
    spec = overtake_scenario()
    with pytest.raises(ValueError):
        sample_cc1(spec, [])
    with pytest.raises(ValueError):
        sample_cc1(spec, [0.5, -0.1])


def test_min_thw_to_leader_non_increasing(cc1_sweep):
    mins = [sc.min_thw["opp1"] for sc in cc1_sweep.scenarios]
    assert all(b <= a + 1e-12 for a, b in zip(mins, mins[1:]))


def test_thw_to_faster_opponent_stable(cc1_sweep):
    mins = [sc.min_thw["opp2"] for sc in cc1_sweep.scenarios]
    assert (max(mins) - min(mins)) / min(mins) < 0.05


def test_single_default_value_equals_simulate(cc1_sweep):
    spec = overtake_scenario()
    plain = simulate(spec)
    sampled = sample_cc1(spec, [spec.model.cc1]).scenarios[0]
    assert np.array_equal(sampled.trajectory.s, plain.s)
    assert np.array_equal(sampled.trajectory.v, plain.v)


def _with_edge_opponents(spec):
    """``spec`` with three more opponents: one resampled at another rate and
    cut short, so the rollout grid has samples outside its track; one whose
    track never overlaps the grid; and one at the same positions as the
    leader ``opp1`` that differs in speed and footprint."""
    leader = next(t for t in spec.others() if t.vehicle_id == "opp1")
    k = slice(30, 200, 3)
    cut = dataclasses.replace(
        leader, vehicle_id="cut", t=leader.t[k] + 0.07, s=leader.s[k], lane=leader.lane[k],
        lat=leader.lat[k], v=leader.v[k], a_lon=leader.a_lon[k], a_lat=leader.a_lat[k],
        rate=leader.rate / 3.0, d_left=None, d_right=None)
    never = dataclasses.replace(leader, vehicle_id="never", t=leader.t + 1e4)
    tie = dataclasses.replace(leader, vehicle_id="tie", v=leader.v + 1.5,
                              shape=VehicleShape(length=12.0, width=2.5))
    return dataclasses.replace(spec, trajectories=spec.trajectories + (cut, never, tie))


@pytest.fixture(scope="module")
def edge_spec():
    return _with_edge_opponents(overtake_scenario())


def _assert_same_trace(got, want):
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_thw_trace_matches_per_sample_reference(edge_spec):
    ego = simulate(edge_spec)
    assert_same_rollout(ego, ref_simulate(edge_spec))
    traces = _thw_traces(_scene(edge_spec), ego)
    others = edge_spec.others()
    assert traces.shape == (len(others), len(ego.t))
    for opp, got in zip(others, traces):
        _assert_same_trace(got, ref_thw_trace(ego, opp, LAYOUT))
    by_id = dict(zip((o.vehicle_id for o in others), traces))
    assert np.isnan(by_id["cut"]).any() and not np.isnan(by_id["cut"]).all()
    assert np.isnan(by_id["never"]).all()
    # level with the leader, with a headway of its own
    assert not np.isnan(by_id["tie"]).all()
    assert not np.array_equal(by_id["tie"], by_id["opp1"], equal_nan=True)


@pytest.mark.parametrize("block", [1, 7])
def test_thw_traces_do_not_depend_on_the_block(edge_spec, monkeypatch, block):
    scene, ego = _scene(edge_spec), simulate(edge_spec)
    whole = _thw_traces(scene, ego)  # one kernel call
    monkeypatch.setattr(wiedemann, "_THW_BLOCK", block)
    _assert_same_trace(_thw_traces(scene, ego), whole)


def _assert_matches_per_cc1_reference(spec, cc1_values):
    """Each rollout of ``sample_cc1`` is ``simulate`` of its variant, each
    trace the per-sample reference and each minimum that trace's."""
    result = sample_cc1(spec, cc1_values)
    assert [sc.cc1 for sc in result.scenarios] == list(cc1_values)
    for cc1, sc in zip(cc1_values, result.scenarios):
        variant = dataclasses.replace(spec, model=dataclasses.replace(spec.model, cc1=cc1))
        assert_same_rollout(sc.trajectory, simulate(variant))
        assert np.array_equal(result.t, sc.trajectory.t)
        assert list(sc.thw_traces) == list(sc.min_thw) == [o.vehicle_id for o in spec.others()]
        for opp in spec.others():
            want = ref_thw_trace(sc.trajectory, opp, spec.layout)
            _assert_same_trace(sc.thw_traces[opp.vehicle_id], want)
            assert same_float(sc.min_thw[opp.vehicle_id],
                              min((x for x in want.tolist() if not math.isnan(x)),
                                  default=math.nan))
    return result


@pytest.fixture(scope="module")
def corpus26():
    return generate_corpus(n=26, seed=3)


@pytest.mark.parametrize("vid", ["r06v0014", "r07v0023"])
def test_sample_cc1_matches_per_cc1_reference_on_corpus(corpus26, vid):
    spec = ScenarioSpec(trajectories=corpus26.trajectories, substituted_id=vid,
                        model=W99Params(), layout=corpus26.layout)
    assert len(spec.others()) == 25
    result = _assert_matches_per_cc1_reference(spec, [0.9, 0.1])
    assert not all(math.isnan(x) for x in result.scenarios[1].min_thw.values())
    assert _leader_matters(dataclasses.replace(spec, model=W99Params(cc1=0.1)))


def test_sample_cc1_matches_per_cc1_reference_on_overtake_scene(edge_spec):
    _assert_matches_per_cc1_reference(overtake_scenario(), [0.9, 0.5, 0.1])
    result = _assert_matches_per_cc1_reference(edge_spec, [0.9, 0.5, 0.1])
    assert all(math.isnan(sc.min_thw["never"]) for sc in result.scenarios)


@functools.lru_cache(maxsize=None)
def _sampled_alone(cc1):
    return sample_cc1(_with_edge_opponents(overtake_scenario()), [cc1]).scenarios[0]


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.sampled_from([0.9, 0.7, 0.5, 0.3, 0.1, 0.05]), min_size=1,
                       max_size=5))
@example(values=[0.9, 0.5, 0.1])
@example(values=[0.1, 0.5, 0.9])
@example(values=[0.5, 0.5])
def test_sample_cc1_value_does_not_depend_on_the_others(edge_spec, values):
    # the tables built once per scene: a value's rollout and traces are
    # those it has alone, whatever values come with it and in what order
    for cc1, sc in zip(values, sample_cc1(edge_spec, values).scenarios):
        alone = _sampled_alone(cc1)
        assert sc.cc1 == cc1
        assert_same_rollout(sc.trajectory, alone.trajectory)
        assert list(sc.thw_traces) == list(alone.thw_traces)
        for vid, trace in sc.thw_traces.items():
            _assert_same_trace(trace, alone.thw_traces[vid])
        assert all(same_float(sc.min_thw[vid], alone.min_thw[vid]) for vid in alone.min_thw)


# ---------------------------------------------------------------------------
# simulate against the per-step reference loop

def _cut(traj, k, vehicle_id, t_shift=0.0):
    """Samples ``k`` of ``traj`` under a new id, times shifted by ``t_shift``."""
    return dataclasses.replace(
        traj, vehicle_id=vehicle_id, t=traj.t[k] + t_shift, s=traj.s[k],
        lane=traj.lane[k], lat=traj.lat[k], v=traj.v[k], a_lon=traj.a_lon[k],
        a_lat=traj.a_lat[k], d_left=None, d_right=None)


def _leader_matters(spec):
    solo = dataclasses.replace(spec, trajectories=(spec.substituted(),))
    return not np.array_equal(simulate(spec).a_lon, simulate(solo).a_lon)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(n=24, seed=3)


@pytest.mark.parametrize("vid", ["r03v0003", "r04v0004", "r07v0023"])
def test_simulate_matches_reference_on_corpus(corpus, vid):
    for cc1 in (0.9, 0.1):
        spec = ScenarioSpec(trajectories=corpus.trajectories, substituted_id=vid,
                            model=W99Params(cc1=cc1), layout=corpus.layout)
        assert_same_rollout(simulate(spec), ref_simulate(spec))
    assert _leader_matters(spec)


def test_simulate_matches_reference_on_overtake_scene():
    spec = overtake_scenario()
    for cc1 in (0.9, 0.5, 0.1):
        variant = dataclasses.replace(spec, model=W99Params(cc1=cc1))
        assert_same_rollout(simulate(variant), ref_simulate(variant))


def _lane_keeper(t, lane, s0, v, vehicle_id, length=4.8):
    from lanekit.trajectory import VehicleShape
    out = make_trajectory(t, np.full(len(t), lane * LAYOUT.lane_width), v=v,
                          vehicle_id=vehicle_id, markings=False,
                          shape=VehicleShape(length, 2.0))
    return out.with_channels(s=s0 + v * (t - t[0]))


def test_simulate_tie_goes_to_earlier_opponent():
    t = np.arange(0.0, 30.0, 0.2)
    ego = _lane_keeper(t, 1, 0.0, 30.0, "ego")
    # level with the ego at the first step, then falling behind: never ahead
    level = _lane_keeper(t, 1, 0.0, 20.0, "level")
    # two opponents at the same s that differ in everything else
    first = _lane_keeper(t, 1, 45.0, 24.0, "first").with_channels(
        a_lon=np.full(len(t), -0.5))
    second = _lane_keeper(t, 1, 45.0, 24.0, "second", length=12.0).with_channels(
        v=np.full(len(t), 27.0), a_lon=np.full(len(t), 0.4))
    assert np.array_equal(first.s, second.s)
    outs = []
    for order in ((level, first, second), (level, second, first)):
        spec = ScenarioSpec(trajectories=(ego, *order), substituted_id="ego",
                            model=W99Params(), layout=LAYOUT, dt=0.05)
        outs.append(simulate(spec))
        assert_same_rollout(outs[-1], ref_simulate(spec))
    assert not np.array_equal(outs[0].a_lon, outs[1].a_lon)
    alone = simulate(dataclasses.replace(spec, trajectories=(ego, first, second)))
    assert np.array_equal(alone.a_lon, outs[0].a_lon)


def test_simulate_opponent_enters_and_leaves_view():
    t = np.arange(0.0, 40.0, 0.2)
    ego = _lane_keeper(t, 0, 0.0, 30.0, "ego")
    slow = _lane_keeper(t, 0, 150.0, 22.0, "slow")
    # in view from 8.07 s to 28.07 s only, off the rollout grid at both ends
    brief = _cut(slow, slice(40, 141), "brief", t_shift=0.07)
    spec = ScenarioSpec(trajectories=(ego, brief), substituted_id="ego",
                        model=W99Params(), layout=LAYOUT, dt=0.05)
    assert _leader_matters(spec)
    assert_same_rollout(simulate(spec), ref_simulate(spec))


@pytest.mark.parametrize("duration", [120.0, 123.33])
def test_simulate_duration_longer_than_record(corpus, duration):
    spec = ScenarioSpec(trajectories=corpus.trajectories, substituted_id="r06v0022",
                        model=W99Params(cc1=0.3), layout=corpus.layout, duration=duration)
    out = simulate(spec)
    assert out.t[-1] > max(t.t[-1] for t in corpus.trajectories)
    assert_same_rollout(out, ref_simulate(spec))


def test_simulate_substituted_vehicle_changes_lanes():
    # sample times as a CSV holds them; some land an ulp above the rollout
    # grid, where the held lane needs the 1e-12 slack of the lookup
    t = np.array([float(f"{x:.9g}") for x in 2.3 + 0.2 * np.arange(200)])
    grid = t[0] + np.arange(800) * 0.05
    j = np.searchsorted(grid, t)
    above = [i for i in range(20, len(t) - 20)
             if grid[j[i] - 1] < t[i] and t[i] - grid[j[i] - 1] < 1e-9]
    assert len(above) >= 2
    change, cut_in = above[0], above[1]

    # the ego moves from lane 0 to lane 1 between samples change-1 and change
    y = sigmoid_profile(t, t_mid=0.5 * (t[change - 1] + t[change]), duration=4.0,
                        amplitude=LAYOUT.lane_width)
    ego = make_trajectory(t, y, v=30.0, vehicle_id="ego", markings=False)
    assert ego.lane[change - 1] == 0 and ego.lane[change] == 1
    ego = ego.with_channels(s=30.0 * (t - t[0]))
    lane0 = _lane_keeper(t, 0, 40.0, 25.0, "lane0")
    lane1 = _lane_keeper(t, 1, 70.0, 29.0, "lane1")
    # cuts from lane 2 into lane 1 at sample cut_in, close ahead of the ego
    merger = _lane_keeper(t, 2, 35.0, 30.0, "merger").with_channels(
        lane=np.where(np.arange(len(t)) < cut_in, 2, 1))
    spec = ScenarioSpec(trajectories=(ego, lane0, lane1, merger), substituted_id="ego",
                        model=W99Params(cc1=0.5), layout=LAYOUT, dt=0.05)
    out = simulate(spec)
    assert_same_rollout(out, ref_simulate(spec))
    assert set(out.lane) == {0, 1}
    assert _leader_matters(spec)

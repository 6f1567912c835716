import dataclasses

import numpy as np
import pytest

from lanekit.synth import overtake_scenario
from lanekit.wiedemann import (
    CFState,
    ScenarioSpec,
    W99Params,
    sample_cc1,
    _thw_trace,
    simulate,
    w99_accel,
)

from helpers import LAYOUT, make_trajectory, ref_thw_trace


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


def test_acceleration_clamped():
    p = W99Params()
    a_low = w99_accel(CFState(0.0, 40.0), CFState(4.6, 0.0, 0.0, 4.5), p)
    assert a_low >= -8.0
    a_high = w99_accel(CFState(0.0, 0.0), None, p)
    assert a_high <= p.cc8 + p.cc9


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


def test_thw_trace_matches_per_sample_reference():
    spec = overtake_scenario()
    ego = simulate(spec)
    # one opponent resampled at another rate and cut short, so the trace
    # has samples outside the opponent's track
    other = spec.others()[0]
    k = slice(30, 200, 3)
    cut = dataclasses.replace(
        other, vehicle_id="cut", t=other.t[k] + 0.07, s=other.s[k], lane=other.lane[k],
        lat=other.lat[k], v=other.v[k], a_lon=other.a_lon[k], a_lat=other.a_lat[k],
        rate=other.rate / 3.0, d_left=None, d_right=None)
    for opp in spec.others() + (cut,):
        got = _thw_trace(ego, opp, LAYOUT)
        want = ref_thw_trace(ego, opp, LAYOUT)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.isnan(_thw_trace(ego, cut, LAYOUT)).any()

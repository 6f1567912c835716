import itertools
import json
import math

import numpy as np
import pytest

from lanekit.io import write_json
from lanekit.mis import (
    EngagementError,
    FrontBrakeInjection,
    MISConfig,
    MISScenario,
    engagement_check,
    plan_decel,
    run_closed_loop,
)
from lanekit.trajectory import LaneLayout, VehicleShape
from lanekit.wiedemann import CFState, W99Params

from helpers import ref_mis_as_dict, ref_run_closed_loop

CFG = MISConfig()
L = 4.8


def ego(v=30.0):
    return CFState(0.0, v, 0.0, L)


def front(gap=27.0, v=30.0):
    return CFState(gap + L, v, 0.0, L)


def rear(gap, v):
    return CFState(-(gap + L), v, 0.0, L)


# ---------------------------------------------------------------------------
# engagement predicate

def test_rear_beyond_range_fails():
    assert not engagement_check(ego(), front(), rear(120.0, 42.0), True, CFG)


def test_reference_conditions_engage():
    # 80 m rear distance, closing 15 km/h, free left lane, short front margin
    assert engagement_check(ego(), front(), rear(80.0, 30.0 + 15.0 / 3.6), True, CFG)


def test_left_lane_occupied_fails():
    assert not engagement_check(ego(), front(), rear(80.0, 34.2), False, CFG)


def test_closing_speed_below_minimum_fails():
    assert not engagement_check(ego(), front(), rear(80.0, 30.5), True, CFG)


def test_wide_front_margin_fails():
    wide = front(gap=60.0)  # thw 2.0 > 0.9 + 0.5
    assert not engagement_check(ego(), wide, rear(80.0, 34.2), True, CFG)


def test_missing_vehicles_fail():
    assert not engagement_check(ego(), None, rear(80.0, 34.2), True, CFG)
    assert not engagement_check(ego(), front(), None, True, CFG)


# ---------------------------------------------------------------------------
# deceleration planning

def test_reference_plan_near_one():
    # rear at 100 m closing ~12 m/s: the reference configuration
    a = plan_decel(ego(), front(), rear(100.0, 42.0), CFG)
    assert a == pytest.approx(1.0, abs=0.2)


def test_fast_closing_clamps_to_comfort_cap():
    a = plan_decel(ego(), front(), rear(20.0, 75.0), CFG)
    assert a == CFG.comfort_decel_cap


def test_existing_margin_needs_no_braking():
    # a stopped ego has an infinite front THW, which already meets the target
    assert plan_decel(ego(v=0.0), front(), rear(100.0, 12.0), CFG) == 0.0


def test_not_closing_raises():
    with pytest.raises(EngagementError, match="precondition"):
        plan_decel(ego(), front(), rear(100.0, 28.0), CFG)


# ---------------------------------------------------------------------------
# closed loop

@pytest.fixture(scope="module")
def fig7_on():
    return run_closed_loop(MISScenario(), CFG, None, mis_on=True)


@pytest.fixture(scope="module")
def fig7_off_injected():
    return run_closed_loop(MISScenario(), CFG, FrontBrakeInjection(decel=4.0),
                           mis_on=False)


def test_closed_loop_engages(fig7_on):
    assert fig7_on.engaged
    assert fig7_on.engagement_time < 2.0


def test_closed_loop_planned_decel(fig7_on):
    assert fig7_on.planned_decel == pytest.approx(1.0, abs=0.2)
    assert fig7_on.planned_decel <= CFG.comfort_decel_cap


def test_margin_built_before_rear_is_close(fig7_on):
    assert fig7_on.target_reached_rear_gap > 5.0


def test_no_braking_during_overtake(fig7_on):
    assert not fig7_on.braked_during_window
    assert not fig7_on.collision
    assert not fig7_on.rear_gap_violation


def test_commanded_decel_within_cap(fig7_on):
    i0, i1 = np.searchsorted(fig7_on.t, fig7_on.engagement_time), len(fig7_on.t)
    window = fig7_on.a_ego[i0:i1]
    assert np.min(window) >= -CFG.comfort_decel_cap - 1e-9


def test_mode_transitions_in_order(fig7_on):
    modes = list(dict.fromkeys(fig7_on.mode))  # unique, order-preserving
    assert modes == ["idle", "engaged", "completed"]


def test_cascade_without_mis(fig7_off_injected):
    assert fig7_off_injected.rear_gap_violation
    assert fig7_off_injected.min_rear_gap < 1.0


def test_collision_flag_implies_contact(fig7_off_injected):
    if fig7_off_injected.collision:
        assert fig7_off_injected.min_rear_gap <= 0.0


def test_mis_protects_overlap_even_with_front_braking():
    rep = run_closed_loop(MISScenario(), CFG, FrontBrakeInjection(decel=4.0),
                          mis_on=True)
    assert not rep.braked_during_overlap
    assert not rep.collision


def test_no_engagement_when_rear_never_closes():
    sc = MISScenario(rear_gap0=140.0, rear_v0=31.0,
                     rear_model=W99Params(cc1=0.9, v_desired=31.0),
                     duration=12.0)
    rep = run_closed_loop(sc, CFG, None, mis_on=True)
    assert not rep.engaged
    assert math.isnan(rep.engagement_time)
    # plain cruise: no ego braking at all
    assert np.min(rep.a_ego) > -0.2


def test_report_serializes(tmp_path, fig7_on):
    payload = fig7_on.as_dict()
    assert "schema" not in payload  # write_json stamps it
    assert payload["engaged"] is True
    assert len(payload["trace"]["t"]) == len(payload["trace"]["a_ego"])
    write_json(tmp_path / "mis_report.json", payload)
    written = json.loads((tmp_path / "mis_report.json").read_text())
    assert written["schema"] == 1
    assert written["engaged"] is True


def test_speed_never_negative_under_hard_injection():
    rep = run_closed_loop(MISScenario(duration=60.0), CFG,
                          FrontBrakeInjection(decel=8.0, t=5.0), mis_on=False)
    assert rep.min_rear_gap <= 10.0  # cascade happened
    assert np.all(rep.thw_front[np.isfinite(rep.thw_front)] >= 0.0)


def test_left_lane_blocked_prevents_engagement():
    sc = MISScenario(left_lane_blocked=True, duration=15.0)
    rep = run_closed_loop(sc, CFG, None, mis_on=True)
    assert not rep.engaged


def test_headway_increase_met_at_reserve_distance(fig7_on):
    # when the rear gap first reaches the planning reserve, the front
    # headway has grown by at least the configured increase (within 0.1 s)
    thw0 = fig7_on.thw_front[0]
    reached = np.nonzero(fig7_on.rear_gap <= 5.0)[0]
    assert len(reached) > 0
    k = int(reached[0])
    assert fig7_on.thw_front[k] >= thw0 + CFG.thw_increase - 0.1


# ---------------------------------------------------------------------------
# scenario preconditions

@pytest.mark.parametrize("change,message", [
    ({"dt": 0.0}, "dt must be positive"),
    ({"dt": -0.05}, "dt must be positive"),
    ({"lc_duration": 0.0}, "lc_duration must be positive"),
    ({"duration": -1.0}, "duration must be >= 0"),
    ({"rear_reaction_delay": -1.0}, "rear_reaction_delay must be >= 0"),
    ({"duration": math.inf}, "duration must be finite"),
    ({"rear_reaction_delay": math.inf}, "rear_reaction_delay must be finite"),
    ({"ego_v0": math.nan}, "ego_v0 must be finite"),
    ({"ego_v0": -5.0}, "ego_v0 must be >= 0"),
    ({"front_v0": -math.inf}, "front_v0 must be finite"),
    ({"rear_v0": -0.1}, "rear_v0 must be >= 0"),
    ({"front_gap0": math.inf}, "front_gap0 must be finite"),
    ({"rear_gap0": -3.0}, "rear_gap0 must be >= 0"),
    ({"lane": 2}, "lane 2 has no lane to its left in a 3-lane layout"),
    ({"lane": -1}, "lane -1 has no lane to its left in a 3-lane layout"),
    ({"layout": LaneLayout(lane_count=1)}, "lane 0 has no lane to its left in a 1-lane layout"),
], ids=["dt-zero", "dt-negative", "lc-duration-zero", "duration-negative",
        "delay-negative", "duration-infinite", "delay-infinite", "ego-speed-nan",
        "ego-speed-negative", "front-speed-infinite", "rear-speed-negative",
        "front-gap-infinite", "rear-gap-negative", "leftmost-lane", "negative-lane",
        "one-lane"])
def test_scenario_preconditions(change, message):
    with pytest.raises(ValueError, match=message):
        MISScenario(**change)


@pytest.mark.parametrize("decel,t,message", [(math.nan, None, "decel must be finite"),
                                             (4.0, math.nan, "t must be finite")])
def test_front_brake_injection_must_be_finite(decel, t, message):
    with pytest.raises(ValueError, match=message):
        FrontBrakeInjection(decel, t)


def test_standing_start_at_zero_gaps_is_a_scenario():
    # the lower ends of the ranges are allowed
    MISScenario(ego_v0=0.0, front_v0=0.0, rear_v0=0.0, front_gap0=0.0, rear_gap0=0.0)


def test_zero_duration_runs_one_step():
    rep = run_closed_loop(MISScenario(duration=0.0, rear_reaction_delay=0.0), CFG)
    assert rep.t.tolist() == [0.0]
    assert rep.mode == ("idle",)


# ---------------------------------------------------------------------------
# the closed loop against its first version, byte for byte

_BRAKES = {"no-brake": None, "brake-at-cut-out": FrontBrakeInjection(decel=4.0),
           "brake-at-3s": FrontBrakeInjection(decel=4.0, t=3.0)}
_VARIANTS = {"default": {}, "blocked": {"left_lane_blocked": True},
             "lane1-gap8": {"lane": 1, "front_gap0": 8.0},
             "no-delay": {"rear_reaction_delay": 0.0}}


def _assert_report_matches_reference(tmp_path, sc, cfg, brake, mis_on):
    # compared as written, so that -0.0 in a_ego and NaN fields count
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    write_json(got, run_closed_loop(sc, cfg, brake, mis_on).as_dict())
    write_json(want, ref_mis_as_dict(ref_run_closed_loop(sc, cfg, brake, mis_on)))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("rear_v,brake,mis_on,variant", [
    pytest.param(v, b, on, var, id=f"v{v:g}-{b}-{'on' if on else 'off'}-{var}")
    for v, b, on, var in itertools.product((34.0, 48.0), _BRAKES, (True, False), _VARIANTS)])
def test_closed_loop_report_matches_reference(tmp_path, rear_v, brake, mis_on, variant):
    sc = MISScenario(rear_v0=rear_v, rear_model=W99Params(cc1=0.2, v_desired=rear_v),
                     **_VARIANTS[variant])
    _assert_report_matches_reference(tmp_path, sc, CFG, _BRAKES[brake], mis_on)


def test_closed_loop_report_matches_reference_on_exact_target(tmp_path):
    # binary-exact speeds, lengths and step: braking at the 2 m/s^2 cap from
    # 32 m/s brings the front headway from 0.5 s to exactly 0.5 + 4.375 s
    # after 8 s, at 16 m/s
    car = VehicleShape(4.0, 2.0)
    sc = MISScenario(dt=0.25, duration=20.0, ego_shape=car, front_shape=car, rear_shape=car,
                     ego_v0=32.0, front_v0=32.0, front_gap0=16.0, rear_v0=44.0, rear_gap0=60.0)
    cfg = MISConfig(thw_increase=4.375, comfort_decel_cap=2.0)
    rep = run_closed_loop(sc, cfg)
    assert (rep.engagement_time, rep.planned_decel) == (0.0, 2.0)
    assert rep.time_to_target_thw == 8.0
    assert rep.thw_front[32] == 4.875
    _assert_report_matches_reference(tmp_path, sc, cfg, None, True)

"""Margin increase system: controller and closed-loop evaluation harness.

A closely overtaking rear vehicle is at risk if the automated ego, which
follows its front vehicle at a short margin, has to brake mid-overtake.
The controller anticipates the overtake and pre-emptively decelerates so
the front time headway grows by a configured increment before the rear
vehicle draws level; the ego then needs no braking while the overtake is
in progress, regardless of the front vehicle's actions.

The harness runs ego (controlled), front (scripted, optional braking
injection) and rear (car-following driven with a short target gap, then a
scripted overtake) in closed loop and reports engagement, the margin
build-up and the safety outcome.  The rear driver is human: its commands
apply with a reaction delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .trajectory import LaneLayout, VehicleShape
from .wiedemann import CFState, W99Params, _clamp, w99_accel

__all__ = [
    "MISConfig",
    "MISMode",
    "MISState",
    "MISScenario",
    "FrontBrakeInjection",
    "MISEvalReport",
    "EngagementError",
    "engagement_check",
    "plan_decel",
    "run_closed_loop",
]


class EngagementError(RuntimeError):
    pass


class MISMode(str, Enum):
    IDLE = "idle"
    ENGAGED = "engaged"
    COMPLETED = "completed"


@dataclass(frozen=True)
class MISConfig:
    rear_detect_range: float = 100.0  # [m]
    delta_v_min: float = 10.0 / 3.6  # [m/s] minimum closing speed
    thw_increase: float = 2.0  # [s]
    comfort_decel_cap: float = 1.5  # [m/s^2]
    cruise_thw: float = 0.9  # [s] front headway setpoint of the ego
    engage_slack: float = 0.5  # [s] short margin means thw below setpoint+slack
    rear_reserve: float = 5.0  # [m] margin must be built before d_R drops below
    standstill_gap: float = 2.0  # [m] cruise gap offset
    hard_decel: float = 6.0  # [m/s^2] ego emergency braking
    accel_cap: float = 1.0  # [m/s^2] ego cruise acceleration limit
    emergency_thw: float = 0.3  # [s] safety override below this front headway
    aeb_thw: float = 1.2  # [s] hard braking when closing fast below this headway
    aeb_closing: float = 3.0  # [m/s]
    rear_gap_violation: float = 1.0  # [m] violation when d_R falls below

    def __post_init__(self) -> None:
        if self.thw_increase <= 0.0:
            raise ValueError("thw_increase must be positive")
        for name in ("rear_detect_range", "delta_v_min", "comfort_decel_cap",
                     "cruise_thw", "rear_reserve", "hard_decel"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class MISState:
    mode: MISMode = MISMode.IDLE
    commanded_decel: float = 0.0  # [m/s^2], positive value
    engagement_time: float = math.nan
    target_front_thw: float = math.nan


def _net_gap(behind: CFState, ahead: CFState) -> float:
    return ahead.s - behind.s - 0.5 * (ahead.length + behind.length)


def _front_thw(ego: CFState, front: CFState) -> float:
    if ego.v < 0.1:
        return math.inf
    return max(_net_gap(ego, front), 0.0) / ego.v


def engagement_check(ego: CFState, front: CFState | None, rear: CFState | None,
                     left_lane_free: bool, cfg: MISConfig) -> bool:
    """All four engagement conditions at one sensor snapshot.

    Automated following at short margin, rear vehicle within detection
    range, closing at least at the configured delta speed, and a free left
    lane for its overtake.
    """
    if front is None or rear is None:
        return False
    short_margin = _front_thw(ego, front) < cfg.cruise_thw + cfg.engage_slack
    in_range = _net_gap(rear, ego) <= cfg.rear_detect_range
    closing = (rear.v - ego.v) >= cfg.delta_v_min
    return short_margin and in_range and closing and left_lane_free


def plan_decel(ego: CFState, front: CFState, rear: CFState, cfg: MISConfig,
               target_thw: float | None = None) -> float:
    """Constant deceleration that grows the front headway in time.

    The headway must have grown by ``thw_increase`` (or up to an absolute
    ``target_thw``) before the rear vehicle is within ``rear_reserve`` of
    the ego, i.e. no later than the closest encounter.  Solving the
    constant-speed front / constant-decel ego kinematics for that horizon
    gives the braking value, clamped to the comfort cap.  Zero when the
    front headway already meets the target.
    """
    closing = rear.v - ego.v
    if closing <= 0.0:
        raise EngagementError("engagement precondition violated")
    horizon = max((_net_gap(rear, ego) - cfg.rear_reserve) / closing, 0.5)
    g0 = _net_gap(ego, front)
    thw0 = _front_thw(ego, front)
    target = target_thw if target_thw is not None else thw0 + cfg.thw_increase
    if target <= thw0:
        return 0.0
    dv_front = ego.v - front.v
    a = (target * ego.v - g0 + dv_front * horizon) / (0.5 * horizon ** 2 + target * horizon)
    return _clamp(a, 0.0, cfg.comfort_decel_cap)


@dataclass(frozen=True)
class FrontBrakeInjection:
    decel: float  # [m/s^2]
    t: float | None = None  # None: inject when the rear vehicle starts its overtake


@dataclass(frozen=True)
class MISScenario:
    """Three-role fixture: ego E, front F and rear R in one lane.

    The rear vehicle follows with a short target time gap, starts a
    scripted left lane change once its headway falls below the trigger,
    passes, and cuts back in once it leads the ego.  ``left_lane_blocked``
    only flips the engagement predicate; no traffic is placed there.
    """

    layout: LaneLayout = field(default_factory=LaneLayout)
    dt: float = 0.05
    duration: float = 45.0
    lane: int = 0
    ego_shape: VehicleShape = field(default_factory=VehicleShape)
    front_shape: VehicleShape = field(default_factory=VehicleShape)
    rear_shape: VehicleShape = field(default_factory=VehicleShape)
    ego_v0: float = 30.0
    front_v0: float = 30.0
    rear_v0: float = 42.0
    front_gap0: float = 29.0  # [m] net E->F
    rear_gap0: float = 110.0  # [m] net R->E
    rear_model: W99Params = field(default_factory=lambda: W99Params(cc1=0.2, v_desired=42.0))
    rear_reaction_delay: float = 1.5  # [s]
    overtake_trigger_thw: float = 0.3  # [s]
    lc_duration: float = 6.0  # [s]
    cut_in_lead: float = 5.0  # [m] net lead over the ego at the cut-in
    left_lane_blocked: bool = False


@dataclass(frozen=True)
class MISEvalReport:
    engaged: bool
    engagement_time: float
    planned_decel: float
    time_to_target_thw: float
    target_reached_rear_gap: float  # d_R when the margin was in place
    braked_during_window: bool
    braked_during_overlap: bool
    min_rear_gap: float
    rear_gap_violation: bool
    collision: bool
    window: tuple[float, float]
    t: np.ndarray
    a_ego: np.ndarray
    thw_front: np.ndarray
    rear_gap: np.ndarray
    mode: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "engaged": self.engaged,
            "engagement_time": self.engagement_time,
            "planned_decel": self.planned_decel,
            "time_to_target_thw": self.time_to_target_thw,
            "target_reached_rear_gap": self.target_reached_rear_gap,
            "braked_during_window": self.braked_during_window,
            "braked_during_overlap": self.braked_during_overlap,
            "min_rear_gap": self.min_rear_gap,
            "rear_gap_violation": self.rear_gap_violation,
            "collision": self.collision,
            "window": list(self.window),
            "trace": {
                "t": self.t.tolist(),
                "a_ego": self.a_ego.tolist(),
                "thw_front": self.thw_front.tolist(),
                "rear_gap": self.rear_gap.tolist(),
                "mode": list(self.mode),
            },
        }


def _logistic(x: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-x))


def run_closed_loop(scenario: MISScenario, cfg: MISConfig | None = None,
                    front_brake: FrontBrakeInjection | None = None,
                    mis_on: bool = True) -> MISEvalReport:
    """Simulate the three-role scenario and report the safety outcome.

    With the controller on, the ego applies the planned deceleration upon
    engagement, holds speed once the margin is built, and resumes cruising
    after the rear vehicle concludes its maneuver.  The report records
    whether the ego braked inside the overtake window, the minimum rear
    gap while the rear vehicle was behind with overlapping corridors, and
    the collision flag.
    """
    cfg = cfg or MISConfig()
    sc = scenario
    dt = sc.dt
    n = int(round(sc.duration / dt)) + 1
    t_grid = np.arange(n) * dt
    w = sc.layout.lane_width
    y_home = sc.lane * w
    y_left = (sc.lane + 1) * w

    # state arrays
    s_e = np.empty(n); v_e = np.empty(n); a_e = np.zeros(n)
    s_f = np.empty(n); v_f = np.empty(n)
    s_r = np.empty(n); v_r = np.empty(n); y_r = np.empty(n)
    thw_front = np.full(n, np.nan)
    rear_gap = np.full(n, np.nan)
    modes: list[str] = []

    s_e[0] = 0.0
    v_e[0] = sc.ego_v0
    s_f[0] = 0.5 * (sc.ego_shape.length + sc.front_shape.length) + sc.front_gap0
    v_f[0] = sc.front_v0
    s_r[0] = -(0.5 * (sc.ego_shape.length + sc.rear_shape.length) + sc.rear_gap0)
    v_r[0] = sc.rear_v0
    y_r[0] = y_home

    state = MISState()
    delay_steps = max(int(round(sc.rear_reaction_delay / dt)), 0)
    rear_cmds: list[float] = []
    rear_prev_a = 0.0
    ego_prev_a = 0.0
    front_a = 0.0
    inject_t: float | None = front_brake.t if front_brake else None

    lc_start: float | None = None  # rear vehicle's cut-out instant
    cutin_start: float | None = None
    maneuver_end: float | None = None
    phase = "approach"
    braked_in_window = False
    braked_in_overlap = False
    min_rear_gap = math.inf
    time_to_target = math.nan
    target_rear_gap = math.nan
    planned = 0.0

    half_wid_er = 0.5 * (sc.ego_shape.width + sc.rear_shape.width)

    for k in range(n):
        tk = float(t_grid[k])
        ego = CFState(s_e[k], v_e[k], ego_prev_a, sc.ego_shape.length)
        front = CFState(s_f[k], v_f[k], front_a, sc.front_shape.length)
        rear = CFState(s_r[k], v_r[k], rear_prev_a, sc.rear_shape.length)

        thw_front[k] = _front_thw(ego, front)
        d_r = _net_gap(rear, ego)
        rear_gap[k] = d_r
        overlap = abs(y_r[k] - y_home) < half_wid_er
        if rear.s < ego.s and overlap:
            min_rear_gap = min(min_rear_gap, d_r)

        # --- rear vehicle: phase logic -------------------------------------
        if phase == "approach":
            rear_thw = (max(d_r, 0.0) / rear.v) if rear.v > 0.1 else math.inf
            if rear_thw < sc.overtake_trigger_thw:
                phase = "overtake"
                lc_start = tk
                if front_brake is not None and inject_t is None:
                    inject_t = tk
        if phase == "overtake" and lc_start is not None:
            if cutin_start is None:
                frac = min((tk - lc_start) / sc.lc_duration, 1.0)
                y_r[k] = y_home + (y_left - y_home) * float(
                    _logistic(10.0 * (frac - 0.5)))
                if _net_gap(ego, rear) >= sc.cut_in_lead and frac >= 1.0:
                    cutin_start = tk
            else:
                frac = min((tk - cutin_start) / sc.lc_duration, 1.0)
                y_r[k] = y_left + (y_home - y_left) * float(
                    _logistic(10.0 * (frac - 0.5)))
                if frac >= 1.0 and maneuver_end is None:
                    maneuver_end = tk
                    phase = "done"

        # rear longitudinal command (applied with reaction delay)
        rear_lane_now = round(y_r[k] / w)
        leader_r: CFState | None = None
        if rear_lane_now == sc.lane:
            if rear.s < ego.s:
                leader_r = ego
            elif rear.s < front.s:
                leader_r = front
        cmd = w99_accel(rear, leader_r, sc.rear_model)
        rear_cmds.append(cmd)
        a_r = rear_cmds[max(k - delay_steps, 0)]
        rear_prev_a = a_r

        # --- ego controller -------------------------------------------------
        in_window = (lc_start is not None and tk >= lc_start
                     and (maneuver_end is None or tk <= maneuver_end))
        if mis_on and state.mode is MISMode.IDLE:
            left_free = not sc.left_lane_blocked
            rear_seen = rear if d_r <= cfg.rear_detect_range else None
            if engagement_check(ego, front, rear_seen, left_free, cfg):
                planned = plan_decel(ego, front, rear, cfg)
                state.mode = MISMode.ENGAGED
                state.commanded_decel = planned
                state.engagement_time = tk
                state.target_front_thw = thw_front[k] + cfg.thw_increase

        if state.mode is MISMode.ENGAGED:
            if thw_front[k] >= state.target_front_thw:
                state.commanded_decel = 0.0
                if math.isnan(time_to_target):
                    time_to_target = tk - state.engagement_time
                    target_rear_gap = d_r
                a_cmd = 0.0
            else:
                a_cmd = -state.commanded_decel
            if maneuver_end is not None:
                state.mode = MISMode.COMPLETED
        elif state.mode is MISMode.COMPLETED or not mis_on or state.mode is MISMode.IDLE:
            gap = _net_gap(ego, front)
            g_des = cfg.cruise_thw * ego.v + cfg.standstill_gap
            a_cmd = _clamp(0.25 * (gap - g_des) + 0.9 * (front.v - ego.v),
                           -cfg.hard_decel, cfg.accel_cap)

        closing_front = ego.v - front.v
        if (thw_front[k] < cfg.emergency_thw
                or (thw_front[k] < cfg.aeb_thw and closing_front > cfg.aeb_closing)):
            a_cmd = -cfg.hard_decel
        if in_window and a_cmd < -1e-9:
            braked_in_window = True
            if rear.s < ego.s and overlap:
                braked_in_overlap = True

        a_e[k] = a_cmd
        ego_prev_a = a_cmd
        modes.append(state.mode.value)

        # --- front vehicle script -------------------------------------------
        front_a = 0.0
        if front_brake is not None and inject_t is not None and tk >= inject_t:
            front_a = -abs(front_brake.decel) if v_f[k] > 0.0 else 0.0

        # --- integrate -------------------------------------------------------
        if k + 1 < n:
            s_e[k + 1] = s_e[k] + v_e[k] * dt
            v_e[k + 1] = max(v_e[k] + a_e[k] * dt, 0.0)
            s_f[k + 1] = s_f[k] + v_f[k] * dt
            v_f[k + 1] = max(v_f[k] + front_a * dt, 0.0)
            s_r[k + 1] = s_r[k] + v_r[k] * dt
            v_r[k + 1] = max(v_r[k] + a_r * dt, 0.0)
            y_r[k + 1] = y_r[k]

    window = (float(lc_start) if lc_start is not None else math.nan,
              float(maneuver_end) if maneuver_end is not None else float(t_grid[-1]))
    min_rear = float(min_rear_gap) if math.isfinite(min_rear_gap) else math.nan
    return MISEvalReport(
        engaged=not math.isnan(state.engagement_time),
        engagement_time=float(state.engagement_time),
        planned_decel=float(planned),
        time_to_target_thw=float(time_to_target),
        target_reached_rear_gap=float(target_rear_gap),
        braked_during_window=bool(braked_in_window),
        braked_during_overlap=bool(braked_in_overlap),
        min_rear_gap=min_rear,
        rear_gap_violation=bool(not math.isnan(min_rear)
                                and min_rear < cfg.rear_gap_violation),
        collision=bool(not math.isnan(min_rear) and min_rear <= 0.0),
        window=window,
        t=t_grid,
        a_ego=a_e,
        thw_front=thw_front,
        rear_gap=rear_gap,
        mode=tuple(modes),
    )

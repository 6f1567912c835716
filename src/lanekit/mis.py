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
apply with a reaction delay.  Besides the three vehicles' kinematics the
loop keeps two facts: the rear maneuver as three instants (cut-out,
cut-in and end, each unset until it happens) and the ego mode (idle,
engaged or completed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .criticality import V_EGO_MIN
from .trajectory import LaneLayout, VehicleShape, check_range
from .wiedemann import CFState, W99Params, _clamp, net_gap, w99_accel

__all__ = [
    "MISConfig",
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


# calibration of the ego's controller and of the evaluation
CRUISE_THW = 0.9  # [s] front headway setpoint of the ego
ENGAGE_SLACK = 0.5  # [s] short margin means thw below setpoint+slack
REAR_RESERVE = 5.0  # [m] margin must be built before d_R drops below
STANDSTILL_GAP = 2.0  # [m] cruise gap offset
HARD_DECEL = 6.0  # [m/s^2] ego emergency braking
ACCEL_CAP = 1.0  # [m/s^2] ego cruise acceleration limit
EMERGENCY_THW = 0.3  # [s] safety override below this front headway
AEB_THW = 1.2  # [s] hard braking when closing fast below this headway
AEB_CLOSING = 3.0  # [m/s]
REAR_GAP_VIOLATION = 1.0  # [m] violation when d_R falls below


@dataclass(frozen=True)
class MISConfig:
    """Controller settings, each finite and positive."""

    rear_detect_range: float = 100.0  # [m]
    delta_v_min: float = 10.0 / 3.6  # [m/s] minimum closing speed
    thw_increase: float = 2.0  # [s]
    comfort_decel_cap: float = 1.5  # [m/s^2]

    def __post_init__(self) -> None:
        check_range(self, positive=True)


def _front_thw(ego: CFState, front: CFState) -> float:
    if ego.v < V_EGO_MIN:
        return math.inf
    return max(net_gap(ego, front), 0.0) / ego.v


def engagement_check(ego: CFState, front: CFState | None, rear: CFState | None,
                     left_lane_free: bool, cfg: MISConfig) -> bool:
    """All four engagement conditions at one sensor snapshot.

    Automated following at short margin, rear vehicle within detection
    range, closing at least at the configured delta speed, and a free left
    lane for its overtake.
    """
    if front is None or rear is None:
        return False
    short_margin = _front_thw(ego, front) < CRUISE_THW + ENGAGE_SLACK
    in_range = net_gap(rear, ego) <= cfg.rear_detect_range
    closing = (rear.v - ego.v) >= cfg.delta_v_min
    return short_margin and in_range and closing and left_lane_free


def plan_decel(ego: CFState, front: CFState, rear: CFState, cfg: MISConfig) -> float:
    """Constant deceleration that grows the front headway in time.

    The headway must have grown by ``thw_increase`` before the rear vehicle
    is within ``REAR_RESERVE`` of the ego, i.e. no later than the closest
    encounter.  Solving the constant-speed front / constant-decel ego
    kinematics for that horizon gives the braking value, clamped to the
    comfort cap.  Zero when the ego is stopped: its front headway is then
    infinite.
    """
    closing = rear.v - ego.v
    if closing <= 0.0:
        raise EngagementError("engagement precondition violated")
    horizon = max((net_gap(rear, ego) - REAR_RESERVE) / closing, 0.5)
    g0 = net_gap(ego, front)
    thw0 = _front_thw(ego, front)
    target = thw0 + cfg.thw_increase
    if target <= thw0:
        return 0.0
    dv_front = ego.v - front.v
    a = (target * ego.v - g0 + dv_front * horizon) / (0.5 * horizon ** 2 + target * horizon)
    return _clamp(a, 0.0, cfg.comfort_decel_cap)


@dataclass(frozen=True)
class FrontBrakeInjection:
    """Braking of the front vehicle at ``|decel|`` from ``t``; both finite."""

    decel: float  # [m/s^2]
    t: float | None = None  # None: inject when the rear vehicle starts its overtake

    def __post_init__(self) -> None:
        check_range(self)


@dataclass(frozen=True)
class MISScenario:
    """Three-role fixture: ego E, front F and rear R in one lane.

    The rear vehicle follows with a short target time gap, starts a
    scripted left lane change once its headway falls below the trigger,
    passes, and cuts back in once it leads the ego.  ``left_lane_blocked``
    only flips the engagement predicate; no traffic is placed there.  Every
    number must be finite, ``dt`` and ``lc_duration`` positive and the
    speeds, net gaps, ``duration`` and ``rear_reaction_delay`` >= 0, so the
    footprints do not overlap at the start.
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

    def __post_init__(self) -> None:
        check_range(self)
        check_range(self, "dt", "lc_duration", positive=True)
        check_range(self, "duration", "rear_reaction_delay", "ego_v0", "front_v0", "rear_v0",
                    "front_gap0", "rear_gap0", low=0.0)
        # the rear vehicle overtakes in the lane to the left of ``lane``
        if not 0 <= self.lane <= self.layout.lane_count - 2:
            raise ValueError(f"lane {self.lane} has no lane to its left in a "
                             f"{self.layout.lane_count}-lane layout")


_TRACE = ("t", "a_ego", "thw_front", "rear_gap", "mode")  # per-step series of a report


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
        out = {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}
        trace = {name: out.pop(name) for name in _TRACE}
        return {**out, "trace": trace}


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

    Each step reads the loop's state: the vehicles' kinematics, the rear
    maneuver as three instants (``lc_start`` the cut-out, ``cutin_start``,
    ``maneuver_end``; None until they happen) and the ego ``mode``, idle
    until engagement, engaged until the step the maneuver ends, then
    completed.  The controller's one memory is its commanded deceleration,
    zeroed once the front headway reaches the target.
    """
    cfg = cfg or MISConfig()
    sc = scenario
    dt = sc.dt
    n = int(round(sc.duration / dt)) + 1
    t_grid = np.arange(n) * dt
    w = sc.layout.lane_width
    y_home, y_left = sc.layout.center(sc.lane), sc.layout.center(sc.lane + 1)
    half_wid_er = 0.5 * (sc.ego_shape.width + sc.rear_shape.width)
    delay_steps = int(round(sc.rear_reaction_delay / dt))

    # the per-step series, as lists until the report is built
    a_ego: list[float] = []
    thw_front: list[float] = []
    rear_gap: list[float] = []
    modes: list[str] = []
    rear_cmds: list[float] = []

    s_e = 0.0
    s_f = 0.5 * (sc.ego_shape.length + sc.front_shape.length) + sc.front_gap0
    s_r = -(0.5 * (sc.ego_shape.length + sc.rear_shape.length) + sc.rear_gap0)
    v_e, v_f, v_r = sc.ego_v0, sc.front_v0, sc.rear_v0
    a_e = a_f = a_r = 0.0
    y_r = y_home
    lc_start = cutin_start = maneuver_end = None
    mode = "idle"
    engagement_time = target_thw = time_to_target = target_rear_gap = math.nan
    planned = decel = 0.0
    braked_in_window = braked_in_overlap = False
    min_rear_gap = math.inf

    len_e, len_f, len_r = sc.ego_shape.length, sc.front_shape.length, sc.rear_shape.length
    for k, tk in enumerate(t_grid.tolist()):
        ego = CFState(s_e, v_e, a_e, len_e)
        front = CFState(s_f, v_f, a_f, len_f)
        rear = CFState(s_r, v_r, a_r, len_r)
        thw = _front_thw(ego, front)
        d_r = net_gap(rear, ego)
        thw_front.append(thw)
        rear_gap.append(d_r)
        behind = rear.s < ego.s and abs(y_r - y_home) < half_wid_er
        if behind:
            min_rear_gap = min(min_rear_gap, d_r)

        # --- rear vehicle: cut out below the trigger headway, cut back in
        # once it leads the ego by cut_in_lead -------------------------------
        if (lc_start is None and rear.v > V_EGO_MIN
                and max(d_r, 0.0) / rear.v < sc.overtake_trigger_thw):
            lc_start = tk
        if lc_start is not None and maneuver_end is None:
            start, y0, y1 = ((lc_start, y_home, y_left) if cutin_start is None
                             else (cutin_start, y_left, y_home))
            frac = min((tk - start) / sc.lc_duration, 1.0)
            y_r = y0 + (y1 - y0) * float(_logistic(10.0 * (frac - 0.5)))
            if frac >= 1.0 and cutin_start is not None:
                maneuver_end = tk
            elif frac >= 1.0 and net_gap(ego, rear) >= sc.cut_in_lead:
                cutin_start = tk

        # rear longitudinal command (applied with reaction delay)
        leader_r: CFState | None = None
        if round(y_r / w) == sc.lane:
            leader_r = ego if rear.s < ego.s else front if rear.s < front.s else None
        rear_cmds.append(w99_accel(rear, leader_r, sc.rear_model))
        a_r = rear_cmds[max(k - delay_steps, 0)]

        # --- ego controller -------------------------------------------------
        if (mis_on and mode == "idle"
                and engagement_check(ego, front, rear, not sc.left_lane_blocked, cfg)):
            planned = decel = plan_decel(ego, front, rear, cfg)
            mode, engagement_time, target_thw = "engaged", tk, thw + cfg.thw_increase
        if mode == "engaged":
            if thw >= target_thw:
                decel = 0.0
                if math.isnan(time_to_target):
                    time_to_target = tk - engagement_time
                    target_rear_gap = d_r
                a_cmd = 0.0
            else:
                a_cmd = -decel
            if maneuver_end is not None:
                mode = "completed"
        else:
            g_des = CRUISE_THW * ego.v + STANDSTILL_GAP
            a_cmd = _clamp(0.25 * (net_gap(ego, front) - g_des) + 0.9 * (front.v - ego.v),
                           -HARD_DECEL, ACCEL_CAP)
        if thw < EMERGENCY_THW or (thw < AEB_THW and ego.v - front.v > AEB_CLOSING):
            a_cmd = -HARD_DECEL
        if (a_cmd < -1e-9 and lc_start is not None
                and (maneuver_end is None or tk <= maneuver_end)):
            braked_in_window = True
            braked_in_overlap = braked_in_overlap or behind
        a_e = a_cmd
        a_ego.append(a_cmd)
        modes.append(mode)

        # --- front vehicle script: brakes from front_brake.t, or from the
        # cut-out when that is None ------------------------------------------
        brake_t = (None if front_brake is None
                   else lc_start if front_brake.t is None else front_brake.t)
        a_f = (-abs(front_brake.decel) if brake_t is not None and tk >= brake_t and v_f > 0.0
               else 0.0)

        s_e, v_e = s_e + v_e * dt, max(v_e + a_e * dt, 0.0)
        s_f, v_f = s_f + v_f * dt, max(v_f + a_f * dt, 0.0)
        s_r, v_r = s_r + v_r * dt, max(v_r + a_r * dt, 0.0)

    min_rear = min_rear_gap if math.isfinite(min_rear_gap) else math.nan
    return MISEvalReport(
        engaged=mode != "idle",
        engagement_time=engagement_time,
        planned_decel=planned,
        time_to_target_thw=time_to_target,
        target_reached_rear_gap=target_rear_gap,
        braked_during_window=braked_in_window,
        braked_during_overlap=braked_in_overlap,
        min_rear_gap=min_rear,
        rear_gap_violation=min_rear < REAR_GAP_VIOLATION,
        collision=min_rear <= 0.0,
        window=(math.nan if lc_start is None else lc_start,
                float(t_grid[-1]) if maneuver_end is None else maneuver_end),
        t=t_grid,
        a_ego=np.array(a_ego),
        thw_front=np.array(thw_front),
        rear_gap=np.array(rear_gap),
        mode=tuple(modes),
    )

"""Deterministic Wiedemann99 car following and replay-with-substitution.

The psycho-physical regime logic (free driving / closing / following /
emergency) with the conventional cc0..cc9 parameter set; cc1 is the target
time gap to the leader, so the desired following distance at speed v is
cc0 + cc1 * v.  The stochastic perception terms of common implementations
are dropped: identical inputs give bit-identical trajectories.

A scenario replays recorded trajectories verbatim except for one
substituted vehicle, which keeps its recorded lane sequence but is driven
longitudinally by the model.  Sweeping cc1 toward lower values produces
new, tighter-following variants of a recorded scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .criticality import KinState, encounter, time_overlap
from .trajectory import LaneLayout, Trajectory

__all__ = [
    "W99Params",
    "CFState",
    "ScenarioSpec",
    "SampledScenario",
    "SampledScenarioSet",
    "w99_accel",
    "simulate",
    "sample_cc1",
]

V_CC9_REF = 80.0 / 3.6  # [m/s] speed at which cc9 applies
A_MIN = -8.0  # [m/s^2] hard deceleration floor
LOOK_AHEAD = 150.0  # [m] beyond this a leader is ignored


@dataclass(frozen=True)
class W99Params:
    cc0: float = 1.5  # [m] standstill gap
    cc1: float = 0.9  # [s] target time gap
    cc2: float = 4.0  # [m] following oscillation band
    cc3: float = -8.0  # [s] perception threshold for entering following
    cc4: float = -0.35  # [m/s] negative following speed-difference threshold
    cc5: float = 0.35  # [m/s] positive following speed-difference threshold
    cc6: float = 11.44  # [1e-4 / (m*s)] oscillation speed dependency
    cc7: float = 0.25  # [m/s^2] oscillation acceleration
    cc8: float = 3.5  # [m/s^2] standstill acceleration
    cc9: float = 1.5  # [m/s^2] acceleration at 80 km/h
    v_desired: float = 33.33  # [m/s]

    def __post_init__(self) -> None:
        if self.cc0 <= 0.0 or self.cc1 <= 0.0 or self.cc8 <= 0.0:
            raise ValueError("cc0, cc1 and cc8 must be positive")
        if not (self.cc4 < 0.0 < self.cc5):
            raise ValueError("require cc4 < 0 < cc5")

    def desired_gap(self, v: float) -> float:
        """Desired net following distance at speed v [m]."""
        return self.cc0 + self.cc1 * v


@dataclass(frozen=True)
class CFState:
    """Longitudinal state of one vehicle for the car-following law.

    ``s`` is the footprint center position along the road.
    """

    s: float
    v: float
    a: float = 0.0
    length: float = 4.5


def _clamp(x: float, lo: float, hi: float) -> float:
    """``x`` limited to [lo, hi], as ``float(np.clip(x, lo, hi))``.

    For bounds that are not NaN the argument order matches ``np.maximum``
    and ``np.minimum``, so a NaN ``x`` and the sign of zero come out the
    same; builtins are much faster than ``np.clip`` on scalars.
    """
    return float(min(max(x, lo), hi))


def _free_accel(v: float, p: W99Params) -> float:
    """Acceleration potential, linear from cc8 at standstill to cc9 at 80 km/h."""
    a_max = p.cc8 + (p.cc9 - p.cc8) * min(v, V_CC9_REF) / V_CC9_REF
    return max(a_max, 0.05)


def w99_accel(follower: CFState, leader: CFState | None, p: W99Params) -> float:
    """Acceleration command of the Wiedemann99 regime logic [m/s^2].

    Without a leader (or with one beyond the look-ahead range) the vehicle
    accelerates toward ``v_desired``.  Output is clamped to
    [-8, cc8 + cc9].
    """
    v = max(follower.v, 0.0)
    a_cap = p.cc8 + p.cc9

    def toward_desired() -> float:
        # taper to exactly zero at v_desired, gentle trim above it
        err = p.v_desired - v
        return min(_free_accel(v, p), err / 2.0) if err >= 0.0 else max(err / 2.0, -p.cc7)

    if leader is None:
        return _clamp(toward_desired(), A_MIN, a_cap)

    dx = leader.s - follower.s - 0.5 * (leader.length + follower.length)
    if dx > LOOK_AHEAD:
        return _clamp(toward_desired(), A_MIN, a_cap)

    vl = max(leader.v, 0.0)
    dv = vl - v  # positive when the gap is opening
    al = leader.a

    if vl <= 0.0:
        sdxc = p.cc0
    else:
        v_slow = v if (dv >= 0.0 or al < -1.0) else vl
        sdxc = p.cc0 + p.cc1 * v_slow
    sdxo = sdxc + p.cc2  # upper edge of the following band
    sdxv = sdxo + p.cc3 * (dv - p.cc4)  # perception distance for closing
    sdv = p.cc6 * 1e-4 * dx * dx
    sdvc = (p.cc4 - sdv) if vl > 0.0 else 0.0
    sdvo = (sdv + p.cc5) if v > p.cc5 else sdv

    if dv < sdvo and dx <= sdxc:
        # emergency: closer than the desired minimum gap
        a = 0.0
        if v > 0.0:
            if dv < 0.0:
                if dx > p.cc0:
                    a = min(al + dv * dv / (p.cc0 - dx), 0.0)
                else:
                    a = min(al + 0.5 * (dv - sdvo), 0.0)
            a = min(a, -p.cc7)
            a = max(a, -10.0 + 0.5 * math.sqrt(v))
    elif dv < sdvc and dx < sdxv:
        # closing in: constant deceleration that ends the approach at sdxc
        a = al - 0.5 * dv * dv / max(dx - sdxc, 0.1)
        a = min(a, 0.0)
    elif dv < sdvo and dx < sdxo:
        # following: hold the gap near the middle of the oscillation band
        mid = sdxc + 0.5 * p.cc2
        a = _clamp(0.15 * (dx - mid) + 0.8 * dv, -p.cc7, p.cc7)
        a = min(a, toward_desired())
    else:
        # free driving (leader far or pulling away)
        a = toward_desired()

    return _clamp(a, A_MIN, a_cap)


@dataclass(frozen=True)
class ScenarioSpec:
    """Recorded trajectories with one vehicle handed to the model.

    The substituted vehicle starts from its recorded first sample and keeps
    its recorded lane sequence; everything else is replayed verbatim.
    """

    trajectories: tuple[Trajectory, ...]
    substituted_id: str
    model: W99Params
    layout: LaneLayout
    dt: float = 0.05  # [s]
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.dt > 0.1:
            raise ValueError("dt must be <= 0.1 s")
        if all(t.vehicle_id != self.substituted_id for t in self.trajectories):
            raise ValueError(f"substituted vehicle {self.substituted_id!r} absent")

    def substituted(self) -> Trajectory:
        for t in self.trajectories:
            if t.vehicle_id == self.substituted_id:
                return t
        raise AssertionError("unreachable")

    def others(self) -> tuple[Trajectory, ...]:
        return tuple(t for t in self.trajectories
                     if t.vehicle_id != self.substituted_id)


def _held_lane(traj: Trajectory, t: np.ndarray) -> np.ndarray:
    """Recorded lane of ``traj`` held from each sample to the next, at times ``t``."""
    i = np.searchsorted(traj.t, t + 1e-12, side="right") - 1
    return traj.lane[np.clip(i, 0, len(traj.lane) - 1)]


def simulate(spec: ScenarioSpec) -> Trajectory:
    """Forward-Euler rollout of the substituted vehicle.

    At each step the leader is the nearest replayed vehicle ahead in the
    substituted vehicle's held recorded lane; of two replayed vehicles at
    the same position, the one listed first in the scenario leads.  The
    replayed traffic does not depend on the rollout, so it is tabulated on
    the rollout grid once per call: the held lanes, and each opponent's
    position where it is in view and in the substituted vehicle's lane
    (``+inf`` elsewhere).  A step only picks its leader from that row and
    interpolates the chosen leader's speed and acceleration.  Speeds are
    clamped at zero; the result is deterministic.

    ``lat`` is interpolated linearly between the recorded samples, also
    across a lane switch, while ``lane`` is held; so ``lane * width + lat``
    dips by up to one lane width for the steps between the two samples of
    a switch.
    """
    rec = spec.substituted()
    others = spec.others()
    t0 = float(rec.t[0])
    t_end = t0 + (spec.duration if spec.duration is not None else rec.duration)
    n = int(round((t_end - t0) / spec.dt)) + 1
    t_grid = t0 + np.arange(n) * spec.dt

    lane = _held_lane(rec, t_grid)
    opp_s = np.empty((n, len(others)))
    for j, opp in enumerate(others):
        shown = ((t_grid >= opp.t[0]) & (t_grid <= opp.t[-1])
                 & (_held_lane(opp, t_grid) == lane))
        opp_s[:, j] = np.where(shown, np.interp(t_grid, opp.t, opp.s), math.inf)

    s = np.empty(n)
    v = np.empty(n)
    a = np.empty(n)
    s[0] = float(rec.s[0])
    v[0] = max(float(rec.v[0]), 0.0)

    prev_a = 0.0
    for k in range(n):
        follower = CFState(s=s[k], v=v[k], a=prev_a, length=rec.shape.length)
        leader: CFState | None = None
        if others:
            row = opp_s[k]
            ahead = np.where(row > s[k], row, math.inf)
            j = int(ahead.argmin())  # first of equal minima: earliest opponent
            if ahead[j] < math.inf:
                opp = others[j]
                tk = float(t_grid[k])
                leader = CFState(
                    s=float(ahead[j]),
                    v=float(np.interp(tk, opp.t, opp.v)),
                    a=float(np.interp(tk, opp.t, opp.a_lon)),
                    length=opp.shape.length,
                )

        a[k] = w99_accel(follower, leader, spec.model)
        prev_a = a[k]
        if k + 1 < n:
            s[k + 1] = s[k] + v[k] * spec.dt
            v[k + 1] = max(v[k] + a[k] * spec.dt, 0.0)

    lat = np.interp(t_grid, rec.t, rec.lat)
    a_lat = np.interp(t_grid, rec.t, rec.a_lat)
    return Trajectory(
        vehicle_id=rec.vehicle_id,
        shape=rec.shape,
        t=t_grid,
        s=s,
        lane=lane,
        lat=lat,
        v=v,
        a_lon=a,
        a_lat=a_lat,
        rate=1.0 / spec.dt,
    )


@dataclass(frozen=True)
class SampledScenario:
    cc1: float
    trajectory: Trajectory
    thw_traces: dict[str, np.ndarray]  # opponent id -> THW per sim step
    min_thw: dict[str, float]


@dataclass(frozen=True)
class SampledScenarioSet:
    t: np.ndarray
    scenarios: tuple[SampledScenario, ...]


def _thw_trace(ego: Trajectory, opp: Trajectory, layout: LaneLayout) -> np.ndarray:
    """THW of ego against one replayed opponent on the ego time grid."""
    w = layout.lane_width
    k = time_overlap(ego.t, opp.t)
    tt = ego.t[k]
    trace = np.full(len(ego.t), np.nan)
    trace[k] = encounter(
        KinState(tt, ego.s[k], (ego.lane * w + ego.lat)[k], ego.v[k]),
        KinState(tt, np.interp(tt, opp.t, opp.s),
                 np.interp(tt, opp.t, opp.lane * w + opp.lat),
                 np.interp(tt, opp.t, opp.v)),
        ego.shape, opp.shape).thw
    return trace


def sample_cc1(spec: ScenarioSpec, cc1_values: Sequence[float]) -> SampledScenarioSet:
    """One simulation per cc1 value plus THW traces against each opponent.

    Lower cc1 tightens the following gap of the substituted vehicle and
    with it the headway to its leaders.
    """
    if len(cc1_values) == 0:
        raise ValueError("cc1_values must be non-empty")
    if any(c <= 0.0 for c in cc1_values):
        raise ValueError("cc1 values must be positive")

    scenarios = []
    t_grid: np.ndarray | None = None
    for cc1 in cc1_values:
        variant = replace(spec, model=replace(spec.model, cc1=cc1))
        ego = simulate(variant)
        if t_grid is None:
            t_grid = ego.t
        traces = {opp.vehicle_id: _thw_trace(ego, opp, spec.layout)
                  for opp in spec.others()}
        mins = {vid: (float(np.nanmin(tr)) if np.any(~np.isnan(tr)) else math.nan)
                for vid, tr in traces.items()}
        scenarios.append(SampledScenario(cc1, ego, traces, mins))
    assert t_grid is not None
    return SampledScenarioSet(t=t_grid, scenarios=tuple(scenarios))

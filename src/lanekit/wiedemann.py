"""Deterministic Wiedemann99 car following and replay-with-substitution.

The psycho-physical regime logic (free driving / closing / following /
emergency) with the conventional cc0..cc9 parameter set; cc1 is the target
time gap to the leader in the desired following distance
``W99Params.desired_gap``.  The stochastic perception terms of common
implementations are dropped: identical inputs give bit-identical
trajectories.

A scenario replays recorded trajectories verbatim except for one
substituted vehicle, which keeps its recorded lane sequence but is driven
longitudinally by the model.  Sweeping cc1 toward lower values produces
new, tighter-following variants of a recorded scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .criticality import KinState, encounter, nan_min
from .trajectory import LaneLayout, Trajectory, check_range, held_lane, time_overlap

__all__ = [
    "W99Params",
    "CFState",
    "net_gap",
    "ScenarioSpec",
    "SampledScenario",
    "SampledScenarioSet",
    "w99_accel",
    "simulate",
    "sample_cc1",
    "check_dt",
]

V_CC9_REF = 80.0 / 3.6  # [m/s] speed at which cc9 applies
A_MIN = -8.0  # [m/s^2] hard deceleration floor
LOOK_AHEAD = 150.0  # [m] beyond this a leader is ignored


@dataclass(frozen=True)
class W99Params:
    """Wiedemann99 parameters: finite, ``cc0``, ``cc1``, ``cc8`` and
    ``v_desired`` positive and ``cc4 < 0 < cc5``."""

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
        check_range(self)
        check_range(self, "cc0", "cc1", "cc8", "v_desired", positive=True)
        if not (self.cc4 < 0.0 < self.cc5):
            raise ValueError("require cc4 < 0 < cc5")

    def desired_gap(self, v: float) -> float:
        """Desired net following distance at speed v [m]."""
        return self.cc0 + self.cc1 * v


class CFState(NamedTuple):
    """Longitudinal state of one vehicle for the car-following law.

    ``s`` is the footprint center position along the road.  A named tuple,
    not a dataclass: the rollout and the closed loop build one per vehicle
    and step, and a tuple costs a fraction of a frozen dataclass to make.
    """

    s: float
    v: float
    a: float = 0.0
    length: float = 4.5


def net_gap(behind: CFState, ahead: CFState) -> float:
    """Bumper-to-bumper gap from ``behind`` to ``ahead`` [m]."""
    return ahead.s - behind.s - 0.5 * (ahead.length + behind.length)


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


def _toward_desired(v: float, p: W99Params) -> float:
    """Free-driving command at speed ``v`` >= 0: taper to exactly zero at
    ``v_desired``, gentle trim above it."""
    err = p.v_desired - v
    return min(_free_accel(v, p), err / 2.0) if err >= 0.0 else max(err / 2.0, -p.cc7)


def w99_accel(follower: CFState, leader: CFState | None, p: W99Params) -> float:
    """Acceleration command of the Wiedemann99 regime logic [m/s^2].

    Without a leader (or with one beyond the look-ahead range) the vehicle
    accelerates toward ``v_desired``.  Output is clamped to
    [-8, cc8 + cc9].
    """
    v = max(follower.v, 0.0)
    a_cap = p.cc8 + p.cc9
    dx = math.inf if leader is None else net_gap(follower, leader)
    if dx > LOOK_AHEAD:
        return _clamp(_toward_desired(v, p), A_MIN, a_cap)

    vl = max(leader.v, 0.0)
    dv = vl - v  # positive when the gap is opening
    al = leader.a

    if vl <= 0.0:
        sdxc = p.cc0
    else:
        v_slow = v if (dv >= 0.0 or al < -1.0) else vl
        sdxc = p.desired_gap(v_slow)
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
        a = min(a, _toward_desired(v, p))
    else:
        # free driving (leader far or pulling away)
        a = _toward_desired(v, p)

    return _clamp(a, A_MIN, a_cap)


def check_dt(name: str, dt: float) -> None:
    """Raise ValueError, as ``<name> must be positive and <= 0.1 s``, unless
    the rollout time step ``dt`` lies in that range."""
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"{name} must be positive and <= 0.1 s")


@dataclass(frozen=True)
class ScenarioSpec:
    """Recorded trajectories with one vehicle handed to the model.

    The substituted vehicle starts from its recorded first sample and keeps
    its recorded lane sequence; everything else is replayed verbatim.
    ``0 < dt <= 0.1``; a given ``duration`` is finite and positive.  The
    rollout must have at least one step, ``round(duration / dt) >= 1``,
    with the substituted track's duration when none is given.
    """

    trajectories: tuple[Trajectory, ...]
    substituted_id: str
    model: W99Params
    layout: LaneLayout
    dt: float = 0.05  # [s]
    duration: float | None = None

    def __post_init__(self) -> None:
        check_dt("dt", self.dt)
        check_range(self, "duration", positive=True)
        if all(t.vehicle_id != self.substituted_id for t in self.trajectories):
            raise ValueError(f"substituted vehicle {self.substituted_id!r} absent")
        if len(self._time_grid()) < 2:
            given = "" if self.duration is not None else " (the substituted track's)"
            raise ValueError(f"duration{given} {self._duration():g} s is less than one "
                             f"rollout step of dt {self.dt:g} s: need "
                             f"round(duration / dt) >= 1")

    def substituted(self) -> Trajectory:
        for t in self.trajectories:
            if t.vehicle_id == self.substituted_id:
                return t
        raise AssertionError("unreachable")

    def others(self) -> tuple[Trajectory, ...]:
        return tuple(t for t in self.trajectories
                     if t.vehicle_id != self.substituted_id)

    def _duration(self) -> float:
        return self.duration if self.duration is not None else self.substituted().duration

    def _time_grid(self) -> np.ndarray:
        """The rollout's step times, from the substituted track's first sample."""
        t0 = float(self.substituted().t[0])
        n = int(round((t0 + self._duration() - t0) / self.dt)) + 1
        return t0 + np.arange(n) * self.dt


def simulate(spec: ScenarioSpec) -> Trajectory:
    """Forward-Euler rollout of the substituted vehicle.

    At each step the leader is the nearest replayed vehicle ahead in the
    substituted vehicle's held recorded lane; of two replayed vehicles at
    the same position, the one listed first in the scenario leads.  The
    replayed traffic does not depend on the rollout, so it is tabulated on
    the rollout grid once per call: the held lanes (``held_lane``), and
    each opponent's position, speed and acceleration where it is in view
    and in the substituted vehicle's lane.  An array ``np.interp`` gives
    the same bits as the scalar call at each grid time.  A step only scans
    its own in-lane entries, in opponent order, for the nearest one ahead;
    the state stays in Python floats until the arrays are built at the
    end.  Speeds are clamped at zero; the result is deterministic.

    ``lat`` is interpolated linearly between the recorded samples, also
    across a lane switch, while ``lane`` is held; so ``lane * width + lat``
    dips by up to one lane width for the steps between the two samples of
    a switch.
    """
    rec = spec.substituted()
    others = spec.others()
    t_grid = spec._time_grid()
    n = len(t_grid)

    lane = held_lane(rec, t_grid)
    opp_s = np.full((n, len(others)), math.inf)
    opp_v = np.zeros_like(opp_s)
    opp_a = np.zeros_like(opp_s)
    for j, opp in enumerate(others):
        k = time_overlap(t_grid, opp.t)
        tk = t_grid[k]
        opp_s[k, j] = np.where(held_lane(opp, tk) == lane[k],
                               np.interp(tk, opp.t, opp.s), math.inf)
        opp_v[k, j] = np.interp(tk, opp.t, opp.v)
        opp_a[k, j] = np.interp(tk, opp.t, opp.a_lon)
    # the in-lane entries, by step and within a step by opponent; step k's
    # are first[k]:first[k + 1]
    steps, opps = np.nonzero(opp_s < math.inf)
    first = np.searchsorted(steps, np.arange(n + 1)).tolist()
    pos, vel, acc = (x[steps, opps].tolist() for x in (opp_s, opp_v, opp_a))
    lengths = [others[j].shape.length for j in opps.tolist()]

    model, dt, length = spec.model, spec.dt, rec.shape.length
    s_k = float(rec.s[0])
    v_k = max(float(rec.v[0]), 0.0)
    a_k = 0.0
    s, v, a = [], [], []
    for k in range(n):
        nearest, i = math.inf, -1
        for e in range(first[k], first[k + 1]):
            # strict: of equal positions the earlier opponent leads
            if s_k < pos[e] < nearest:
                nearest, i = pos[e], e
        leader = None if i < 0 else CFState(nearest, vel[i], acc[i], lengths[i])
        a_k = w99_accel(CFState(s_k, v_k, a_k, length), leader, model)
        s.append(s_k)
        v.append(v_k)
        a.append(a_k)
        s_k, v_k = s_k + v_k * dt, max(v_k + a_k * dt, 0.0)

    lat = np.interp(t_grid, rec.t, rec.lat)
    a_lat = np.interp(t_grid, rec.t, rec.a_lat)
    return Trajectory(
        vehicle_id=rec.vehicle_id,
        shape=rec.shape,
        t=t_grid,
        s=np.array(s),
        lane=lane,
        lat=lat,
        v=np.array(v),
        a_lon=np.array(a),
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
    k = time_overlap(ego.t, opp.t)
    tt = ego.t[k]
    trace = np.full(len(ego.t), np.nan)
    trace[k] = encounter(
        KinState(ego.s[k], layout.lateral(ego.lane[k], ego.lat[k]), ego.v[k]),
        KinState(np.interp(tt, opp.t, opp.s),
                 np.interp(tt, opp.t, layout.lateral(opp.lane, opp.lat)),
                 np.interp(tt, opp.t, opp.v)),
        ego.shape, opp.shape).thw
    return trace


def sample_cc1(spec: ScenarioSpec, cc1_values: Sequence[float]) -> SampledScenarioSet:
    """One simulation per cc1 value plus THW traces against each opponent.

    Lower cc1 tightens the following gap of the substituted vehicle and
    with it the headway to its leaders.  Every variant is built, and so
    each cc1 checked by ``W99Params``, before the first rollout.
    """
    if len(cc1_values) == 0:
        raise ValueError("cc1_values must be non-empty")
    variants = [replace(spec, model=replace(spec.model, cc1=cc1)) for cc1 in cc1_values]

    scenarios = []
    for cc1, variant in zip(cc1_values, variants):
        ego = simulate(variant)
        traces = {opp.vehicle_id: _thw_trace(ego, opp, spec.layout)
                  for opp in spec.others()}
        mins = {vid: float(nan_min(tr)) for vid, tr in traces.items()}
        scenarios.append(SampledScenario(cc1, ego, traces, mins))
    # one grid for all rollouts: it depends on the spec, not on cc1
    return SampledScenarioSet(t=scenarios[0].trajectory.t, scenarios=tuple(scenarios))

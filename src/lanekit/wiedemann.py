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

from .criticality import KinState, _encounter, nan_min
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
_THW_BLOCK = 16_384  # samples of one THW kernel call


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


class _Scene(NamedTuple):
    """What no cc1 value changes of a scenario, on its rollout grid ``t``.

    The substituted vehicle's held recorded ``lane``, its ``lat``, ``a_lat``
    and global lateral position ``ego_y``.  The in-lane entries the W99
    loop scans, by step and within a step by opponent: step k's are
    ``first[k]:first[k + 1]``, each an opponent's position (a list, as the
    loop reads every one), speed, acceleration and length.  For the THW
    traces, the opponents' ``ids`` and footprint sums ``half_len`` and
    ``half_wid`` with the ego, and each one's ``s``, ``y`` and ``v`` where
    the two lateral corridors overlap, the only samples with a defined THW,
    end to end: sample i is grid point ``rows[i]`` of opponent ``which[i]``.
    """

    t: np.ndarray
    lane: np.ndarray
    lat: np.ndarray
    a_lat: np.ndarray
    ego_y: np.ndarray
    first: list[int]
    pos: list[float]
    vel: np.ndarray
    acc: np.ndarray
    lengths: np.ndarray
    ids: tuple[str, ...]
    half_len: np.ndarray
    half_wid: np.ndarray
    opp: KinState
    rows: np.ndarray
    which: np.ndarray


def _scene(spec: ScenarioSpec) -> _Scene:
    """The tables of ``spec``'s replayed traffic.  Each opponent is
    interpolated once onto the grid points its track covers, the slices
    end to end; an array ``np.interp`` gives the same bits as the scalar
    call at each grid time."""
    rec = spec.substituted()
    others = spec.others()
    t_grid = spec._time_grid()
    lane = held_lane(rec, t_grid)
    lat = np.interp(t_grid, rec.t, rec.lat)
    ego_y = spec.layout.lateral(lane, lat)
    length = np.array([opp.shape.length for opp in others])
    width = np.array([opp.shape.width for opp in others])

    grid = np.arange(len(t_grid))
    cover = [grid[time_overlap(t_grid, opp.t)] for opp in others]
    rows = np.concatenate([np.empty(0, dtype=int), *cover])
    which = np.repeat(np.arange(len(others)), [len(k) for k in cover])
    s, y, v, a = np.empty((4, len(rows)))
    opp_lane = np.empty(len(rows), dtype=lane.dtype)
    start = 0
    for opp, k in zip(others, cover):
        tk, o = t_grid[k], slice(start, start + len(k))
        s[o], v[o], a[o] = (np.interp(tk, opp.t, x) for x in (opp.s, opp.v, opp.a_lon))
        y[o] = np.interp(tk, opp.t, spec.layout.lateral(opp.lane, opp.lat))
        opp_lane[o] = held_lane(opp, tk)
        start = o.stop

    ahead = np.flatnonzero(opp_lane == lane[rows])
    ahead = ahead[np.argsort(rows[ahead], kind="stable")]  # within a step by opponent
    half_wid = 0.5 * (rec.shape.width + width)
    # elsewhere THW is undefined (``_encounter``'s corridor test), whatever the rollout
    near = np.flatnonzero(~(np.abs(y - ego_y[rows]) >= half_wid[which]))
    return _Scene(
        t=t_grid, lane=lane, lat=lat, a_lat=np.interp(t_grid, rec.t, rec.a_lat), ego_y=ego_y,
        first=np.searchsorted(rows[ahead], np.arange(len(grid) + 1)).tolist(),
        pos=s[ahead].tolist(), vel=v[ahead], acc=a[ahead], lengths=length[which[ahead]],
        ids=tuple(opp.vehicle_id for opp in others),
        half_len=0.5 * (rec.shape.length + length), half_wid=half_wid,
        opp=KinState(s[near], y[near], v[near]), rows=rows[near], which=which[near])


def simulate(spec: ScenarioSpec, scene: _Scene | None = None) -> Trajectory:
    """Forward-Euler rollout of the substituted vehicle.

    At each step the leader is the nearest replayed vehicle ahead in the
    substituted vehicle's held recorded lane; of two replayed vehicles at
    the same position, the one listed first in the scenario leads.  The
    replayed traffic does not depend on the rollout, so it comes tabulated
    on the rollout grid (``_scene``): the held lanes (``held_lane``), and
    each opponent's position, speed and acceleration where it is in view
    and in the substituted vehicle's lane.  ``scene`` may be built once for
    specs that differ only in their model, as ``sample_cc1`` does; without
    it the call builds its own.  A step only scans its own in-lane
    entries, in opponent order, for the nearest one ahead; the state stays
    in Python floats until the arrays are built at the end.  Speeds are
    clamped at zero; the result is deterministic.

    ``lat`` is interpolated linearly between the recorded samples, also
    across a lane switch, while ``lane`` is held; so ``lane * width + lat``
    dips by up to one lane width for the steps between the two samples of
    a switch.
    """
    if scene is None:
        scene = _scene(spec)
    rec = spec.substituted()
    first, pos = scene.first, scene.pos

    model, dt, length = spec.model, spec.dt, rec.shape.length
    s_k = float(rec.s[0])
    v_k = max(float(rec.v[0]), 0.0)
    a_k = 0.0
    s, v, a = [], [], []
    for k in range(len(scene.t)):
        nearest, i = math.inf, -1
        for e in range(first[k], first[k + 1]):
            # strict: of equal positions the earlier opponent leads
            if s_k < pos[e] < nearest:
                nearest, i = pos[e], e
        leader = None if i < 0 else CFState(nearest, scene.vel.item(i), scene.acc.item(i),
                                            scene.lengths.item(i))
        a_k = w99_accel(CFState(s_k, v_k, a_k, length), leader, model)
        s.append(s_k)
        v.append(v_k)
        a.append(a_k)
        s_k, v_k = s_k + v_k * dt, max(v_k + a_k * dt, 0.0)

    return Trajectory(
        vehicle_id=rec.vehicle_id,
        shape=rec.shape,
        t=scene.t,
        s=np.array(s),
        lane=scene.lane,
        lat=scene.lat,
        v=np.array(v),
        a_lon=np.array(a),
        a_lat=scene.a_lat,
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


def _thw_traces(scene: _Scene, ego: Trajectory) -> np.ndarray:
    """THW of the rollout ``ego`` against each opponent, one row per
    opponent on the rollout grid, NaN where it is undefined.  One kernel
    call takes the scene's samples of all opponents, ``_THW_BLOCK`` at a
    time: a scene of a few dozen vehicles is one call, and on one of
    hundreds of overlapping tracks the block bounds the kernel's
    temporaries."""
    traces = np.full((len(scene.ids), len(scene.t)), np.nan)
    for a in range(0, len(scene.rows), _THW_BLOCK):
        k = slice(a, a + _THW_BLOCK)
        rows, which = scene.rows[k], scene.which[k]
        traces[which, rows] = _encounter(
            KinState(ego.s[rows], scene.ego_y[rows], ego.v[rows]),
            KinState(scene.opp.s[k], scene.opp.y[k], scene.opp.vs[k]),
            scene.half_len[which], scene.half_wid[which]).thw
    return traces


def sample_cc1(spec: ScenarioSpec, cc1_values: Sequence[float]) -> SampledScenarioSet:
    """One simulation per cc1 value plus THW traces against each opponent.

    Lower cc1 tightens the following gap of the substituted vehicle and
    with it the headway to its leaders.  Every variant is built, and so
    each cc1 checked by ``W99Params``, before the first rollout.  The
    replayed traffic's tables (``_scene``) are built once for all values,
    as no cc1 value changes them: the in-lane entries the W99 loop scans,
    and each opponent's position, lateral position and speed where a THW
    can be defined.  A value then costs one ``simulate`` call, which runs
    only the W99 step loop, and the THW kernel over all opponents' samples
    at once (``_thw_traces``).
    """
    if len(cc1_values) == 0:
        raise ValueError("cc1_values must be non-empty")
    variants = [replace(spec, model=replace(spec.model, cc1=cc1)) for cc1 in cc1_values]

    scene = _scene(spec)
    scenarios = []
    for cc1, variant in zip(cc1_values, variants):
        ego = simulate(variant, scene)
        traces = _thw_traces(scene, ego)
        mins = nan_min(traces.T).tolist()
        scenarios.append(SampledScenario(cc1, ego, dict(zip(scene.ids, traces)),
                                         dict(zip(scene.ids, mins))))
    # one grid for all rollouts: it depends on the spec, not on cc1
    return SampledScenarioSet(t=scenarios[0].trajectory.t, scenarios=tuple(scenarios))

"""Deterministic criticality metrics for pairwise vehicle encounters.

Seven metrics with fixed thresholds classify a lane change as critical:
Euclidean distance d, longitudinal velocity v, longitudinal and lateral
acceleration, time headway THW, and the closest-encounter pair TTCE / DCE
under constant-velocity extrapolation.  DCE is only meaningful together
with a small TTCE and is therefore evaluated only where TTCE < 2.6 s.
Per event, the most critical value over the window and over all opponents
is selected (minimum for d, THW, DCE, TTCE; maximum for v and the
accelerations).

The four pairwise metrics come from one array kernel, ``encounter``: it
takes the ego and opponent states as ``KinState`` objects whose channels
(``s``, ``y``, ``vs``, ``vy``) are equal-length arrays or floats, and
returns d, THW, TTCE and DCE elementwise.  ``most_critical`` calls its
kernel once per event, on the concatenated time overlaps of all opponents
with the event window, each sample with its own opponent's footprint;
``euclidean_distance``, ``thw`` and ``ttce_dce`` are scalar wrappers
around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .stats import BoxSummary, box_summary
from .trajectory import LaneLayout, Trajectory, VehicleShape, continuous_lateral

__all__ = [
    "Thresholds",
    "KinState",
    "Encounter",
    "CriticalityRecord",
    "encounter",
    "euclidean_distance",
    "thw",
    "ttce_dce",
    "time_overlap",
    "most_critical",
    "direction_stats",
    "METRIC_NAMES",
]

V_EGO_MIN = 0.1  # [m/s] below this, headway is undefined

METRIC_NAMES = ("d", "v", "a_lon", "a_lat", "thw", "dce", "ttce")


@dataclass(frozen=True)
class Thresholds:
    """Critical below: d, thw, dce, ttce; critical above: v, a_lon, a_lat."""

    d_crit: float = 1.0  # [m]
    v_factor: float = 1.3  # critical above v_factor * speed limit
    a_lon_crit: float = 8.0  # [m/s^2]
    a_lat_crit: float = 8.0  # [m/s^2]
    thw_crit: float = 0.9  # [s]
    dce_crit: float = 1.0  # [m]
    ttce_gate: float = 2.6  # [s] DCE evaluated (and TTCE critical) below this

    def __post_init__(self) -> None:
        for name in ("d_crit", "v_factor", "a_lon_crit", "a_lat_crit",
                     "thw_crit", "dce_crit", "ttce_gate"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class KinState:
    """Planar kinematic state: longitudinal s, global lateral y, and the
    corresponding velocity components.  Each field is a float for one
    instant or an array for a series of instants."""

    t: float | np.ndarray
    s: float | np.ndarray
    y: float | np.ndarray
    vs: float | np.ndarray
    vy: float | np.ndarray = 0.0


class Encounter(NamedTuple):
    """Pairwise metrics per instant; nan marks an undefined value."""

    d: np.ndarray
    thw: np.ndarray
    ttce: np.ndarray
    dce: np.ndarray


def _rect_gap(ds: float | np.ndarray, dy: float | np.ndarray,
              half_len: float | np.ndarray, half_wid: float | np.ndarray):
    """Gap between two axis-oriented rectangular footprints, 0 on overlap."""
    gs = np.maximum(np.abs(ds) - half_len, 0.0)
    gy = np.maximum(np.abs(dy) - half_wid, 0.0)
    return np.hypot(gs, gy)


def encounter(ego: KinState, opp: KinState, ego_shape: VehicleShape,
              opp_shape: VehicleShape) -> Encounter:
    """Distance, time headway and closest encounter, elementwise.

    d is the minimum gap between the two road-aligned rectangular
    footprints.  THW is the bumper-to-bumper gap to a leading opponent over
    ego speed, defined only when the opponent is ahead, its lateral
    corridor overlaps the ego's, and the ego is moving.  For TTCE both
    centers are extrapolated at constant velocity; the encounter time
    minimizes the center distance, clamped to now (diverging or equally
    fast vehicles give ttce = 0).  DCE is the footprint gap at that
    instant, never exceeding the current gap.
    """
    return _encounter(ego, opp, 0.5 * (ego_shape.length + opp_shape.length),
                      0.5 * (ego_shape.width + opp_shape.width))


def _encounter(ego: KinState, opp: KinState, half_len: float | np.ndarray,
               half_wid: float | np.ndarray) -> Encounter:
    """``encounter`` with the footprints given as the sums of the two
    half-lengths and half-widths, floats or one value per sample."""
    ps = np.subtract(opp.s, ego.s)
    py = np.subtract(opp.y, ego.y)
    vs = np.subtract(opp.vs, ego.vs)
    vy = np.subtract(opp.vy, ego.vy)
    gap_now = _rect_gap(ps, py, half_len, half_wid)
    v2 = vs * vs + vy * vy
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = ps - half_len
        headway = np.where(gap < 0.0, 0.0, gap) / ego.vs
        t_star = -(ps * vs + py * vy) / v2
    # where(x > 0, x, 0) rather than maximum: it never yields -0.0
    t_star = np.where((v2 != 0.0) & (t_star > 0.0), t_star, 0.0)
    undefined = (np.less_equal(opp.s, ego.s) | np.less(ego.vs, V_EGO_MIN)
                 | (np.abs(py) >= half_wid))
    gap_star = _rect_gap(ps + t_star * vs, py + t_star * vy, half_len, half_wid)
    return Encounter(
        d=gap_now,
        thw=np.where(undefined, np.nan, headway),
        ttce=t_star,
        dce=np.where(gap_now < gap_star, gap_now, gap_star),
    )


def euclidean_distance(ego: KinState, opp: KinState,
                       ego_shape: VehicleShape, opp_shape: VehicleShape) -> float:
    """Minimum gap between the two road-aligned rectangular footprints."""
    return float(encounter(ego, opp, ego_shape, opp_shape).d)


def thw(ego: KinState, opp: KinState, ego_shape: VehicleShape,
        opp_shape: VehicleShape) -> float:
    """Time headway to a leading vehicle; nan where undefined (see ``encounter``)."""
    return float(encounter(ego, opp, ego_shape, opp_shape).thw)


def ttce_dce(ego: KinState, opp: KinState, ego_shape: VehicleShape,
             opp_shape: VehicleShape) -> tuple[float, float]:
    """Time to and distance of the closest encounter (see ``encounter``)."""
    m = encounter(ego, opp, ego_shape, opp_shape)
    return float(m.ttce), float(m.dce)


@dataclass(frozen=True)
class CriticalityRecord:
    """Worst-case metric values of one event over window and opponents."""

    vehicle_id: str
    t_start: float
    t_end: float
    direction: str
    min_d: float
    max_v: float
    max_a_lon: float
    max_a_lat: float
    min_thw: float
    min_dce: float  # gated: only samples with ttce below the gate count
    min_ttce: float
    flags: Mapping[str, bool]

    def value(self, metric: str) -> float:
        return {"d": self.min_d, "v": self.max_v, "a_lon": self.max_a_lon,
                "a_lat": self.max_a_lat, "thw": self.min_thw,
                "dce": self.min_dce, "ttce": self.min_ttce}[metric]


def classify(values: Mapping[str, float], thresholds: Thresholds,
             speed_limit: float) -> dict[str, bool]:
    """Per-metric critical flags; nan (undefined) is never critical."""

    def below(x: float, lim: float) -> bool:
        return not math.isnan(x) and x < lim

    def above(x: float, lim: float) -> bool:
        return not math.isnan(x) and x > lim

    return {
        "d": below(values["d"], thresholds.d_crit),
        "v": above(values["v"], thresholds.v_factor * speed_limit),
        "a_lon": above(values["a_lon"], thresholds.a_lon_crit),
        "a_lat": above(values["a_lat"], thresholds.a_lat_crit),
        "thw": below(values["thw"], thresholds.thw_crit),
        "dce": below(values["dce"], thresholds.dce_crit),
        "ttce": below(values["ttce"], thresholds.ttce_gate),
    }


def _window_mask(t: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    return (t >= window[0]) & (t <= window[1])


def time_overlap(t: np.ndarray, other_t: np.ndarray) -> slice:
    """Slice of the increasing grid ``t`` inside ``[other_t[0], other_t[-1]]``."""
    return slice(int(np.searchsorted(t, other_t[0], side="left")),
                 int(np.searchsorted(t, other_t[-1], side="right")))


def _lateral(traj: Trajectory, layout: LaneLayout) -> tuple[np.ndarray, np.ndarray]:
    """Continuous lateral position and its rate, computed once per vehicle.

    Trajectories are immutable, so the result is memoised on the instance
    (per layout) for every later event that meets the same vehicle.
    """
    memo = traj.__dict__.setdefault("_lateral_memo", {})
    if layout not in memo:
        y = continuous_lateral(traj, layout).y
        memo[layout] = (y, np.gradient(y, traj.dt))
    return memo[layout]


def _nanmin(x: np.ndarray) -> float:
    return float(np.fmin.reduce(x)) if len(x) else math.nan


def _pairwise_minima(ego: Trajectory, opponents: Sequence[Trajectory],
                     in_window: np.ndarray, layout: LaneLayout,
                     ttce_gate: float) -> tuple[float, float, float, float]:
    """Minimum d, THW, TTCE and gated DCE over the window samples
    ``in_window`` of ``ego`` and every opponent covering them; nan if none."""
    t = ego.t[in_window]
    rivals = [opp for opp in opponents if opp.vehicle_id != ego.vehicle_id]
    if not len(t) or not rivals:
        return math.nan, math.nan, math.nan, math.nan
    # rival i covers the window slice lo[i]:hi[i], as in ``time_overlap``
    lo = np.searchsorted(t, [opp.t[0] for opp in rivals], side="left")
    hi = np.searchsorted(t, [opp.t[-1] for opp in rivals], side="right")
    overlapping = np.flatnonzero(hi > lo)
    if not len(overlapping):
        return math.nan, math.nan, math.nan, math.nan
    parts, half_len, half_wid = [], [], []
    for i, a, b in zip(overlapping.tolist(), lo[overlapping].tolist(),
                       hi[overlapping].tolist()):
        opp = rivals[i]
        tk = t[a:b]
        y, vy = _lateral(opp, layout)
        parts.append((in_window[a:b], np.interp(tk, opp.t, opp.s), np.interp(tk, opp.t, y),
                      np.interp(tk, opp.t, opp.v), np.interp(tk, opp.t, vy)))
        half_len.append(0.5 * (ego.shape.length + opp.shape.length))
        half_wid.append(0.5 * (ego.shape.width + opp.shape.width))
    counts = (hi - lo)[overlapping]
    ix, o_s, o_y, o_vs, o_vy = (np.concatenate(col) for col in zip(*parts))
    e_y, e_vy = _lateral(ego, layout)
    tt = ego.t[ix]
    m = _encounter(KinState(tt, ego.s[ix], e_y[ix], ego.v[ix], e_vy[ix]),
                   KinState(tt, o_s, o_y, o_vs, o_vy),
                   np.repeat(half_len, counts), np.repeat(half_wid, counts))
    # the kernel never yields -0.0, so one flat minimum equals the fold
    # over opponents of each opponent's minimum
    return (_nanmin(m.d), _nanmin(m.thw), _nanmin(m.ttce),
            _nanmin(m.dce[m.ttce < ttce_gate]))


def most_critical(ego: Trajectory, opponents: Sequence[Trajectory],
                  window: tuple[float, float], layout: LaneLayout,
                  thresholds: Thresholds | None = None,
                  direction: str = "", speed_limit: float | None = None) -> CriticalityRecord:
    """Worst-case metrics of one event window over all opponents.

    Pairwise metrics are evaluated on the ego samples in the window that
    each opponent's track covers, with the opponent interpolated onto the
    ego grid.  The overlaps of all opponents are concatenated into one
    series, and the kernel of ``encounter`` evaluates it in one call per
    event, each sample with its own opponent's footprint.  Minima are taken
    over every such sample; DCE only over samples whose TTCE is below the
    gate.  An opponent with the ego's vehicle id is skipped.  Ego-only
    fields (max speed, max acceleration magnitudes) are produced even
    without opponents; pairwise fields are then undefined (nan).
    """
    thresholds = thresholds or Thresholds()
    if speed_limit is None:
        speed_limit = layout.speed_limit
    in_window = np.flatnonzero(_window_mask(ego.t, window))
    if len(in_window):
        max_v = float(np.max(ego.v[in_window]))
        max_a_lon = float(np.max(np.abs(ego.a_lon[in_window])))
        max_a_lat = float(np.max(np.abs(ego.a_lat[in_window])))
    else:
        max_v = max_a_lon = max_a_lat = math.nan
    min_d, min_thw, min_ttce, min_dce = _pairwise_minima(
        ego, opponents, in_window, layout, thresholds.ttce_gate)

    values = {"d": min_d, "v": max_v, "a_lon": max_a_lon, "a_lat": max_a_lat,
              "thw": min_thw, "dce": min_dce, "ttce": min_ttce}
    return CriticalityRecord(
        vehicle_id=ego.vehicle_id,
        t_start=window[0],
        t_end=window[1],
        direction=direction,
        min_d=min_d,
        max_v=max_v,
        max_a_lon=max_a_lon,
        max_a_lat=max_a_lat,
        min_thw=min_thw,
        min_dce=min_dce,
        min_ttce=min_ttce,
        flags=classify(values, thresholds, speed_limit),
    )


@dataclass(frozen=True)
class DirectionStats:
    """Share of critical events per metric and direction across recordings."""

    metric: str
    direction: str
    per_recording: Mapping[str, float]  # recording id -> percent critical
    summary: BoxSummary | None


def direction_stats(records: Mapping[tuple[str, str], Sequence[CriticalityRecord]],
                    warn: Callable[[str], None] | None = None) -> list[DirectionStats]:
    """Percentage of critical lane changes per metric, recording, direction.

    ``records`` maps (recording id, direction) to the event records of that
    group; double lane changes must already be excluded.  Empty groups are
    omitted (reported through ``warn`` when given).
    """
    by_direction: dict[str, dict[str, Sequence[CriticalityRecord]]] = {}
    for (rec_id, direction), recs in records.items():
        if len(recs) == 0:
            if warn is not None:
                warn(f"empty group ({rec_id}, {direction}) omitted")
            continue
        by_direction.setdefault(direction, {})[rec_id] = recs

    out: list[DirectionStats] = []
    for metric in METRIC_NAMES:
        for direction, groups in sorted(by_direction.items()):
            shares = {
                rec_id: 100.0 * sum(r.flags[metric] for r in recs) / len(recs)
                for rec_id, recs in sorted(groups.items())
            }
            summary = box_summary(np.array(list(shares.values()))) if shares else None
            out.append(DirectionStats(metric, direction, shares, summary))
    return out

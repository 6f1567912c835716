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
returns d, THW, TTCE and DCE elementwise; ``euclidean_distance``, ``thw``
and ``ttce_dce`` are scalar wrappers around it.

``critical_records`` evaluates every event window of a file at once.  It
interpolates each vehicle once onto one grid shared by all egos, the
distinct sample times inside their windows, and calls the kernel once per
ego over all its windows, each sample with its own opponent's footprint.
``most_critical`` is its one-window case.
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
    "critical_records",
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


def time_overlap(t: np.ndarray, other_t: np.ndarray) -> slice:
    """Slice of the increasing grid ``t`` inside ``[other_t[0], other_t[-1]]``."""
    return slice(int(np.searchsorted(t, other_t[0], side="left")),
                 int(np.searchsorted(t, other_t[-1], side="right")))


def _window_span(t: np.ndarray, window: tuple[float, float]) -> tuple[int, int]:
    """The samples of the increasing grid ``t`` in ``window``, as a range."""
    inside = np.flatnonzero((t >= window[0]) & (t <= window[1]))
    return (int(inside[0]), int(inside[-1]) + 1) if len(inside) else (0, 0)


def _lateral(traj: Trajectory, layout: LaneLayout) -> tuple[np.ndarray, np.ndarray]:
    """Continuous lateral position and its rate, computed once per vehicle.

    Trajectories are immutable, so the result is memoised on the instance
    (per layout) for every later call that meets the same vehicle.
    """
    memo = traj.__dict__.setdefault("_lateral_memo", {})
    if layout not in memo:
        y = continuous_lateral(traj, layout).y
        memo[layout] = (y, np.gradient(y, traj.dt))
    return memo[layout]


def _nanmin(x: np.ndarray) -> float:
    return float(np.fmin.reduce(x)) if len(x) else math.nan


class _Opponents:
    """Every opponent's ``s``, ``y``, ``v`` and ``vy`` interpolated once onto
    the slice ``lo:hi`` of the shared grid its track covers; the slices are
    stored end to end, opponent j's from ``off[j]``."""

    def __init__(self, opponents: Sequence[Trajectory], grid: np.ndarray,
                 layout: LaneLayout) -> None:
        self.grid, self.layout = grid, layout
        self.ids = [opp.vehicle_id for opp in opponents]
        self.length = np.array([opp.shape.length for opp in opponents])
        self.width = np.array([opp.shape.width for opp in opponents])
        # opponent j covers the grid points lo[j]:hi[j], as in ``time_overlap``
        self.lo = np.searchsorted(grid, [opp.t[0] for opp in opponents], side="left")
        self.hi = np.searchsorted(grid, [opp.t[-1] for opp in opponents], side="right")
        self.off = np.cumsum(self.hi - self.lo) - (self.hi - self.lo)
        parts = []
        for opp, a, b in zip(opponents, self.lo.tolist(), self.hi.tolist()):
            if b > a:
                g = grid[a:b]
                y, vy = _lateral(opp, layout)
                parts.append((np.interp(g, opp.t, opp.s), np.interp(g, opp.t, y),
                              np.interp(g, opp.t, opp.v), np.interp(g, opp.t, vy)))
        self.s, self.y, self.v, self.vy = (
            (np.concatenate(col) for col in zip(*parts)) if parts else [np.empty(0)] * 4)

    def encounters(self, ego: Trajectory,
                   samples: np.ndarray) -> tuple[np.ndarray, Encounter]:
        """The kernel over every pair of a rival and one of the ego's
        ``samples`` (indices into its track, all on the grid), ordered by
        ego sample and, per sample, by opponent.  Returns each pair's ego
        sample index and the metrics.  An opponent with the ego's vehicle
        id is no rival."""
        at = np.searchsorted(self.grid, ego.t[samples])  # exact: the grid holds them
        # rival j covers the ego samples samples[a[j]:b[j]]
        a = np.searchsorted(at, self.lo, side="left")
        b = np.searchsorted(at, self.hi, side="left")
        rival = np.array([vid != ego.vehicle_id for vid in self.ids], dtype=bool)
        counts = np.where(rival, b - a, 0)
        first = np.cumsum(counts) - counts
        k = np.arange(int(counts.sum())) - np.repeat(first - a, counts)
        owner = np.repeat(np.arange(len(counts)), counts)
        order = np.argsort(k, kind="stable")
        k, owner = k[order], owner[order]
        row = self.off[owner] + at[k] - self.lo[owner]
        ix = samples[k]
        e_y, e_vy = _lateral(ego, self.layout)
        tt = ego.t[ix]
        m = _encounter(KinState(tt, ego.s[ix], e_y[ix], ego.v[ix], e_vy[ix]),
                       KinState(tt, self.s[row], self.y[row], self.v[row], self.vy[row]),
                       0.5 * (ego.shape.length + self.length[owner]),
                       0.5 * (ego.shape.width + self.width[owner]))
        return ix, m


def _records(opponents: Sequence[Trajectory],
             windows: Sequence[tuple[Trajectory, tuple[float, float], str]],
             layout: LaneLayout, thresholds: Thresholds | None,
             speed_limit: float | None) -> list[CriticalityRecord]:
    """One record per ``(ego, window, direction)``, against ``opponents``."""
    thresholds = thresholds or Thresholds()
    if speed_limit is None:
        speed_limit = layout.speed_limit
    spans = [_window_span(ego.t, window) for ego, window, _ in windows]
    egos: dict[str, tuple[Trajectory, list[int]]] = {}
    for i, (ego, _, _) in enumerate(windows):
        egos.setdefault(ego.vehicle_id, (ego, []))[1].append(i)
    # each ego is evaluated on the samples inside any of its windows
    samples = {}
    for vid, (ego, which) in egos.items():
        inside = np.zeros(len(ego.t), dtype=bool)
        for i in which:
            inside[slice(*spans[i])] = True
        samples[vid] = np.flatnonzero(inside)
    grid = np.unique(np.concatenate(
        [ego.t[samples[vid]] for vid, (ego, _) in egos.items()] or [np.empty(0)]))
    table = _Opponents(opponents, grid, layout)

    records: list[CriticalityRecord | None] = [None] * len(windows)
    for vid, (ego, which) in egos.items():
        ix, m = table.encounters(ego, samples[vid])
        dce = np.where(m.ttce < thresholds.ttce_gate, m.dce, np.nan)
        for i in which:
            _, window, direction = windows[i]
            w0, w1 = spans[i]
            # the kernel never yields -0.0, so the minimum over a window's
            # pairs does not depend on their order
            a, b = np.searchsorted(ix, [w0, w1], side="left").tolist()
            values = {"d": _nanmin(m.d[a:b]), "thw": _nanmin(m.thw[a:b]),
                      "ttce": _nanmin(m.ttce[a:b]), "dce": _nanmin(dce[a:b])}
            if w1 > w0:
                values.update(v=float(np.max(ego.v[w0:w1])),
                              a_lon=float(np.max(np.abs(ego.a_lon[w0:w1]))),
                              a_lat=float(np.max(np.abs(ego.a_lat[w0:w1]))))
            else:
                values.update(v=math.nan, a_lon=math.nan, a_lat=math.nan)
            records[i] = CriticalityRecord(
                vehicle_id=ego.vehicle_id, t_start=window[0], t_end=window[1],
                direction=direction, min_d=values["d"], max_v=values["v"],
                max_a_lon=values["a_lon"], max_a_lat=values["a_lat"],
                min_thw=values["thw"], min_dce=values["dce"], min_ttce=values["ttce"],
                flags=classify(values, thresholds, speed_limit))
    return records


def critical_records(trajectories: Sequence[Trajectory],
                     windows: Sequence[tuple[str, tuple[float, float], str]],
                     layout: LaneLayout, thresholds: Thresholds | None = None,
                     speed_limit: float | None = None) -> list[CriticalityRecord]:
    """Worst-case metrics of many event windows over all opponents.

    ``windows`` holds ``(vehicle_id, (t_start, t_end), direction)``; the
    ego of each is the vehicle of ``trajectories`` with that id (KeyError
    if none), and its opponents are all of ``trajectories``.  Returns one
    record per window, in input order, each equal to ``most_critical`` of
    that window.

    The work is shared per file and per ego.  The grid is the distinct
    sample times that any window holds.  Each vehicle is interpolated once
    onto the slice of that grid its track covers.  Each ego then gathers its
    rivals' values at its samples and calls the kernel once for all its
    windows, whose minima are taken over their own samples.  Tracks on one
    frame clock, as in one recording, share their grid points, so the grid
    is no longer than that clock's span; tracks on unrelated clocks make it
    as long as all windows' samples together, and each vehicle's slice
    with it.
    """
    by_id = {traj.vehicle_id: traj for traj in trajectories}
    return _records(trajectories, [(by_id[vid], window, direction)
                                   for vid, window, direction in windows],
                    layout, thresholds, speed_limit)


def most_critical(ego: Trajectory, opponents: Sequence[Trajectory],
                  window: tuple[float, float], layout: LaneLayout,
                  thresholds: Thresholds | None = None,
                  direction: str = "", speed_limit: float | None = None) -> CriticalityRecord:
    """Worst-case metrics of one event window over all opponents.

    Pairwise metrics are evaluated on the ego samples in the window that
    each opponent's track covers, with the opponent interpolated onto the
    ego grid, in one kernel call over all opponents, each sample with its
    own opponent's footprint.  Minima are taken over every such sample;
    DCE only over samples whose TTCE is below the gate.  An opponent with
    the ego's vehicle id is skipped.  Ego-only fields (max speed, max
    acceleration magnitudes) are produced even without opponents; pairwise
    fields are then undefined (nan).  This is the one-window case of
    ``critical_records``, with the ego given instead of looked up.
    """
    return _records(opponents, [(ego, window, direction)], layout, thresholds,
                    speed_limit)[0]


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

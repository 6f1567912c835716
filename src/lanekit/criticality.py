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
interpolates each vehicle once onto the points of one grid shared by all
egos, the distinct sample times inside their windows, that its track
covers, and calls the kernel once per ego on a rivals x samples block
that is NaN where a rival's track does not reach.  ``most_critical`` is
its one-window case.

Each metric is defined once: ``METRIC_NAMES`` orders them, ``_LOW`` holds
those critical below their limit (worst value the minimum), and
``record_field`` and ``Thresholds.limit`` give a metric's record field and
threshold.
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
    "record_field",
]

V_EGO_MIN = 0.1  # [m/s] below this, headway is undefined

METRIC_NAMES = ("d", "v", "a_lon", "a_lat", "thw", "dce", "ttce")
# critical below their limit, worst value the minimum; the others are
# critical above it, worst value the maximum
_LOW = {"d", "thw", "dce", "ttce"}


def record_field(metric: str) -> str:
    """The ``CriticalityRecord`` field holding the worst value of ``metric``."""
    if metric not in METRIC_NAMES:
        raise KeyError(metric)
    return ("min_" if metric in _LOW else "max_") + metric


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

    def limit(self, metric: str, speed_limit: float) -> float:
        """The threshold of ``metric``; that of ``v`` scales with ``speed_limit``."""
        if metric == "v":
            return self.v_factor * speed_limit
        return self.ttce_gate if metric == "ttce" else getattr(self, metric + "_crit")


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
        return getattr(self, record_field(metric))


def classify(values: Mapping[str, float], thresholds: Thresholds,
             speed_limit: float) -> dict[str, bool]:
    """Per-metric critical flags; nan (undefined) is never critical."""
    flags = {}
    for metric in METRIC_NAMES:
        x, lim = values[metric], thresholds.limit(metric, speed_limit)
        flags[metric] = not math.isnan(x) and (x < lim if metric in _LOW else x > lim)
    return flags


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
    return float(np.fmin.reduce(x, axis=None)) if x.size else math.nan


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
    # every opponent's s, y, v and vy on the grid points lo[j]:hi[j] its
    # track covers (as in ``time_overlap``), the slices stored end to end:
    # opponent j's value at grid point c is column start[j] + c
    lo = np.searchsorted(grid, [opp.t[0] for opp in opponents], side="left")
    hi = np.searchsorted(grid, [opp.t[-1] for opp in opponents], side="right")
    start = np.cumsum(hi - lo) - hi
    table = np.empty((4, int(np.sum(hi - lo))))
    for opp, a, b, o in zip(opponents, lo.tolist(), hi.tolist(), (start + lo).tolist()):
        if b > a:
            g = grid[a:b]
            y, vy = _lateral(opp, layout)
            table[:, o:o + b - a] = (np.interp(g, opp.t, opp.s), np.interp(g, opp.t, y),
                                     np.interp(g, opp.t, opp.v), np.interp(g, opp.t, vy))
    ids = np.array([opp.vehicle_id for opp in opponents], dtype=object)
    length = np.array([opp.shape.length for opp in opponents])
    width = np.array([opp.shape.width for opp in opponents])

    records: list[CriticalityRecord | None] = [None] * len(windows)
    for vid, (ego, which) in egos.items():
        ix = samples[vid]
        tt = ego.t[ix]
        cols = np.searchsorted(grid, tt)  # exact: the grid holds them
        # the rivals are the other vehicles whose tracks cover any of the
        # ego's samples; their block is NaN where a track does not reach
        rival = np.flatnonzero((ids != vid)
                               & (np.searchsorted(cols, lo) < np.searchsorted(cols, hi)))
        covers = (cols >= lo[rival, None]) & (cols < hi[rival, None])
        s, y, v, vy = np.where(covers, table[:, np.where(covers, start[rival, None] + cols, 0)],
                               np.nan)
        e_y, e_vy = _lateral(ego, layout)
        m = _encounter(KinState(tt, ego.s[ix], e_y[ix], ego.v[ix], e_vy[ix]),
                       KinState(tt, s, y, v, vy),
                       0.5 * (ego.shape.length + length[rival, None]),
                       0.5 * (ego.shape.width + width[rival, None]))
        # a NaN-padded entry reads as ttce = 0, so TTCE is kept where covered
        ttce = np.where(covers, m.ttce, np.nan)
        dce = np.where(ttce < thresholds.ttce_gate, m.dce, np.nan)
        for i in which:
            _, window, direction = windows[i]
            w0, w1 = spans[i]
            # the kernel never yields -0.0, so a window's minimum does not
            # depend on the order of its entries
            a, b = np.searchsorted(ix, [w0, w1]).tolist()
            values = {"d": _nanmin(m.d[:, a:b]), "thw": _nanmin(m.thw[:, a:b]),
                      "ttce": _nanmin(ttce[:, a:b]), "dce": _nanmin(dce[:, a:b])}
            if w1 > w0:
                values.update(v=float(np.max(ego.v[w0:w1])),
                              a_lon=float(np.max(np.abs(ego.a_lon[w0:w1]))),
                              a_lat=float(np.max(np.abs(ego.a_lat[w0:w1]))))
            else:
                values.update(v=math.nan, a_lon=math.nan, a_lat=math.nan)
            records[i] = CriticalityRecord(
                ego.vehicle_id, window[0], window[1], direction,
                **{record_field(k): values[k] for k in METRIC_NAMES},
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
    onto the grid points its track covers; these slices are stored end to
    end, so the table grows with the covered points, not with vehicles x
    grid.  Each ego's rivals are the other vehicles whose tracks cover any
    of its samples.  It gathers them into a rivals x samples block, NaN
    where a track does not reach, and calls the kernel once for all its
    windows, whose minima are taken over their own columns; TTCE counts
    only where the rival's track covers the sample.  Tracks on one frame
    clock, as in one recording, share their grid points, so the grid is no
    longer than that clock's span; tracks on unrelated clocks make it as
    long as all windows' samples together.
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

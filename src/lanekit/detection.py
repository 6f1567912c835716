"""Lane-change detection criteria and event attributes.

Three interchangeable detectors:

* gradient criterion: re-referencing jumps in the lane-marking distance
  channels; exact on marking-equipped data and used as ground truth,
* distance criterion: lateral displacement from the lane center beyond a
  threshold followed by settling in a different lane,
* peak criterion: peaks in the derivative of the continuous lateral
  position, duration from the peak width at a relative height.

The peak criterion derives every event attribute from the derivative
signal alone, which makes it invariant under a constant lateral offset of
the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .trajectory import (
    ContinuousLateral,
    LaneLayout,
    Trajectory,
    VehicleShape,
    continuous_lateral,
    derivative,
)

__all__ = [
    "Direction",
    "EventKind",
    "LaneChangeEvent",
    "PeakParams",
    "PeakHit",
    "rel_height_from_widths",
    "find_peaks",
    "peak_width",
    "detect_peak",
    "detect_distance",
    "detect_gradient",
    "displacement",
    "peak_rel_height",
    "peak_events",
    "settle_mask",
    "distance_events",
    "classify_double",
    "exceedance_predicate",
]

DEFAULT_MIN_EXTENT = 2.5  # [m] minimum lateral extent of a reportable event
DEFAULT_DISTANCE_THRESHOLD = 0.8  # [m] distance criterion's lateral threshold
DEFAULT_SETTLE_RATE = 0.15  # [m/s] distance criterion: at rest below this |dy/dt|
DEFAULT_SETTLE_DWELL = 2.0  # [s] distance criterion: rest that confirms a settle


class Direction(str, Enum):
    LEFT = "left"
    RIGHT = "right"


class EventKind(str, Enum):
    SINGLE = "single"
    DOUBLE = "double"


@dataclass(frozen=True)
class LaneChangeEvent:
    """A detected lane-change maneuver.

    ``t_mid`` is the marking-crossing instant, ``duration = t_end - t_start``
    and ``lateral_extent`` the total lateral displacement over the event.
    """

    vehicle_id: str
    t_start: float
    t_mid: float
    t_end: float
    duration: float
    direction: Direction
    v_mid: float
    lateral_extent: float
    kind: EventKind = EventKind.SINGLE
    truncated: bool = False
    criterion: str = ""


@dataclass(frozen=True)
class PeakParams:
    prominence_min: float = 0.15  # [m/s]
    min_peak_separation: float = 4.0  # [s]
    rel_height: float | None = None  # computed from widths when None

    def __post_init__(self) -> None:
        if self.prominence_min <= 0.0:
            raise ValueError("prominence_min must be positive")
        if self.rel_height is not None and not (0.0 < self.rel_height < 1.0):
            raise ValueError("rel_height must be in (0, 1)")


def rel_height_from_widths(width_obj: float, width_lane: float) -> float:
    """Relative evaluation height for the peak width measurement."""
    return 1.0 - (width_obj / width_lane) / 2.0


@dataclass(frozen=True)
class PeakHit:
    index: int
    height: float
    prominence: float


def find_peaks(series: np.ndarray, rate: float, params: PeakParams) -> list[PeakHit]:
    """Strict local maxima with topographic prominence >= prominence_min.

    Peaks closer than ``min_peak_separation`` keep only the higher one.
    A series whose range ``max - min`` is below ``prominence_min`` has no
    peak and returns ``[]`` without calling scipy.  The pre-check is exact:
    a peak's prominence is its height minus a sample of the series, at most
    the range, and floating-point subtraction is monotone.  A NaN makes the
    range NaN, so such a series still goes to scipy.
    """
    series = np.asarray(series, dtype=float)
    if series.size and np.ptp(series) < params.prominence_min:
        return []
    from scipy import signal  # deferred, as in trajectory._zero_phase

    distance = max(1, int(round(params.min_peak_separation * rate)))
    idx, props = signal.find_peaks(series, prominence=params.prominence_min,
                                   distance=distance)
    return [PeakHit(int(i), float(series[i]), float(p))
            for i, p in zip(idx, props["prominences"])]


@dataclass(frozen=True)
class PeakWidth:
    t_start: float
    t_end: float
    duration: float
    truncated: bool


def _cross_time(t: np.ndarray, x: np.ndarray, i: int, j: int, level: float) -> float:
    """Linear-interpolated time where x crosses ``level`` between i and j."""
    x0, x1 = x[i], x[j]
    if x1 == x0:
        return float(t[i])
    frac = (level - x0) / (x1 - x0)
    return float(t[i] + frac * (t[j] - t[i]))


def peak_width(series: np.ndarray, t: np.ndarray, peak: PeakHit,
               rel_height: float) -> PeakWidth:
    """Width of a peak at ``height - rel_height * prominence``.

    The crossings left and right of the peak are linearly interpolated; if
    the evaluation height is never crossed inside the series the window is
    clamped to the series bounds and flagged truncated.
    """
    series = np.asarray(series, dtype=float)
    level = peak.height - rel_height * peak.prominence
    p = peak.index

    left = None
    for i in range(p - 1, -1, -1):
        if series[i] <= level:
            left = _cross_time(t, series, i, i + 1, level)
            break
    right = None
    for i in range(p + 1, len(series)):
        if series[i] <= level:
            right = _cross_time(t, series, i - 1, i, level)
            break

    truncated = left is None or right is None
    t_start = float(t[0]) if left is None else left
    t_end = float(t[-1]) if right is None else right
    return PeakWidth(t_start, t_end, t_end - t_start, truncated)


def _interp_at(t: np.ndarray, values: np.ndarray, when: float) -> float:
    return float(np.interp(when, t, values))


@dataclass(frozen=True)
class _Candidate:
    event: LaneChangeEvent
    peak_height: float


def displacement(dy: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral of ``dy`` along its last axis, 0 first.

    The lateral displacement since the first sample, linearly interpolable
    between samples.
    """
    steps = np.cumsum(0.5 * (dy[..., 1:] + dy[..., :-1]) * dt, axis=-1)
    return np.concatenate([np.zeros(steps.shape[:-1] + (1,)), steps], axis=-1)


def peak_rel_height(params: PeakParams, shape: VehicleShape, layout: LaneLayout) -> float:
    """The configured relative height, else the one derived from the widths."""
    if params.rel_height is not None:
        return params.rel_height
    return rel_height_from_widths(shape.width, layout.lane_width)


def detect_peak(y: ContinuousLateral, shape: VehicleShape, layout: LaneLayout,
                params: PeakParams | None = None,
                min_extent: float | None = DEFAULT_MIN_EXTENT) -> list[LaneChangeEvent]:
    """Peak criterion: events from peaks of the lateral-position derivative.

    Left changes are peaks of +dy/dt, right changes of -dy/dt.  The event
    window is the peak width at the relative height derived from vehicle
    and lane width, the lateral extent is the integral of the derivative
    over the window, and the midpoint is the half-displacement instant
    (the marking crossing for a clean maneuver).  Events with extent
    <= ``min_extent`` are discarded; overlapping opposite-direction windows
    are resolved by keeping the dominant peak.
    """
    params = params or PeakParams()
    dy = derivative(y.y, y.dt)
    return peak_events(y.vehicle_id, y.t, dy, displacement(dy, y.dt), y.v, y.rate,
                       peak_rel_height(params, shape, layout), params, min_extent)


def peak_events(vehicle_id: str, t: np.ndarray, dy: np.ndarray, disp: np.ndarray,
                v: np.ndarray | None, rate: float, rel_h: float, params: PeakParams,
                min_extent: float | None) -> list[LaneChangeEvent]:
    """The peak criterion on arrays: ``dy`` the lateral derivative on the
    sample times ``t`` and ``disp`` its ``displacement``; see detect_peak."""
    candidates: list[_Candidate] = []
    for sign, direction in ((1.0, Direction.LEFT), (-1.0, Direction.RIGHT)):
        # positive part only: excursions of the opposite sign belong to the
        # other direction and must not inflate prominences here
        series = np.maximum(sign * dy, 0.0)
        for hit in find_peaks(series, rate, params):
            w = peak_width(series, t, hit, rel_h)
            d0 = _interp_at(t, disp, w.t_start)
            d1 = _interp_at(t, disp, w.t_end)
            extent = abs(d1 - d0)
            if min_extent is not None and extent <= min_extent:
                continue
            t_mid = _half_displacement_time(t, disp, w.t_start, w.t_end,
                                            d0, d1, fallback=float(t[hit.index]))
            v_mid = _interp_at(t, v, float(t[hit.index])) if v is not None else math.nan
            candidates.append(_Candidate(
                LaneChangeEvent(
                    vehicle_id=vehicle_id,
                    t_start=w.t_start,
                    t_mid=t_mid,
                    t_end=w.t_end,
                    duration=w.duration,
                    direction=direction,
                    v_mid=v_mid,
                    lateral_extent=extent,
                    truncated=w.truncated,
                    criterion="peak",
                ),
                hit.height,
            ))

    candidates.sort(key=lambda c: (c.event.t_start, c.event.t_mid))
    return [c.event for c in _resolve_opposite_overlaps(candidates)]


def _half_displacement_time(t: np.ndarray, disp: np.ndarray, t0: float,
                            t1: float, d0: float, d1: float,
                            fallback: float) -> float:
    """Instant inside [t0, t1] where half the window displacement is done."""
    target = d0 + 0.5 * (d1 - d0)
    mask = (t >= t0) & (t <= t1)
    if not np.any(mask):
        return fallback
    tt = t[mask]
    dd = disp[mask]
    sign = 1.0 if d1 >= d0 else -1.0
    gd = sign * dd
    gt = sign * target
    hit = np.nonzero((gd[:-1] <= gt) & (gd[1:] >= gt))[0]
    if len(hit) == 0:
        return fallback
    i = int(hit[0])
    if gd[i + 1] == gd[i]:
        return float(tt[i])
    frac = (gt - gd[i]) / (gd[i + 1] - gd[i])
    return float(tt[i] + frac * (tt[i + 1] - tt[i]))


def _resolve_opposite_overlaps(candidates: list[_Candidate]) -> list[_Candidate]:
    """Keep the dominant peak of overlapping opposite-direction windows."""
    kept: list[_Candidate] = []
    for cand in candidates:
        if kept:
            last = kept[-1]
            overlap = (cand.event.t_start < last.event.t_end
                       and cand.event.direction != last.event.direction)
            if overlap:
                if cand.peak_height > last.peak_height:
                    kept[-1] = cand
                continue
        kept.append(cand)
    return kept


def exceedance_predicate(y: np.ndarray, center: float, threshold: float) -> np.ndarray:
    """Per-sample distance-criterion predicate |y - center| > threshold."""
    dev = np.asarray(y, dtype=float) - center
    return (dev > threshold) | (dev < -threshold)


def detect_distance(y: ContinuousLateral, layout: LaneLayout,
                    threshold: float = DEFAULT_DISTANCE_THRESHOLD,
                    settle_rate: float = DEFAULT_SETTLE_RATE,
                    settle_dwell: float = DEFAULT_SETTLE_DWELL) -> list[LaneChangeEvent]:
    """Distance criterion: displacement from lane center beyond ``threshold``.

    An event opens at the first exceedance against the currently settled
    lane and is emitted once the vehicle settles in a different lane:
    within ``threshold`` of the new center, laterally at rest (rate below
    ``settle_rate``), sustained for ``settle_dwell``.  Consecutive
    exceedances toward the same crossing merge into one event; a vehicle
    that returns to its original lane produces no event.

    Unlike the peak criterion this detector compares against absolute lane
    geometry, so a constant lateral bias displaces both the exceedance
    predicate and the settle band.
    """
    nearest, rests = settle_mask(y.y, derivative(y.y, y.dt), layout, threshold, settle_rate)
    return distance_events(y.vehicle_id, y.t, y.y, y.v, nearest, rests, layout,
                           threshold, settle_dwell)


def settle_mask(y: np.ndarray, dy: np.ndarray, layout: LaneLayout, threshold: float,
                settle_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest lane of each sample, and whether the vehicle rests there:
    within ``threshold`` of its center with ``|dy| <= settle_rate``.

    Elementwise, so ``y`` and ``dy`` may hold one row per signal.
    """
    if not (0.0 < threshold < layout.lane_width / 2.0):
        raise ValueError("threshold must be in (0, lane_width/2)")
    nearest = layout.nearest_lane(y)
    rests = ((np.abs(y - nearest * layout.lane_width) <= threshold)
             & (np.abs(dy) <= settle_rate))
    return nearest, rests


def _next_index(idx: np.ndarray, start: int, n: int) -> int:
    """First entry of the sorted indices ``idx`` at or after ``start``, else n."""
    k = int(idx.searchsorted(start))
    return int(idx[k]) if k < len(idx) else n


def _first_settle(t: np.ndarray, nearest: np.ndarray, away: np.ndarray, lo: int,
                  hi: int, settle_dwell: float) -> tuple[int, int] | None:
    """(run start, confirming index) of the first run that confirms a settle.

    A run is a stretch of ``away`` samples (at rest in a lane other than the
    settled one) in one lane; it may start no earlier than ``lo`` and
    confirms at its first sample ``settle_dwell`` after its start, before
    ``hi``.  None when no run inside [lo, hi) confirms.
    """
    ok = away[lo:hi]
    lanes = nearest[lo:hi]
    starts = ok.copy()
    starts[1:] &= ~(ok[:-1] & (lanes[1:] == lanes[:-1]))
    run_start = np.maximum.accumulate(np.where(starts, np.arange(len(ok)), 0))
    tt = t[lo:hi]
    done = np.flatnonzero(ok & (tt - tt[run_start] >= settle_dwell))
    if len(done) == 0:
        return None
    k = int(done[0])
    return lo + int(run_start[k]), lo + k


def distance_events(vehicle_id: str, t: np.ndarray, y: np.ndarray, v: np.ndarray | None,
                    nearest: np.ndarray, rests: np.ndarray, layout: LaneLayout,
                    threshold: float, settle_dwell: float) -> list[LaneChangeEvent]:
    """The distance criterion on arrays: ``nearest`` and ``rests`` as from
    ``settle_mask``; see detect_distance.

    While the settled lane holds, the exceedances, the returns home and
    the samples at rest in another lane are each found once, so a
    maneuver costs a few index lookups unless the vehicle comes to rest
    elsewhere.
    """
    n = len(t)
    w = layout.lane_width
    events: list[LaneChangeEvent] = []
    settled = int(nearest[0])
    i = 0
    while i < n:
        center = layout.center(settled)
        dev = np.abs(y - center)
        exceed = np.flatnonzero(dev > threshold)
        home = np.flatnonzero((nearest == settled) & (dev <= threshold))
        away = rests & (nearest != settled)
        away_idx = np.flatnonzero(away)
        while True:
            start = _next_index(exceed, i, n)
            if start == n:
                return events
            back = _next_index(home, start + 1, n)  # returned home, abandoned
            first = _next_index(away_idx, start + 1, n)
            settle = (_first_settle(t, nearest, away, first, back, settle_dwell)
                      if first < back else None)
            if settle is not None:
                break
            if back == n:
                return events  # the record ends inside a maneuver
            i = back + 1
        run, i = settle
        t_exceed = float(t[start])
        t_settle = float(t[run])
        lane = int(nearest[i])
        # settle confirmed; the event ends where the rest began
        direction = Direction.LEFT if lane > settled else Direction.RIGHT
        step = 1 if lane > settled else -1
        t_mid = _boundary_cross_time(t, y, t_exceed, t_settle, center + step * w / 2.0)
        events.append(LaneChangeEvent(
            vehicle_id=vehicle_id,
            t_start=t_exceed,
            t_mid=t_mid,
            t_end=t_settle,
            duration=t_settle - t_exceed,
            direction=direction,
            v_mid=_interp_at(t, v, t_mid) if v is not None else math.nan,
            # center-to-center displacement: the settle window clips the
            # transition tails, so the raw |dy| would under-measure
            lateral_extent=abs(lane - settled) * w,
            criterion="distance",
        ))
        settled = lane
        i += 1
    return events


def _boundary_cross_time(t: np.ndarray, yy: np.ndarray, t0: float, t1: float,
                         boundary: float) -> float:
    """First crossing of a lane boundary inside [t0, t1]; midpoint fallback."""
    mask = (t >= t0) & (t <= t1)
    tt = t[mask]
    vv = yy[mask] - boundary
    crossings = np.nonzero(vv[:-1] * vv[1:] <= 0.0)[0]
    for i in crossings:
        if vv[i] == vv[i + 1]:
            continue
        frac = -vv[i] / (vv[i + 1] - vv[i])
        return float(tt[i] + frac * (tt[i + 1] - tt[i]))
    return 0.5 * (t0 + t1)


def detect_gradient(traj: Trajectory, layout: LaneLayout,
                    params: PeakParams | None = None,
                    match_window: float = 3.0) -> list[LaneChangeEvent]:
    """Gradient criterion: re-referencing jumps in the marking distances.

    A crossing flips the referenced marking, so ``d_left`` jumps by one
    lane width (positive for a left change).  Start and end times are
    refined with the peak criterion around each jump; a symmetric fixed
    window is used when no peak matches.
    """
    if not traj.has_markings:
        raise ValueError("gradient criterion unavailable")
    w = layout.lane_width
    jumps = np.diff(traj.d_left)
    idx = np.nonzero(np.abs(jumps) > 0.5 * w)[0]

    y = continuous_lateral(traj, layout)
    peak_events = detect_peak(y, traj.shape, layout, params, min_extent=None)

    events: list[LaneChangeEvent] = []
    for i in idx:
        t_mid = 0.5 * float(traj.t[i] + traj.t[i + 1])
        direction = Direction.LEFT if jumps[i] > 0 else Direction.RIGHT
        match = None
        best = match_window
        for ev in peak_events:
            gap = abs(ev.t_mid - t_mid)
            if ev.direction == direction and gap < best:
                match = ev
                best = gap
        if match is not None:
            events.append(replace(match, t_mid=t_mid, criterion="gradient"))
        else:
            half = 2.5  # [s] fallback window around the jump
            t0 = max(float(traj.t[0]), t_mid - half)
            t1 = min(float(traj.t[-1]), t_mid + half)
            events.append(LaneChangeEvent(
                vehicle_id=traj.vehicle_id,
                t_start=t0,
                t_mid=t_mid,
                t_end=t1,
                duration=t1 - t0,
                direction=direction,
                v_mid=_interp_at(traj.t, traj.v, t_mid),
                lateral_extent=abs(_interp_at(y.t, y.y, t1) - _interp_at(y.t, y.y, t0)),
                truncated=True,
                criterion="gradient",
            ))
    events.sort(key=lambda e: e.t_mid)
    return events


def classify_double(events: Sequence[LaneChangeEvent],
                    layout: LaneLayout) -> list[LaneChangeEvent]:
    """Mark or merge double lane changes.

    An event spanning at least 1.5 lane widths is a double; two
    same-direction events with overlapping windows merge into one double.
    Statistics pipelines exclude kind=double events.
    """
    limit = 1.5 * layout.lane_width
    ordered = sorted(events, key=lambda e: (e.t_start, e.t_mid))
    out: list[LaneChangeEvent] = []
    i = 0
    while i < len(ordered):
        ev = ordered[i]
        if (i + 1 < len(ordered)
                and ordered[i + 1].direction == ev.direction
                and ordered[i + 1].t_start < ev.t_end):
            nxt = ordered[i + 1]
            t_end = max(ev.t_end, nxt.t_end)
            out.append(replace(
                ev,
                t_end=t_end,
                duration=t_end - ev.t_start,
                lateral_extent=ev.lateral_extent + nxt.lateral_extent,
                kind=EventKind.DOUBLE,
            ))
            i += 2
            continue
        if ev.lateral_extent >= limit:
            ev = replace(ev, kind=EventKind.DOUBLE)
        out.append(ev)
        i += 1
    return out

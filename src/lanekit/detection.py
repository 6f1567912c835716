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

The peak and distance criteria run one path, ``detect_rows``, on stacks of
``lat`` rows: ``lanekit detect`` and the sweep on preprocessed tracks,
``detect_peak`` and ``detect_distance`` on one unfiltered track.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .trajectory import (
    DEFAULT_CUTOFF,
    LaneLayout,
    Trajectory,
    check_lane_range,
    check_range,
    continuous_lateral,
    derivative,
    lowpass_rows,
    time_overlap,
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
    "peak_events",
    "settle_mask",
    "check_distance_threshold",
    "distance_events",
    "detect_rows",
    "classify_double",
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
    """Peak criterion settings: finite, ``prominence_min`` positive."""

    prominence_min: float = 0.15  # [m/s]
    min_peak_separation: float = 4.0  # [s]

    def __post_init__(self) -> None:
        check_range(self)
        check_range(self, "prominence_min", positive=True)


def rel_height_from_widths(width_obj: float, width_lane: float) -> float:
    """Relative evaluation height for the peak width measurement, from the
    vehicle width ``width_obj`` and the lane width."""
    return 1.0 - (width_obj / width_lane) / 2.0


@dataclass(frozen=True)
class PeakHit:
    index: int
    height: float
    prominence: float


def find_peaks(series: np.ndarray, rate: float, params: PeakParams) -> list[PeakHit]:
    """Peaks with topographic prominence >= ``prominence_min``, at least
    ``min_peak_separation`` apart.

    The peaks and prominences of ``scipy.signal.find_peaks(series,
    prominence=prominence_min, distance=round(min_peak_separation *
    rate))``, bit for bit and in the same order:

    * a peak is the middle sample (rounded down) of a run of equal
      samples whose neighbours on both sides are lower; a NaN sample is
      a run of its own and never lower;
    * of peaks closer than the distance, only the higher stays: peaks are
      taken highest first, in the order ``np.argsort`` gives their
      heights, so equal heights fall as in scipy;
    * a peak's base on each side is the lowest sample between it and the
      nearest sample on that side that is higher or NaN (else the series
      end); its prominence is its height minus the higher base.

    A series whose range ``max - min`` is below ``prominence_min`` has no
    peak and returns ``[]`` before the search.  The check is exact: a
    prominence is the peak's height minus a sample of the series, at most
    the range, and floating-point subtraction is monotone.  A NaN makes
    the range NaN, so such a series is searched.
    """
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        return []
    span = series.max() - series.min()
    if span < params.prominence_min:
        return []
    # run k + 1 of equal samples is series[ends[k] + 1 : ends[k + 1] + 1]
    ends = np.flatnonzero(series[1:] != series[:-1])
    before, top = series[ends], series[1:][ends]
    runs = np.flatnonzero((before[:-1] < top[:-1]) & (top[1:] < before[1:]))
    if runs.size == 0:
        return []
    middle = (ends[runs] + ends[runs + 1] + 1) // 2
    index, heights = middle.tolist(), series[middle]
    distance = max(1, int(round(params.min_peak_separation * rate)))
    kept = _apart(index, heights, distance)
    prominences = _prominences(series, index, heights.tolist(), kept, span != span)
    return [PeakHit(index[j], h, p) for j, h, p in prominences if params.prominence_min <= p]


def _apart(index: list[int], heights: np.ndarray, distance: int) -> list[int]:
    """Positions in ``index`` of the peaks kept ``distance`` samples apart,
    highest first, as scipy's ``_select_by_peak_distance``."""
    m = len(index)
    if all(b - a >= distance for a, b in zip(index, index[1:])):
        return list(range(m))
    keep = [True] * m
    for j in np.argsort(heights)[::-1].tolist():
        if keep[j]:
            k = j - 1
            while k >= 0 and index[j] - index[k] < distance:
                keep[k] = False
                k -= 1
            k = j + 1
            while k < m and index[k] - index[j] < distance:
                keep[k] = False
                k += 1
    return [j for j in range(m) if keep[j]]


def _prominences(series: np.ndarray, index: list[int], heights: list[float],
                 kept: list[int], has_nan: bool) -> list[tuple[int, float, float]]:
    """``(position in index, height, prominence)`` of each kept peak.

    Call the peaks and the NaN samples stops.  The nearest sample on one
    side of a peak that is higher or NaN lies at or beyond the nearest
    stop on that side that is higher or NaN, and every sample between the
    two is higher than the peak: from that sample away from the peak, the
    samples rise to a peak or meet a NaN or the series end.  So a base is
    the lowest of the gaps between consecutive stops up to that stop (a
    stop passed on the way is a peak, above its neighbours in the gaps),
    one ``np.minimum.reduceat`` gives every gap, and each kept peak walks
    the stops, not the samples.
    """
    if has_nan:
        stops = sorted(index + np.flatnonzero(np.isnan(series)).tolist())
        at = [stops.index(i) for i in index]
        level = series[stops].tolist()
    else:
        stops, at, level = index, range(len(index)), heights
    bounds = [0]
    for stop in stops:
        bounds += (stop, stop + 1)
    if bounds[-1] == series.size:
        del bounds[-1]
    gaps = np.minimum.reduceat(series, bounds)[::2].tolist()  # gaps[i] ends at stops[i]
    out = []
    for j in kept:
        a, h = at[j], heights[j]
        left, i = gaps[a], a - 1
        while i >= 0 and level[i] <= h:
            left = min(left, gaps[i])
            i -= 1
        right, i = gaps[a + 1], a + 1
        while i < len(stops) and level[i] <= h:
            i += 1
            right = min(right, gaps[i])
        out.append((j, h, h - max(left, right)))
    return out


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


def detect_peak(traj: Trajectory, layout: LaneLayout, params: PeakParams | None = None,
                min_extent: float | None = DEFAULT_MIN_EXTENT) -> list[LaneChangeEvent]:
    """Peak criterion: events from peaks of the derivative of the lateral
    position of ``traj``, taken unfiltered (LaneRangeError for a lane
    outside ``layout``).

    Left changes are peaks of +dy/dt, right changes of -dy/dt.  The event
    window is the peak width at the relative height derived from vehicle
    and lane width, the lateral extent is the integral of the derivative
    over the window, and the midpoint is the half-displacement instant
    (the marking crossing for a clean maneuver).  Events with extent
    <= ``min_extent`` are discarded; overlapping opposite-direction windows
    are resolved by keeping the dominant peak.
    """
    check_lane_range(traj, layout)
    (found,) = detect_rows([traj], [traj.lat[None]], layout, ("peak",), params,
                           cutoff=None, min_extent=min_extent)
    return found["peak"][0]


def peak_events(vehicle_id: str, t: np.ndarray, dy: np.ndarray, disp: np.ndarray,
                v: np.ndarray, rate: float, rel_h: float, params: PeakParams,
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
            v_mid = _interp_at(t, v, float(t[hit.index]))
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
    k = time_overlap(t, (t0, t1))
    sign = 1.0 if d1 >= d0 else -1.0
    gd = sign * disp[k]
    gt = sign * target
    hit = np.nonzero((gd[:-1] <= gt) & (gd[1:] >= gt))[0]
    if len(hit) == 0:
        return fallback
    i = int(hit[0])
    return _cross_time(t[k], gd, i, i + 1, gt)


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


def detect_distance(traj: Trajectory, layout: LaneLayout,
                    threshold: float = DEFAULT_DISTANCE_THRESHOLD) -> list[LaneChangeEvent]:
    """Distance criterion: displacement of ``traj``, taken unfiltered, from
    the lane center beyond ``threshold`` (LaneRangeError as detect_peak).

    An event opens at the first exceedance against the currently settled
    lane and is emitted once the vehicle settles in a different lane:
    within ``threshold`` of the new center, laterally at rest (rate below
    ``DEFAULT_SETTLE_RATE``), sustained for ``DEFAULT_SETTLE_DWELL``.
    Consecutive exceedances toward the same crossing merge into one event;
    a vehicle that returns to its original lane produces no event.

    Unlike the peak criterion this detector compares against absolute lane
    geometry, so a constant lateral bias displaces both the exceedance
    predicate and the settle band.
    """
    check_lane_range(traj, layout)
    (found,) = detect_rows([traj], [traj.lat[None]], layout, ("distance",),
                           distance_threshold=threshold, cutoff=None)
    return found["distance"][0]


def settle_mask(y: np.ndarray, dy: np.ndarray, layout: LaneLayout, threshold: float,
                settle_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest lane of each sample, and whether the vehicle rests there:
    within ``threshold`` of its center with ``|dy| <= settle_rate``.

    Elementwise, so ``y`` and ``dy`` may hold one row per signal.
    """
    check_distance_threshold("threshold", threshold, layout)
    nearest = layout.nearest_lane(y)
    rests = ((np.abs(y - layout.center(nearest)) <= threshold)
             & (np.abs(dy) <= settle_rate))
    return nearest, rests


def check_distance_threshold(name: str, threshold: float, layout: LaneLayout) -> None:
    """Raise ValueError, as ``<name> must be in (0, lane_width/2)``, unless
    the distance criterion's ``threshold`` lies strictly inside that range."""
    if not (0.0 < threshold < layout.lane_width / 2.0):
        raise ValueError(f"{name} must be in (0, lane_width/2)")


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


def distance_events(vehicle_id: str, t: np.ndarray, y: np.ndarray, v: np.ndarray,
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
            v_mid=_interp_at(t, v, t_mid),
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
    """First crossing of a lane boundary inside [t0, t1], a pair of samples
    on a flat stretch not counting; midpoint fallback."""
    k = time_overlap(t, (t0, t1))
    vv = yy[k] - boundary
    crossings = np.flatnonzero((vv[:-1] * vv[1:] <= 0.0) & (vv[:-1] != vv[1:]))
    if len(crossings) == 0:
        return 0.5 * (t0 + t1)
    i = int(crossings[0])
    return _cross_time(t[k], vv, i, i + 1, 0.0)


def detect_rows(trajs: Sequence[Trajectory], rows: Sequence[np.ndarray], layout: LaneLayout,
                criteria: Sequence[str], params: PeakParams | None = None,
                distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD,
                cutoff: float | None = DEFAULT_CUTOFF,
                min_extent: float | None = DEFAULT_MIN_EXTENT,
                ) -> Iterator[dict[str, list[list[LaneChangeEvent]]]]:
    """The peak and distance criteria on stacks of ``lat`` rows.

    ``rows`` holds, for each of ``trajs`` in turn, a stack of versions of
    its ``lat`` channel along the first axis.  With a ``cutoff`` every
    stack is low-passed first, all in one ``lowpass_rows`` call.  Each
    stack then takes one ``derivative`` and, as the ``criteria`` need,
    one ``displacement`` and one ``settle_mask``, and each criterion runs
    its kernel on every row: ``peak_events`` (see ``detect_peak``) with
    ``min_extent``, ``distance_events`` (see ``detect_distance``) with
    ``distance_threshold``.  Yields, for each vehicle in turn,
    ``{criterion: [events of each row]}``.
    """
    params = params or PeakParams()
    if cutoff is not None:
        rows = lowpass_rows(trajs, rows, cutoff, layout)
    for traj, lat in zip(trajs, rows):
        y = layout.lateral(traj.lane, lat)
        dy = derivative(y, traj.dt)
        found = {}
        if "peak" in criteria:
            disp = displacement(dy, traj.dt)
            rel_h = rel_height_from_widths(traj.shape.width, layout.lane_width)
            found["peak"] = [peak_events(traj.vehicle_id, traj.t, dy[r], disp[r], traj.v,
                                         traj.rate, rel_h, params, min_extent)
                             for r in range(len(y))]
        if "distance" in criteria:
            nearest, rests = settle_mask(y, dy, layout, distance_threshold, DEFAULT_SETTLE_RATE)
            found["distance"] = [distance_events(traj.vehicle_id, traj.t, y[r], traj.v,
                                                 nearest[r], rests[r], layout,
                                                 distance_threshold, DEFAULT_SETTLE_DWELL)
                                 for r in range(len(y))]
        yield found


def detect_gradient(traj: Trajectory, layout: LaneLayout,
                    params: PeakParams | None = None) -> list[LaneChangeEvent]:
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
    peak_events = detect_peak(traj, layout, params, min_extent=None)

    events: list[LaneChangeEvent] = []
    for i in idx:
        t_mid = 0.5 * float(traj.t[i] + traj.t[i + 1])
        direction = Direction.LEFT if jumps[i] > 0 else Direction.RIGHT
        match = None
        best = 3.0  # [s] widest gap between the jump and a matching peak
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
                lateral_extent=abs(_interp_at(traj.t, y, t1) - _interp_at(traj.t, y, t0)),
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

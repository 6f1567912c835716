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
``detect_peak`` and ``detect_distance`` on one unfiltered track.  Its
kernels take a block of rows end to end: each search, mask and event
quantity is one array operation per block, not one per row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

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
    "detect_gradients",
    "displacement",
    "settle_mask",
    "check_distance_threshold",
    "detect_rows",
    "classify_double",
]

DEFAULT_MIN_EXTENT = 2.5  # [m] minimum lateral extent of a reportable event
DEFAULT_DISTANCE_THRESHOLD = 0.8  # [m] distance criterion's lateral threshold
DEFAULT_SETTLE_RATE = 0.15  # [m/s] distance criterion: at rest below this |dy/dt|
DEFAULT_SETTLE_DWELL = 2.0  # [s] distance criterion: rest that confirms a settle
_BLOCK_SAMPLES = 8192  # rows one kernel call joins: bounds the kernels' temporaries


class Direction(str, Enum):
    LEFT = "left"
    RIGHT = "right"


_DIRECTIONS = (Direction.LEFT, Direction.RIGHT)  # of +dy/dt, of -dy/dt


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

    This is the search ``detect_rows`` runs on a whole block of rows at
    once, each row between NaN separators (``_peaks``); here the block is
    the one series.
    """
    series = np.asarray(series, dtype=float)
    distance = max(1, int(round(params.min_peak_separation * rate)))
    s = np.concatenate(([np.nan], series, [np.nan]))
    at, _, heights, prominences = _peaks(s, np.array([1]), np.array([len(s) - 1]),
                                         np.array([distance]), params.prominence_min)
    return [PeakHit(i - 1, h, p)
            for i, h, p in zip(at.tolist(), heights.tolist(), prominences.tolist())]


def _peaks(s: np.ndarray, lo: np.ndarray, hi: np.ndarray, distance: np.ndarray,
           prominence_min: float) -> tuple[np.ndarray, ...]:
    """``find_peaks`` in each segment ``s[lo[g]:hi[g]]`` as if it were the
    whole series, ``distance[g]`` samples apart: ``(position in s,
    segment, height, prominence)`` of each peak, in position order.

    Every segment has a NaN on both sides, so no run of equal samples, no
    walk to a base and no stop reaches into another segment.  A segment
    whose range ``max - min`` is below ``prominence_min`` has no peak and
    is not searched.  The check is exact: a prominence is the peak's
    height minus a sample of the segment, at most the range, and
    floating-point subtraction is monotone.  A NaN makes the range NaN, so
    such a segment is searched.
    """
    ranges = np.stack([lo, hi], axis=1).ravel()
    span = np.maximum.reduceat(s, ranges)[::2] - np.minimum.reduceat(s, ranges)[::2]
    # run k + 1 of equal samples is s[ends[k] + 1 : ends[k + 1] + 1]
    ends = np.flatnonzero(s[1:] != s[:-1])
    before, top = s[ends], s[ends + 1]
    runs = np.flatnonzero((before[:-1] < top[:-1]) & (top[1:] < before[1:]))
    at = (ends[runs] + ends[runs + 1] + 1) // 2
    seg = np.searchsorted(lo, at, side="right") - 1
    searched = ~(span < prominence_min)[seg]
    at, seg = at[searched], seg[searched]
    if not len(at):
        return at, seg, s[at], s[at]
    # Call the peaks and the NaN samples stops.  The nearest sample on one
    # side of a peak that is higher or NaN lies between it and the nearest
    # stop on that side that is higher or NaN, or is that stop, and every
    # sample from it to that stop is higher than the peak: a lower one
    # would leave a higher peak between them.  So a base is the lowest
    # sample between the peak and that stop, and the walk to it passes
    # stops, not samples.
    stops = np.sort(np.concatenate((at, np.flatnonzero(np.isnan(s)))))
    heights = s[at]
    kept = _apart(at, seg, heights, distance, hi)
    at, seg, heights = at[kept], seg[kept], heights[kept]
    i = np.searchsorted(stops, at)
    left, right = _walk(s[stops], i, np.zeros_like(i), np.full_like(i, len(stops)), heights,
                        False)
    left, right = stops[left], stops[right]
    base = np.maximum(_range_min(s, left + 1, at + 1), _range_min(s, at, right))
    prominences = heights - base
    good = prominence_min <= prominences
    return at[good], seg[good], heights[good], prominences[good]


def _apart(at: np.ndarray, seg: np.ndarray, heights: np.ndarray, distance: np.ndarray,
           hi: np.ndarray) -> np.ndarray:
    """Mask of the peaks at positions ``at`` (sorted) that scipy keeps
    ``distance[seg]`` samples apart within each segment.

    scipy takes the peaks highest first and drops every peak closer than
    the distance to one it keeps.  Unless two peaks closer than the
    distance have equal heights, that keeps exactly the peaks with no
    higher kept peak closer than the distance: so each round keeps every
    open peak higher than all its open neighbours and drops those
    neighbours.  A segment with equal heights closer than the distance
    takes scipy's order of them, ``_apart_by_argsort``.
    """
    m = len(at)
    ahead = np.searchsorted(at, np.minimum(at + distance[seg], hi[seg])) - np.arange(m) - 1
    keep = np.ones(m, dtype=bool)
    if not ahead.any():
        return keep
    # every pair (a, b) of peaks of one segment closer than its distance
    a = np.repeat(np.arange(m), ahead)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(ahead) - ahead, ahead)
    open_ = np.ones(m, dtype=bool)
    for g in np.unique(seg[a[heights[a] == heights[b]]]).tolist():
        idx = np.flatnonzero(seg == g)
        keep[idx] = False
        keep[idx[_apart_by_argsort(at[idx].tolist(), heights[idx], int(distance[g]))]] = True
        open_[idx] = False
    lower = np.where(heights[a] < heights[b], a, b)
    upper = a + b - lower
    live = open_[lower]
    lower, upper = lower[live], upper[live]
    while lower.size:
        beaten = np.zeros(m, dtype=bool)
        beaten[lower] = True
        top = open_ & ~beaten
        dropped = lower[top[upper]]
        keep[dropped] = False
        open_ &= ~top
        open_[dropped] = False
        live = open_[lower] & open_[upper]
        lower, upper = lower[live], upper[live]
    return keep


def _apart_by_argsort(index: list[int], heights: np.ndarray, distance: int) -> list[int]:
    """Positions in ``index`` of the peaks kept ``distance`` samples apart,
    highest first, as scipy's ``_select_by_peak_distance``."""
    m = len(index)
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


def _walk(s: np.ndarray, at: np.ndarray, lo: np.ndarray, hi: np.ndarray, level: np.ndarray,
          below: bool) -> tuple[np.ndarray, np.ndarray]:
    """For each query q, the nearest index before and the nearest after
    ``at[q]``, inside ``lo[q]:hi[q]``, where ``s <= level[q]`` is ``below``:
    ``lo[q] - 1`` and ``hi[q]`` where there is none.

    The walks still open look at 16, 32, 64, ... samples a time, at most
    256, so a walk of w samples takes about log2(w) array operations.
    """
    m = len(at)
    step = np.repeat([-1, 1], m)
    stop = np.concatenate((lo - 1, hi))
    level = np.concatenate((level, level))
    start = np.concatenate((at - 1, at + 1))
    found = stop.copy()
    todo = np.flatnonzero((stop - start) * step > 0)
    pos = start[todo]
    width = 16
    while todo.size:
        idx = pos[:, None] + step[todo][:, None] * np.arange(width)
        inside = (stop[todo][:, None] - idx) * step[todo][:, None] > 0
        hit = ((s[np.where(inside, idx, 0)] <= level[todo][:, None]) == below) & inside
        first = hit.argmax(axis=1)
        done = hit[np.arange(len(todo)), first]
        found[todo[done]] = idx[done, first[done]]
        more = ~done & inside[:, -1]
        todo, pos = todo[more], pos[more] + step[todo[more]] * width
        width = min(2 * width, 256)
    return found[:m], found[m:]


def _range_min(s: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``s[a[q]:b[q]].min()`` of each query: ranges around increasing
    positions ``p[q]`` (``a[q] <= p[q] < b[q] < len(s)``), so the ranges
    ``reduceat`` also takes, from each ``b[q]`` to ``a[q + 1]``, lie
    between consecutive positions and add up to at most ``len(s)``."""
    if not len(a):
        return np.empty(0)
    return np.minimum.reduceat(s, np.stack([a, b], axis=1).ravel())[::2]


@dataclass(frozen=True)
class PeakWidth:
    t_start: float
    t_end: float
    duration: float
    truncated: bool


def _cross(t0: np.ndarray, t1: np.ndarray, x0: np.ndarray, x1: np.ndarray,
           level: np.ndarray | float) -> np.ndarray:
    """Linear-interpolated time where x crosses ``level`` between (t0, x0)
    and (t1, x1); t0 where x0 == x1."""
    with np.errstate(all="ignore"):  # the x0 == x1 entries are not used
        return np.where(x1 == x0, t0, t0 + (level - x0) / (x1 - x0) * (t1 - t0))


def _widths(s: np.ndarray, t: np.ndarray, at: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            shift: np.ndarray, level: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(t_start, t_end, truncated)`` of the window of each peak ``at`` of
    the segment ``s[lo:hi]`` at ``level``: the nearest samples on both
    sides at or below it, each with its crossing interpolated, else the
    segment's end, flagged truncated.  ``t[i - shift]`` is the time of
    ``s[i]``."""
    left, right = _walk(s, at, lo, hi, level, True)
    has_left, has_right = left >= lo, right < hi
    i, j = np.maximum(left, lo) - shift, np.minimum(right, hi - 1) - shift
    t_start = np.where(has_left, _cross(t[i], t[i + 1], s[i + shift], s[i + 1 + shift], level),
                       t[lo - shift])
    t_end = np.where(has_right, _cross(t[j - 1], t[j], s[j - 1 + shift], s[j + shift], level),
                     t[hi - 1 - shift])
    return t_start, t_end, ~(has_left & has_right)


def peak_width(series: np.ndarray, t: np.ndarray, peak: PeakHit,
               rel_height: float) -> PeakWidth:
    """Width of a peak at ``height - rel_height * prominence``.

    The crossings left and right of the peak are linearly interpolated; if
    the evaluation height is never crossed inside the series the window is
    clamped to the series bounds and flagged truncated.
    """
    s = np.concatenate(([np.nan], np.asarray(series, dtype=float), [np.nan]))
    one = np.ones(1, dtype=int)
    t_start, t_end, truncated = _widths(
        s, np.asarray(t, dtype=float), one + peak.index, one, one * (len(s) - 1), one,
        np.array([peak.height - rel_height * peak.prominence]))
    t_start, t_end = float(t_start[0]), float(t_end[0])
    return PeakWidth(t_start, t_end, t_end - t_start, bool(truncated[0]))


def _interp_at(t: np.ndarray, values: np.ndarray, when: float) -> float:
    return float(np.interp(when, t, values))


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


class _Block(NamedTuple):
    """Consecutive stacks of rows, the rows end to end: row k holds the
    flat samples ``o[k]:o[k + 1]``."""

    trajs: Sequence[Trajectory]
    dys: Sequence[np.ndarray]  # each trajectory's stack of lateral derivatives
    which: np.ndarray  # the trajectory of each row
    o: np.ndarray
    t: np.ndarray  # the flat samples' times, speeds, lateral positions and derivatives
    v: np.ndarray
    y: np.ndarray
    dy: np.ndarray


def _block(trajs: Sequence[Trajectory], ys: Sequence[np.ndarray],
           dys: Sequence[np.ndarray]) -> _Block:
    """The ``_Block`` of ``trajs``, ``ys`` holding each one's stack of
    lateral positions and ``dys`` their derivatives."""
    counts = [len(y) for y in ys]
    o = np.concatenate(([0], np.cumsum(np.repeat([len(traj.t) for traj in trajs], counts))))
    tiled = [traj for traj, k in zip(trajs, counts) for _ in range(k)]
    return _Block(trajs, dys, np.repeat(np.arange(len(trajs)), counts), o,
                  np.concatenate([traj.t for traj in tiled]),
                  np.concatenate([traj.v for traj in tiled]),
                  np.concatenate([y.ravel() for y in ys]),
                  np.concatenate([dy.ravel() for dy in dys]))


def _search(trajs: Sequence[Trajectory], which: np.ndarray, x: np.ndarray,
            side: str) -> np.ndarray:
    """``np.searchsorted(trajs[which[q]].t, x[..., q], side)`` of each query
    q; ``which`` is non-decreasing, so that is one call per trajectory."""
    out = np.empty(np.shape(x), dtype=np.intp)
    cuts = np.searchsorted(which, np.arange(len(trajs) + 1)).tolist()
    for traj, a, b in zip(trajs, cuts, cuts[1:]):
        if a < b:
            out[..., a:b] = np.searchsorted(traj.t, x[..., a:b], side)
    return out


def _interp(x: np.ndarray, j: np.ndarray, first: np.ndarray, last: np.ndarray,
            t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.interp(x, t[first:last + 1], values[first:last + 1])`` of each
    query, bit for bit, given the flat index ``j`` of the row's last
    sample at or before ``x`` (``first - 1`` if none).

    numpy's rule: NaN for a NaN ``x``; the end values before the row, at
    and after its last sample; a sample's own value on it; else ``slope *
    (x - t0) + v0``, ``slope * (x - t1) + v1`` where that is NaN, and
    ``v0`` where that is NaN too and ``v0 == v1``.
    """
    k = np.clip(j, first, last - 1)
    t0, t1, v0, v1 = t[k], t[k + 1], values[k], values[k + 1]
    with np.errstate(all="ignore"):
        slope = (v1 - v0) / (t1 - t0)
        out = slope * (x - t0) + v0
        out = np.where(np.isnan(out), slope * (x - t1) + v1, out)
    out = np.where(np.isnan(out) & (v0 == v1), v0, out)
    out = np.where(x == t0, v0, out)
    out = np.where(j < first, values[first], np.where(j >= last, values[last], out))
    return np.where(np.isnan(x), x, out)


def _windows(lo: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The query of each entry and the flat indices ``lo[q] .. lo[q] +
    n[q] - 1`` of each query q, all queries end to end."""
    n = np.maximum(n, 0)
    q = np.repeat(np.arange(len(lo)), n)
    return q, np.arange(len(q)) - np.repeat(np.cumsum(n) - n, n) + lo[q]


def _first_hit(q: np.ndarray, hit: np.ndarray, count: int,
               *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Whether each of ``count`` queries has a hit, and each of
    ``columns`` at its first hit (0 where it has none); ``q`` holds the
    non-decreasing query of each entry."""
    first = np.full(count, -1)
    at = np.flatnonzero(hit)
    if at.size:
        at = at[np.concatenate(([True], q[at][1:] != q[at][:-1]))]
        first[q[at]] = at
    return (first >= 0, *(np.append(c, 0)[first] for c in columns))


def _peak_rows(block: _Block, layout: LaneLayout, params: PeakParams,
               min_extent: float | None) -> list[list[LaneChangeEvent]]:
    """The peak criterion on every row of ``block``: the events of each
    row; see detect_peak.

    All rows run as one series: row k's rectified +dy and -dy, a NaN
    before and after each (segments 2k and 2k + 1).  One ``_peaks`` call
    finds every peak, and every window, extent and midpoint comes from
    one array operation over all of them; only the opposite-direction
    overlaps are resolved row by row.
    """
    trajs, dys, which, o, t, v = block[:6]
    rows, n = len(which), np.diff(o)
    disp = np.concatenate([displacement(dy, traj.dt).ravel() for traj, dy in zip(trajs, dys)])
    lo = np.repeat(2 * (o[:-1] + np.arange(rows)) + 1, 2)
    lo[1::2] += n + 1
    hi = lo + np.repeat(n, 2)
    s = np.full(2 * (o[-1] + rows) + 1, np.nan)
    first = 0
    for dy in dys:
        k, m = dy.shape
        part = s[lo[2 * first]:lo[2 * first] + 2 * k * (m + 1)].reshape(k, 2, m + 1)
        # positive parts only: excursions of the opposite sign belong to
        # the other direction and must not inflate prominences
        np.maximum(dy, 0.0, out=part[:, 0, :m])
        np.maximum(-dy, 0.0, out=part[:, 1, :m])
        first += k
    distance = [max(1, int(round(params.min_peak_separation * traj.rate))) for traj in trajs]
    rel_h = [rel_height_from_widths(traj.shape.width, layout.lane_width) for traj in trajs]
    at, seg, heights, prominences = _peaks(s, lo, hi, np.repeat(np.take(distance, which), 2),
                                           params.prominence_min)
    events: list[list[LaneChangeEvent]] = [[] for _ in range(rows)]
    if not len(at):
        return events
    row = seg >> 1
    shift = lo[seg] - o[row]  # s[i] is sample i - shift of the flat rows
    t_start, t_end, truncated = _widths(s, t, at, lo[seg], hi[seg], shift,
                                        heights - np.take(rel_h, which[row]) * prominences)
    ends = np.stack([t_start, t_end])
    d0, d1 = _interp(ends, _search(trajs, which[row], ends, "right") - 1 + o[row], o[row],
                     o[row + 1] - 1, t, disp)
    extent = np.abs(d1 - d0)
    if min_extent is not None:
        keep = ~(extent <= min_extent)
        at, seg, heights, row, shift, t_start, t_end, truncated, d0, d1, extent = (
            x[keep] for x in (at, seg, heights, row, shift, t_start, t_end, truncated, d0, d1,
                              extent))
    # the half-displacement instant: the first pair of samples inside the
    # window whose displacement brackets half the window's
    sign = np.where(d1 >= d0, 1.0, -1.0)
    goal = sign * (d0 + 0.5 * (d1 - d0))
    a = _search(trajs, which[row], t_start, "left")
    b = np.where(np.isnan(t_end), a, _search(trajs, which[row], t_end, "right"))
    q, i = _windows(o[row] + a, b - a - 1)
    g0, g1 = sign[q] * disp[i], sign[q] * disp[i + 1]
    hit, i, g0, g1 = _first_hit(q, (g0 <= goal[q]) & (g1 >= goal[q]), len(at), i, g0, g1)
    t_mid = np.where(hit, _cross(t[i], t[i + 1], g0, g1, goal), t[at - shift])

    columns = (row, seg & 1, t_start, t_mid, t_end, t_end - t_start, v[at - shift], extent,
               truncated, heights)
    for r, group in itertools.groupby(zip(*(c.tolist() for c in columns)), key=itemgetter(0)):
        # the dominant peak of overlapping opposite-direction windows
        kept: list[tuple] = []
        for cand in sorted(group, key=itemgetter(2, 3)):
            if kept and cand[2] < kept[-1][4] and cand[1] != kept[-1][1]:
                if cand[9] > kept[-1][9]:
                    kept[-1] = cand
                continue
            kept.append(cand)
        vehicle_id = trajs[which[r]].vehicle_id
        events[r] = [LaneChangeEvent(vehicle_id, c[2], c[3], c[4], c[5], _DIRECTIONS[c[1]],
                                     c[6], c[7], truncated=c[8], criterion="peak")
                     for c in kept]
    return events


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


def _after(idx: np.ndarray, base: np.ndarray, at: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The first entry of the sorted ``idx`` at or after ``base + at``, less
    ``base``, where that is before ``end``; else ``end``."""
    if not len(idx):
        return end.copy()
    k = np.searchsorted(idx, base + at)
    found = idx[np.minimum(k, len(idx) - 1)] - base
    return np.where((k < len(idx)) & (found < end), found, end)


def _settle_tables(away: np.ndarray, away_at: np.ndarray, nearest: np.ndarray, o: np.ndarray,
                   t: np.ndarray, settle_dwell: float) -> tuple:
    """The lookups ``_settle`` takes, for the rows ``o`` end to end.

    ``away`` marks, per lane, the samples at rest in another lane, and
    ``away_at`` lists them as ``lane * samples + sample``.  A run is a
    stretch of away samples in one lane and row; it confirms a settle at
    its first sample ``settle_dwell`` after its start.  Returns the runs
    that confirm, as ``(lane * samples + run start, confirming sample)``
    in the same form, with a sentinel after all: once with the dwell
    counted from the run's start, once from its second sample.  Last, the
    run start of every ``lane * samples + sample``.
    """
    size = len(nearest)
    joins = np.zeros(size, dtype=bool)
    joins[1:] = nearest[1:] == nearest[:-1]
    joins[o[:-1]] = False
    starts = away.copy()
    starts[:, 1:] &= ~(away[:, :-1] & joins[1:])
    begin = np.where(starts, np.arange(size, dtype=np.int32), 0)
    np.maximum.accumulate(begin, axis=1, out=begin)
    begin = begin.ravel()
    past = len(away) * size
    sample = away_at % size

    def confirms(since: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ok = (sample >= since) & (t[sample] - t[np.minimum(since, size - 1)] >= settle_dwell)
        at = away_at[ok]
        run = at - sample[ok] + begin[at]
        first = np.concatenate(([True], run[1:] != run[:-1]))[:len(run)]
        return np.append(run[first], past), np.append(at[first], past)

    return confirms(begin[away_at]), confirms(begin[away_at] + 1), begin


def _settle(tables: tuple, base: np.ndarray, start: np.ndarray,
            first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rest start, confirming sample)`` of maneuvers that exceed at
    ``start`` and first rest away at ``first`` (both ``+ base``, the
    settled lane's offset in ``tables``): the first confirming run that
    starts at ``first`` or later, unless ``first`` lies in a run the
    exceeding sample started, which counts from ``first``.  The
    confirmation lies past every sample where there is none."""
    (on_key, on_at), (late_key, late_at), begin = tables
    k = np.searchsorted(on_key, base + first)
    run, conf = on_key[k] - base, on_at[k] - base
    k = np.searchsorted(late_key, base + start)
    own = ((begin[np.minimum(base + first, len(begin) - 1)] == start)
           & (late_key[k] == base + start))
    return np.where(own, first, run), np.where(own, late_at[k] - base, conf)


def _distance_rows(block: _Block, layout: LaneLayout, threshold: float, settle_rate: float,
                   settle_dwell: float) -> list[list[LaneChangeEvent]]:
    """The distance criterion on every row of ``block``: the events of
    each row; see detect_distance.

    Each lane's exceedances, returns home and samples at rest in another
    lane are found once for all rows, as ``lane * samples + sample``, and
    so are the samples that confirm a settle.  Every row then steps
    through its maneuvers at once with the others, each step a few
    ``searchsorted`` lookups.
    """
    trajs, _, which, o, t, v, y, dy = block
    nearest, rests = settle_mask(y, dy, layout, threshold, settle_rate)
    size = len(y)
    lanes = np.arange(layout.lane_count)[:, None]
    dev = np.abs(y - layout.center(lanes))
    exceed = np.flatnonzero(dev > threshold)
    home = np.flatnonzero((nearest == lanes) & (dev <= threshold))
    del dev
    # at rest in a lane other than the settled one, for the lanes a row
    # can settle in: those between the nearest lanes it visits
    n = np.diff(o)
    away = (rests & (nearest != lanes)
            & (lanes >= np.repeat(np.minimum.reduceat(nearest, o[:-1]), n))
            & (lanes <= np.repeat(np.maximum.reduceat(nearest, o[:-1]), n)))
    away_at = np.flatnonzero(away)
    tables = None  # the settle lookups, built once some row can settle
    found = []
    row = np.arange(len(which))
    lane = nearest[o[:-1]]
    at = o[:-1]
    while row.size:
        end = o[row + 1]
        base = lane * size
        start = _after(exceed, base, at, end)
        go = start < end
        row, lane, start, end, base = row[go], lane[go], start[go], end[go], base[go]
        back = _after(home, base, start + 1, end)  # returned home, abandoned
        first = _after(away_at, base, start + 1, end)
        settled = first < back
        run = conf = back
        if settled.any():
            tables = tables or _settle_tables(away, away_at, nearest, o, t, settle_dwell)
            run, conf = _settle(tables, base, start, first)
            settled &= conf < back
            found.append((row[settled], start[settled], run[settled], conf[settled],
                          lane[settled]))
        go = settled | (back < end)
        lane = np.where(settled, nearest[np.minimum(conf, size - 1)], lane)
        row, lane, at = row[go], lane[go], np.where(settled, conf + 1, back + 1)[go]
    return _distance_events(block, nearest, layout, found)


def _distance_events(block: _Block, nearest: np.ndarray, layout: LaneLayout,
                     found: list[tuple[np.ndarray, ...]]) -> list[list[LaneChangeEvent]]:
    """The events of each row from the settles ``found``, one tuple of
    arrays ``(row, exceedance, rest start, confirmation, settled lane)``
    per step of the rows: the event ends where the rest began, and its
    midpoint is the first crossing of the boundary toward the new lane."""
    trajs, _, which, o, t, v, y, _ = block
    events: list[list[LaneChangeEvent]] = [[] for _ in range(len(which))]
    if not found:
        return events
    row, start, run, conf, settled = (np.concatenate(x) for x in zip(*found))
    order = np.argsort(row, kind="stable")
    row, start, run, conf, settled = (x[order] for x in (row, start, run, conf, settled))
    w = layout.lane_width
    lane = nearest[conf]
    step = np.where(lane > settled, 1, -1)
    boundary = layout.center(settled) + step * w / 2.0
    t0, t1 = t[start], t[run]
    q, i = _windows(start, run - start)
    vv0, vv1 = y[i] - boundary[q], y[i + 1] - boundary[q]
    hit, i, vv0, vv1 = _first_hit(q, (vv0 * vv1 <= 0.0) & (vv0 != vv1), len(row), i, vv0, vv1)
    t_mid = np.where(hit, _cross(t[i], t[i + 1], vv0, vv1, 0.0), 0.5 * (t0 + t1))
    v_mid = _interp(t_mid, _search(trajs, which[row], t_mid, "right") - 1 + o[row], o[row],
                    o[row + 1] - 1, t, v)
    # center-to-center displacement: the settle window clips the
    # transition tails, so the raw |dy| would under-measure
    extent = np.abs(lane - settled) * w
    for r, s, *values in zip(*(c.tolist() for c in (row, step, t0, t_mid, t1, t1 - t0, v_mid,
                                                   extent))):
        events[r].append(LaneChangeEvent(trajs[which[r]].vehicle_id, *values[:4],
                                         _DIRECTIONS[s < 0], *values[4:],
                                         criterion="distance"))
    return events


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
    stack then takes one ``derivative``.  The criteria run on blocks of
    consecutive stacks, each block about ``_BLOCK_SAMPLES`` samples or
    one stack, with all its rows end to end: the peak criterion (see
    ``detect_peak``, ``_peak_rows``) with ``min_extent``, the distance
    criterion (see ``detect_distance``, ``_distance_rows``) with
    ``distance_threshold``.  Each row's events are those of the row alone.
    Yields, for each vehicle in turn, ``{criterion: [events of each
    row]}``.
    """
    params = params or PeakParams()
    if cutoff is not None:
        rows = lowpass_rows(trajs, rows, cutoff, layout)
    block: list[tuple[Trajectory, np.ndarray]] = []
    size = 0
    for traj, lat in zip(trajs, rows):
        block.append((traj, lat))
        size += np.size(lat)
        if size >= _BLOCK_SAMPLES:
            yield from _detect_block(block, layout, criteria, params, distance_threshold,
                                     min_extent)
            block, size = [], 0
    if block:
        yield from _detect_block(block, layout, criteria, params, distance_threshold, min_extent)


def _detect_block(block: list[tuple[Trajectory, np.ndarray]], layout: LaneLayout,
                  criteria: Sequence[str], params: PeakParams, threshold: float,
                  min_extent: float | None) -> Iterator[dict[str, list[list[LaneChangeEvent]]]]:
    trajs = [traj for traj, _ in block]
    ys = [layout.lateral(traj.lane, lat) for traj, lat in block]
    rows = _block(trajs, ys, [derivative(y, traj.dt) for traj, y in zip(trajs, ys)])
    found = {}
    if "peak" in criteria:
        found["peak"] = _peak_rows(rows, layout, params, min_extent)
    if "distance" in criteria:
        found["distance"] = _distance_rows(rows, layout, threshold, DEFAULT_SETTLE_RATE,
                                           DEFAULT_SETTLE_DWELL)
    k = 0
    for y in ys:
        yield {name: events[k:k + len(y)] for name, events in found.items()}
        k += len(y)


def detect_gradient(traj: Trajectory, layout: LaneLayout,
                    params: PeakParams | None = None) -> list[LaneChangeEvent]:
    """Gradient criterion: re-referencing jumps in the marking distances.

    A crossing flips the referenced marking, so ``d_left`` jumps by one
    lane width (positive for a left change).  Start and end times are
    refined with the peak criterion around each jump; a symmetric fixed
    window is used when no peak matches.
    """
    (events,) = detect_gradients([traj], layout, params)
    return events


def detect_gradients(trajs: Sequence[Trajectory], layout: LaneLayout,
                     params: PeakParams | None = None) -> list[list[LaneChangeEvent]]:
    """``detect_gradient`` of each of ``trajs``: the peak events that refine
    their windows (``detect_peak`` with no extent filter) come from one
    ``detect_rows`` call."""
    for traj in trajs:
        if not traj.has_markings:
            raise ValueError("gradient criterion unavailable")
        check_lane_range(traj, layout)
    found = detect_rows(trajs, [traj.lat[None] for traj in trajs], layout, ("peak",), params,
                        cutoff=None, min_extent=None)
    return [_gradient_events(traj, layout, rows["peak"][0]) for traj, rows in zip(trajs, found)]


def _gradient_events(traj: Trajectory, layout: LaneLayout,
                     peak_events: list[LaneChangeEvent]) -> list[LaneChangeEvent]:
    w = layout.lane_width
    jumps = np.diff(traj.d_left)
    idx = np.nonzero(np.abs(jumps) > 0.5 * w)[0]
    y = continuous_lateral(traj, layout)
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

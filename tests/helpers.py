"""Shared fixture builders for the test suite."""

from __future__ import annotations

import math

import numpy as np

from lanekit.trajectory import ContinuousLateral, LaneLayout, Trajectory, VehicleShape

LAYOUT = LaneLayout()
CAR = VehicleShape(4.8, 2.0)
TRUCK = VehicleShape(14.0, 2.5)


def make_trajectory(t, y_cont, v=30.0, layout=LAYOUT, shape=CAR,
                    vehicle_id="veh", markings=True) -> Trajectory:
    """Trajectory from a continuous lateral profile; lane split derived."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y_cont, dtype=float)
    w = layout.lane_width
    lane = np.clip(np.rint(y / w), 0, layout.lane_count - 1).astype(int)
    lat = y - w * lane
    v_arr = np.full(len(t), float(v)) if np.isscalar(v) else np.asarray(v, float)
    rate = 1.0 / float(t[1] - t[0])
    kwargs = {}
    if markings:
        kwargs["d_left"] = w / 2.0 - lat - shape.width / 2.0
        kwargs["d_right"] = w / 2.0 + lat - shape.width / 2.0
    return Trajectory(
        vehicle_id=vehicle_id, shape=shape, t=t,
        s=np.cumsum(np.full(len(t), v_arr.mean() / rate)),
        lane=lane, lat=lat, v=v_arr,
        a_lon=np.gradient(v_arr, 1.0 / rate),
        a_lat=np.gradient(np.gradient(y, 1.0 / rate), 1.0 / rate),
        rate=rate, **kwargs,
    )


def sigmoid_profile(t, t_mid=30.0, duration=6.0, amplitude=3.5, base=0.0):
    k = 4.7 / duration
    return base + amplitude / (1.0 + np.exp(-k * (np.asarray(t) - t_mid)))


def sigmoid_lane_change(duration=6.0, record_len=60.0, rate=5.0, v=30.0,
                        amplitude=3.5, **kwargs) -> Trajectory:
    t = np.arange(0.0, record_len, 1.0 / rate)
    y = sigmoid_profile(t, record_len / 2.0, duration, amplitude)
    return make_trajectory(t, y, v=v, **kwargs)


def lane_keeping(record_len=60.0, rate=5.0, wiggle=0.3, lane=0, **kwargs) -> Trajectory:
    t = np.arange(0.0, record_len, 1.0 / rate)
    y = LAYOUT.lane_width * lane + wiggle * np.sin(0.2 * t)
    return make_trajectory(t, y, **kwargs)


def continuous(traj: Trajectory, layout=LAYOUT) -> ContinuousLateral:
    from lanekit.trajectory import continuous_lateral
    return continuous_lateral(traj, layout)


# ---------------------------------------------------------------------------
# Reference criticality: the per-sample loop the array kernel replaced, with
# its scalar metric helpers.  Test-only; the kernel must match it exactly.

def _ref_rect_gap(ds, dy, half_len, half_wid):
    gs = np.maximum(np.abs(ds) - half_len, 0.0)
    gy = np.maximum(np.abs(dy) - half_wid, 0.0)
    return np.hypot(gs, gy)


def ref_distance(ego, opp, ego_shape, opp_shape) -> float:
    half_len = 0.5 * (ego_shape.length + opp_shape.length)
    half_wid = 0.5 * (ego_shape.width + opp_shape.width)
    return float(_ref_rect_gap(opp.s - ego.s, opp.y - ego.y, half_len, half_wid))


def ref_thw(ego, opp, ego_shape, opp_shape) -> float:
    from lanekit.criticality import V_EGO_MIN
    if opp.s <= ego.s or ego.vs < V_EGO_MIN:
        return math.nan
    if abs(opp.y - ego.y) >= 0.5 * (ego_shape.width + opp_shape.width):
        return math.nan
    gap = opp.s - ego.s - 0.5 * (ego_shape.length + opp_shape.length)
    return max(gap, 0.0) / ego.vs


def ref_ttce_dce(ego, opp, ego_shape, opp_shape) -> tuple[float, float]:
    ps = opp.s - ego.s
    py = opp.y - ego.y
    vs = opp.vs - ego.vs
    vy = opp.vy - ego.vy
    v2 = vs * vs + vy * vy
    t_star = 0.0 if v2 == 0.0 else max(0.0, -(ps * vs + py * vy) / v2)
    half_len = 0.5 * (ego_shape.length + opp_shape.length)
    half_wid = 0.5 * (ego_shape.width + opp_shape.width)
    gap_now = float(_ref_rect_gap(ps, py, half_len, half_wid))
    gap_star = float(_ref_rect_gap(ps + t_star * vs, py + t_star * vy,
                                   half_len, half_wid))
    return t_star, min(gap_star, gap_now)


def ref_pairwise_samples(ego, opp, layout, window) -> list[tuple]:
    """(t, d, thw, ttce, dce) per ego sample in the window the opponent covers."""
    from lanekit.criticality import KinState
    from lanekit.trajectory import continuous_lateral
    mask = (ego.t >= window[0]) & (ego.t <= window[1])
    t = ego.t[mask]
    if len(t) == 0:
        return []
    e_y = continuous_lateral(ego, layout).y[mask]
    e_s = ego.s[mask]
    e_vs = ego.v[mask]
    e_vy = np.gradient(continuous_lateral(ego, layout).y, ego.dt)[mask]
    lo, hi = float(opp.t[0]), float(opp.t[-1])
    overlap = (t >= lo) & (t <= hi)
    if not np.any(overlap):
        return []
    tt = t[overlap]
    o_y_full = continuous_lateral(opp, layout).y
    o_s = np.interp(tt, opp.t, opp.s)
    o_y = np.interp(tt, opp.t, o_y_full)
    o_vs = np.interp(tt, opp.t, opp.v)
    o_vy = np.interp(tt, opp.t, np.gradient(o_y_full, opp.dt))
    out = []
    for i, when in enumerate(tt):
        j = np.nonzero(t == when)[0][0]
        e = KinState(float(when), float(e_s[j]), float(e_y[j]),
                     float(e_vs[j]), float(e_vy[j]))
        o = KinState(float(when), float(o_s[i]), float(o_y[i]),
                     float(o_vs[i]), float(o_vy[i]))
        tc, dc = ref_ttce_dce(e, o, ego.shape, opp.shape)
        out.append((float(when), ref_distance(e, o, ego.shape, opp.shape),
                    ref_thw(e, o, ego.shape, opp.shape), tc, dc))
    return out


def ref_most_critical(ego, opponents, window, layout, thresholds=None,
                      direction="", speed_limit=None):
    from lanekit.criticality import CriticalityRecord, Thresholds, classify
    thresholds = thresholds or Thresholds()
    if speed_limit is None:
        speed_limit = layout.speed_limit
    mask = (ego.t >= window[0]) & (ego.t <= window[1])
    max_v = float(np.max(ego.v[mask])) if np.any(mask) else math.nan
    max_a_lon = float(np.max(np.abs(ego.a_lon[mask]))) if np.any(mask) else math.nan
    max_a_lat = float(np.max(np.abs(ego.a_lat[mask]))) if np.any(mask) else math.nan
    min_d = min_thw = min_dce = min_ttce = math.nan

    def nmin(cur, new):
        if math.isnan(new):
            return cur
        return new if math.isnan(cur) else min(cur, new)

    for opp in opponents:
        if opp.vehicle_id == ego.vehicle_id:
            continue
        for _, d, hw, tc, dc in ref_pairwise_samples(ego, opp, layout, window):
            min_d = nmin(min_d, d)
            min_thw = nmin(min_thw, hw)
            min_ttce = nmin(min_ttce, tc)
            if tc < thresholds.ttce_gate:
                min_dce = nmin(min_dce, dc)
    values = {"d": min_d, "v": max_v, "a_lon": max_a_lon, "a_lat": max_a_lat,
              "thw": min_thw, "dce": min_dce, "ttce": min_ttce}
    return CriticalityRecord(ego.vehicle_id, window[0], window[1], direction,
                             min_d, max_v, max_a_lon, max_a_lat, min_thw,
                             min_dce, min_ttce,
                             classify(values, thresholds, speed_limit))


def ref_thw_trace(ego, opp, layout) -> np.ndarray:
    """Per-sample loop over the scalar reference THW on the ego grid."""
    from lanekit.criticality import KinState
    w = layout.lane_width
    e_y = ego.lane * w + ego.lat
    o_y = opp.lane * w + opp.lat
    trace = np.full(len(ego.t), np.nan)
    for i, tk in enumerate(ego.t):
        if tk < opp.t[0] or tk > opp.t[-1]:
            continue
        e = KinState(float(tk), float(ego.s[i]), float(e_y[i]), float(ego.v[i]))
        o = KinState(float(tk), float(np.interp(tk, opp.t, opp.s)),
                     float(np.interp(tk, opp.t, o_y)),
                     float(np.interp(tk, opp.t, opp.v)))
        trace[i] = ref_thw(e, o, ego.shape, opp.shape)
    return trace


def same_float(a: float, b: float) -> bool:
    """Equal including nan positions and the sign of zero."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_same_record(got, want) -> None:
    import dataclasses
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float):
            assert same_float(a, b), (f.name, a, b)
        else:
            assert a == b, (f.name, a, b)


# ---------------------------------------------------------------------------
# Reference sweep: the two-pass, per-criterion loop the one-pass sweep
# replaced, with its per-call filter design, a ContinuousLateral and two
# derivatives per grid point, the peak criterion before its array kernel
# and range pre-check, and the per-sample distance criterion.  Test-only;
# the library must match it exactly.

def ref_lowpass_lat(traj, cutoff, layout):
    """``lat`` filtered as one composite row, the filter designed per call."""
    from scipy import signal
    sos = signal.butter(2, cutoff, btype="low", fs=traj.rate, output="sos")
    if np.all(traj.lane == traj.lane[0]):
        offset = np.zeros(len(traj.t))
    else:
        offset = traj.lane * layout.lane_width
    return traj.with_channels(lat=signal.sosfiltfilt(sos, traj.lat + offset) - offset)


def ref_perturb(traj, pert, stream):
    if pert.magnitude == 0.0:
        return traj
    if pert.kind == "bias":
        return traj.with_channels(lat=traj.lat + pert.magnitude)
    rng = np.random.default_rng(stream)
    steps = rng.normal(0.0, pert.magnitude, len(traj.t) - 1)
    return traj.with_channels(lat=traj.lat + np.concatenate([[0.0], np.cumsum(steps)]))


def _ref_find_peaks(series, rate, params):
    """Strict local maxima by scipy, always called: no range pre-check."""
    from lanekit.detection import PeakHit
    from scipy import signal
    series = np.asarray(series, dtype=float)
    distance = max(1, int(round(params.min_peak_separation * rate)))
    idx, props = signal.find_peaks(series, prominence=params.prominence_min,
                                   distance=distance)
    return [PeakHit(int(i), float(series[i]), float(p))
            for i, p in zip(idx, props["prominences"])]


def _ref_cross_time(t, x, i, j, level):
    x0, x1 = x[i], x[j]
    if x1 == x0:
        return float(t[i])
    frac = (level - x0) / (x1 - x0)
    return float(t[i] + frac * (t[j] - t[i]))


def _ref_peak_width(series, t, peak, rel_height):
    """(t_start, t_end, duration, truncated) of a peak, walking sample by sample."""
    series = np.asarray(series, dtype=float)
    level = peak.height - rel_height * peak.prominence
    p = peak.index
    left = None
    for i in range(p - 1, -1, -1):
        if series[i] <= level:
            left = _ref_cross_time(t, series, i, i + 1, level)
            break
    right = None
    for i in range(p + 1, len(series)):
        if series[i] <= level:
            right = _ref_cross_time(t, series, i - 1, i, level)
            break
    truncated = left is None or right is None
    t_start = float(t[0]) if left is None else left
    t_end = float(t[-1]) if right is None else right
    return t_start, t_end, t_end - t_start, truncated


def _ref_half_displacement_time(t, disp, t0, t1, d0, d1, fallback):
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


def ref_detect_peak(y, shape, layout, params=None, min_extent=2.5):
    """The peak criterion on one ContinuousLateral, as one function."""
    from lanekit.detection import (
        Direction,
        LaneChangeEvent,
        PeakParams,
        _Candidate,
        _interp_at,
        _resolve_opposite_overlaps,
        rel_height_from_widths,
    )
    from lanekit.trajectory import derivative
    params = params or PeakParams()
    rel_h = params.rel_height
    if rel_h is None:
        rel_h = rel_height_from_widths(shape.width, layout.lane_width)
    dy = derivative(y.y, y.dt)
    disp = np.concatenate([[0.0], np.cumsum(0.5 * (dy[1:] + dy[:-1]) * y.dt)])
    candidates = []
    for sign, direction in ((1.0, Direction.LEFT), (-1.0, Direction.RIGHT)):
        series = np.maximum(sign * dy, 0.0)
        for hit in _ref_find_peaks(series, y.rate, params):
            t_start, t_end, duration, truncated = _ref_peak_width(series, y.t, hit, rel_h)
            d0 = _interp_at(y.t, disp, t_start)
            d1 = _interp_at(y.t, disp, t_end)
            extent = abs(d1 - d0)
            if min_extent is not None and extent <= min_extent:
                continue
            t_mid = _ref_half_displacement_time(y.t, disp, t_start, t_end, d0, d1,
                                                fallback=float(y.t[hit.index]))
            v_mid = (_interp_at(y.t, y.v, float(y.t[hit.index]))
                     if y.v is not None else math.nan)
            candidates.append(_Candidate(
                LaneChangeEvent(vehicle_id=y.vehicle_id, t_start=t_start, t_mid=t_mid,
                                t_end=t_end, duration=duration, direction=direction,
                                v_mid=v_mid, lateral_extent=extent, truncated=truncated,
                                criterion="peak"),
                hit.height))
    candidates.sort(key=lambda c: (c.event.t_start, c.event.t_mid))
    return [c.event for c in _resolve_opposite_overlaps(candidates)]


def ref_sweep(corpus, criterion, grid, layout, params=None, distance_threshold=0.8,
              seed=0, refilter=True, cutoff=1.3, min_extent=None):
    from lanekit.robustness import RobustnessPoint, RobustnessReport
    from lanekit.trajectory import continuous_lateral
    truth = len(corpus.truth_events)
    points = []
    for gi, pert in enumerate(grid):
        detected = 0
        for ti, traj in enumerate(corpus.trajectories):
            stream = int(np.random.SeedSequence((seed, gi, ti)).generate_state(1)[0])
            perturbed = ref_perturb(traj, pert, stream)
            if refilter:
                perturbed = ref_lowpass_lat(perturbed, cutoff, layout)
            y = continuous_lateral(perturbed, layout)
            if criterion == "peak":
                events = ref_detect_peak(y, traj.shape, layout, params,
                                         min_extent=min_extent)
            else:
                events = ref_detect_distance(y, layout, distance_threshold)
            detected += len(events)
        points.append(RobustnessPoint(criterion, pert.kind, pert.magnitude,
                                      detected, truth))
    return RobustnessReport(tuple(points))


def ref_detect_distance(y, layout, threshold=0.8, settle_rate=0.15, settle_dwell=2.0):
    """Per-sample state machine of the distance criterion."""
    from lanekit.detection import (
        Direction,
        LaneChangeEvent,
        _boundary_cross_time,
        _interp_at,
    )
    from lanekit.trajectory import derivative
    t = y.t
    yy = y.y
    rate = np.abs(derivative(yy, y.dt))
    w = layout.lane_width
    nearest = layout.nearest_lane(yy)

    events = []
    settled = int(nearest[0])
    t_exceed = None
    cand_lane = None
    cand_t0 = 0.0
    for i in range(len(t)):
        dev = yy[i] - layout.center(settled)
        if t_exceed is None:
            if abs(dev) > threshold:
                t_exceed = float(t[i])
            continue
        lane_i = int(nearest[i])
        if lane_i == settled and abs(dev) <= threshold:
            t_exceed = None
            cand_lane = None
            continue
        at_rest = (lane_i != settled
                   and abs(yy[i] - layout.center(lane_i)) <= threshold
                   and rate[i] <= settle_rate)
        if not at_rest:
            cand_lane = None
            continue
        if cand_lane != lane_i:
            cand_lane = lane_i
            cand_t0 = float(t[i])
        if float(t[i]) - cand_t0 < settle_dwell:
            continue
        direction = Direction.LEFT if lane_i > settled else Direction.RIGHT
        step = 1 if lane_i > settled else -1
        boundary = layout.center(settled) + step * w / 2.0
        t_mid = _boundary_cross_time(t, yy, t_exceed, cand_t0, boundary)
        v_mid = _interp_at(t, y.v, t_mid) if y.v is not None else math.nan
        events.append(LaneChangeEvent(
            vehicle_id=y.vehicle_id, t_start=t_exceed, t_mid=t_mid, t_end=cand_t0,
            duration=cand_t0 - t_exceed, direction=direction, v_mid=v_mid,
            lateral_extent=abs(lane_i - settled) * w, criterion="distance"))
        settled = lane_i
        t_exceed = None
        cand_lane = None
    return events


# ---------------------------------------------------------------------------
# Reference rollout: the per-step loop that looked up held lanes, views and
# opponent positions at every step, before simulate tabulated the replayed
# traffic on the rollout grid.  Test-only; simulate must match it exactly.

def _ref_step_hold_lane(traj, t):
    i = int(np.searchsorted(traj.t, t + 1e-12, side="right") - 1)
    return int(traj.lane[np.clip(i, 0, len(traj.lane) - 1)])


def ref_simulate(spec):
    from lanekit.trajectory import Trajectory
    from lanekit.wiedemann import CFState, w99_accel
    rec = spec.substituted()
    others = spec.others()
    t0 = float(rec.t[0])
    t_end = t0 + (spec.duration if spec.duration is not None else rec.duration)
    n = int(round((t_end - t0) / spec.dt)) + 1
    t_grid = t0 + np.arange(n) * spec.dt

    s = np.empty(n)
    v = np.empty(n)
    a = np.empty(n)
    s[0] = float(rec.s[0])
    v[0] = max(float(rec.v[0]), 0.0)

    prev_a = 0.0
    for k in range(n):
        tk = float(t_grid[k])
        lane_e = _ref_step_hold_lane(rec, tk)
        follower = CFState(s=s[k], v=v[k], a=prev_a, length=rec.shape.length)

        leader = None
        best_s = math.inf
        for opp in others:
            if tk < opp.t[0] or tk > opp.t[-1]:
                continue
            if _ref_step_hold_lane(opp, tk) != lane_e:
                continue
            os = float(np.interp(tk, opp.t, opp.s))
            if os > s[k] and os < best_s:
                best_s = os
                leader = CFState(
                    s=os,
                    v=float(np.interp(tk, opp.t, opp.v)),
                    a=float(np.interp(tk, opp.t, opp.a_lon)),
                    length=opp.shape.length,
                )

        a[k] = w99_accel(follower, leader, spec.model)
        prev_a = a[k]
        if k + 1 < n:
            s[k + 1] = s[k] + v[k] * spec.dt
            v[k + 1] = max(v[k] + a[k] * spec.dt, 0.0)

    lane = np.array([_ref_step_hold_lane(rec, tk) for tk in t_grid])
    lat = np.interp(t_grid, rec.t, rec.lat)
    a_lat = np.interp(t_grid, rec.t, rec.a_lat)
    return Trajectory(
        vehicle_id=rec.vehicle_id, shape=rec.shape, t=t_grid, s=s, lane=lane,
        lat=lat, v=v, a_lon=a, a_lat=a_lat, rate=1.0 / spec.dt)


def assert_same_rollout(got, want) -> None:
    """Every channel equal bitwise, sign of zero included, and same lane dtype."""
    for name in ("t", "s", "lane", "lat", "v", "a_lon", "a_lat"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=True), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name
    assert got.rate == want.rate
    assert got.vehicle_id == want.vehicle_id and got.shape == want.shape


# ---------------------------------------------------------------------------
# Reference trajectory I/O: the row-by-row csv.reader ingest the columnar
# parse replaced, and the per-row writer.  Test-only; the library must
# match them exactly.

def ref_ingest(path, shapes=None, default_shape=None):
    import csv
    from pathlib import Path
    from lanekit.io import TRAJECTORY_HEADER, IngestReport

    def parse(text):
        return float(text) if text != "" else math.nan

    path = Path(path)
    default_shape = default_shape or VehicleShape(4.8, 2.0)
    report = IngestReport()
    per_vehicle = {}
    order = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"malformed header in {path}: {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(TRAJECTORY_HEADER):
                report.rejected_rows.append((lineno, "wrong column count"))
                continue
            vid = row[0]
            try:
                values = [parse(c) for c in row[1:]]
            except ValueError:
                report.rejected_rows.append((lineno, "unparseable number"))
                continue
            if not all(math.isfinite(v) for v in values[:7]):
                report.rejected_rows.append((lineno, "non-finite value"))
                continue
            if not values[2].is_integer():
                report.rejected_rows.append((lineno, "non-integer lane"))
                continue
            if vid not in per_vehicle:
                per_vehicle[vid] = []
                order.append(vid)
            per_vehicle[vid].append(values)

    if not per_vehicle:
        report.warnings.append(f"{path}: no data rows, empty corpus")
        return report

    for vid in order:
        rows = np.array(per_vehicle[vid], dtype=float)
        t = rows[:, 0]
        if np.any(np.diff(t) <= 0.0):
            report.rejected_vehicles.append((vid, "non-monotone time"))
            continue
        if len(t) < 2:
            report.rejected_vehicles.append((vid, "fewer than 2 samples"))
            continue
        shape = (shapes or {}).get(vid, default_shape)
        has_marks = bool(np.all(np.isfinite(rows[:, 7])) and np.all(np.isfinite(rows[:, 8])))
        dt = np.median(np.diff(t))
        report.trajectories.append(Trajectory(
            vehicle_id=vid, shape=shape, t=t, s=rows[:, 1],
            lane=rows[:, 2].astype(int), lat=rows[:, 3], v=rows[:, 4],
            a_lon=rows[:, 5], a_lat=rows[:, 6], rate=1.0 / float(dt),
            d_left=rows[:, 7] if has_marks else None,
            d_right=rows[:, 8] if has_marks else None,
        ))
    return report


def assert_same_ingest(got, want) -> None:
    """Reports equal field by field; channels bitwise, signs and dtypes included."""
    assert got.rejected_rows == want.rejected_rows
    assert got.rejected_vehicles == want.rejected_vehicles
    assert got.warnings == want.warnings
    assert len(got.trajectories) == len(want.trajectories)
    for a, b in zip(got.trajectories, want.trajectories):
        assert a.vehicle_id == b.vehicle_id and a.shape == b.shape
        assert a.rate == b.rate, (a.vehicle_id, a.rate, b.rate)
        for name in ("t", "s", "lane", "lat", "v", "a_lon", "a_lat", "d_left", "d_right"):
            x, y = getattr(a, name), getattr(b, name)
            if y is None:
                assert x is None, (a.vehicle_id, name)
                continue
            assert x.dtype == y.dtype, (a.vehicle_id, name)
            assert np.array_equal(x, y, equal_nan=True), (a.vehicle_id, name)
            assert np.array_equal(np.signbit(x), np.signbit(y)), (a.vehicle_id, name)


def ref_write_trajectories(path, trajectories) -> None:
    import csv
    from pathlib import Path
    from lanekit.io import TRAJECTORY_HEADER, fmt
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_HEADER)
        for traj in trajectories:
            dl = traj.d_left if traj.d_left is not None else [math.nan] * len(traj.t)
            dr = traj.d_right if traj.d_right is not None else [math.nan] * len(traj.t)
            for i in range(len(traj.t)):
                writer.writerow([
                    traj.vehicle_id,
                    fmt(traj.t[i]), fmt(traj.s[i]), int(traj.lane[i]),
                    fmt(traj.lat[i]), fmt(traj.v[i]),
                    fmt(traj.a_lon[i]), fmt(traj.a_lat[i]),
                    fmt(dl[i]), fmt(dr[i]),
                ])

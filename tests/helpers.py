"""Shared fixture builders for the test suite."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from lanekit.trajectory import LaneLayout, Trajectory, VehicleShape

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


def aerial_corpus(n=24, seed=3, rate=25.0):
    """``generate_corpus(n, seed)`` as an aerial recording at ``rate``: each
    track resampled, without markings and with 1 cm of white noise on
    ``lat``, plus ``short``, a 1 s track that is 5 samples at 5 Hz."""
    from lanekit.synth import SyntheticCorpus, generate_corpus
    from lanekit.trajectory import resample
    corpus = generate_corpus(n=n, seed=seed)
    rng = np.random.default_rng(seed)
    trajectories = []
    for traj in corpus.trajectories:
        fast = resample(traj, rate)
        trajectories.append(fast.with_channels(
            lat=fast.lat + rng.normal(0.0, 0.01, len(fast.t)), d_left=None, d_right=None))
    t = 10.0 + np.arange(round(rate)) / rate
    trajectories.append(make_trajectory(t, np.full(len(t), 3.6), vehicle_id="short",
                                        markings=False))
    return SyntheticCorpus(tuple(trajectories), corpus.truth_events, corpus.layout)


@dataclass(frozen=True)
class Lateral:
    """The lateral signal ``y`` of a track with the channels the reference
    detectors read beside it."""

    vehicle_id: str
    t: np.ndarray
    y: np.ndarray
    rate: float
    v: np.ndarray

    @property
    def dt(self) -> float:
        return 1.0 / self.rate


def continuous(traj: Trajectory, layout=LAYOUT) -> Lateral:
    """``continuous_lateral`` of ``traj`` as a ``Lateral``."""
    from lanekit.trajectory import continuous_lateral
    return Lateral(traj.vehicle_id, traj.t, continuous_lateral(traj, layout), traj.rate, traj.v)


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
    e_y = continuous_lateral(ego, layout)[mask]
    e_s = ego.s[mask]
    e_vs = ego.v[mask]
    e_vy = np.gradient(continuous_lateral(ego, layout), ego.dt)[mask]
    lo, hi = float(opp.t[0]), float(opp.t[-1])
    overlap = (t >= lo) & (t <= hi)
    if not np.any(overlap):
        return []
    tt = t[overlap]
    o_y_full = continuous_lateral(opp, layout)
    o_s = np.interp(tt, opp.t, opp.s)
    o_y = np.interp(tt, opp.t, o_y_full)
    o_vs = np.interp(tt, opp.t, opp.v)
    o_vy = np.interp(tt, opp.t, np.gradient(o_y_full, opp.dt))
    out = []
    for i, when in enumerate(tt):
        j = np.nonzero(t == when)[0][0]
        e = KinState(float(e_s[j]), float(e_y[j]),
                     float(e_vs[j]), float(e_vy[j]))
        o = KinState(float(o_s[i]), float(o_y[i]),
                     float(o_vs[i]), float(o_vy[i]))
        tc, dc = ref_ttce_dce(e, o, ego.shape, opp.shape)
        out.append((float(when), ref_distance(e, o, ego.shape, opp.shape),
                    ref_thw(e, o, ego.shape, opp.shape), tc, dc))
    return out


# frozen copies of METRIC_NAMES, _LOW and classify from lanekit.criticality
_REF_METRICS = ("d", "v", "a_lon", "a_lat", "thw", "dce", "ttce")
_REF_LOW = {"d", "thw", "dce", "ttce"}


def _ref_classify(values, thresholds, speed_limit):
    """Per-metric critical flags; nan (undefined) is never critical."""
    flags = {}
    for metric in _REF_METRICS:
        x, lim = values[metric], thresholds.limit(metric, speed_limit)
        flags[metric] = not math.isnan(x) and (x < lim if metric in _REF_LOW else x > lim)
    return flags


def ref_most_critical(ego, opponents, window, layout, thresholds=None,
                      direction="", speed_limit=None):
    from lanekit.criticality import CriticalityRecord, Thresholds
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
                             _ref_classify(values, thresholds, speed_limit))


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
        e = KinState(float(ego.s[i]), float(e_y[i]), float(ego.v[i]))
        o = KinState(float(np.interp(tk, opp.t, opp.s)),
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
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float):
            assert same_float(a, b), (f.name, a, b)
        else:
            assert a == b, (f.name, a, b)


# ---------------------------------------------------------------------------
# Reference sweep: the two-pass, per-criterion loop the one-pass sweep
# replaced, with its per-call filter design, a lateral signal and two
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


def ref_butter(cutoff, rate):
    """scipy's second-order Butterworth low-pass and its ``sosfilt_zi``, as
    ``(b0, b1, b2, a1, a2, zi0, zi1)``."""
    from scipy import signal
    sos = signal.butter(2, cutoff, btype="low", fs=rate, output="sos")
    return np.concatenate((sos[0, :3], sos[0, 4:], signal.sosfilt_zi(sos)[0]))


def same_bits(got, want) -> bool:
    """Equal arrays of equal shape, signs of zero included; NaN matches NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(got)
    return (got.shape == want.shape and np.array_equal(nan, np.isnan(want))
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


def ref_perturb(traj, pert, stream):
    if pert.magnitude == 0.0:
        return traj
    if pert.kind == "bias":
        return traj.with_channels(lat=traj.lat + pert.magnitude)
    rng = np.random.default_rng(stream)
    steps = rng.normal(0.0, pert.magnitude, len(traj.t) - 1)
    return traj.with_channels(lat=traj.lat + np.concatenate([[0.0], np.cumsum(steps)]))


def ref_find_peaks(series, rate, params):
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


def _ref_interp_at(t, values, when):
    return float(np.interp(when, t, values))


@dataclasses.dataclass(frozen=True)
class _RefCandidate:
    event: object
    peak_height: float


def _ref_resolve_opposite_overlaps(candidates):
    """Keep the dominant peak of overlapping opposite-direction windows."""
    kept = []
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
    """The peak criterion on one ``Lateral``, as one function."""
    from lanekit.detection import (
        Direction,
        LaneChangeEvent,
        PeakParams,
        rel_height_from_widths,
    )
    from lanekit.trajectory import derivative
    params = params or PeakParams()
    rel_h = rel_height_from_widths(shape.width, layout.lane_width)
    dy = derivative(y.y, y.dt)
    disp = np.concatenate([[0.0], np.cumsum(0.5 * (dy[1:] + dy[:-1]) * y.dt)])
    candidates = []
    for sign, direction in ((1.0, Direction.LEFT), (-1.0, Direction.RIGHT)):
        series = np.maximum(sign * dy, 0.0)
        for hit in ref_find_peaks(series, y.rate, params):
            t_start, t_end, duration, truncated = _ref_peak_width(series, y.t, hit, rel_h)
            d0 = _ref_interp_at(y.t, disp, t_start)
            d1 = _ref_interp_at(y.t, disp, t_end)
            extent = abs(d1 - d0)
            if min_extent is not None and extent <= min_extent:
                continue
            t_mid = _ref_half_displacement_time(y.t, disp, t_start, t_end, d0, d1,
                                                fallback=float(y.t[hit.index]))
            v_mid = (_ref_interp_at(y.t, y.v, float(y.t[hit.index]))
                     if y.v is not None else math.nan)
            candidates.append(_RefCandidate(
                LaneChangeEvent(vehicle_id=y.vehicle_id, t_start=t_start, t_mid=t_mid,
                                t_end=t_end, duration=duration, direction=direction,
                                v_mid=v_mid, lateral_extent=extent, truncated=truncated,
                                criterion="peak"),
                hit.height))
    candidates.sort(key=lambda c: (c.event.t_start, c.event.t_mid))
    return [c.event for c in _ref_resolve_opposite_overlaps(candidates)]


def ref_sweep(corpus, criterion, grid, layout, params=None, distance_threshold=0.8,
              seed=0, refilter=True, cutoff=1.3, min_extent=None, rate=5.0):
    """Every vehicle resampled to ``rate`` unless it is at that rate, then
    perturbed; none is skipped."""
    from lanekit.robustness import RobustnessPoint, RobustnessReport
    from lanekit.trajectory import resample
    truth = len(corpus.truth_events)
    trajectories = [traj if abs(traj.rate - rate) <= 1e-9 else resample(traj, rate)
                    for traj in corpus.trajectories]
    points = []
    for gi, pert in enumerate(grid):
        detected = 0
        for ti, traj in enumerate(trajectories):
            stream = int(np.random.SeedSequence((seed, gi, ti)).generate_state(1)[0])
            perturbed = ref_perturb(traj, pert, stream)
            if refilter:
                perturbed = ref_lowpass_lat(perturbed, cutoff, layout)
            y = continuous(perturbed, layout)
            if criterion == "peak":
                events = ref_detect_peak(y, traj.shape, layout, params,
                                         min_extent=min_extent)
            else:
                events = ref_detect_distance(y, layout, distance_threshold)
            detected += len(events)
        points.append(RobustnessPoint(criterion, pert.kind, pert.magnitude,
                                      detected, truth))
    return RobustnessReport(tuple(points))


def _ref_boundary_cross_time(t, yy, t0, t1, boundary):
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


def ref_detect_distance(y, layout, threshold=0.8, settle_rate=0.15, settle_dwell=2.0):
    """Per-sample state machine of the distance criterion."""
    from lanekit.detection import Direction, LaneChangeEvent
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
        t_mid = _ref_boundary_cross_time(t, yy, t_exceed, cand_t0, boundary)
        v_mid = _ref_interp_at(t, y.v, t_mid) if y.v is not None else math.nan
        events.append(LaneChangeEvent(
            vehicle_id=y.vehicle_id, t_start=t_exceed, t_mid=t_mid, t_end=cand_t0,
            duration=cand_t0 - t_exceed, direction=direction, v_mid=v_mid,
            lateral_extent=abs(lane_i - settled) * w, criterion="distance"))
        settled = lane_i
        t_exceed = None
        cand_lane = None
    return events


# ---------------------------------------------------------------------------
# The Wiedemann99 law as first written, frozen: w99_accel with its closure
# toward_desired, _free_accel, _clamp, net_gap and the desired gap, and the
# constants they read.  Test-only; w99_accel must match it bit for bit.

_REF_V_CC9_REF = 80.0 / 3.6
_REF_A_MIN = -8.0
_REF_LOOK_AHEAD = 150.0


def _ref_net_gap(behind, ahead) -> float:
    return ahead.s - behind.s - 0.5 * (ahead.length + behind.length)


def _ref_clamp(x: float, lo: float, hi: float) -> float:
    return float(min(max(x, lo), hi))


def _ref_free_accel(v: float, p) -> float:
    a_max = p.cc8 + (p.cc9 - p.cc8) * min(v, _REF_V_CC9_REF) / _REF_V_CC9_REF
    return max(a_max, 0.05)


def ref_w99_accel(follower, leader, p) -> float:
    v = max(follower.v, 0.0)
    a_cap = p.cc8 + p.cc9

    def toward_desired() -> float:
        # taper to exactly zero at v_desired, gentle trim above it
        err = p.v_desired - v
        return min(_ref_free_accel(v, p), err / 2.0) if err >= 0.0 else max(err / 2.0, -p.cc7)

    if leader is None:
        return _ref_clamp(toward_desired(), _REF_A_MIN, a_cap)

    dx = _ref_net_gap(follower, leader)
    if dx > _REF_LOOK_AHEAD:
        return _ref_clamp(toward_desired(), _REF_A_MIN, a_cap)

    vl = max(leader.v, 0.0)
    dv = vl - v  # positive when the gap is opening
    al = leader.a

    if vl <= 0.0:
        sdxc = p.cc0
    else:
        v_slow = v if (dv >= 0.0 or al < -1.0) else vl
        sdxc = p.cc0 + p.cc1 * v_slow  # W99Params.desired_gap
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
        a = _ref_clamp(0.15 * (dx - mid) + 0.8 * dv, -p.cc7, p.cc7)
        a = min(a, toward_desired())
    else:
        # free driving (leader far or pulling away)
        a = toward_desired()

    return _ref_clamp(a, _REF_A_MIN, a_cap)


# ---------------------------------------------------------------------------
# Reference rollout: the per-step loop that looked up held lanes, views and
# opponent positions at every step, before simulate tabulated the replayed
# traffic on the rollout grid.  Test-only; simulate must match it exactly.

def _ref_step_hold_lane(traj, t):
    i = int(np.searchsorted(traj.t, t + 1e-12, side="right") - 1)
    return int(traj.lane[np.clip(i, 0, len(traj.lane) - 1)])


def ref_simulate(spec):
    from lanekit.trajectory import Trajectory
    from lanekit.wiedemann import CFState
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

        a[k] = ref_w99_accel(follower, leader, spec.model)
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
# Reference trajectory I/O: the row-by-row csv.reader ingest the structured
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


def ref_write_thw_traces(path, result) -> None:
    import csv
    from itertools import repeat
    from pathlib import Path
    from lanekit.io import fmt
    t_col = [fmt(tk) for tk in result.t.tolist()]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "opponent_id", "thw", "cc1"])
        for sc in result.scenarios:
            cc1 = repeat(fmt(sc.cc1))
            for opp_id, trace in sorted(sc.thw_traces.items()):
                thw = [fmt(val) for val in trace.tolist()]
                writer.writerows(zip(t_col, repeat(opp_id), thw, cc1))


def ref_write_json(path, payload) -> None:
    import json
    from pathlib import Path

    def safe(obj):  # JSON has no nan/inf tokens
        if isinstance(obj, float):
            return obj if math.isfinite(obj) else None
        if isinstance(obj, dict):
            return {k: safe(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [safe(v) for v in obj]
        return obj

    body = {"schema": 1}
    body.update(payload)
    with Path(path).open("w") as fh:
        json.dump(safe(body), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def ref_box_dict(box) -> dict:
    """A ``BoxSummary`` as the report dict its hand-kept ``as_dict`` built."""
    return {
        "n": box.n,
        "median": box.median,
        "q25": box.q25,
        "q75": box.q75,
        "whisker_low": box.whisker_low,
        "whisker_high": box.whisker_high,
        "outliers": list(box.outliers),
        "mean": box.mean,
    }


def ref_direction_box(stats) -> dict:
    """A ``DirectionStats`` as the CLI built its ``direction_boxes.json`` entry."""
    return {"metric": stats.metric, "direction": stats.direction,
            "per_recording": dict(stats.per_recording),
            "summary": ref_box_dict(stats.summary) if stats.summary else None}


# ---------------------------------------------------------------------------
# margin increase closed loop, frozen as first written: the ego mode in an
# enum held by a mutable state record, the rear maneuver as a phase string

class MISMode(str, Enum):
    IDLE = "idle"
    ENGAGED = "engaged"
    COMPLETED = "completed"


@dataclass
class MISState:
    mode: MISMode = MISMode.IDLE
    commanded_decel: float = 0.0  # [m/s^2], positive value
    engagement_time: float = math.nan
    target_front_thw: float = math.nan


def ref_mis_as_dict(report) -> dict:
    return {
        "schema": 1,
        "engaged": report.engaged,
        "engagement_time": report.engagement_time,
        "planned_decel": report.planned_decel,
        "time_to_target_thw": report.time_to_target_thw,
        "target_reached_rear_gap": report.target_reached_rear_gap,
        "braked_during_window": report.braked_during_window,
        "braked_during_overlap": report.braked_during_overlap,
        "min_rear_gap": report.min_rear_gap,
        "rear_gap_violation": report.rear_gap_violation,
        "collision": report.collision,
        "window": list(report.window),
        "trace": {
            "t": report.t.tolist(),
            "a_ego": report.a_ego.tolist(),
            "thw_front": report.thw_front.tolist(),
            "rear_gap": report.rear_gap.tolist(),
            "mode": list(report.mode),
        },
    }


def ref_run_closed_loop(scenario: MISScenario, cfg: MISConfig | None = None,
                        front_brake: FrontBrakeInjection | None = None,
                        mis_on: bool = True) -> MISEvalReport:
    """Simulate the three-role scenario and report the safety outcome.

    With the controller on, the ego applies the planned deceleration upon
    engagement, holds speed once the margin is built, and resumes cruising
    after the rear vehicle concludes its maneuver.  The report records
    whether the ego braked inside the overtake window, the minimum rear
    gap while the rear vehicle was behind with overlapping corridors, and
    the collision flag.
    """
    from lanekit.mis import (
        ACCEL_CAP,
        AEB_CLOSING,
        AEB_THW,
        CRUISE_THW,
        EMERGENCY_THW,
        HARD_DECEL,
        REAR_GAP_VIOLATION,
        STANDSTILL_GAP,
        MISConfig,
        MISEvalReport,
        _front_thw,
        _logistic,
        engagement_check,
        plan_decel,
    )
    from lanekit.wiedemann import CFState, _clamp, net_gap

    cfg = cfg or MISConfig()
    sc = scenario
    dt = sc.dt
    n = int(round(sc.duration / dt)) + 1
    t_grid = np.arange(n) * dt
    w = sc.layout.lane_width
    y_home = sc.lane * w
    y_left = (sc.lane + 1) * w

    # state arrays
    s_e = np.empty(n); v_e = np.empty(n); a_e = np.zeros(n)
    s_f = np.empty(n); v_f = np.empty(n)
    s_r = np.empty(n); v_r = np.empty(n); y_r = np.empty(n)
    thw_front = np.full(n, np.nan)
    rear_gap = np.full(n, np.nan)
    modes: list[str] = []

    s_e[0] = 0.0
    v_e[0] = sc.ego_v0
    s_f[0] = 0.5 * (sc.ego_shape.length + sc.front_shape.length) + sc.front_gap0
    v_f[0] = sc.front_v0
    s_r[0] = -(0.5 * (sc.ego_shape.length + sc.rear_shape.length) + sc.rear_gap0)
    v_r[0] = sc.rear_v0
    y_r[0] = y_home

    state = MISState()
    delay_steps = max(int(round(sc.rear_reaction_delay / dt)), 0)
    rear_cmds: list[float] = []
    rear_prev_a = 0.0
    ego_prev_a = 0.0
    front_a = 0.0
    inject_t: float | None = front_brake.t if front_brake else None

    lc_start: float | None = None  # rear vehicle's cut-out instant
    cutin_start: float | None = None
    maneuver_end: float | None = None
    phase = "approach"
    braked_in_window = False
    braked_in_overlap = False
    min_rear_gap = math.inf
    time_to_target = math.nan
    target_rear_gap = math.nan
    planned = 0.0

    half_wid_er = 0.5 * (sc.ego_shape.width + sc.rear_shape.width)

    for k in range(n):
        tk = float(t_grid[k])
        ego = CFState(s_e[k], v_e[k], ego_prev_a, sc.ego_shape.length)
        front = CFState(s_f[k], v_f[k], front_a, sc.front_shape.length)
        rear = CFState(s_r[k], v_r[k], rear_prev_a, sc.rear_shape.length)

        thw_front[k] = _front_thw(ego, front)
        d_r = net_gap(rear, ego)
        rear_gap[k] = d_r
        overlap = abs(y_r[k] - y_home) < half_wid_er
        if rear.s < ego.s and overlap:
            min_rear_gap = min(min_rear_gap, d_r)

        # --- rear vehicle: phase logic -------------------------------------
        if phase == "approach":
            rear_thw = (max(d_r, 0.0) / rear.v) if rear.v > 0.1 else math.inf
            if rear_thw < sc.overtake_trigger_thw:
                phase = "overtake"
                lc_start = tk
                if front_brake is not None and inject_t is None:
                    inject_t = tk
        if phase == "overtake" and lc_start is not None:
            if cutin_start is None:
                frac = min((tk - lc_start) / sc.lc_duration, 1.0)
                y_r[k] = y_home + (y_left - y_home) * float(
                    _logistic(10.0 * (frac - 0.5)))
                if net_gap(ego, rear) >= sc.cut_in_lead and frac >= 1.0:
                    cutin_start = tk
            else:
                frac = min((tk - cutin_start) / sc.lc_duration, 1.0)
                y_r[k] = y_left + (y_home - y_left) * float(
                    _logistic(10.0 * (frac - 0.5)))
                if frac >= 1.0 and maneuver_end is None:
                    maneuver_end = tk
                    phase = "done"

        # rear longitudinal command (applied with reaction delay)
        rear_lane_now = round(y_r[k] / w)
        leader_r: CFState | None = None
        if rear_lane_now == sc.lane:
            if rear.s < ego.s:
                leader_r = ego
            elif rear.s < front.s:
                leader_r = front
        cmd = ref_w99_accel(rear, leader_r, sc.rear_model)
        rear_cmds.append(cmd)
        a_r = rear_cmds[max(k - delay_steps, 0)]
        rear_prev_a = a_r

        # --- ego controller -------------------------------------------------
        in_window = (lc_start is not None and tk >= lc_start
                     and (maneuver_end is None or tk <= maneuver_end))
        if mis_on and state.mode is MISMode.IDLE:
            left_free = not sc.left_lane_blocked
            rear_seen = rear if d_r <= cfg.rear_detect_range else None
            if engagement_check(ego, front, rear_seen, left_free, cfg):
                planned = plan_decel(ego, front, rear, cfg)
                state.mode = MISMode.ENGAGED
                state.commanded_decel = planned
                state.engagement_time = tk
                state.target_front_thw = thw_front[k] + cfg.thw_increase

        if state.mode is MISMode.ENGAGED:
            if thw_front[k] >= state.target_front_thw:
                state.commanded_decel = 0.0
                if math.isnan(time_to_target):
                    time_to_target = tk - state.engagement_time
                    target_rear_gap = d_r
                a_cmd = 0.0
            else:
                a_cmd = -state.commanded_decel
            if maneuver_end is not None:
                state.mode = MISMode.COMPLETED
        elif state.mode is MISMode.COMPLETED or not mis_on or state.mode is MISMode.IDLE:
            gap = net_gap(ego, front)
            g_des = CRUISE_THW * ego.v + STANDSTILL_GAP
            a_cmd = _clamp(0.25 * (gap - g_des) + 0.9 * (front.v - ego.v),
                           -HARD_DECEL, ACCEL_CAP)

        closing_front = ego.v - front.v
        if (thw_front[k] < EMERGENCY_THW
                or (thw_front[k] < AEB_THW and closing_front > AEB_CLOSING)):
            a_cmd = -HARD_DECEL
        if in_window and a_cmd < -1e-9:
            braked_in_window = True
            if rear.s < ego.s and overlap:
                braked_in_overlap = True

        a_e[k] = a_cmd
        ego_prev_a = a_cmd
        modes.append(state.mode.value)

        # --- front vehicle script -------------------------------------------
        front_a = 0.0
        if front_brake is not None and inject_t is not None and tk >= inject_t:
            front_a = -abs(front_brake.decel) if v_f[k] > 0.0 else 0.0

        # --- integrate -------------------------------------------------------
        if k + 1 < n:
            s_e[k + 1] = s_e[k] + v_e[k] * dt
            v_e[k + 1] = max(v_e[k] + a_e[k] * dt, 0.0)
            s_f[k + 1] = s_f[k] + v_f[k] * dt
            v_f[k + 1] = max(v_f[k] + front_a * dt, 0.0)
            s_r[k + 1] = s_r[k] + v_r[k] * dt
            v_r[k + 1] = max(v_r[k] + a_r * dt, 0.0)
            y_r[k + 1] = y_r[k]

    window = (float(lc_start) if lc_start is not None else math.nan,
              float(maneuver_end) if maneuver_end is not None else float(t_grid[-1]))
    min_rear = float(min_rear_gap) if math.isfinite(min_rear_gap) else math.nan
    return MISEvalReport(
        engaged=not math.isnan(state.engagement_time),
        engagement_time=float(state.engagement_time),
        planned_decel=float(planned),
        time_to_target_thw=float(time_to_target),
        target_reached_rear_gap=float(target_rear_gap),
        braked_during_window=bool(braked_in_window),
        braked_during_overlap=bool(braked_in_overlap),
        min_rear_gap=min_rear,
        rear_gap_violation=bool(not math.isnan(min_rear)
                                and min_rear < REAR_GAP_VIOLATION),
        collision=bool(not math.isnan(min_rear) and min_rear <= 0.0),
        window=window,
        t=t_grid,
        a_ego=a_e,
        thw_front=thw_front,
        rear_gap=rear_gap,
        mode=tuple(modes),
    )


# Verbatim copies of the lateral-frame code that ``lanekit.trajectory`` now
# holds once: the W99 rollout's held lane (1e-12 s tolerance), resample's
# lane lookup (1e-9 of the target step), synth's nearest lane and in-lane
# offset, and resample's guard against averaging across a lane switch.
# Test-only; held_lane, LaneLayout.split and _interp_with_rereference must
# match them.

def ref_wiedemann_held_lane(traj, t):
    """Recorded lane of ``traj`` held from each sample to the next, at times ``t``."""
    i = np.searchsorted(traj.t, t + 1e-12, side="right") - 1
    return traj.lane[np.clip(i, 0, len(traj.lane) - 1)]


def ref_resample_lane(traj, t_new, target_rate):
    dt = 1.0 / target_rate
    eps = 1e-9 * dt
    # integer lane: hold previous sample
    idx = np.searchsorted(traj.t, t_new + eps, side="right") - 1
    idx = np.clip(idx, 0, len(traj.t) - 1)
    return traj.lane[idx]


def ref_synth_split(y, layout):
    w = layout.lane_width
    lane = np.clip(np.rint(y / w), 0, layout.lane_count - 1).astype(int)
    lat = y - w * lane
    return lane, lat


def ref_interp_with_rereference(t_new, t_old, values, lane_old):
    out = np.interp(t_new, t_old, values)
    switches = np.nonzero(np.diff(lane_old) != 0)[0]
    for i in switches:
        mask = (t_new > t_old[i]) & (t_new < t_old[i + 1])
        if not np.any(mask):
            continue
        mid = 0.5 * (t_old[i] + t_old[i + 1])
        out[mask] = np.where(t_new[mask] <= mid, values[i], values[i + 1])
    return out

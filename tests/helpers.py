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

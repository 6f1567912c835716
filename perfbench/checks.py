"""Output checks, computed apart from the program.

Each check reads the files an operation wrote and tests them against the
generator's true maneuvers, against the benchmark's own numpy
recomputation from the input CSVs, or against properties the method must
have.  None compares against a stored copy of an earlier output.  A check
returns ``None`` when the output is correct and a one-line reason when it
is not.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

LANE_WIDTH = 3.5  # [m]
SPEED_LIMIT = 120.0 / 3.6  # [m/s]
V_EGO_MIN = 0.1  # [m/s] below this, headway is undefined
W99_A_MIN, W99_A_MAX = -8.0, 3.5 + 1.5  # [m/s^2] clamp [-8, cc8 + cc9]
MATCH_SHARE = 0.95

# the paper's thresholds: critical below for d, thw, dce, ttce; above otherwise
BELOW = {"d": 1.0, "thw": 0.9, "dce": 1.0, "ttce": 2.6}
ABOVE = {"v": 1.3 * SPEED_LIMIT, "a_lon": 8.0, "a_lat": 8.0}


def read_csv(path: str | Path) -> list[dict[str, str]]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


def _digits_agree(a: float, b: float) -> bool:
    """Equal to the 9 significant digits the CSVs carry (nan equals nan)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    scale = max(abs(a), abs(b))
    if scale < 1e-12:
        return True
    return abs(a - b) <= 1.01 * 10.0 ** (math.floor(math.log10(scale)) - 8)


class Track:
    """One vehicle's channels as read from a trajectory CSV."""

    def __init__(self, rows: list[list[float]], length: float, width: float, vclass: str):
        arr = np.array(rows)
        self.t, self.s, self.v = arr[:, 0], arr[:, 1], arr[:, 4]
        self.lane = arr[:, 2].astype(int)
        self.lat = arr[:, 3]
        self.a_lon, self.a_lat = arr[:, 5], arr[:, 6]
        self.y = self.lane * LANE_WIDTH + self.lat
        self.length, self.width, self.vclass = length, width, vclass


def read_tracks(traj_csv: str | Path, vehicles_csv: str | Path) -> dict[str, Track]:
    shapes = {r["vehicle_id"]: r for r in read_csv(vehicles_csv)}
    per: dict[str, list[list[float]]] = {}
    with Path(traj_csv).open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            per.setdefault(row[0], []).append([float(x) for x in row[1:8]])
    return {vid: Track(rows, float(shapes[vid]["length"]), float(shapes[vid]["width"]),
                       shapes[vid]["class"])
            for vid, rows in per.items()}


# --------------------------------------------------------------------------
# detection

def _matched(truth: list[dict], found: list[dict], tol) -> int:
    """Greedy one-to-one matches of same vehicle and direction within tol."""
    free = list(found)
    hits = 0
    for tr in truth:
        t_mid = float(tr["t_mid"])
        best = None
        for ev in free:
            if ev["vehicle_id"] != tr["vehicle_id"] or ev["direction"] != tr["direction"]:
                continue
            gap = abs(float(ev["t_mid"]) - t_mid)
            if gap <= tol(tr) and (best is None or gap < best[0]):
                best = (gap, ev)
        if best is not None:
            free.remove(best[1])
            hits += 1
    return hits


def check_detect(events_csv: str | Path, truth_csv: str | Path, markings: bool,
                 rate: float, skip: set[str] = frozenset()) -> str | None:
    """Gradient events match every true maneuver within one sample; peak and
    distance events match at least 95 % of the truth and vice versa."""
    events = [e for e in read_csv(events_csv) if e["vehicle_id"] not in skip]
    truth = read_csv(truth_csv)
    by = {c: [e for e in events if e["criterion"] == c]
          for c in ("gradient", "peak", "distance")}
    grad = by["gradient"]
    if markings:
        hits = _matched(truth, grad, lambda tr: 1.0 / rate + 1e-9)
        if hits != len(truth) or len(grad) != len(truth):
            return f"gradient: {hits} of {len(truth)} maneuvers matched, {len(grad)} events"
    elif grad:
        return f"{len(grad)} gradient events on a file without markings"
    for crit in ("peak", "distance"):
        found = by[crit]
        hits = _matched(truth, found, lambda tr: 0.5 * float(tr["duration"]))
        if hits < MATCH_SHARE * len(truth) or hits < MATCH_SHARE * len(found):
            return f"{crit}: {hits} matches, {len(truth)} true, {len(found)} found"
    return None


# --------------------------------------------------------------------------
# criticality

def _pair_minima(ego: Track, opp: Track, mask: np.ndarray) -> tuple[float, float]:
    """min d and min THW of ego vs one opponent over the ego grid in the window."""
    t = ego.t[mask]
    inside = (t >= opp.t[0]) & (t <= opp.t[-1])
    if not np.any(inside):
        return math.nan, math.nan
    tt = t[inside]
    e_s, e_y, e_v = ego.s[mask][inside], ego.y[mask][inside], ego.v[mask][inside]
    o_s = np.interp(tt, opp.t, opp.s)
    o_y = np.interp(tt, opp.t, opp.y)
    half_len = 0.5 * (ego.length + opp.length)
    half_wid = 0.5 * (ego.width + opp.width)
    gap_s = np.maximum(np.abs(o_s - e_s) - half_len, 0.0)
    gap_y = np.maximum(np.abs(o_y - e_y) - half_wid, 0.0)
    d = float(np.min(np.hypot(gap_s, gap_y)))
    ok = (o_s > e_s) & (e_v >= V_EGO_MIN) & (np.abs(o_y - e_y) < half_wid)
    if not np.any(ok):
        return d, math.nan
    thw = np.maximum(o_s[ok] - e_s[ok] - half_len, 0.0) / e_v[ok]
    return d, float(np.min(thw))


def _nanmin(values: list[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return min(finite) if finite else math.nan


def check_criticality(records_csv: str | Path, events_csv: str | Path,
                      tracks: dict[str, Track]) -> str | None:
    """Recompute min_d, max_v, max_a_lon, max_a_lat and min_thw over the
    opponents of the same file; every flag must match its threshold."""
    events = [e for e in read_csv(events_csv) if e["kind"] == "single"]
    records = read_csv(records_csv)
    if len(records) != len(events):
        return f"{len(records)} records for {len(events)} single events"
    for ev, rec in zip(events, records):
        if (rec["vehicle_id"], rec["t_start"], rec["t_end"]) != \
                (ev["vehicle_id"], ev["t_start"], ev["t_end"]):
            return f"record {rec['vehicle_id']} {rec['t_start']} out of order"
        ego = tracks[ev["vehicle_id"]]
        mask = (ego.t >= float(ev["t_start"])) & (ego.t <= float(ev["t_end"]))
        pairs = [_pair_minima(ego, opp, mask)
                 for vid, opp in tracks.items() if vid != ev["vehicle_id"]]
        expect = {
            "min_d": _nanmin([p[0] for p in pairs]),
            "min_thw": _nanmin([p[1] for p in pairs]),
            "max_v": float(np.max(ego.v[mask])),
            "max_a_lon": float(np.max(np.abs(ego.a_lon[mask]))),
            "max_a_lat": float(np.max(np.abs(ego.a_lat[mask]))),
        }
        for key, want in expect.items():
            got = _num(rec[key])
            if not _digits_agree(got, want):
                return f"{rec['vehicle_id']} @ {rec['t_start']}: {key} {got!r} != {want!r}"
        for metric in ("d", "v", "a_lon", "a_lat", "thw", "dce", "ttce"):
            column = ("max_" if metric in ABOVE else "min_") + metric
            value = _num(rec[column])
            if math.isnan(value):
                want = False
            elif metric in ABOVE:
                want = value > ABOVE[metric]
            else:
                want = value < BELOW[metric]
            if rec[f"flag_{metric}"] != str(int(want)):
                return f"{rec['vehicle_id']} @ {rec['t_start']}: flag_{metric} wrong"
    return None


# --------------------------------------------------------------------------
# stats

def check_stats(stats_json: str | Path, events_csv: str | Path,
                tracks: dict[str, Track]) -> str | None:
    """Box summaries per class and direction recomputed from the events."""
    groups: dict[str, list[dict]] = {}
    for e in read_csv(events_csv):
        if e["kind"] != "single":
            continue
        cls = tracks[e["vehicle_id"]].vclass
        for g in ("all", cls, e["direction"], f"{cls}/{e['direction']}"):
            groups.setdefault(g, []).append(e)
    written = json.loads(Path(stats_json).read_text())["groups"]
    if sorted(written) != sorted(groups):
        return f"groups {sorted(written)} != {sorted(groups)}"
    for g, evs in groups.items():
        for field, column in (("duration", "duration"), ("speed", "v_mid")):
            values = np.array([float(e[column]) for e in evs])
            box = written[g][field]
            q25, med, q75 = np.percentile(values, [25.0, 50.0, 75.0])
            want = {"n": len(values), "q25": q25, "median": med, "q75": q75,
                    "mean": float(np.mean(values))}
            for key, w in want.items():
                if not math.isclose(box[key], w, rel_tol=1e-9, abs_tol=1e-12):
                    return f"{g}/{field}: {key} {box[key]!r} != {w!r}"
    return None


# --------------------------------------------------------------------------
# robustness

def check_robustness(robustness_csv: str | Path, truth_csv: str | Path) -> str | None:
    """Zero perturbation finds the truth; peak counts ignore bias; a 1.5 m
    bias costs the distance criterion at least 10 % of the truth."""
    truth = len(read_csv(truth_csv))
    points = read_csv(robustness_csv)
    if not points:
        return "no grid points"
    for p in points:
        if int(p["truth"]) != truth:
            return f"truth column {p['truth']} != {truth}"
        if float(p["magnitude"]) == 0.0 and int(p["detected"]) != truth:
            return f"{p['criterion']}/{p['kind']} at 0: {p['detected']} != {truth}"
    peak_bias = {p["detected"] for p in points
                 if p["criterion"] == "peak" and p["kind"] == "bias"}
    if len(peak_bias) != 1:
        return f"peak counts vary with bias: {sorted(peak_bias)}"
    far = [int(p["detected"]) for p in points if p["criterion"] == "distance"
           and p["kind"] == "bias" and float(p["magnitude"]) == 1.5]
    if len(far) != 1 or far[0] > 0.9 * truth:
        return f"distance count at 1.5 m bias {far} not 10 % below {truth}"
    return None


# --------------------------------------------------------------------------
# wiedemann

def _simulated(path: Path) -> dict[str, np.ndarray]:
    rows = read_csv(path)
    return {k: np.array([float(r[k]) for r in rows])
            for k in ("t", "s", "lane", "lat", "v", "a_lon")}


def _half_unit(x: np.ndarray) -> np.ndarray:
    """Half a unit in the 9th significant digit: the CSV's rounding error."""
    mag = np.abs(x)
    exp = np.floor(np.log10(np.where(mag > 0.0, mag, 1.0)))
    return np.where(mag > 0.0, 0.5 * 10.0 ** (exp - 8), 0.0)


def _euler_holds(nxt: np.ndarray, cur: np.ndarray, rate: np.ndarray, dt: float) -> bool:
    """nxt == cur + rate * dt up to the rounding of the three CSV values."""
    tol = _half_unit(nxt) + _half_unit(cur) + _half_unit(rate) * dt
    return bool(np.all(np.abs(nxt - (cur + rate * dt)) <= 1.01 * tol + 1e-12))


def check_sample(out: str | Path, cc1_values: list[float], tracks: dict[str, Track],
                 substituted: str, slow_leader: str | None) -> str | None:
    """Forward-Euler update and clamp of each rollout; THW traces equal the
    benchmark's own gap/speed computation; on the overtake scene the
    minimum THW to the slow leader never rises as cc1 falls."""
    out = Path(out)
    ego = tracks[substituted]
    opponents = {vid: tr for vid, tr in tracks.items() if vid != substituted}
    expected: list[tuple[str, str, tuple[np.ndarray, np.ndarray]]] = []
    grid = None
    for cc1 in cc1_values:
        sim = _simulated(out / f"simulated_cc1_{cc1:g}.csv")
        dt = float(f"{np.median(np.diff(sim['t'])):.6g}")
        s, v, a = sim["s"], sim["v"], sim["a_lon"]
        if not _euler_holds(s[1:], s[:-1], v[:-1], dt):
            return f"cc1 {cc1:g}: position is not a forward-Euler update"
        # the speed update is clamped at zero
        moving = v[1:] > 0.0
        if not _euler_holds(v[1:][moving], v[:-1][moving], a[:-1][moving], dt) or \
                np.any(v[:-1][~moving] + a[:-1][~moving] * dt > _half_unit(v[:-1][~moving])):
            return f"cc1 {cc1:g}: speed is not a clamped forward-Euler update"
        if np.any(a < W99_A_MIN) or np.any(a > W99_A_MAX):
            return f"cc1 {cc1:g}: acceleration outside [{W99_A_MIN}, {W99_A_MAX}]"
        if grid is None:
            grid = sim["t"]
        e_y = sim["lane"] * LANE_WIDTH + sim["lat"]
        for vid in sorted(opponents):
            expected.append((f"{cc1:.9g}", vid,
                             _thw_trace(grid, s, e_y, v, ego, opponents[vid])))

    rows = read_csv(out / "thw_traces.csv")
    n = len(grid)
    if len(rows) != n * len(expected):
        return f"{len(rows)} THW rows, expected {n * len(expected)}"
    minima: dict[str, float] = {}
    for j, (cc1, vid, (want, ambiguous)) in enumerate(expected):
        block = rows[j * n:(j + 1) * n]
        if any(r["cc1"] != cc1 or r["opponent_id"] != vid for r in block):
            return f"THW rows for cc1 {cc1} / {vid} out of order"
        got = np.array([_num(r["thw"]) for r in block])
        both = ~np.isnan(got) & ~np.isnan(want)
        if np.any((np.isnan(got) != np.isnan(want)) & ~ambiguous):
            return f"cc1 {cc1} / {vid}: THW defined at other steps"
        if np.any(np.abs(got[both] - want[both]) > 1e-5 + 1e-6 * np.abs(want[both])):
            return f"cc1 {cc1} / {vid}: THW differs from gap / speed"
        if vid == slow_leader:
            minima[cc1] = float(np.nanmin(got)) if np.any(~np.isnan(got)) else math.nan
    if slow_leader is not None:
        ordered = [minima[f"{c:.9g}"] for c in sorted(cc1_values, reverse=True)]
        if any(math.isnan(x) for x in ordered) or \
                any(b > a + 1e-9 for a, b in zip(ordered, ordered[1:])):
            return f"min THW to {slow_leader} rises as cc1 falls: {ordered}"
    return None


def _thw_trace(t: np.ndarray, e_s: np.ndarray, e_y: np.ndarray, e_v: np.ndarray,
               ego: Track, opp: Track) -> tuple[np.ndarray, np.ndarray]:
    """THW per step and a mask of steps within rounding of a definition edge."""
    want = np.full(len(t), np.nan)
    inside = (t >= opp.t[0]) & (t <= opp.t[-1])
    o_s = np.interp(t, opp.t, opp.s)
    o_y = np.interp(t, opp.t, opp.y)
    half_len = 0.5 * (ego.length + opp.length)
    half_wid = 0.5 * (ego.width + opp.width)
    lateral = np.abs(o_y - e_y)
    ok = inside & (o_s > e_s) & (e_v >= V_EGO_MIN) & (lateral < half_wid)
    want[ok] = np.maximum(o_s[ok] - e_s[ok] - half_len, 0.0) / e_v[ok]
    ambiguous = (np.abs(t - opp.t[0]) < 1e-6) | (np.abs(t - opp.t[-1]) < 1e-6) | (
        inside & ((np.abs(o_s - e_s) < 1e-4) | (np.abs(e_v - V_EGO_MIN) < 1e-6)
                  | (np.abs(lateral - half_wid) < 1e-6)))
    return want, ambiguous


# --------------------------------------------------------------------------
# margin increase system

def check_mis(report_json: str | Path, mis_on: bool, front_brake: float | None) -> str | None:
    """With the controller on the fixture engages and keeps the rear gap; it
    does not brake in the overtake window unless the front vehicle brakes.
    With it off, a front vehicle braking at 4 m/s^2 violates the rear gap."""
    rep = json.loads(Path(report_json).read_text())
    trace = rep["trace"]
    if len({len(trace[k]) for k in ("t", "a_ego", "thw_front", "rear_gap", "mode")}) != 1:
        return "trace channels differ in length"
    if rep["engaged"] != mis_on:
        return f"engaged={rep['engaged']} with the controller {'on' if mis_on else 'off'}"
    if mis_on:
        if rep["collision"] or rep["rear_gap_violation"]:
            return "rear gap violated with the controller on"
        if front_brake is None and rep["braked_during_window"]:
            return "controller braked in the overtake window"
    elif rep["rear_gap_violation"] != (front_brake is not None):
        return (f"rear_gap_violation={rep['rear_gap_violation']} with front braking "
                f"{front_brake}")
    return None

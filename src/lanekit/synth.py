"""Synthetic highway corpus with known lane-change ground truth.

Each trajectory is a constant-ish speed run in a multi-lane layout with
zero to three logistic lateral transitions of one lane width, embedded in
lane keeping with band-limited in-lane jitter.  The generator returns the
true events alongside the trajectories, which makes the corpus usable as
ground truth for detection-robustness sweeps and accuracy checks.

Durations are drawn from [3, 10] s and speeds from [22, 42] m/s, spanning
typical highway lane-change statistics.  The logistic steepness is chosen
so the generator's nominal duration matches the peak-criterion width
measurement on a clean signal.  All channels are quantized to 9
significant digits, the precision of the CSV serialization, so emitted
corpora round-trip bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .detection import Direction, LaneChangeEvent
from .trajectory import LaneLayout, Trajectory, VehicleClass, VehicleShape, fmt
from .wiedemann import ScenarioSpec, W99Params

__all__ = ["SyntheticCorpus", "generate_corpus", "logistic_transition",
           "overtake_scenario"]

RATE = 5.0  # [Hz]
STEEPNESS_SCALE = 4.7  # logistic k = scale / duration, see module docstring
EVENT_SPACING = 15.0  # [s] minimum gap between maneuver midpoints
EDGE_MARGIN = 9.0  # [s] keep maneuvers fully recorded
N_RECORDINGS = 8
DEFAULT_N = 200  # trajectories in a corpus
DEFAULT_TRUCK_FRACTION = 0.2  # probability that a vehicle is a truck


@dataclass(frozen=True)
class SyntheticCorpus:
    trajectories: tuple[Trajectory, ...]
    truth_events: tuple[LaneChangeEvent, ...]
    layout: LaneLayout


def logistic_transition(t: np.ndarray, t_mid: float, duration: float,
                        amplitude: float) -> np.ndarray:
    """Smooth lateral transition of ``amplitude`` centered at ``t_mid``."""
    k = STEEPNESS_SCALE / duration
    return amplitude / (1.0 + np.exp(-k * (t - t_mid)))


def _quantize9(arr: np.ndarray) -> np.ndarray:
    """``arr`` as the trajectory CSV writes and reads it back."""
    return np.array([float(fmt(x)) for x in arr.tolist()])


def _draw_events(rng: np.random.Generator, record_len: float, lane0: int,
                 lane_count: int) -> list[tuple[float, float, int]]:
    """(t_mid, duration, direction step) with valid lanes and spacing."""
    n_events = int(rng.choice([0, 1, 2, 3], p=[0.25, 0.40, 0.25, 0.10]))
    lo, hi = EDGE_MARGIN, record_len - EDGE_MARGIN
    if hi <= lo:
        return []
    events: list[tuple[float, float, int]] = []
    lane = lane0
    t_prev = lo - EVENT_SPACING
    for _ in range(n_events):
        t_lo = max(lo, t_prev + EVENT_SPACING)
        if t_lo >= hi:
            break
        t_mid = float(rng.uniform(t_lo, hi))
        duration = float(rng.uniform(3.0, 10.0))
        allowed = []
        if lane + 1 < lane_count:
            allowed.append(1)
        if lane - 1 >= 0:
            allowed.append(-1)
        if not allowed:
            break
        step = int(rng.choice(allowed))
        events.append((t_mid, duration, step))
        lane += step
        t_prev = t_mid
    events.sort(key=lambda e: e[0])
    return events


def _jitter(rng: np.random.Generator, t: np.ndarray) -> np.ndarray:
    """Band-limited in-lane wander, small enough not to mimic a maneuver."""
    total = rng.uniform(0.02, 0.05)  # [m]
    weights = rng.random(3)
    amps = total * weights / weights.sum()
    freqs = rng.uniform(0.05, 0.22, 3)  # [Hz]
    phases = rng.uniform(0.0, 2.0 * math.pi, 3)
    out = np.zeros_like(t)
    for a, f, ph in zip(amps, freqs, phases):
        out += a * np.sin(2.0 * math.pi * f * t + ph)
    return out


def generate_corpus(n: int = DEFAULT_N, seed: int = 0,
                    layout: LaneLayout | None = None,
                    truck_fraction: float = DEFAULT_TRUCK_FRACTION) -> SyntheticCorpus:
    """Deterministic corpus of ``n`` trajectories with ground-truth events."""
    layout = layout or LaneLayout()
    w = layout.lane_width
    trajectories: list[Trajectory] = []
    truth: list[LaneChangeEvent] = []

    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        rec = i % N_RECORDINGS
        vid = f"r{rec:02d}v{i:04d}"

        truck = rng.random() < truck_fraction
        if truck:
            shape = VehicleShape(length=float(rng.uniform(10.0, 16.0)),
                                 width=float(rng.uniform(2.4, 2.55)),
                                 vclass=VehicleClass.TRUCK)
            v_base = float(rng.uniform(22.0, 28.0))
        else:
            shape = VehicleShape(length=float(rng.uniform(4.2, 5.2)),
                                 width=float(rng.uniform(1.8, 2.1)),
                                 vclass=VehicleClass.CAR)
            v_base = float(rng.uniform(25.0, 42.0))

        record_len = float(rng.uniform(60.0, 120.0))
        t = np.arange(0.0, record_len, 1.0 / RATE)
        lane0 = int(rng.integers(0, layout.lane_count))

        events = _draw_events(rng, record_len, lane0, layout.lane_count)
        y = np.full_like(t, layout.center(lane0))
        for t_mid, duration, step in events:
            y = y + logistic_transition(t, t_mid, duration, step * w)
        y = y + _jitter(rng, t)

        # gentle speed variation so the acceleration channels are nonzero
        v = v_base + 0.4 * np.sin(2.0 * math.pi * 0.02 * t + rng.uniform(0, 2 * math.pi))
        s0 = float(rng.uniform(0.0, 5000.0))
        s = s0 + np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) / RATE)])
        a_lon = np.gradient(v, 1.0 / RATE)
        a_lat = np.gradient(np.gradient(y, 1.0 / RATE), 1.0 / RATE)

        lane, lat = layout.split(y)
        d_left = w / 2.0 - lat - shape.width / 2.0
        d_right = w / 2.0 + lat - shape.width / 2.0

        trajectories.append(Trajectory(
            vehicle_id=vid,
            shape=shape,
            t=_quantize9(t),
            s=_quantize9(s),
            lane=lane,
            lat=_quantize9(lat),
            v=_quantize9(v),
            a_lon=_quantize9(a_lon),
            a_lat=_quantize9(a_lat),
            rate=RATE,
            d_left=_quantize9(d_left),
            d_right=_quantize9(d_right),
        ))

        for t_mid, duration, step in events:
            truth.append(LaneChangeEvent(
                vehicle_id=vid,
                t_start=t_mid - duration / 2.0,
                t_mid=t_mid,
                t_end=t_mid + duration / 2.0,
                duration=duration,
                direction=Direction.LEFT if step > 0 else Direction.RIGHT,
                v_mid=float(np.interp(t_mid, t, v)),
                lateral_extent=w,
                criterion="truth",
            ))

    return SyntheticCorpus(tuple(trajectories), tuple(truth), layout)


def _plain_trajectory(vid: str, shape: VehicleShape, t: np.ndarray,
                      s0: float, v: float, lane_seq: np.ndarray,
                      lat: np.ndarray, layout: LaneLayout) -> Trajectory:
    n = len(t)
    return Trajectory(
        vehicle_id=vid,
        shape=shape,
        t=t,
        s=s0 + v * t,
        lane=lane_seq,
        lat=lat,
        v=np.full(n, v),
        a_lon=np.zeros(n),
        a_lat=np.zeros(n),
        rate=1.0 / float(t[1] - t[0]),
    )


def overtake_scenario() -> ScenarioSpec:
    """Canonical substitution scenario: the ego is overtaken by a fast
    vehicle in the left lane, then changes left itself and overtakes a slow
    one.

    The ego's recorded lane sequence (change at 45 s) is kept; its
    longitudinal motion is handed to the car-following model.  Lowering
    cc1 tightens the ego's headway to the slow leader while the headway to
    the faster overtaker is nearly unaffected.
    """
    layout = LaneLayout()
    w = layout.lane_width
    t = np.arange(0.0, 60.0 + 1e-9, 0.2)
    car = VehicleShape()

    t_change, t_lc = 45.0, 4.0
    y_ego = w * logistic_transition(t, t_change, t_lc, 1.0)
    lane_ego, lat_ego = layout.split(y_ego)
    ego = Trajectory(
        vehicle_id="ego", shape=car, t=t,
        s=0.0 + 33.0 * t,
        lane=lane_ego, lat=lat_ego,
        v=np.full(len(t), 33.0), a_lon=np.zeros(len(t)),
        a_lat=np.gradient(np.gradient(y_ego, 0.2), 0.2), rate=5.0,
    )
    n = len(t)
    opp1 = _plain_trajectory("opp1", car, t, 120.0, 24.0,
                             np.zeros(n, int), np.zeros(n), layout)
    opp2 = _plain_trajectory("opp2", car, t, -150.0, 40.0,
                             np.ones(n, int), np.zeros(n), layout)
    return ScenarioSpec(trajectories=(ego, opp1, opp2), substituted_id="ego",
                        model=W99Params(v_desired=33.0), layout=layout, duration=60.0)

"""Seeded input generator of the benchmark.

It writes highD-style per-recording files in lanekit's CSV schemas and
keeps the true maneuvers beside them, so detection can be checked against
something the program did not compute.  It uses numpy only and never
imports lanekit: a later change to the program's own synthetic corpus must
not change what two commits are measured on.

Every recording of ``VEHICLES_PER_RECORDING`` vehicles draws its maneuver
counts and vehicle classes from the fixed multisets below, so the work a
pass does varies little with the seed; the seed moves times, speeds,
shapes, lanes and positions.

The lateral position is built as one continuous signal
``y = lane0 * w + sum(logistic transitions) + jitter`` and evaluated
directly at the file's native rate; ``lane`` and ``lat`` are then derived
from it.  A 25 Hz file is therefore never made by upsampling a 5 Hz one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LANE_COUNT = 3
LANE_WIDTH = 3.5  # [m]

TRAJECTORY_HEADER = "vehicle_id,t,s,lane,lat,v,a_lon,a_lat,d_left,d_right"
VEHICLE_HEADER = "vehicle_id,class,length,width"
EVENT_HEADER = ("vehicle_id,criterion,t_start,t_mid,t_end,duration,direction,"
                "v_mid,lateral_extent,kind")

VEHICLES_PER_RECORDING = 25
TRUCKS_PER_RECORDING = 5
# maneuvers per vehicle, permuted by the seed, and the time [s] each
# vehicle is in view: in-car recordings follow a vehicle for longer than
# a drone's 420 m field of view shows it
IN_CAR = ((0,) * 8 + (1,) * 12 + (2,) * 5, (32.0, 44.0))
AERIAL = ((0,) * 10 + (1,) * 15, (18.0, 26.0))
EDGE_START = 7.0  # [s] first maneuver midpoint after track start
EDGE_END = 9.0  # [s] last maneuver midpoint before track end
SPACING = 14.0  # [s] minimum gap between maneuver midpoints of a vehicle
DURATION = (4.0, 8.0)  # [s] lane-change duration
STEEPNESS_SCALE = 4.7  # logistic k = scale / duration


@dataclass
class Vehicle:
    vid: str
    vclass: str
    length: float
    width: float
    t: np.ndarray
    s: np.ndarray
    lane: np.ndarray
    lat: np.ndarray
    v: np.ndarray
    a_lon: np.ndarray
    a_lat: np.ndarray
    markings: bool


@dataclass(frozen=True)
class Maneuver:
    vid: str
    t_mid: float
    duration: float
    step: int  # +1 left, -1 right
    v_mid: float


def _maneuver_times(rng: np.random.Generator, count: int, length: float) -> list[float]:
    lo, hi = EDGE_START, length - EDGE_END
    slack = hi - lo - SPACING * (count - 1)
    if slack < 0.0:
        raise ValueError("track too short for its maneuvers")
    cuts = np.sort(rng.uniform(0.0, slack, count))
    return [lo + float(c) + SPACING * i for i, c in enumerate(cuts)]


def _vehicle(rng: np.random.Generator, vid: str, truck: bool, n_maneuvers: int,
             rate: float, t_enter: float, markings: bool,
             track: float) -> tuple[Vehicle, list[Maneuver]]:
    if truck:
        vclass, length, width = "truck", rng.uniform(10.0, 16.0), rng.uniform(2.4, 2.55)
        v_base = rng.uniform(22.0, 27.0)
    else:
        vclass, length, width = "car", rng.uniform(4.2, 5.2), rng.uniform(1.8, 2.1)
        v_base = rng.uniform(25.0, 38.0)
    k_enter = int(round(t_enter * rate))
    n = int(track * rate)
    t = (k_enter + np.arange(n)) / rate
    tau = t - t[0]

    lane = int(rng.integers(0, LANE_COUNT))
    y = np.full(n, lane * LANE_WIDTH)
    maneuvers = []
    v = v_base + 0.4 * np.sin(2.0 * math.pi * 0.02 * tau + rng.uniform(0.0, 2.0 * math.pi))
    for t_mid in _maneuver_times(rng, n_maneuvers, float(tau[-1])):
        steps = [d for d in (1, -1) if 0 <= lane + d < LANE_COUNT]
        step = int(rng.choice(steps))
        duration = float(rng.uniform(*DURATION))
        k = STEEPNESS_SCALE / duration
        y += step * LANE_WIDTH / (1.0 + np.exp(-k * (tau - t_mid)))
        lane += step
        t_abs = float(t[0]) + t_mid
        maneuvers.append(Maneuver(vid, t_abs, duration, step,
                                  float(np.interp(t_abs, t, v))))
    # band-limited in-lane wander, too slow and small to look like a maneuver
    amps = rng.uniform(0.02, 0.04) * rng.dirichlet(np.ones(3))
    for a, f, ph in zip(amps, rng.uniform(0.05, 0.22, 3), rng.uniform(0.0, 2.0 * math.pi, 3)):
        y += a * np.sin(2.0 * math.pi * f * tau + ph)

    dt = 1.0 / rate
    s = rng.uniform(0.0, 30.0) + np.concatenate(
        [[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dt)])
    lane_idx = np.clip(np.rint(y / LANE_WIDTH), 0, LANE_COUNT - 1).astype(int)
    return Vehicle(
        vid=vid, vclass=vclass, length=float(length), width=float(width),
        t=t, s=s, lane=lane_idx, lat=y - LANE_WIDTH * lane_idx, v=v,
        a_lon=np.gradient(v, dt), a_lat=np.gradient(np.gradient(y, dt), dt),
        markings=markings,
    ), maneuvers


def recording(rng: np.random.Generator, prefix: str, rate: float, markings: bool,
              span: float, n_blocks: int = 1) -> tuple[list[Vehicle], list[Maneuver]]:
    """``n_blocks`` x 25 vehicles entering the road at random times in
    ``[0, span)`` seconds; in-car style with ``markings``, else aerial."""
    maneuver_counts, track = IN_CAR if markings else AERIAL
    counts = np.concatenate([rng.permutation(maneuver_counts) for _ in range(n_blocks)])
    trucks = np.concatenate([
        rng.permutation([True] * TRUCKS_PER_RECORDING
                        + [False] * (VEHICLES_PER_RECORDING - TRUCKS_PER_RECORDING))
        for _ in range(n_blocks)])
    enters = np.sort(rng.uniform(0.0, span, len(counts)))
    vehicles, maneuvers = [], []
    for i, (count, truck, t_enter) in enumerate(zip(counts, trucks, enters)):
        veh, man = _vehicle(rng, f"{prefix}v{i + 1:04d}", bool(truck), int(count),
                            rate, float(t_enter), markings, rng.uniform(*track))
        vehicles.append(veh)
        maneuvers.extend(man)
    return vehicles, maneuvers


def substituted_vehicle(rng: np.random.Generator, vid: str, rate: float,
                        track: float) -> tuple[Vehicle, list[Maneuver]]:
    """A car in view from t = 0 for ``track`` seconds with one lane change."""
    return _vehicle(rng, vid, False, 1, rate, 0.0, True, track)


def short_track(rng: np.random.Generator, vid: str, rate: float, seconds: float,
                t_enter: float) -> Vehicle:
    """A vehicle seen for only ``seconds``, as at the edge of a drone's view."""
    veh, _ = _vehicle(rng, vid, False, 0, rate, t_enter, False, AERIAL[1][0])
    n = int(round(seconds * rate))
    for name in ("t", "s", "lane", "lat", "v", "a_lon", "a_lat"):
        setattr(veh, name, getattr(veh, name)[:n])
    return veh


# --------------------------------------------------------------------------
# CSV writers in lanekit's schemas, 9 significant digits

def write_trajectories(path: Path, vehicles: list[Vehicle]) -> None:
    with path.open("w") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for veh in vehicles:
            if veh.markings:
                half = 0.5 * (LANE_WIDTH - veh.width)
                tail = np.stack([half - veh.lat, half + veh.lat], axis=1)
                line = veh.vid + ",%.9g,%.9g,%d,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n"
            else:
                tail = np.empty((len(veh.t), 0))
                line = veh.vid + ",%.9g,%.9g,%d,%.9g,%.9g,%.9g,%.9g,,\n"
            cols = np.column_stack([veh.t, veh.s, veh.lane, veh.lat, veh.v,
                                    veh.a_lon, veh.a_lat, tail])
            fh.write("".join(line % tuple(r) for r in cols.tolist()))


def write_vehicles(path: Path, vehicles: list[Vehicle]) -> None:
    with path.open("w") as fh:
        fh.write(VEHICLE_HEADER + "\n")
        for veh in vehicles:
            fh.write(f"{veh.vid},{veh.vclass},{veh.length:.9g},{veh.width:.9g}\n")


def write_truth(path: Path, maneuvers: list[Maneuver]) -> None:
    """True maneuvers in lanekit's events schema (criterion ``truth``)."""
    with path.open("w") as fh:
        fh.write(EVENT_HEADER + "\n")
        for m in maneuvers:
            half = 0.5 * m.duration
            direction = "left" if m.step > 0 else "right"
            fh.write(f"{m.vid},truth,{m.t_mid - half:.9g},{m.t_mid:.9g},"
                     f"{m.t_mid + half:.9g},{m.duration:.9g},{direction},"
                     f"{m.v_mid:.9g},{LANE_WIDTH:.9g},single\n")


def write_recording(directory: Path, name: str, vehicles: list[Vehicle],
                    maneuvers: list[Maneuver], rate: float) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    traj = directory / f"{name}_trajectories.csv"
    veh = directory / f"{name}_vehicles.csv"
    truth = directory / f"{name}_truth.csv"
    write_trajectories(traj, vehicles)
    write_vehicles(veh, vehicles)
    write_truth(truth, maneuvers)
    return {"name": name, "traj": str(traj), "vehicles": str(veh), "truth": str(truth),
            "rate": rate, "markings": all(v.markings for v in vehicles),
            "n_vehicles": len(vehicles)}


# --------------------------------------------------------------------------
# the canonical overtake scene: fixed, not drawn from the seed

def overtake_scene() -> list[Vehicle]:
    """The ego changes left at 45 s behind a slow leader while a fast
    vehicle overtakes in the left lane; 60 s at 5 Hz."""
    rate = 5.0
    t = np.arange(0.0, 60.0 + 1e-9, 1.0 / rate)
    n = len(t)
    w = LANE_WIDTH
    y_ego = w / (1.0 + np.exp(-(STEEPNESS_SCALE / 4.0) * (t - 45.0)))
    lane_ego = np.clip(np.rint(y_ego / w), 0, LANE_COUNT - 1).astype(int)

    def plain(vid: str, s0: float, v: float, lane: int) -> Vehicle:
        return Vehicle(vid, "car", 4.8, 2.0, t, s0 + v * t, np.full(n, lane),
                       np.zeros(n), np.full(n, v), np.zeros(n), np.zeros(n), False)

    ego = Vehicle("ego", "car", 4.8, 2.0, t, 33.0 * t, lane_ego, y_ego - w * lane_ego,
                  np.full(n, 33.0), np.zeros(n),
                  np.gradient(np.gradient(y_ego, 1.0 / rate), 1.0 / rate), False)
    return [ego, plain("slow", 120.0, 24.0, 0), plain("fast", -150.0, 40.0, 1)]

"""Measurement-perturbation injection and detection-robustness sweeps.

Two perturbation families model position-determination errors: a constant
lateral bias (the per-vehicle offset aerial perspective effects produce)
and Brownian noise (a drifting random walk).  The sweep harness applies a
perturbation grid to a corpus with known ground truth and compares the
number of detections per criterion against the true count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection import (  # noqa: F401 - detect_*: perfbench/tracer.py wraps them here
    DEFAULT_DISTANCE_THRESHOLD,
    DEFAULT_SETTLE_DWELL,
    DEFAULT_SETTLE_RATE,
    PeakParams,
    detect_distance,
    detect_peak,
    displacement,
    distance_events,
    peak_events,
    rel_height_from_widths,
    settle_mask,
)
from .synth import SyntheticCorpus
from .trajectory import (  # noqa: F401 - lowpass, continuous_lateral: as detect_* above
    DEFAULT_CUTOFF,
    InsufficientSamplesError,
    LaneLayout,
    LaneRangeError,
    Trajectory,
    check_lane_range,
    check_lowpass,
    check_range,
    continuous_lateral,
    derivative,
    lowpass,
    lowpass_rows,
)

__all__ = [
    "Perturbation",
    "RobustnessPoint",
    "RobustnessReport",
    "inject_bias",
    "inject_brownian",
    "sweep",
]


@dataclass(frozen=True)
class Perturbation:
    """One grid point: ``bias`` magnitude in m, ``brownian`` step std in m;
    finite and >= 0."""

    kind: str  # {"bias", "brownian"}
    magnitude: float

    def __post_init__(self) -> None:
        if self.kind not in ("bias", "brownian"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        check_range(self, "magnitude", low=0.0)


@dataclass(frozen=True)
class RobustnessPoint:
    criterion: str
    kind: str
    magnitude: float
    detected: int
    truth: int

    @property
    def ratio(self) -> float:
        return self.detected / self.truth if self.truth > 0 else float("nan")


@dataclass(frozen=True)
class RobustnessReport:
    points: tuple[RobustnessPoint, ...]
    skipped: tuple[tuple[str, str], ...] = ()  # (vehicle_id, reason) left out

    def series(self, criterion: str, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(magnitudes, detected counts) for one criterion and grid axis."""
        pts = [p for p in self.points
               if p.criterion == criterion and p.kind == kind]
        pts.sort(key=lambda p: p.magnitude)
        return (np.array([p.magnitude for p in pts]),
                np.array([p.detected for p in pts]))


def inject_bias(traj: Trajectory, b: float) -> Trajectory:
    """Shift the lateral channel (and the derived y) by +b; rest unchanged."""
    if b == 0.0:
        return traj
    return traj.with_channels(lat=traj.lat + b)


def _brownian_walk(n: int, step_std: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, step_std, n - 1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def inject_brownian(traj: Trajectory, step_std: float, seed: int) -> Trajectory:
    """Add a random walk W_k = W_{k-1} + N(0, step_std^2), W_0 = 0, to lat."""
    if step_std < 0.0:
        raise ValueError("step_std must be >= 0")
    if step_std == 0.0:
        return traj
    return traj.with_channels(lat=traj.lat + _brownian_walk(len(traj.t), step_std, seed))


def _perturbed_lat(traj: Trajectory, pert: Perturbation, seed: int, gi: int,
                   ti: int) -> np.ndarray:
    """``lat`` of ``traj`` under one grid point, as inject_bias/inject_brownian."""
    if pert.magnitude == 0.0:
        return traj.lat
    if pert.kind == "bias":
        return traj.lat + pert.magnitude
    stream = int(np.random.SeedSequence((seed, gi, ti)).generate_state(1)[0])
    return traj.lat + _brownian_walk(len(traj.t), pert.magnitude, stream)


def _row_key(pert: Perturbation, gi: int) -> object:
    """Equal for grid points that perturb every vehicle alike: no
    perturbation at all, or the same bias.  A Brownian point draws its own
    stream, so it is keyed by its grid index."""
    if pert.magnitude == 0.0:
        return None
    if pert.kind == "bias":
        return ("bias", pert.magnitude)
    return ("brownian", gi)


def sweep(corpus: SyntheticCorpus, criterion: str | Sequence[str],
          grid: Sequence[Perturbation], layout: LaneLayout,
          params: PeakParams | None = None, distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD,
          seed: int = 0, refilter: bool = True,
          cutoff: float = DEFAULT_CUTOFF) -> RobustnessReport:
    """Detection counts of one or more criteria over a perturbation grid.

    Perturbations are added to the lateral channel at the trajectories'
    own rate; with ``refilter`` the low-pass runs again afterwards,
    modelling raw measurement error entering before preprocessing.  The
    perturbed ``lat`` rows of every vehicle, one per distinct grid point,
    are filtered in one ``lowpass_rows`` call.  Each vehicle is then
    evaluated once on its stacked grid signal: the continuous lateral
    position, its derivative (one ``derivative`` call for all rows), the
    displacement and the settle mask are computed once for the stack;
    every criterion then runs its detector kernel on each row, sharing
    the derivative.  Grid points that perturb alike (no perturbation, or
    a repeated bias) are computed once and their count reused.  Random
    streams are keyed by (seed, grid index, trajectory index) so
    evaluation order does not change results.  The points come back per
    criterion in the given order, each in grid order.  The peak criterion
    runs without the minimum lateral-extent filter, counting raw
    detections.  A vehicle too short to filter or with a lane index
    outside ``layout`` is left out and listed in ``skipped`` with the
    reason.
    """
    criteria = (criterion,) if isinstance(criterion, str) else tuple(criterion)
    for name in criteria:
        if name not in ("peak", "distance"):
            raise ValueError(f"unknown criterion {name!r}")
    truth = len(corpus.truth_events)
    if not grid:
        return RobustnessReport(())
    params = params or PeakParams()

    keys = [_row_key(pert, gi) for gi, pert in enumerate(grid)]
    distinct = list(dict.fromkeys(keys))
    computed = [keys.index(key) for key in distinct]  # grid index of each row
    detected = {name: [0] * len(distinct) for name in criteria}
    skipped, kept = [], []
    for ti, traj in enumerate(corpus.trajectories):
        try:
            if refilter:
                check_lowpass(traj, cutoff)
            check_lane_range(traj, layout)
        except (InsufficientSamplesError, LaneRangeError) as exc:
            skipped.append((traj.vehicle_id, str(exc)))
            continue
        kept.append((ti, traj))
    lats = [np.stack([_perturbed_lat(traj, grid[gi], seed, gi, ti) for gi in computed])
            for ti, traj in kept]
    trajs = [traj for _, traj in kept]
    if refilter:
        lats = lowpass_rows(trajs, lats, cutoff, layout)
    for traj, lat in zip(trajs, lats):
        y = layout.lateral(traj.lane, lat)
        dy = derivative(y, traj.dt)
        if "peak" in criteria:
            disp = displacement(dy, traj.dt)
            rel_h = rel_height_from_widths(traj.shape.width, layout.lane_width)
        if "distance" in criteria:
            nearest, rests = settle_mask(y, dy, layout, distance_threshold,
                                         DEFAULT_SETTLE_RATE)
        for r in range(len(distinct)):
            for name in criteria:
                if name == "peak":
                    events = peak_events(traj.vehicle_id, traj.t, dy[r], disp[r], traj.v,
                                         traj.rate, rel_h, params, min_extent=None)
                else:
                    events = distance_events(traj.vehicle_id, traj.t, y[r], traj.v,
                                             nearest[r], rests[r], layout,
                                             distance_threshold, DEFAULT_SETTLE_DWELL)
                detected[name][r] += len(events)

    return RobustnessReport(tuple(
        RobustnessPoint(name, pert.kind, pert.magnitude,
                        detected[name][distinct.index(keys[gi])], truth)
        for name in criteria for gi, pert in enumerate(grid)), tuple(skipped))

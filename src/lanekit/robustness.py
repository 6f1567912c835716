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
    PeakParams,
    detect_distance,
    detect_peak,
    detect_rows,
)
from .synth import SyntheticCorpus
from .trajectory import (  # noqa: F401 - lowpass, continuous_lateral: as detect_* above
    DEFAULT_CUTOFF,
    DEFAULT_RATE,
    LaneLayout,
    Trajectory,
    check_range,
    continuous_lateral,
    lowpass,
    preprocess,
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
    truth_left_out: int = 0  # true events of vehicles not swept

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
          seed: int = 0, refilter: bool = True, cutoff: float = DEFAULT_CUTOFF,
          rate: float = DEFAULT_RATE) -> RobustnessReport:
    """Detection counts of one or more criteria over a perturbation grid.

    The vehicles are those ``lanekit detect`` runs on: ``preprocess``
    resamples each to ``rate`` and lists those it skips in ``skipped``.
    ``truth`` counts the true events of the swept vehicles only; those of
    skipped vehicles, and of vehicles the corpus has no track of, are
    counted in ``truth_left_out``.
    Perturbations are added to the resampled ``lat``, so a Brownian step
    is one resampled step; with ``refilter`` the low-pass runs afterwards,
    modelling raw measurement error entering before the filter.  Each
    vehicle's perturbed rows, one per distinct grid point (no
    perturbation and a repeated bias are computed once), go to
    ``detect_rows`` as one stack under the raw-count rules: no extent
    filter and no doubles merged.  So the unperturbed row counts the peak
    and distance events ``detect`` finds before its extent filter and
    ``classify_double``.  Random streams are keyed by (seed, grid index,
    trajectory index).  The points come back per criterion in the given
    order, each in grid order.
    """
    criteria = (criterion,) if isinstance(criterion, str) else tuple(criterion)
    for name in criteria:
        if name not in ("peak", "distance"):
            raise ValueError(f"unknown criterion {name!r}")
    kept, skipped = preprocess(corpus.trajectories, layout, rate, cutoff)
    swept = {pre.vehicle_id for _, pre in kept}
    truth = sum(event.vehicle_id in swept for event in corpus.truth_events)
    left_out = len(corpus.truth_events) - truth
    if not grid:
        return RobustnessReport((), tuple(skipped), left_out)

    keys = [_row_key(pert, gi) for gi, pert in enumerate(grid)]
    distinct = list(dict.fromkeys(keys))
    computed = [keys.index(key) for key in distinct]  # grid index of each row
    detected = {name: [0] * len(distinct) for name in criteria}
    # the stacks are not named here: once low-passed they can be freed
    for found in detect_rows([pre for _, pre in kept],
                             [np.stack([_perturbed_lat(pre, grid[gi], seed, gi, ti)
                                        for gi in computed]) for ti, pre in kept],
                             layout, criteria, params, distance_threshold,
                             cutoff if refilter else None, None):
        for name in criteria:
            for r, events in enumerate(found[name]):
                detected[name][r] += len(events)

    return RobustnessReport(tuple(
        RobustnessPoint(name, pert.kind, pert.magnitude,
                        detected[name][distinct.index(keys[gi])], truth)
        for name in criteria for gi, pert in enumerate(grid)), tuple(skipped), left_out)

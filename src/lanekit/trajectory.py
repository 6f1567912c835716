"""Lane-referenced trajectory model and preprocessing primitives.

Trajectories are stored as parallel numpy channels at a uniform rate.  The
lateral position is split into an integer lane index (0 = rightmost lane)
and a signed in-lane offset ``lat`` (positive toward the left); the derived
channel ``y = lane * lane_width + lat`` is continuous across lane
boundaries and is the signal all lane-change detectors operate on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "VehicleClass",
    "LaneLayout",
    "VehicleShape",
    "Trajectory",
    "ContinuousLateral",
    "InsufficientSamplesError",
    "LaneRangeError",
    "resample",
    "lowpass",
    "check_lane_range",
    "continuous_lateral",
    "derivative",
]


class InsufficientSamplesError(ValueError):
    """Raised when an operation needs more samples than the input has."""


class LaneRangeError(ValueError):
    """Raised when a lane index lies outside the lane layout."""


class VehicleClass(str, Enum):
    CAR = "car"
    TRUCK = "truck"


@dataclass(frozen=True)
class LaneLayout:
    """Straight carriageway with uniform lane width; lane 0 is rightmost."""

    lane_count: int = 3
    lane_width: float = 3.5  # [m]
    speed_limit: float = 120.0 / 3.6  # [m/s]

    def __post_init__(self) -> None:
        if self.lane_count < 1:
            raise ValueError("lane_count must be >= 1")
        if self.lane_width <= 0.0:
            raise ValueError("lane_width must be positive")
        if self.speed_limit <= 0.0:
            raise ValueError("speed_limit must be positive")

    def center(self, lane: int) -> float:
        """Global lateral position of a lane center [m]."""
        return lane * self.lane_width

    def boundaries(self) -> np.ndarray:
        """Global lateral positions of the lane markings between lanes."""
        return (np.arange(self.lane_count - 1) + 0.5) * self.lane_width

    def nearest_lane(self, y: float | np.ndarray) -> np.ndarray:
        """Lane index whose center is closest to global lateral position y."""
        idx = np.rint(np.asarray(y, dtype=float) / self.lane_width)
        return np.clip(idx, 0, self.lane_count - 1).astype(int)


@dataclass(frozen=True)
class VehicleShape:
    # the defaults are the car assumed where no vehicles file gives a shape
    length: float = 4.8  # [m]
    width: float = 2.0  # [m]
    vclass: VehicleClass = VehicleClass.CAR

    def __post_init__(self) -> None:
        if not (0.0 < self.width < self.length):
            raise ValueError("require 0 < width < length")


def _frozen(values: Iterable[float], dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled trajectory of one vehicle.

    Channels are immutable numpy arrays of equal length; ``d_left`` /
    ``d_right`` (distances from the vehicle sides to the referenced lane
    markings) are optional and only present for in-car style inputs.
    """

    vehicle_id: str
    shape: VehicleShape
    t: np.ndarray
    s: np.ndarray
    lane: np.ndarray
    lat: np.ndarray
    v: np.ndarray
    a_lon: np.ndarray
    a_lat: np.ndarray
    rate: float
    d_left: np.ndarray | None = None
    d_right: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _frozen(self.t))
        object.__setattr__(self, "s", _frozen(self.s))
        object.__setattr__(self, "lane", _frozen(self.lane, dtype=int))
        object.__setattr__(self, "lat", _frozen(self.lat))
        object.__setattr__(self, "v", _frozen(self.v))
        object.__setattr__(self, "a_lon", _frozen(self.a_lon))
        object.__setattr__(self, "a_lat", _frozen(self.a_lat))
        if self.d_left is not None:
            object.__setattr__(self, "d_left", _frozen(self.d_left))
        if self.d_right is not None:
            object.__setattr__(self, "d_right", _frozen(self.d_right))
        n = len(self.t)
        if n < 2:
            raise InsufficientSamplesError("insufficient samples")
        for name in ("s", "lane", "lat", "v", "a_lon", "a_lat"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"channel {name!r} length mismatch")
        for name in ("d_left", "d_right"):
            ch = getattr(self, name)
            if ch is not None and len(ch) != n:
                raise ValueError(f"channel {name!r} length mismatch")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("time must be strictly increasing")
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")

    @property
    def dt(self) -> float:
        return 1.0 / self.rate

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    @property
    def has_markings(self) -> bool:
        return self.d_left is not None and self.d_right is not None

    def with_channels(self, **channels) -> "Trajectory":
        """Copy with replaced channel arrays."""
        return replace(self, **channels)


@dataclass(frozen=True)
class ContinuousLateral:
    """Global lateral position y(t) = lane * lane_width + lat, continuous
    across lane boundaries, plus the companion channels detectors need."""

    vehicle_id: str
    t: np.ndarray
    y: np.ndarray
    rate: float
    v: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _frozen(self.t))
        object.__setattr__(self, "y", _frozen(self.y))
        if self.v is not None:
            object.__setattr__(self, "v", _frozen(self.v))
        if len(self.t) != len(self.y):
            raise ValueError("t and y length mismatch")

    @property
    def dt(self) -> float:
        return 1.0 / self.rate

    def shifted(self, offset: float) -> "ContinuousLateral":
        return replace(self, y=self.y + offset)


def _interp_with_rereference(t_new: np.ndarray, t_old: np.ndarray,
                             values: np.ndarray, lane_old: np.ndarray) -> np.ndarray:
    """Linear interpolation that never averages across a lane re-reference.

    Channels tied to the referenced lane (``lat``, marking distances) jump
    by about one lane width when the referenced marking switches.  For new
    timestamps bracketed by samples with different lane indices the value
    of the nearer input sample is taken instead of a bogus average.
    """
    out = np.interp(t_new, t_old, values)
    switches = np.nonzero(np.diff(lane_old) != 0)[0]
    for i in switches:
        mask = (t_new > t_old[i]) & (t_new < t_old[i + 1])
        if not np.any(mask):
            continue
        mid = 0.5 * (t_old[i] + t_old[i + 1])
        out[mask] = np.where(t_new[mask] <= mid, values[i], values[i + 1])
    return out


def resample(traj: Trajectory, target_rate: float) -> Trajectory:
    """Resample to a uniform grid of multiples of ``1/target_rate``.

    Continuous channels are linearly interpolated; the lane index is held
    from the previous sample and lane-referenced channels are protected
    from averaging across re-referencing jumps.  The covered time span is
    preserved within one output period.
    """
    if target_rate <= 0.0:
        raise ValueError("target_rate must be positive")
    if len(traj.t) < 2:
        raise InsufficientSamplesError("insufficient samples")
    dt = 1.0 / target_rate
    eps = 1e-9 * dt
    k0 = int(math.ceil(traj.t[0] / dt - eps))
    k1 = int(math.floor(traj.t[-1] / dt + eps))
    if k1 < k0 + 1:
        raise InsufficientSamplesError("insufficient samples")
    t_new = np.arange(k0, k1 + 1) * dt

    # integer lane: hold previous sample
    idx = np.searchsorted(traj.t, t_new + eps, side="right") - 1
    idx = np.clip(idx, 0, len(traj.t) - 1)
    lane_new = traj.lane[idx]

    def lin(ch: np.ndarray) -> np.ndarray:
        return np.interp(t_new, traj.t, ch)

    def ref(ch: np.ndarray) -> np.ndarray:
        return _interp_with_rereference(t_new, traj.t, ch, traj.lane)

    return Trajectory(
        vehicle_id=traj.vehicle_id,
        shape=traj.shape,
        t=t_new,
        s=lin(traj.s),
        lane=lane_new,
        lat=ref(traj.lat),
        v=lin(traj.v),
        a_lon=lin(traj.a_lon),
        a_lat=lin(traj.a_lat),
        rate=target_rate,
        d_left=ref(traj.d_left) if traj.d_left is not None else None,
        d_right=ref(traj.d_right) if traj.d_right is not None else None,
    )


@functools.lru_cache(maxsize=32)
def _butter_design(cutoff: float, rate: float) -> np.ndarray:
    from scipy import signal  # deferred, as in _zero_phase

    return signal.butter(2, cutoff, btype="low", fs=rate, output="sos")


def _butter_sos(cutoff: float, rate: float) -> np.ndarray:
    """Second-order low-pass in SOS form, designed once per (cutoff, rate).

    Each call gets its own copy: ``sosfiltfilt`` rejects a read-only array,
    and a caller writing to it must not change the cached design.
    """
    return _butter_design(cutoff, rate).copy()


def _zero_phase(traj: Trajectory, rows: np.ndarray, cutoff: float,
                layout: LaneLayout | None, lateral: bool) -> np.ndarray:
    """Forward-backward Butterworth filter along the last axis of ``rows``.

    ``rows`` holds one or more versions of a channel of ``traj``.  With
    ``lateral`` they are ``lat`` rows, filtered in the composite form
    ``lane * lane_width + lat`` and returned as ``lat``.
    """
    # scipy.signal is imported here, not at module level: it costs about a
    # second per process, and commands that never filter should not pay it
    from scipy import signal

    nyquist = traj.rate / 2.0
    if cutoff >= nyquist:
        raise ValueError(f"cutoff {cutoff} Hz must be below Nyquist {nyquist} Hz")
    sos = _butter_sos(cutoff, traj.rate)
    if len(traj.t) < 10:  # shorter than the forward-backward pad
        raise InsufficientSamplesError("insufficient samples")
    if not lateral:
        return signal.sosfiltfilt(sos, rows, axis=-1)
    if np.all(traj.lane == traj.lane[0]):
        offset = np.zeros(len(traj.t))
    else:
        if layout is None:
            raise ValueError("layout required to filter 'lat' across lane changes")
        offset = traj.lane * layout.lane_width
    return signal.sosfiltfilt(sos, rows + offset, axis=-1) - offset


DEFAULT_CUTOFF = 1.3  # [Hz] low-pass cutoff of the preprocessing


def lowpass(traj: Trajectory, cutoff: float, layout: LaneLayout | None = None,
            channels: Sequence[str] = ("lat",)) -> Trajectory:
    """Zero-phase second-order Butterworth low-pass on selected channels.

    ``lat`` is filtered in its continuous composite form
    ``lane * lane_width + lat`` so the re-referencing jumps at lane
    boundaries do not produce ringing; this requires ``layout`` whenever
    the lane index is not constant.  Forward-backward filtering keeps peak
    locations unshifted for symmetric inputs.
    """
    updates = {}
    for name in channels:
        ch = getattr(traj, name)
        if ch is None:
            raise ValueError(f"channel {name!r} not present")
        updates[name] = _zero_phase(traj, ch, cutoff, layout, lateral=name == "lat")
    return traj.with_channels(**updates)


def check_lane_range(traj: Trajectory, layout: LaneLayout) -> None:
    """Raise LaneRangeError if a lane index of ``traj`` lies outside ``layout``."""
    if np.any(traj.lane < 0) or np.any(traj.lane >= layout.lane_count):
        raise LaneRangeError("lane index out of range for layout")


def continuous_lateral(traj: Trajectory, layout: LaneLayout,
                       lat: np.ndarray | None = None) -> ContinuousLateral:
    """Build the continuous global lateral channel y = lane*width + lat.

    ``lat`` replaces the trajectory's own lateral channel when given.
    """
    check_lane_range(traj, layout)
    y = traj.lane * layout.lane_width + (traj.lat if lat is None else lat)
    return ContinuousLateral(vehicle_id=traj.vehicle_id, t=traj.t, y=y,
                             rate=traj.rate, v=traj.v)


def derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Time derivative: central differences interior, one-sided at ends."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise InsufficientSamplesError("insufficient samples")
    return np.gradient(values, dt)


def marking_residual(traj: Trajectory, layout: LaneLayout) -> float:
    """Worst deviation of d_left + d_right from lane_width - vehicle width.

    Zero for consistent marking channels; use against a configured
    tolerance to validate in-car style inputs.
    """
    if not traj.has_markings:
        raise ValueError("trajectory carries no marking channels")
    expected = layout.lane_width - traj.shape.width
    return float(np.max(np.abs(traj.d_left + traj.d_right - expected)))

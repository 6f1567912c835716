"""Lane-referenced trajectory model and preprocessing primitives.

Trajectories are stored as parallel numpy channels at a uniform rate.  The
lateral position is split into an integer lane index (0 = rightmost lane)
and a signed in-lane offset ``lat`` (positive toward the left); the derived
channel ``y = lane * lane_width + lat`` is continuous across lane
boundaries and is the signal all lane-change detectors operate on.

This module is the one place that knows that frame: ``LaneLayout.center``,
``lateral``, ``nearest_lane`` and ``split`` convert between ``(lane, lat)``
and ``y``, ``held_lane`` reads a track's lane between its samples and
``derivative`` gives every lateral rate.  ``CHANNELS`` and ``MARKINGS``
name a trajectory's channels in the order of the trajectory CSV, and
``check_range`` is the one range rule of every parameter dataclass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Iterable

import numpy as np

__all__ = [
    "VehicleClass",
    "LaneLayout",
    "VehicleShape",
    "Trajectory",
    "ContinuousLateral",
    "InsufficientSamplesError",
    "LaneRangeError",
    "held_lane",
    "resample",
    "lowpass",
    "check_lane_range",
    "check_range",
    "CHANNELS",
    "MARKINGS",
    "continuous_lateral",
    "derivative",
    "time_overlap",
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
        check_range(self, "lane_count", low=1)
        check_range(self, "lane_width", "speed_limit", positive=True)

    def center(self, lane: int | np.ndarray) -> float | np.ndarray:
        """Global lateral position of a lane center [m]."""
        return lane * self.lane_width

    def lateral(self, lane: int | np.ndarray, lat: float | np.ndarray) -> float | np.ndarray:
        """Global lateral position ``y`` of the in-lane offset ``lat`` in ``lane`` [m]."""
        return self.center(lane) + lat

    def boundaries(self) -> np.ndarray:
        """Global lateral positions of the lane markings between lanes."""
        return (np.arange(self.lane_count - 1) + 0.5) * self.lane_width

    def nearest_lane(self, y: float | np.ndarray) -> np.ndarray:
        """Lane index whose center is closest to global lateral position y."""
        idx = np.rint(np.asarray(y, dtype=float) / self.lane_width)
        return np.clip(idx, 0, self.lane_count - 1).astype(int)

    def split(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lane, lat)`` of global lateral positions ``y``: the nearest lane
        and the offset from its center, beyond the outer lanes too."""
        lane = self.nearest_lane(y)
        return lane, y - self.center(lane)


@dataclass(frozen=True)
class VehicleShape:
    """Footprint of a vehicle, finite with ``0 < width < length``; the
    defaults are the car assumed where no vehicles file gives a shape."""

    length: float = 4.8  # [m]
    width: float = 2.0  # [m]
    vclass: VehicleClass = VehicleClass.CAR

    def __post_init__(self) -> None:
        check_range(self)
        if not (0.0 < self.width < self.length):
            raise ValueError("require 0 < width < length")


def _frozen(values: Iterable[float], dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).copy()
    arr.setflags(write=False)
    return arr


CHANNELS = ("t", "s", "lane", "lat", "v", "a_lon", "a_lat")  # in trajectory CSV column order
MARKINGS = ("d_left", "d_right")  # optional; the CSV's last columns


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled trajectory of one vehicle.

    The ``CHANNELS`` are immutable numpy arrays of equal length, ``lane``
    of ints; the ``MARKINGS`` ``d_left`` / ``d_right`` (distances from the
    vehicle sides to the referenced lane markings) are optional and only
    present for in-car style inputs.  ``rate`` is finite and positive.
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
        present = CHANNELS + tuple(m for m in MARKINGS if getattr(self, m) is not None)
        for name in present:
            dtype = int if name == "lane" else float
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        n = len(self.t)
        if n < 2:
            raise InsufficientSamplesError("insufficient samples")
        for name in present:
            if len(getattr(self, name)) != n:
                raise ValueError(f"channel {name!r} length mismatch")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("time must be strictly increasing")
        check_range(self, "rate", positive=True)

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
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _frozen(self.t))
        object.__setattr__(self, "y", _frozen(self.y))
        object.__setattr__(self, "v", _frozen(self.v))
        if len(self.t) != len(self.y):
            raise ValueError("t and y length mismatch")

    @property
    def dt(self) -> float:
        return 1.0 / self.rate

    def shifted(self, offset: float) -> "ContinuousLateral":
        return replace(self, y=self.y + offset)


def time_overlap(t: np.ndarray, span: tuple[float, float] | np.ndarray) -> slice:
    """Slice of the increasing grid ``t`` inside ``[span[0], span[-1]]``; like
    a reversed span, one with a NaN bound gives an empty slice."""
    lo = int(np.searchsorted(t, span[0], side="left"))
    hi = lo if math.isnan(span[-1]) else int(np.searchsorted(t, span[-1], side="right"))
    return slice(lo, hi)


def _interp_with_rereference(t_new: np.ndarray, t_old: np.ndarray,
                             values: np.ndarray, lane_old: np.ndarray) -> np.ndarray:
    """Linear interpolation that never averages across a lane re-reference.

    Channels tied to the referenced lane (``lat``, marking distances) jump
    by about one lane width when the referenced marking switches.  For new
    timestamps bracketed by samples with different lane indices the value
    of the nearer input sample is taken instead of a bogus average.
    """
    out = np.interp(t_new, t_old, values)
    for i in np.flatnonzero(np.diff(lane_old)):
        # on a sample itself the nearer-sample rule gives what np.interp gave
        k = time_overlap(t_new, t_old[i:i + 2])
        mid = 0.5 * (t_old[i] + t_old[i + 1])
        out[k] = np.where(t_new[k] <= mid, values[i], values[i + 1])
    return out


def held_lane(traj: Trajectory, t: np.ndarray) -> np.ndarray:
    """Lane of ``traj`` held from each sample to the next, at times ``t``.

    A time less than 1e-9 of the track's sampling step before a sample
    reads that sample's lane, so float noise in a grid built on the same
    clock does not move a lane switch by one grid step.  Before the first
    sample the first lane holds.
    """
    i = np.searchsorted(traj.t, t + 1e-9 * traj.dt, side="right") - 1
    return traj.lane[np.clip(i, 0, len(traj.t) - 1)]


def resample(traj: Trajectory, target_rate: float) -> Trajectory:
    """Resample to a uniform grid of multiples of ``1/target_rate``.

    Continuous channels are linearly interpolated; the lane index is held
    from the previous sample (``held_lane``) and lane-referenced channels
    are protected from averaging across re-referencing jumps.  The covered
    time span is preserved within one output period.
    """
    if target_rate <= 0.0:
        raise ValueError("target_rate must be positive")
    dt = 1.0 / target_rate
    eps = 1e-9 * dt
    k0 = int(math.ceil(traj.t[0] / dt - eps))
    k1 = int(math.floor(traj.t[-1] / dt + eps))
    if k1 < k0 + 1:
        raise InsufficientSamplesError("insufficient samples")
    t_new = np.arange(k0, k1 + 1) * dt

    def lin(ch: np.ndarray) -> np.ndarray:
        return np.interp(t_new, traj.t, ch)

    def ref(ch: np.ndarray) -> np.ndarray:
        return _interp_with_rereference(t_new, traj.t, ch, traj.lane)

    return Trajectory(
        vehicle_id=traj.vehicle_id,
        shape=traj.shape,
        t=t_new,
        s=lin(traj.s),
        lane=held_lane(traj, t_new),
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
                layout: LaneLayout) -> np.ndarray:
    """Forward-backward Butterworth filter of ``lat`` rows along the last axis.

    ``rows`` holds one or more versions of the ``lat`` channel of ``traj``,
    filtered in the composite form ``lane * lane_width + lat`` and returned
    as ``lat``.
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
    if np.all(traj.lane == traj.lane[0]):  # adding and removing a center would move low bits
        offset = np.zeros(len(traj.t))
    else:
        offset = layout.center(traj.lane)
    return signal.sosfiltfilt(sos, rows + offset, axis=-1) - offset


DEFAULT_CUTOFF = 1.3  # [Hz] low-pass cutoff of the preprocessing


def lowpass(traj: Trajectory, cutoff: float, layout: LaneLayout) -> Trajectory:
    """Zero-phase second-order Butterworth low-pass of the ``lat`` channel.

    ``lat`` is filtered in its continuous composite form
    ``lane * lane_width + lat`` so the re-referencing jumps at lane
    boundaries do not produce ringing.  Forward-backward filtering keeps
    peak locations unshifted for symmetric inputs.
    """
    return traj.with_channels(lat=_zero_phase(traj, traj.lat, cutoff, layout))


def check_lane_range(traj: Trajectory, layout: LaneLayout) -> None:
    """Raise LaneRangeError if a lane index of ``traj`` lies outside ``layout``."""
    if np.any(traj.lane < 0) or np.any(traj.lane >= layout.lane_count):
        raise LaneRangeError("lane index out of range for layout")


def check_range(obj, *names: str, low: float = -math.inf, positive: bool = False) -> None:
    """Raise ValueError, as ``<name> must be finite``, ``must be positive`` or
    ``must be >= <low>``, at the first field ``names`` of the dataclass
    ``obj`` (each number field when none is named) that is not None or a
    finite number ``>= low``, and ``> 0`` where ``positive``."""
    if not names:
        names = tuple(f.name for f in fields(obj) if isinstance(getattr(obj, f.name), (int, float)))
    for name in names:
        value = getattr(obj, name)
        if value is None:
            continue
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if positive and not value > 0.0:
            raise ValueError(f"{name} must be positive")
        if value < low:
            raise ValueError(f"{name} must be >= {low:g}")


def continuous_lateral(traj: Trajectory, layout: LaneLayout) -> ContinuousLateral:
    """Build the continuous global lateral channel y = lane*width + lat."""
    check_lane_range(traj, layout)
    y = layout.lateral(traj.lane, traj.lat)
    return ContinuousLateral(vehicle_id=traj.vehicle_id, t=traj.t, y=y,
                             rate=traj.rate, v=traj.v)


def derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Time derivative along the last axis (of each row of a stack):
    central differences interior, one-sided at ends."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] < 2:
        raise InsufficientSamplesError("insufficient samples")
    return np.gradient(values, dt, axis=-1)


def marking_residual(traj: Trajectory, layout: LaneLayout) -> float:
    """Worst deviation of d_left + d_right from lane_width - vehicle width.

    Zero for consistent marking channels; use against a configured
    tolerance to validate in-car style inputs.
    """
    if not traj.has_markings:
        raise ValueError("trajectory carries no marking channels")
    expected = layout.lane_width - traj.shape.width
    return float(np.max(np.abs(traj.d_left + traj.d_right - expected)))

"""Lane-referenced trajectory model and preprocessing primitives.

Trajectories are stored as parallel numpy channels at a uniform rate.  The
lateral position is split into an integer lane index (0 = rightmost lane)
and a signed in-lane offset ``lat`` (positive toward the left); the global
lateral position ``y = lane * lane_width + lat`` is continuous across lane
boundaries and is the signal all lane-change detectors operate on.  It is
not stored: ``continuous_lateral`` builds the array of a track, and the
detectors build it from each row of ``lat`` they are handed.

This module is the one place that knows that frame: ``LaneLayout.center``,
``lateral``, ``nearest_lane`` and ``split`` convert between ``(lane, lat)``
and ``y``, ``held_lane`` reads a track's lane between its samples and
``derivative`` gives every lateral rate.  ``preprocess`` is the one rule
of which tracks detection runs on, at what rate.  ``CHANNELS`` and
``MARKINGS`` name a trajectory's channels in the order of the trajectory
CSV, ``fmt`` is the text of every number the CSV files hold, and
``check_range`` is the one range rule of every parameter dataclass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "VehicleClass",
    "LaneLayout",
    "VehicleShape",
    "Trajectory",
    "InsufficientSamplesError",
    "LaneRangeError",
    "held_lane",
    "resample",
    "preprocess",
    "lowpass",
    "lowpass_rows",
    "check_lowpass",
    "check_lane_range",
    "check_range",
    "CHANNELS",
    "MARKINGS",
    "fmt",
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


def fmt(x: float) -> str:
    """Decimal serialization at 9 significant digits; empty for nan."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.9g}"


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


_PAD = 9  # samples of odd extension at each end of a filtered row (scipy's 3 * taps)


def _butter(cutoff: float, rate: float) -> np.ndarray:
    """Second-order Butterworth low-pass as ``(b0, b1, b2, a1, a2, zi0, zi1)``.

    The steps of ``scipy.signal.butter(2, cutoff, fs=rate, output="sos")``
    and ``sosfilt_zi`` replayed with the same numpy operations, so the
    coefficients and the steady state ``zi`` come out bit for bit: the
    analog prototype's poles, the cutoff pre-warped for ``fs = 2``, the
    bilinear transform and its gain, the conjugate pair averaged, the
    denominator from ``np.convolve`` and ``zi`` from one 2x2
    ``np.linalg.solve``.
    """
    wn = np.asarray(cutoff, dtype=float) / (float(rate) / 2)
    wo = float(4.0 * np.tan(np.pi * wn / 2.0))
    analog = wo * -np.exp(1j * np.pi * np.arange(-1, 2, 2, dtype=float) / 4)
    gain = wo ** 2 * np.real(1.0 / np.prod(4.0 - analog))
    poles = (4.0 + analog) / (4.0 - analog)
    pole = ((poles[poles.imag > 0] + poles[poles.imag < 0].conj()) / 2)[0]
    a = np.ones(1, dtype=complex)
    for root in (pole, pole.conj()):
        a = np.convolve(a, [1.0, -root])
    a = np.real(a)
    b = np.array([1.0, 2.0, 1.0]) * gain  # both zeros at -1
    zi = np.linalg.solve(np.eye(2) - np.array([[-a[1], 1.0], [-a[2], 0.0]]),
                         b[1:] - a[1:] * b[0])
    return np.concatenate((b, a[1:], zi))


def check_lowpass(traj: Trajectory, cutoff: float) -> None:
    """Raise ValueError unless ``0 < cutoff`` < Nyquist of ``traj``, and
    InsufficientSamplesError if ``traj`` is too short to filter."""
    nyquist = traj.rate / 2.0
    if cutoff >= nyquist:
        raise ValueError(f"cutoff {cutoff} Hz must be below Nyquist {nyquist} Hz")
    if not cutoff > 0.0:
        raise ValueError(f"cutoff {cutoff} Hz must be positive")
    if len(traj.t) <= _PAD:  # the pad needs one sample more
        raise InsufficientSamplesError("insufficient samples")


def _recurse(x: np.ndarray, coef: np.ndarray, starts: list[tuple[int, slice]]) -> None:
    """Run the filter down the columns of ``x`` in place.

    Direct form II transposed, as scipy's ``sosfilt`` loop writes it:
    ``y = b0 x + z0``, ``z0 = (b1 x - a1 y) + z1``, ``z1 = b2 x - a2 y``.
    Each ``(step, cols)`` of ``starts`` sets the state of those columns to
    ``zi`` times their sample at that step; what a column computes before
    its start is overwritten there.  The products with ``x`` are taken a
    chunk of steps at a time.
    """
    b0, b1, b2, a1, a2, zi0, zi1 = coef
    z0, z1, tmp = np.zeros((3, x.shape[1]))
    at: dict[int, list[slice]] = {}
    for step, cols in starts:
        at.setdefault(step, []).append(cols)
    mul, add, sub = np.multiply, np.add, np.subtract
    with np.errstate(all="ignore"):  # a compiled loop raises no floating-point warnings
        for j0 in range(0, len(x), 16):
            xs = x[j0:j0 + 16]
            bx0, bx1, bx2 = b0 * xs, b1 * xs, b2 * xs
            for j in range(len(xs)):
                y = xs[j]
                for cols in at.get(j0 + j, ()):
                    mul(zi0[cols], y[cols], out=z0[cols])
                    mul(zi1[cols], y[cols], out=z1[cols])
                add(bx0[j], z0, out=y)
                mul(a1, y, out=tmp)
                sub(bx1[j], tmp, out=z0)
                add(z0, z1, out=z0)
                mul(a2, y, out=tmp)
                sub(bx2[j], tmp, out=z1)


def _filtfilt(batch: Sequence[tuple[Trajectory, np.ndarray, np.ndarray]],
              cutoff: float) -> list[np.ndarray]:
    """``lat + offset`` of each ``(traj, lat, offset)``, filtered forward
    and backward along its last axis, as views into one time-major array.

    Each row is a column: odd extension by ``_PAD`` samples at both ends,
    the forward pass with every column aligned at its first sample, then
    the backward pass up the same array, each column from its own last
    sample, with the ``_butter`` design of its trajectory's rate.
    """
    shapes = [np.shape(lat) for _, lat, _ in batch]
    widths = [math.prod(shape[:-1]) for shape in shapes]  # rows per trajectory
    lengths = [len(traj.t) + 2 * _PAD for traj, _, _ in batch]
    x = np.zeros((max(lengths), sum(widths)))
    coef = np.empty((7, x.shape[1]))
    designs: dict[float, np.ndarray] = {}
    spans = []
    col = 0
    for (traj, lat, offset), k, m in zip(batch, widths, lengths):
        cols = slice(col, col + k)
        col += k
        x[_PAD:m - _PAD, cols] = np.reshape(lat + offset, (k, -1)).T
        if traj.rate not in designs:
            designs[traj.rate] = _butter(cutoff, traj.rate)
        coef[:, cols] = designs[traj.rate][:, None]
        spans.append((cols, m))
    x[:_PAD] = 2 * x[_PAD] - x[2 * _PAD:_PAD:-1]
    last = np.repeat([m - _PAD - 1 for m in lengths], widths)
    step = np.arange(1, _PAD + 1)[:, None]
    every = np.arange(x.shape[1])
    x[last + step, every] = 2 * x[last, every] - x[last - step, every]
    _recurse(x, coef, [(0, slice(None))])
    _recurse(x[::-1], coef, [(len(x) - m, cols) for cols, m in spans])
    return [x[_PAD:m - _PAD, cols].T.reshape(shape) for (cols, m), shape in zip(spans, shapes)]


def lowpass_rows(trajs: Sequence[Trajectory], rows: Sequence[np.ndarray], cutoff: float,
                 layout: LaneLayout) -> Iterator[np.ndarray]:
    """Zero-phase Butterworth low-pass of ``lat`` rows, in few recursions.

    ``rows`` holds, for each of ``trajs`` in turn, its ``lat`` channel or
    a stack of versions of it along the first axis; each comes back
    filtered along its last axis, in the shape it came in, as the
    iterator reaches it.  A row is filtered in the composite form
    ``lane * lane_width + lat`` of its trajectory, so the re-referencing
    jumps at lane boundaries do not ring, and comes back as ``lat``, bit
    for bit as ``scipy.signal.sosfiltfilt`` filters it with
    ``scipy.signal.butter(2, cutoff, fs=traj.rate, output="sos")``.
    Rows run in batches, one recursion each: the longest trajectory left
    and every one at least half as long, so no batch pads its rows to
    more than about twice the samples they hold.
    """
    for traj in trajs:
        check_lowpass(traj, cutoff)
    # a track in one lane is filtered as it is: adding and removing its
    # lane center would move low bits
    offsets = [np.zeros(len(traj.t)) if np.all(traj.lane == traj.lane[0])
               else layout.center(traj.lane) for traj in trajs]
    batches: list[list[int]] = []
    for i in sorted(range(len(trajs)), key=lambda i: len(trajs[i].t), reverse=True):
        if not batches or 2 * len(trajs[i].t) < len(trajs[batches[-1][0]].t):
            batches.append([])
        batches[-1].append(i)
    filtered: list[np.ndarray | None] = [None] * len(trajs)
    for batch in batches:
        outs = _filtfilt([(trajs[i], rows[i], offsets[i]) for i in batch], cutoff)
        for i, out in zip(batch, outs):
            filtered[i] = out
    return (np.subtract(out, offset, order="C") for out, offset in zip(filtered, offsets))


DEFAULT_CUTOFF = 1.3  # [Hz] low-pass cutoff of the preprocessing
DEFAULT_RATE = 5.0  # [Hz] sample rate of the preprocessing


def lowpass(traj: Trajectory, cutoff: float, layout: LaneLayout) -> Trajectory:
    """Zero-phase second-order Butterworth low-pass of the ``lat`` channel.

    ``lat`` is filtered in its continuous composite form
    ``lane * lane_width + lat`` so the re-referencing jumps at lane
    boundaries do not produce ringing.  Forward-backward filtering keeps
    peak locations unshifted for symmetric inputs.  ``lowpass_rows``
    filters many trajectories in one call.
    """
    (lat,) = lowpass_rows([traj], [traj.lat], cutoff, layout)
    return traj.with_channels(lat=lat)


def preprocess(trajectories: Sequence[Trajectory], layout: LaneLayout,
               rate: float = DEFAULT_RATE, cutoff: float = DEFAULT_CUTOFF,
               ) -> tuple[list[tuple[int, Trajectory]], list[tuple[str, str]]]:
    """The tracks detection runs on, and the reasons it skips the others.

    Each of ``trajectories`` is resampled to ``rate`` (one within 1e-9 Hz
    of it is kept as it is); a track too short to resample or to low-pass
    at ``cutoff``, or with a lane index outside ``layout``, is skipped.
    Returns ``(index, resampled track)`` of each kept track and
    ``(vehicle_id, reason)`` of each skipped one, both in file order.
    """
    kept, skipped = [], []
    for i, traj in enumerate(trajectories):
        try:
            if abs(traj.rate - rate) > 1e-9:
                traj = resample(traj, rate)
            check_lowpass(traj, cutoff)
            check_lane_range(traj, layout)
        except (InsufficientSamplesError, LaneRangeError) as exc:
            skipped.append((traj.vehicle_id, str(exc)))
            continue
        kept.append((i, traj))
    return kept, skipped


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


def continuous_lateral(traj: Trajectory, layout: LaneLayout) -> np.ndarray:
    """The global lateral position ``y = lane * lane_width + lat`` of each
    sample of ``traj``, continuous across lane boundaries; LaneRangeError
    if a lane index lies outside ``layout``."""
    check_lane_range(traj, layout)
    return layout.lateral(traj.lane, traj.lat)


def derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Time derivative along the last axis (of each row of a stack):
    central differences interior, one-sided at ends.  The formulas of
    ``np.gradient(values, dt, axis=-1)``, bit for bit, without its
    general set-up."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] < 2:
        raise InsufficientSamplesError("insufficient samples")
    out = np.empty_like(values)
    out[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * dt)
    out[..., 0] = (values[..., 1] - values[..., 0]) / dt
    out[..., -1] = (values[..., -1] - values[..., -2]) / dt
    return out


def marking_residual(traj: Trajectory, layout: LaneLayout) -> float:
    """Worst deviation of d_left + d_right from lane_width - vehicle width.

    Zero for consistent marking channels; use against a configured
    tolerance to validate in-car style inputs.
    """
    if not traj.has_markings:
        raise ValueError("trajectory carries no marking channels")
    expected = layout.lane_width - traj.shape.width
    return float(np.max(np.abs(traj.d_left + traj.d_right - expected)))

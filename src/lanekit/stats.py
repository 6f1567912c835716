"""Box-plot style summaries for event statistics.

Shared by the lane-change duration/speed summaries and the per-recording
criticality shares: median, quartiles, whiskers at the most extreme points
within 1.5 IQR of the quartiles, and the remaining points as outliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .detection import EventKind, LaneChangeEvent
from .trajectory import VehicleClass

__all__ = ["BoxSummary", "box_summary", "event_stats"]


@dataclass(frozen=True)
class BoxSummary:
    n: int
    median: float
    q25: float
    q75: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]
    mean: float


def box_summary(values: Sequence[float] | np.ndarray) -> BoxSummary:
    """Five-number summary with the conventional 1.5 IQR outlier rule."""
    arr = np.asarray(values, dtype=float)
    arr = arr[~np.isnan(arr)]
    if len(arr) == 0:
        raise ValueError("box_summary of empty data")
    q25, med, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
    iqr = q75 - q25
    lo_fence = q25 - 1.5 * iqr
    hi_fence = q75 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = arr[(arr < lo_fence) | (arr > hi_fence)]
    return BoxSummary(
        n=len(arr),
        median=float(med),
        q25=float(q25),
        q75=float(q75),
        whisker_low=float(np.min(inside)),
        whisker_high=float(np.max(inside)),
        outliers=tuple(float(x) for x in np.sort(outliers)),
        mean=float(np.mean(arr)),
    )


def event_stats(events: Sequence[LaneChangeEvent],
                classes: Mapping[str, VehicleClass] | None = None
                ) -> dict[str, dict[str, BoxSummary | None]]:
    """Duration and crossing-speed summaries per class and direction.

    ``classes`` maps vehicle id to its class; events of unknown vehicles
    fall back to "car".  Double lane changes and truncated events are
    excluded from the statistics.  A group whose events all lack a
    ``v_mid`` (NaN) has the speed summary None.
    """
    usable = [e for e in events if e.kind is EventKind.SINGLE and not e.truncated]

    def cls(e: LaneChangeEvent) -> str:
        if classes is None:
            return VehicleClass.CAR.value
        return classes.get(e.vehicle_id, VehicleClass.CAR).value

    groups: dict[str, list[LaneChangeEvent]] = {}
    for e in usable:
        groups.setdefault("all", []).append(e)
        groups.setdefault(cls(e), []).append(e)
        groups.setdefault(e.direction.value, []).append(e)
        groups.setdefault(f"{cls(e)}/{e.direction.value}", []).append(e)

    out: dict[str, dict[str, BoxSummary | None]] = {}
    for name, evs in sorted(groups.items()):
        durations = [e.duration for e in evs]
        speeds = [e.v_mid for e in evs]
        out[name] = {
            "duration": box_summary(durations),
            "speed": None if all(math.isnan(v) for v in speeds) else box_summary(speeds),
        }
    return out

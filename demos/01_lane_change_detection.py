"""Detecting lane changes with three interchangeable criteria.

A synthetic highway corpus with known maneuvers is generated, then the
gradient criterion (marking re-referencing jumps, the ground truth), the
peak criterion (derivative peaks, duration from the peak width) and the
distance criterion (displacement from the lane center) are compared on the
same vehicle.
"""

import numpy as np

from lanekit import (
    continuous_lateral,
    detect_distance,
    detect_gradient,
    detect_peak,
    generate_corpus,
    inject_bias,
)

corpus = generate_corpus(n=20, seed=7)
layout = corpus.layout

# pick a vehicle with at least two true maneuvers
by_vehicle = {}
for ev in corpus.truth_events:
    by_vehicle.setdefault(ev.vehicle_id, []).append(ev)
vid = next(v for v, evs in by_vehicle.items() if len(evs) >= 2)
traj = next(t for t in corpus.trajectories if t.vehicle_id == vid)
truth = by_vehicle[vid]

print(f"vehicle {vid}: {len(traj.t)} samples at {traj.rate:g} Hz, "
      f"{len(truth)} true lane changes")

for name, events in [
    ("truth   ", truth),
    ("gradient", detect_gradient(traj, layout)),
    ("peak    ", detect_peak(traj, layout)),
    ("distance", detect_distance(traj, layout, 0.8)),
]:
    summary = ", ".join(
        f"{e.direction.value} @ {e.t_mid:6.1f} s ({e.duration:.1f} s)"
        for e in events)
    print(f"  {name}: {summary}")

# the peak criterion reads everything off the derivative of the lateral
# position, so a constant measurement offset changes nothing
shifted = detect_peak(inject_bias(traj, 1.0), layout)
base = detect_peak(traj, layout)
print("\nwith a 1.0 m lateral offset the peak criterion finds "
      f"{len(shifted)} events at the same instants: "
      f"{[round(e.t_mid, 3) for e in shifted] == [round(e.t_mid, 3) for e in base]}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    y = continuous_lateral(traj, layout)
    fig, (ax1, ax2) = plt.subplots(2, 1, sharex=True, figsize=(9, 5))
    ax1.plot(traj.t, y, lw=1.0)
    for b in layout.boundaries():
        ax1.axhline(b, color="gray", ls=":", lw=0.7)
    for e in base:
        ax1.axvspan(e.t_start, e.t_end, color="tab:orange", alpha=0.25)
    ax1.set_ylabel("lateral position [m]")
    ax2.plot(traj.t, np.gradient(y, traj.dt), lw=1.0)
    ax2.axhline(0.15, color="tab:red", ls="--", lw=0.7)
    ax2.axhline(-0.15, color="tab:red", ls="--", lw=0.7)
    ax2.set_xlabel("t [s]")
    ax2.set_ylabel("dy/dt [m/s]")
    fig.tight_layout()
    fig.savefig("demo01_detection.png", dpi=120)
    print("wrote demo01_detection.png")
except ImportError:
    pass

"""Command-line surface tying the pipeline together.

Subcommands: ``synth``, ``detect``, ``robustness``, ``criticality``,
``stats``, ``sample``, ``mis-eval``.  Every subcommand takes ``--config``
(flat ``key = value`` file), ``--out`` (output directory) and ``--seed``;
all outputs are deterministic given inputs, configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import io as lkio
from .criticality import (  # noqa: F401 - most_critical: perfbench/tracer.py wraps it here
    METRIC_NAMES,
    critical_records,
    direction_stats,
    most_critical,
)
from .detection import (
    EventKind,
    classify_double,
    detect_distance,
    detect_gradient,
    detect_peak,
)
from .mis import FrontBrakeInjection, MISScenario, run_closed_loop
from .robustness import Perturbation, sweep
from .stats import event_stats
from .synth import SyntheticCorpus, generate_corpus
from .trajectory import (
    InsufficientSamplesError,
    LaneLayout,
    LaneRangeError,
    Trajectory,
    check_lane_range,
    continuous_lateral,
    lowpass,
    marking_residual,
    resample,
)
from .wiedemann import ScenarioSpec, sample_cc1


def _load_config(args) -> lkio.RunConfig:
    cfg = lkio.RunConfig.from_file(args.config) if args.config else lkio.RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ingest_corpus(args, cfg) -> list[Trajectory]:
    shapes = lkio.read_vehicles(args.vehicles) if getattr(args, "vehicles", None) else None
    report = lkio.ingest(args.traj, shapes=shapes, default_shape=cfg.default_shape)
    for msg in report.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    for vid, reason in report.rejected_vehicles:
        print(f"warning: vehicle {vid} rejected: {reason}", file=sys.stderr)
    if report.rejected_rows:
        print(f"warning: {len(report.rejected_rows)} rows rejected", file=sys.stderr)
    for traj in report.trajectories:
        if traj.has_markings:
            residual = marking_residual(traj, cfg.layout)
            if residual > cfg.marking_tolerance:
                print(f"warning: vehicle {traj.vehicle_id}: marking distances "
                      f"inconsistent by {residual:.3f} m", file=sys.stderr)
    return report.trajectories


def _preprocess(traj: Trajectory, cfg: lkio.RunConfig, layout: LaneLayout) -> Trajectory:
    if abs(traj.rate - cfg.resample_rate) > 1e-9:
        traj = resample(traj, cfg.resample_rate)
    if cfg.lowpass_aerial or traj.has_markings:
        traj = lowpass(traj, cfg.lowpass_cutoff, layout)
    return traj


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    n = args.n if args.n is not None else cfg.synth_n
    corpus = generate_corpus(n=n, seed=cfg.seed, layout=cfg.layout,
                             truck_fraction=cfg.truck_fraction)
    lkio.write_trajectories(out / "trajectories.csv", corpus.trajectories)
    lkio.write_vehicles(out / "vehicles.csv", corpus.trajectories)
    lkio.write_events(out / "truth_events.csv", corpus.truth_events)
    print(f"wrote {len(corpus.trajectories)} trajectories, "
          f"{len(corpus.truth_events)} true events to {out}")
    return 0


def cmd_detect(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    layout = cfg.layout
    trajectories = _ingest_corpus(args, cfg)
    criteria = args.criteria.split(",") if args.criteria else ["gradient", "peak", "distance"]

    all_events = []
    for traj in trajectories:
        try:
            pre = _preprocess(traj, cfg, layout)
            y = continuous_lateral(pre, layout)
        except (InsufficientSamplesError, LaneRangeError) as exc:
            print(f"warning: vehicle {traj.vehicle_id} skipped: {exc}", file=sys.stderr)
            continue
        if "gradient" in criteria and traj.has_markings:
            ev = detect_gradient(traj, layout, cfg.peak)
            all_events.extend(classify_double(ev, layout))
        if "peak" in criteria:
            ev = detect_peak(y, traj.shape, layout, cfg.peak,
                             min_extent=cfg.min_lateral_extent)
            all_events.extend(classify_double(ev, layout))
        if "distance" in criteria:
            ev = detect_distance(y, layout, cfg.distance_threshold)
            all_events.extend(classify_double(ev, layout))
    lkio.write_events(out / "events.csv", all_events)
    print(f"wrote {len(all_events)} events to {out / 'events.csv'}")
    return 0


def cmd_robustness(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    layout = cfg.layout
    trajectories = _ingest_corpus(args, cfg)
    truth = lkio.read_events(args.truth)
    corpus = SyntheticCorpus(tuple(trajectories), tuple(truth), layout, cfg.seed)

    grid = ([Perturbation("bias", b) for b in cfg.bias_grid]
            + [Perturbation("brownian", s) for s in cfg.brownian_grid])
    report = sweep(corpus, ("peak", "distance"), grid, layout, cfg.peak,
                   distance_threshold=cfg.distance_threshold, seed=cfg.seed,
                   refilter=cfg.sweep_refilter, cutoff=cfg.lowpass_cutoff)
    for vid, reason in report.skipped:
        print(f"warning: vehicle {vid} skipped: {reason}", file=sys.stderr)
    lkio.write_robustness(out / "robustness.csv", out / "robustness_plot.json", report)
    print(f"wrote {len(report.points)} grid points to {out / 'robustness.csv'}")
    return 0


def cmd_criticality(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    layout = cfg.layout
    thresholds = cfg.thresholds
    trajectories = []
    for traj in _ingest_corpus(args, cfg):
        try:
            check_lane_range(traj, layout)
        except LaneRangeError as exc:  # dropped as ego and as opponent
            print(f"warning: vehicle {traj.vehicle_id} skipped: {exc}", file=sys.stderr)
            continue
        trajectories.append(traj)
    known = {t.vehicle_id for t in trajectories}
    windows, missing = [], []
    for ev in lkio.read_events(args.events):
        if ev.kind is not EventKind.SINGLE:
            continue
        if ev.vehicle_id in known:
            windows.append((ev.vehicle_id, (ev.t_start, ev.t_end), ev.direction.value))
        else:
            missing.append(ev.vehicle_id)
    if missing:
        print(f"warning: {len(missing)} events skipped: vehicle not in trajectories "
              f"(ids {', '.join(dict.fromkeys(missing))})", file=sys.stderr)
    records = critical_records(trajectories, windows, layout, thresholds)
    lkio.write_records(out / "criticality_records.csv", records)

    # histogram data per metric, threshold marker included
    histograms = {}
    for metric in METRIC_NAMES:
        values = [r.value(metric) for r in records
                  if not math.isnan(r.value(metric))]
        if not values:
            continue
        counts, edges = np.histogram(values, bins=30)
        histograms[metric] = {"edges": edges.tolist(), "counts": counts.tolist(),
                              "threshold": thresholds.limit(metric, layout.speed_limit)}
    lkio.write_json(out / "histograms.json", {"histograms": histograms})

    grouped: dict[tuple[str, str], list] = {}
    for r in records:
        rec_id = r.vehicle_id.split("v")[0]
        grouped.setdefault((rec_id, r.direction), []).append(r)
    boxes = [
        {"metric": st.metric, "direction": st.direction,
         "per_recording": dict(st.per_recording),
         "summary": st.summary.as_dict() if st.summary else None}
        for st in direction_stats(grouped,
                                  warn=lambda m: print(f"warning: {m}", file=sys.stderr))
    ]
    lkio.write_json(out / "direction_boxes.json", {"boxes": boxes})
    print(f"wrote {len(records)} criticality records to {out}")
    return 0


def cmd_stats(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    events = lkio.read_events(args.events)
    classes = None
    if args.vehicles:
        shapes = lkio.read_vehicles(args.vehicles)
        classes = {vid: sh.vclass for vid, sh in shapes.items()}
    summaries = event_stats(events, classes)
    payload = {group: {name: box.as_dict() for name, box in entry.items()}
               for group, entry in summaries.items()}
    lkio.write_json(out / "stats.json", {"groups": payload})
    print(f"wrote summaries for {len(payload)} groups to {out / 'stats.json'}")
    return 0


def _scenario_trajectories(raw: dict[str, str], path: str,
                           cfg: lkio.RunConfig) -> list[Trajectory] | None:
    """The trajectories a scenario file references, None if it names none;
    takes the ``trajectories`` and ``vehicles`` keys out of ``raw``."""
    base = Path(path).parent
    vehicles = raw.pop("vehicles", None)
    if "trajectories" not in raw:
        return None
    shapes = lkio.read_vehicles(base / vehicles) if vehicles is not None else None
    return lkio.ingest(base / raw.pop("trajectories"), shapes=shapes,
                       default_shape=cfg.default_shape).trajectories


def _scenario_from_file(path: str, cfg: lkio.RunConfig) -> tuple[ScenarioSpec, list[float]]:
    raw = lkio.parse_keyvalues(path)
    trajectories = _scenario_trajectories(raw, path, cfg)
    if trajectories is None or "substituted_id" not in raw:
        raise ValueError(f"{path}: a sample scenario needs 'trajectories' and 'substituted_id'")
    w99 = lkio.field_types(cfg.w99)
    values = lkio.parse_fields(raw, {**w99, "substituted_id": str, "dt": float,
                                     "duration": float, "cc1_values": tuple},
                               "scenario key", path)
    spec = ScenarioSpec(
        trajectories=tuple(trajectories),
        substituted_id=values["substituted_id"],
        model=dataclasses.replace(cfg.w99, **{k: values[k] for k in w99 if k in values}),
        layout=cfg.layout,
        dt=values.get("dt", cfg.sim_dt),
        duration=values.get("duration"),
    )
    return spec, list(values.get("cc1_values", ())) or [spec.model.cc1]


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    spec, cc1_values = _scenario_from_file(args.scenario, cfg)
    result = sample_cc1(spec, cc1_values)

    t_col = [lkio.fmt(tk) for tk in result.t.tolist()]
    with (out / "thw_traces.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "opponent_id", "thw", "cc1"])
        for sc in result.scenarios:
            cc1 = repeat(lkio.fmt(sc.cc1))
            for opp_id, trace in sorted(sc.thw_traces.items()):
                thw = [lkio.fmt(val) for val in trace.tolist()]
                writer.writerows(zip(t_col, repeat(opp_id), thw, cc1))
    for sc in result.scenarios:
        lkio.write_trajectories(out / f"simulated_cc1_{sc.cc1:g}.csv",
                                [sc.trajectory])
    print(f"wrote {len(result.scenarios)} sampled scenarios to {out}")
    return 0


# mis-eval scenario keys that are not MISScenario fields, besides
# trajectories, vehicles and role.<vehicle_id>
_MIS_RUN_KEYS = {"mis_on": bool, "inject_front_brake": float, "inject_t": float,
                 "rear_cc1": float, "rear_v_desired": float}


_MIS_ROLES = ("ego", "front", "rear")


def _mis_roles(raw: dict[str, str], path: str,
               trajectories: list[Trajectory] | None) -> dict[str, Trajectory] | None:
    """Role -> tagged trajectory from the ``role.<vehicle_id> = <role>`` keys,
    which it takes out of ``raw``; None without ``trajectories``.  Each role
    is tagged exactly once, on a vehicle of the trajectories file."""
    keys = [k for k in raw if k.startswith("role.")]
    if trajectories is None:
        if keys:
            raise ValueError(f"{path}: scenario key {keys[0]!r} needs a 'trajectories' key")
        return None
    by_id = {t.vehicle_id: t for t in trajectories}
    roles: dict[str, Trajectory] = {}
    tagged_by: dict[str, str] = {}
    for key in keys:
        role, vid = raw.pop(key), key.split(".", 1)[1]
        if role not in _MIS_ROLES:
            raise ValueError(f"{path}: scenario key {key!r}: expected ego, front or rear, "
                             f"got {role!r}")
        if role in roles:
            raise ValueError(f"{path}: scenario key {key!r}: role {role!r} already "
                             f"given by {tagged_by[role]!r}")
        if vid not in by_id:
            raise ValueError(f"{path}: scenario key {key!r}: no vehicle {vid!r} "
                             f"in the trajectories file")
        roles[role], tagged_by[role] = by_id[vid], key
    for role in _MIS_ROLES:
        if role not in roles:
            raise ValueError(f"{path}: no scenario key 'role.<vehicle_id> = {role}'")
    return roles


def _mis_scenario_from_file(path: str, cfg: lkio.RunConfig):
    raw = lkio.parse_keyvalues(path)
    roles = _mis_roles(raw, path, _scenario_trajectories(raw, path, cfg))
    scenario = MISScenario(layout=cfg.layout)
    values = lkio.parse_fields(raw, {**lkio.field_types(scenario), **_MIS_RUN_KEYS},
                               "scenario key", path)
    run = {k: values.pop(k) for k in _MIS_RUN_KEYS if k in values}
    if roles is not None:
        ego, front, rear = roles["ego"], roles["front"], roles["rear"]
        values = dict(
            ego_shape=ego.shape, front_shape=front.shape, rear_shape=rear.shape,
            ego_v0=float(ego.v[0]), front_v0=float(front.v[0]), rear_v0=float(rear.v[0]),
            front_gap0=float(front.s[0] - ego.s[0]
                             - 0.5 * (front.shape.length + ego.shape.length)),
            rear_gap0=float(ego.s[0] - rear.s[0]
                            - 0.5 * (ego.shape.length + rear.shape.length)),
            lane=int(ego.lane[0]),
        ) | values
    if "rear_cc1" in run or "rear_v_desired" in run:
        model = scenario.rear_model
        values["rear_model"] = dataclasses.replace(
            model, cc1=run.get("rear_cc1", model.cc1),
            v_desired=run.get("rear_v_desired", values.get("rear_v0", model.v_desired)))
    injection = (FrontBrakeInjection(decel=run["inject_front_brake"], t=run.get("inject_t"))
                 if "inject_front_brake" in run else None)
    return dataclasses.replace(scenario, **values), injection, run.get("mis_on", True)


def cmd_mis_eval(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    scenario, injection, mis_on = _mis_scenario_from_file(args.scenario, cfg)
    report = run_closed_loop(scenario, cfg.mis, injection, mis_on)
    lkio.write_json(out / "mis_report.json", report.as_dict())
    print(f"engaged={report.engaged} planned_decel={report.planned_decel:.3f} "
          f"min_rear_gap={report.min_rear_gap:.2f} collision={report.collision}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lanekit",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    common(p)
    p.add_argument("--n", type=int, help="number of trajectories")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="detect lane changes")
    common(p)
    p.add_argument("--traj", required=True)
    p.add_argument("--vehicles")
    p.add_argument("--criteria", help="comma list: gradient,peak,distance")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("robustness", help="perturbation sweep vs ground truth")
    common(p)
    p.add_argument("--traj", required=True)
    p.add_argument("--vehicles")
    p.add_argument("--truth", required=True, help="ground-truth events CSV")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("criticality", help="criticality metrics per event")
    common(p)
    p.add_argument("--traj", required=True)
    p.add_argument("--vehicles")
    p.add_argument("--events", required=True)
    p.set_defaults(func=cmd_criticality)

    p = sub.add_parser("stats", help="duration and speed summaries")
    common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--vehicles")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sample", help="cc1 sweep on a substitution scenario")
    common(p)
    p.add_argument("--scenario", required=True, help="scenario key-value file")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mis-eval", help="closed-loop margin increase evaluation")
    common(p)
    p.add_argument("--scenario", required=True, help="scenario key-value file")
    p.set_defaults(func=cmd_mis_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

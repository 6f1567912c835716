"""Command-line surface tying the pipeline together.

Subcommands: ``synth``, ``detect``, ``robustness``, ``criticality``,
``stats``, ``sample``, ``mis-eval``.  Every subcommand takes ``--config``
(flat ``key = value`` file), ``--out`` (output directory) and ``--seed``;
all outputs are deterministic given inputs, configuration and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import io as lkio
from .criticality import (  # noqa: F401 - most_critical: perfbench/tracer.py wraps it here
    METRIC_NAMES,
    critical_records,
    direction_stats,
    most_critical,
)
from .detection import (  # noqa: F401 - the unused detect_*: as most_critical
    EventKind,
    classify_double,
    detect_distance,
    detect_gradient,
    detect_gradients,
    detect_peak,
    detect_rows,
)
from .mis import FrontBrakeInjection, MISScenario, run_closed_loop
from .robustness import Perturbation, sweep
from .stats import event_stats
from .synth import SyntheticCorpus, generate_corpus
from .trajectory import (  # noqa: F401 - resample, lowpass, continuous_lateral: as most_critical
    LaneRangeError,
    Trajectory,
    check_lane_range,
    continuous_lateral,
    lowpass,
    marking_residual,
    preprocess,
    resample,
)
from .wiedemann import CFState, ScenarioSpec, net_gap, sample_cc1


def _load_config(args) -> lkio.RunConfig:
    """``--config``'s settings with ``--seed`` and ``--n`` over them, as ``RunConfig`` checks."""
    cfg = lkio.RunConfig.from_file(args.config) if args.config else lkio.RunConfig()
    given = {"seed": getattr(args, "seed", None), "synth_n": getattr(args, "n", None)}
    return dataclasses.replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _read_trajectories(traj: str | Path, vehicles: str | Path | None,
                       cfg: lkio.RunConfig) -> list[Trajectory]:
    """The vehicles ``ingest`` accepts from the trajectory file ``traj``,
    shaped by the vehicles file if given; what it rejects goes to stderr."""
    shapes = lkio.read_vehicles(vehicles) if vehicles else None
    report = lkio.ingest(traj, shapes=shapes, default_shape=cfg.default_shape)
    for msg in report.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    for vid, reason in report.rejected_vehicles:
        print(f"warning: vehicle {vid} rejected: {reason}", file=sys.stderr)
    if report.rejected_rows:
        print(f"warning: {len(report.rejected_rows)} rows rejected", file=sys.stderr)
    return report.trajectories


def _ingest_corpus(args, cfg) -> list[Trajectory]:
    trajectories = _read_trajectories(args.traj, getattr(args, "vehicles", None), cfg)
    for traj in trajectories:
        if traj.has_markings:
            residual = marking_residual(traj, cfg.layout)
            if residual > cfg.marking_tolerance:
                print(f"warning: vehicle {traj.vehicle_id}: marking distances "
                      f"inconsistent by {residual:.3f} m", file=sys.stderr)
    return trajectories


def _warn_skipped(skipped: list[tuple[str, str]]) -> None:
    for vid, reason in skipped:
        print(f"warning: vehicle {vid} skipped: {reason}", file=sys.stderr)


def cmd_synth(args, cfg: lkio.RunConfig, out: Path) -> int:
    corpus = generate_corpus(n=cfg.synth_n, seed=cfg.seed, layout=cfg.layout,
                             truck_fraction=cfg.truck_fraction)
    lkio.write_trajectories(out / "trajectories.csv", corpus.trajectories)
    lkio.write_vehicles(out / "vehicles.csv", corpus.trajectories)
    lkio.write_events(out / "truth_events.csv", corpus.truth_events)
    print(f"wrote {len(corpus.trajectories)} trajectories, "
          f"{len(corpus.truth_events)} true events to {out}")
    return 0


_CRITERIA = ("gradient", "peak", "distance")


def cmd_detect(args, cfg: lkio.RunConfig, out: Path) -> int:
    layout = cfg.layout
    criteria = args.criteria.split(",") if args.criteria else _CRITERIA
    for name in criteria:
        if name not in _CRITERIA:
            raise ValueError(f"unknown criterion {name!r}")
    trajectories = _ingest_corpus(args, cfg)
    kept, skipped = preprocess(trajectories, layout, cfg.resample_rate, cfg.lowpass_cutoff)
    _warn_skipped(skipped)
    pres = [pre for _, pre in kept]
    found = detect_rows(pres, [pre.lat[None] for pre in pres], layout, criteria, cfg.peak,
                        cfg.distance_threshold, cfg.lowpass_cutoff, cfg.min_lateral_extent)
    marked = [i for i, _ in kept if trajectories[i].has_markings] if "gradient" in criteria else []
    gradient = dict(zip(marked, detect_gradients([trajectories[i] for i in marked], layout,
                                                 cfg.peak)))
    all_events = []
    for (i, _), rows in zip(kept, found):
        if i in gradient:
            all_events.extend(classify_double(gradient[i], layout))
        for events in rows.values():  # peak, then distance
            all_events.extend(classify_double(events[0], layout))
    lkio.write_events(out / "events.csv", all_events)
    print(f"wrote {len(all_events)} events to {out / 'events.csv'}")
    return 0


def cmd_robustness(args, cfg: lkio.RunConfig, out: Path) -> int:
    layout = cfg.layout
    trajectories = _ingest_corpus(args, cfg)
    # the sweep reads only the resampled tracks, and keeps each as it is:
    # holding it in its raw track's place frees the raw samples
    for i, pre in preprocess(trajectories, layout, cfg.resample_rate, cfg.lowpass_cutoff)[0]:
        trajectories[i] = pre
    truth = lkio.read_events(args.truth)
    corpus = SyntheticCorpus(tuple(trajectories), tuple(truth), layout)

    grid = ([Perturbation("bias", b) for b in cfg.bias_grid]
            + [Perturbation("brownian", s) for s in cfg.brownian_grid])
    report = sweep(corpus, ("peak", "distance"), grid, layout, cfg.peak,
                   distance_threshold=cfg.distance_threshold, seed=cfg.seed,
                   cutoff=cfg.lowpass_cutoff, rate=cfg.resample_rate)
    _warn_skipped(report.skipped)
    if report.truth_left_out:
        print(f"warning: {report.truth_left_out} true events of vehicles not swept "
              "left out of the truth count", file=sys.stderr)
    lkio.write_robustness(out / "robustness.csv", out / "robustness_plot.json", report)
    print(f"wrote {len(report.points)} grid points to {out / 'robustness.csv'}")
    return 0


def cmd_criticality(args, cfg: lkio.RunConfig, out: Path) -> int:
    layout = cfg.layout
    thresholds = cfg.thresholds
    trajectories = []
    for traj in _ingest_corpus(args, cfg):
        try:
            check_lane_range(traj, layout)
            trajectories.append(traj)
        except LaneRangeError as exc:  # dropped as ego and as opponent
            _warn_skipped([(traj.vehicle_id, str(exc))])
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
    boxes = direction_stats(grouped)
    lkio.write_json(out / "direction_boxes.json", {"boxes": boxes})
    print(f"wrote {len(records)} criticality records to {out}")
    return 0


def cmd_stats(args, cfg: lkio.RunConfig, out: Path) -> int:
    events = lkio.read_events(args.events)
    classes = None
    if args.vehicles:
        shapes = lkio.read_vehicles(args.vehicles)
        classes = {vid: sh.vclass for vid, sh in shapes.items()}
    summaries = event_stats(events, classes)
    lkio.write_json(out / "stats.json", {"groups": summaries})
    print(f"wrote summaries for {len(summaries)} groups to {out / 'stats.json'}")
    return 0


def _scenario_trajectories(raw: dict[str, str], path: str,
                           cfg: lkio.RunConfig) -> list[Trajectory] | None:
    """The trajectories a scenario file references, None if it names none;
    takes the ``trajectories`` and ``vehicles`` keys out of ``raw``."""
    base = Path(path).parent
    vehicles = raw.pop("vehicles", None)
    if "trajectories" not in raw:
        if vehicles is not None:
            raise ValueError(f"{path}: scenario key 'vehicles' needs a 'trajectories' key")
        return None
    return _read_trajectories(base / raw.pop("trajectories"),
                              base / vehicles if vehicles is not None else None, cfg)


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


def cmd_sample(args, cfg: lkio.RunConfig, out: Path) -> int:
    spec, cc1_values = _scenario_from_file(args.scenario, cfg)
    names = [f"simulated_cc1_{cc1:g}.csv" for cc1 in cc1_values]
    for j, name in enumerate(names):
        if name in names[:j]:  # the rollouts would overwrite each other
            raise ValueError(f"cc1 values {cc1_values[names.index(name)]} and "
                             f"{cc1_values[j]} both write {name}")
    result = sample_cc1(spec, cc1_values)

    lkio.write_thw_traces(out / "thw_traces.csv", result)
    for name, sc in zip(names, result.scenarios):
        lkio.write_trajectories(out / name, [sc.trajectory])
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
        ego, front, rear = (CFState(float(t.s[0]), float(t.v[0]), length=t.shape.length)
                            for t in (roles["ego"], roles["front"], roles["rear"]))
        values = dict(
            ego_shape=roles["ego"].shape, front_shape=roles["front"].shape,
            rear_shape=roles["rear"].shape, ego_v0=ego.v, front_v0=front.v, rear_v0=rear.v,
            front_gap0=net_gap(ego, front), rear_gap0=net_gap(rear, ego),
            lane=int(roles["ego"].lane[0]),
        ) | values
    # a range error names the key; the rear model's speed defaults to rear_v0
    keys = {"cc1": "rear_cc1", "decel": "inject_front_brake", "t": "inject_t",
            "v_desired": "rear_v_desired" if "rear_v_desired" in run else "rear_v0"}
    try:
        if "rear_cc1" in run or "rear_v_desired" in run:
            model = scenario.rear_model
            values["rear_model"] = dataclasses.replace(
                model, cc1=run.get("rear_cc1", model.cc1),
                v_desired=run.get("rear_v_desired", values.get("rear_v0", model.v_desired)))
        injection = (FrontBrakeInjection(decel=run["inject_front_brake"], t=run.get("inject_t"))
                     if "inject_front_brake" in run else None)
    except ValueError as exc:
        raise lkio.key_error(exc, keys) from None
    return dataclasses.replace(scenario, **values), injection, run.get("mis_on", True)


def cmd_mis_eval(args, cfg: lkio.RunConfig, out: Path) -> int:
    scenario, injection, mis_on = _mis_scenario_from_file(args.scenario, cfg)
    report = run_closed_loop(scenario, cfg.mis, injection, mis_on)
    lkio.write_json(out / "mis_report.json", report.as_dict())
    print(f"engaged={report.engaged} planned_decel={report.planned_decel:.3f} "
          f"min_rear_gap={report.min_rear_gap:.2f} collision={report.collision}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lanekit`` parser, built once per process: ``main`` reuses it."""
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
        cfg = _load_config(args)  # before the output directory: a bad config creates none
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg, out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

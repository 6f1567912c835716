"""The three workloads: their inputs and the CLI operations of one pass.

``setup(name, seed, inputs)`` writes a workload's input files and returns
a manifest; ``plan(name, manifest)`` lists the operations of one pass.  An
operation is one ``lanekit`` subcommand; its argv names the pass's output
directory as ``{out}``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import gen

NAMES = ("recordings", "aerial-sweep", "scenario-synthesis")

N_RECORDINGS = 8
RECORDING_SPAN = 60.0  # [s] vehicles of one recording enter within this span
AERIAL_BLOCKS = 8  # x 25 vehicles
AERIAL_SPAN = 300.0  # [s]
AERIAL_RATE = 25.0  # [Hz]
SHORT_TRACK_SECONDS = 1.0
N_SCENES = 3
SCENE_SPAN = 20.0  # [s] every vehicle of a scene enters within this span
SCENE_SUBSTITUTED_TRACK = 40.0  # [s]
CC1_VALUES = (0.9, 0.7, 0.5, 0.3, 0.1)
MIS_REAR_SPEEDS = (38.0, 40.0, 42.0, 44.0, 46.0)  # [m/s]
MIS_FRONT_BRAKES = (None, 4.0)  # [m/s^2]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def _setup_recordings(seed: int, inputs: Path) -> dict:
    rng = _rng(seed, 1)
    files = []
    for r in range(1, N_RECORDINGS + 1):
        name = f"r{r:02d}"
        vehicles, maneuvers = gen.recording(rng, name, 5.0, True, RECORDING_SPAN)
        files.append(gen.write_recording(inputs, name, vehicles, maneuvers, 5.0))
    return {"recordings": files}


def _setup_aerial(seed: int, inputs: Path) -> dict:
    vehicles, maneuvers = gen.recording(_rng(seed, 2), "a01", AERIAL_RATE, False,
                                        AERIAL_SPAN, n_blocks=AERIAL_BLOCKS)
    main = gen.write_recording(inputs, "a01", vehicles, maneuvers, AERIAL_RATE)
    # the short-track file does not depend on the seed: its detect call
    # fails on every run until the program quarantines short tracks
    rng = _rng(0, 3)
    vehicles, maneuvers = gen.recording(rng, "e01", AERIAL_RATE, False, RECORDING_SPAN)
    short = gen.short_track(rng, "e01v0026", AERIAL_RATE, SHORT_TRACK_SECONDS,
                            RECORDING_SPAN)
    edge = gen.write_recording(inputs, "e01", vehicles + [short], maneuvers, AERIAL_RATE)
    edge["short_track"] = short.vid
    return {"aerial": main, "short_track": edge}


def _scenario_file(path: Path, traj: str, vehicles: str, substituted: str,
                   duration: float | None) -> None:
    lines = [f"trajectories = {Path(traj).name}", f"vehicles = {Path(vehicles).name}",
             f"substituted_id = {substituted}",
             "cc1_values = " + ", ".join(f"{c:g}" for c in CC1_VALUES),
             "v_desired = 33.0"]
    if duration is not None:
        lines.append(f"duration = {duration:g}")
    path.write_text("\n".join(lines) + "\n")


def _setup_scenarios(seed: int, inputs: Path) -> dict:
    rng = _rng(seed, 4)
    scenes = []
    for k in range(1, N_SCENES + 1):
        name = f"s{k:02d}"
        vehicles, maneuvers = gen.recording(rng, name, 5.0, True, SCENE_SPAN)
        # the substituted vehicle is in view for a fixed time and changes
        # lanes once, so every seed rolls out the same number of steps
        sub, sub_man = gen.substituted_vehicle(rng, f"{name}v0000", 5.0,
                                               SCENE_SUBSTITUTED_TRACK)
        scene = gen.write_recording(inputs, name, [sub] + vehicles, sub_man + maneuvers, 5.0)
        scene["substituted"] = sub.vid
        scene["scenario"] = str(inputs / f"{name}.cfg")
        _scenario_file(Path(scene["scenario"]), scene["traj"], scene["vehicles"],
                       sub.vid, None)
        scenes.append(scene)

    vehicles = gen.overtake_scene()
    scene = gen.write_recording(inputs, "overtake", vehicles, [], 5.0)
    scene.update(substituted="ego", scenario=str(inputs / "overtake.cfg"), slow_leader="slow")
    _scenario_file(Path(scene["scenario"]), scene["traj"], scene["vehicles"], "ego", 60.0)
    scenes.append(scene)

    mis = []
    for rear_v in MIS_REAR_SPEEDS:
        for brake in MIS_FRONT_BRAKES:
            for on in (True, False):
                name = (f"mis-v{rear_v:g}-{'brake' if brake else 'cruise'}"
                        f"-{'on' if on else 'off'}")
                path = inputs / f"{name}.cfg"
                lines = [f"mis_on = {'true' if on else 'false'}", f"rear_v0 = {rear_v:g}"]
                if brake is not None:
                    lines.append(f"inject_front_brake = {brake:g}")
                path.write_text("\n".join(lines) + "\n")
                mis.append({"name": name, "scenario": str(path), "mis_on": on,
                            "front_brake": brake})
    return {"scenes": scenes, "mis": mis, "cc1_values": list(CC1_VALUES)}


def setup(name: str, seed: int, inputs: Path) -> dict:
    inputs.mkdir(parents=True, exist_ok=True)
    build = {"recordings": _setup_recordings, "aerial-sweep": _setup_aerial,
             "scenario-synthesis": _setup_scenarios}[name]
    return build(seed, inputs)


def _op(name: str, kind: str, argv: list[str], **meta) -> dict:
    return {"name": name, "kind": kind, "argv": argv, "out": f"{{out}}/{name}", **meta}


def plan(name: str, manifest: dict) -> list[dict]:
    ops = []
    if name == "recordings":
        for rec in manifest["recordings"]:
            r = rec["name"]
            det = f"{{out}}/{r}.detect"
            ops.append(_op(f"{r}.detect", "detect",
                           ["detect", "--traj", rec["traj"], "--vehicles", rec["vehicles"],
                            "--out", det], input=rec))
            ops.append(_op(f"{r}.criticality", "criticality",
                           ["criticality", "--traj", rec["traj"], "--vehicles",
                            rec["vehicles"], "--events", f"{det}/events.csv",
                            "--out", f"{{out}}/{r}.criticality"],
                           input=rec, events=f"{det}/events.csv"))
            ops.append(_op(f"{r}.stats", "stats",
                           ["stats", "--events", f"{det}/events.csv", "--vehicles",
                            rec["vehicles"], "--out", f"{{out}}/{r}.stats"],
                           input=rec, events=f"{det}/events.csv"))
    elif name == "aerial-sweep":
        rec = manifest["aerial"]
        ops.append(_op("a01.detect", "detect",
                       ["detect", "--traj", rec["traj"], "--vehicles", rec["vehicles"],
                        "--out", "{out}/a01.detect"], input=rec))
        ops.append(_op("a01.robustness", "robustness",
                       ["robustness", "--traj", rec["traj"], "--vehicles", rec["vehicles"],
                        "--truth", rec["truth"], "--out", "{out}/a01.robustness"],
                       input=rec))
        edge = manifest["short_track"]
        ops.append(_op("e01.detect", "detect",
                       ["detect", "--traj", edge["traj"], "--vehicles", edge["vehicles"],
                        "--out", "{out}/e01.detect"], input=edge,
                       known_fault="a 1 s track has fewer than 10 samples after "
                                   "resampling, lowpass raises and detect exits 1"))
    else:
        for scene in manifest["scenes"]:
            ops.append(_op(f"{scene['name']}.sample", "sample",
                           ["sample", "--scenario", scene["scenario"],
                            "--out", f"{{out}}/{scene['name']}.sample"],
                           input=scene, cc1_values=manifest["cc1_values"]))
        for case in manifest["mis"]:
            ops.append(_op(f"{case['name']}.mis-eval", "mis-eval",
                           ["mis-eval", "--scenario", case["scenario"],
                            "--out", f"{{out}}/{case['name']}.mis-eval"], input=case))
    return ops

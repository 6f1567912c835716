"""lanekit benchmark: one workload, closed loop, outputs checked.

    python3 perfbench/run.py --workload recordings --seed 1 --seconds 20 --trace 0

Run from the root of a lanekit checkout; the program is imported from its
``src/``.  The harness writes the workload's inputs from ``--seed`` (set
up at least five times and 1.5 s, the median is ``setup_s``), then starts
``perfbench/worker.py``, the one process that calls ``lanekit.cli.main``
for every operation, one at a time.  After it ends, the harness checks
the outputs, counts the operations attempted and failed, and prints the
metrics: the ``end_to_end`` ones of ``BENCHMARK.json`` with ``--trace 0``,
the ``per_layer`` ones with ``--trace 1``.  The last line of standard
output is the result as JSON.  ``--workload all`` runs every workload in
turn.  Scratch files go to ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SETUP_REPEATS, SETUP_SECONDS = 5, 1.5  # set up at least this often and this long
DEADLINE = 170.0  # [s] the whole run, checks included, ends before this

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# checking one operation's outputs

class Checker:
    """Dispatches an operation to its check; reads each input file once."""

    def __init__(self) -> None:
        self._tracks: dict[str, dict] = {}

    def tracks(self, rec: dict) -> dict:
        if rec["traj"] not in self._tracks:
            self._tracks[rec["traj"]] = checks.read_tracks(rec["traj"], rec["vehicles"])
        return self._tracks[rec["traj"]]

    def __call__(self, op: dict, out: Path, events: Path | None) -> str | None:
        rec, kind = op["input"], op["kind"]
        if kind == "detect":
            # a short track carries no maneuver; the others must still match
            skip = {rec["short_track"]} if "short_track" in rec else set()
            return checks.check_detect(out / "events.csv", rec["truth"], rec["markings"],
                                       rec["rate"], skip)
        if kind == "criticality":
            return checks.check_criticality(out / "criticality_records.csv", events,
                                            self.tracks(rec))
        if kind == "stats":
            return checks.check_stats(out / "stats.json", events, self.tracks(rec))
        if kind == "robustness":
            return checks.check_robustness(out / "robustness.csv", rec["truth"])
        if kind == "sample":
            return checks.check_sample(out, op["cc1_values"], self.tracks(rec),
                                       rec["substituted"], rec.get("slow_leader"))
        return checks.check_mis(out / "mis_report.json", rec["mis_on"], rec["front_brake"])


def _same_files(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files or cmp.subdirs:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors


def _count_rows(path: Path) -> int:
    with path.open() as fh:
        return sum(1 for _ in fh) - 1


def _work(op: dict, out: Path, events: Path | None) -> int:
    """Units of work one operation did, for the stage throughputs."""
    kind = op["kind"]
    if kind == "detect":
        return op["input"]["n_vehicles"]
    if kind == "criticality":
        return sum(1 for r in checks.read_csv(events) if r["kind"] == "single")
    if kind == "robustness":
        return _count_rows(out / "robustness.csv") * op["input"]["n_vehicles"]
    if kind == "sample":
        return sum(_count_rows(out / f"simulated_cc1_{c:g}.csv") for c in op["cc1_values"])
    return 1


STAGES = {  # subcommand -> (throughput metric, its base)
    "detect": ("detect_vehicles_per_s", "detect_vehicles"),
    "criticality": ("criticality_events_per_s", "criticality_events"),
    "robustness": ("sweep_evals_per_s", "sweep_evals"),
    "sample": ("sample_steps_per_s", "sample_steps"),
    "mis-eval": ("mis_evals_per_s", "mis_evals"),
}


# --------------------------------------------------------------------------
# one workload

def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    started = monotonic()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs"

    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = perf_counter()
        manifest = workloads.setup(name, seed, inputs)
        setup_times.append(perf_counter() - t0)
    ops = workloads.plan(name, manifest)
    (work / "plan.json").write_text(json.dumps(
        {"src": str(SRC), "seconds": seconds, "trace": trace, "ops": ops}))

    budget = DEADLINE - (monotonic() - started) - 15.0
    try:
        child = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work)],
                               cwd=ROOT, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: worker did not finish within {budget:.0f} s") from exc
    if child.returncode != 0:
        raise BenchError(f"{name}: worker exited {child.returncode}: "
                         f"{child.stderr.strip()[-2000:]}")
    result = json.loads((work / "result.json").read_text())
    passes = result["passes"]

    def paths(k: int, op: dict) -> tuple[Path, Path | None]:
        out = Path(op["out"].replace("{out}", str(work / "out" / f"p{k}")))
        ev = op.get("events")
        return out, Path(ev.replace("{out}", str(work / "out" / f"p{k}"))) if ev else None

    # pass 0 is checked; every later pass must write the same bytes
    checker = Checker()
    verdict, work_units = [], []
    correct = True
    notes = []
    for op, res in zip(ops, passes[0]["ops"]):
        out, events = paths(0, op)
        if res["rc"] != 0:
            verdict.append(f"exit {res['rc']}: {res['error']}")
            work_units.append(0)
            if not op.get("known_fault"):
                notes.append(f"{op['name']}: {verdict[-1]}")
            continue
        reason = checker(op, out, events)
        verdict.append(reason)
        work_units.append(_work(op, out, events))
        if reason is not None:
            correct = False
            notes.append(f"{op['name']}: check failed: {reason}")
    attempted = failed = 0
    for k, p in enumerate(passes):
        for i, (op, res) in enumerate(zip(ops, p["ops"])):
            attempted += 1
            bad = res["rc"] != 0 or verdict[i] is not None
            if not bad and k > 0 and not _same_files(paths(0, op)[0], paths(k, op)[0]):
                bad = True
                correct = False
                notes.append(f"{op['name']}: pass {k} wrote other bytes than pass 0")
            failed += bad

    walls = [sum(o["seconds"] for o in p["ops"]) for p in passes]
    untraced = [k for k, p in enumerate(passes) if not p["traced"]]
    stages: dict[str, float] = {}
    for kind, (rate, base) in STAGES.items():
        idx = [i for i, op in enumerate(ops)
               if op["kind"] == kind and passes[0]["ops"][i]["rc"] == 0]
        units = sum(work_units[i] for i in idx)
        rates = [units / sum(passes[k]["ops"][i]["seconds"] for i in idx) if idx else 0.0
                 for k in untraced]
        stages[rate] = statistics.median(rates)
        stages[base] = units

    metrics: dict[str, float] = {}
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls[k] for k in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    else:
        kinds = [op["kind"] for op in ops]
        crit_ops = [i for i, op in enumerate(ops) if op["kind"] == "criticality"]
        pairs = sum(work_units[i] * (ops[i]["input"]["n_vehicles"] - 1) for i in crit_ops)
        traced = json.loads((work / "spans.json").read_text())
        per_pass = [layers.pass_metrics(t["spans"], kinds, pairs) for t in traced]
        for key in per_pass[0]:
            metrics[key] = statistics.median(pm[key] for pm in per_pass)
        traced_wall = statistics.median(walls[t["pass"]] for t in traced)
        untraced_wall = statistics.median(walls[k] for k in untraced)
        metrics.update(stages)
        metrics.update({"trace.traced_wall_s": traced_wall,
                        "trace.untraced_wall_s": untraced_wall,
                        "trace.overhead_s": traced_wall - untraced_wall})
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
        notes.append(f"layer self times add up to {self_sum:.4f} s; traced pass "
                     f"{traced_wall:.4f} s, untraced {untraced_wall:.4f} s")

    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(listed):
        raise BenchError(f"{name}: metrics {sorted(set(metrics) ^ set(listed))} "
                         "do not match BENCHMARK.json")
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": listed[k]} for k in listed},
        "passes": len(passes), "stages": stages, "notes": notes,
        "known_faults": [f"{op['name']}: {op['known_fault']}" for op in ops
                         if op.get("known_fault")],
    }


def _report(name: str, seed: int, res: dict) -> None:
    print(f"{name} (seed {seed}): {res['passes']} passes, "
          f"{res['attempted']} operations attempted, {res['failed']} failed, "
          f"correct={res['correct']}")
    for key, m in res["metrics"].items():
        print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
    for rate, _ in STAGES.values():
        if res["stages"][rate] and rate not in res["metrics"]:
            print(f"  {rate:34s} {res['stages'][rate]:14.6g} (stage throughput)")
    for line in res["known_faults"]:
        print(f"  known fault, counted failed: {line}")
    for line in res["notes"]:
        print(f"  {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lanekit" / "__init__.py").is_file():
        print(f"error: no lanekit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            _report(name, args.seed, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

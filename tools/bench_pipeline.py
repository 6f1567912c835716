#!/usr/bin/env python3
"""Fresh-process timings of README's pipeline, for comparing checkouts.

Runs ``lanekit synth``, ``detect``, ``robustness``, ``criticality``,
``stats`` and ``sample`` as README's command-line block does, each in its
own process, plus a cold ``import lanekit.cli``, once per checkout per
pair.  ``sample`` substitutes the corpus's first vehicle (``r00v0000``)
and rolls it out for README's five cc1 values (``SCENARIO``).  The
checkouts alternate pair by pair (A B, then B A, ...), so a drift of the
machine's speed falls on both.  For each stage and run it records:

* the wall time of the child process,
* the child's CPU time (user + system) and peak resident memory
  (``ru_maxrss``),
* a calibration loop's time, taken in this process just before the
  stage, and the wall time as a ratio to it.

It writes ``BENCH_<label>.json`` per checkout: the runs, their minimum
and median, the sha256 of the files each stage wrote in the first pair
(equal digests mean equal outputs), the corpus, the machine facts and
the Python and numpy versions.  It adds no gate: it exits 0 unless a
stage fails.  Standard library only; numpy is only imported by the
children.

    python tools/bench_pipeline.py --checkout parent=../parent --checkout new=. \\
        --pairs 5 --out .
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

CALIBRATION_STEPS = 2_000_000
# sample's scenario file, written into each run's directory before its stages
SCENARIO = ("trajectories = data/trajectories.csv\nvehicles = data/vehicles.csv\n"
            "substituted_id = r00v0000\ncc1_values = 0.9, 0.7, 0.5, 0.3, 0.1\n")


def stages(n: int, seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv of ``lanekit``) of each stage, paths relative to its run's directory
    (which holds ``scenario.cfg``); ``import`` imports ``lanekit.cli`` and runs nothing."""
    corpus = ["--traj", "data/trajectories.csv", "--vehicles", "data/vehicles.csv"]
    return [
        ("import", []),
        ("synth", ["synth", "--out", "data", "--n", str(n), "--seed", str(seed)]),
        ("detect", ["detect", *corpus, "--out", "results"]),
        ("robustness", ["robustness", *corpus, "--truth", "data/truth_events.csv",
                        "--out", "results"]),
        ("criticality", ["criticality", *corpus, "--events", "results/events.csv",
                         "--out", "results"]),
        ("stats", ["stats", "--events", "results/events.csv", "--vehicles", "data/vehicles.csv",
                   "--out", "results"]),
        ("sample", ["sample", "--scenario", "scenario.cfg", "--out", "results"]),
    ]


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: the machine's current speed."""
    t0 = perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i
    return perf_counter() - t0


def snapshot(root: Path) -> dict[Path, tuple[int, int]]:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


def run_stage(src: Path, argv: list[str], cwd: Path) -> dict:
    """Run one stage in a fresh interpreter; its times, memory and the
    files it wrote."""
    code = ("import sys\nfrom lanekit.cli import main\nsys.exit(main(sys.argv[1:]))" if argv
            else "import lanekit.cli")
    env = dict(os.environ, PYTHONPATH=str(src))
    before = snapshot(cwd)
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as child:
        stderr = child.stderr.read()
        _, status, usage = os.wait4(child.pid, 0)  # the child's own rusage
        wall = perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv) or 'import'} in {src} exited "
                         f"{child.returncode}: {stderr.decode()[-2000:]}")
    after = snapshot(cwd)
    digest = hashlib.sha256()
    for path in sorted(p for p in after if before.get(p) != after[p]):
        digest.update(path.relative_to(cwd).as_posix().encode() + b"\0")
        # in chunks: a child inherits this process's peak memory as the floor
        # of its own ru_maxrss, so reading a whole output here would raise it
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0, "outputs_sha256": digest.hexdigest()}


def machine() -> dict:
    facts = {"platform": platform.platform(), "machine": platform.machine(),
             "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
             "python_implementation": platform.python_implementation()}
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        facts["cpu_model"] = models[0] if models else None
    meminfo = Path("/proc/meminfo")
    if meminfo.is_file():
        total = [line.split()[1] for line in meminfo.read_text().splitlines()
                 if line.startswith("MemTotal:")]
        facts["mem_total_mb"] = int(total[0]) / 1024.0 if total else None
    return facts


def describe(checkout: Path) -> dict:
    """The numpy version a checkout runs with, its git commit and whether
    its ``src`` differs from that commit (None outside git)."""
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(checkout / "src")))
    facts = {"numpy": numpy.stdout.strip() or None, "commit": None, "dirty": None}
    if shutil.which("git"):
        git = ["git", "-C", str(checkout)]
        commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        if commit.returncode == 0:
            status = subprocess.run([*git, "status", "--porcelain", "--", "src"],
                                    capture_output=True, text=True)
            facts.update(commit=commit.stdout.strip(), dirty=bool(status.stdout.strip()))
    return facts


def summary(values: list[float]) -> dict:
    return {"min": min(values), "median": statistics.median(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                        help="a checkout to time (a directory holding src/lanekit); "
                             "give it twice to compare two")
    parser.add_argument("--pairs", type=int, default=5, help="runs of each checkout")
    parser.add_argument("--n", type=int, default=200, help="synth's corpus size")
    parser.add_argument("--seed", type=int, default=7, help="synth's seed")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for the BENCH_<label>.json files")
    args = parser.parse_args(argv)
    sides = []
    for item in args.checkout:
        label, sep, path = item.partition("=")
        src = Path(path).resolve() / "src"
        if not sep or not label or not (src / "lanekit" / "__init__.py").is_file():
            parser.error(f"--checkout {item!r}: want LABEL=PATH with PATH/src/lanekit")
        sides.append((label, src))
    if len({label for label, _ in sides}) != len(sides):
        parser.error("the checkouts' labels must differ")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    plan = stages(args.n, args.seed)
    runs = {label: {name: [] for name, _ in plan} for label, _ in sides}
    with tempfile.TemporaryDirectory(prefix="bench_pipeline_") as tmp:
        for pair in range(args.pairs):
            for label, src in (sides if pair % 2 == 0 else sides[::-1]):
                work = Path(tmp) / f"{label}_{pair}"
                work.mkdir()
                (work / "scenario.cfg").write_text(SCENARIO)
                for name, argv in plan:
                    calibration = calibrate()
                    result = run_stage(src, argv, work)
                    result.update(calibration_s=calibration,
                                  wall_ratio=result["wall_s"] / calibration)
                    runs[label][name].append(result)
                    print(f"pair {pair} {label:>12s} {name:12s} {result['wall_s']:8.3f} s wall"
                          f" {result['cpu_s']:8.3f} s cpu {result['maxrss_mb']:7.1f} MB"
                          f" {result['wall_ratio']:6.2f} x calibration", flush=True)
                shutil.rmtree(work)

    args.out.mkdir(parents=True, exist_ok=True)
    facts = machine()
    for label, src in sides:
        report = {
            "label": label, **describe(src.parent),
            "corpus": {"n": args.n, "seed": args.seed}, "pairs": args.pairs,
            "order": "checkouts alternate: the given order on even pairs, reversed on odd",
            "machine": facts, "calibration_steps": CALIBRATION_STEPS,
            "stages": {
                name: {
                    "argv": ["lanekit", *argv] if argv else ["python", "-c", "import lanekit.cli"],
                    **{key: summary([r[key] for r in runs[label][name]])
                       for key in ("wall_s", "cpu_s", "maxrss_mb", "wall_ratio")},
                    "outputs_sha256": runs[label][name][0]["outputs_sha256"],
                    "runs": [{k: v for k, v in r.items() if k != "outputs_sha256"}
                             for r in runs[label][name]],
                } for name, argv in plan},
        }
        path = args.out / f"BENCH_{label}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The process that runs a workload: one client calling ``lanekit.cli.main``.

Usage: ``python3 perfbench/worker.py <workdir>``.  It reads
``<workdir>/plan.json``, makes whole passes over the plan's operations one
call at a time until the next pass would end after ``seconds`` (at least
three passes), and writes ``<workdir>/result.json``.  Pass ``k`` writes its
outputs under ``<workdir>/out/p<k>``.  With ``trace`` set the passes
alternate untraced and traced, and the spans of the traced passes go to
``<workdir>/spans.json``, outside every output directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

MIN_PASSES = 3


def _run_op(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().strip().splitlines()
    return rc, lines[-1] if lines else ""


def main(workdir: Path) -> None:
    plan = json.loads((workdir / "plan.json").read_text())
    src = Path(plan["src"])
    sys.path.insert(0, str(src))
    import lanekit
    if Path(lanekit.__file__).resolve().parent != (src / "lanekit").resolve():
        raise SystemExit(f"lanekit imported from {lanekit.__file__}, not from {src}")
    import lanekit.cli
    from tracer import Tracer

    tracer = Tracer() if plan["trace"] else None
    passes: list[dict] = []
    traced_spans: list[dict] = []

    def run_pass(traced: bool) -> None:
        k = len(passes)
        out = workdir / "out" / f"p{k}"
        if traced:
            tracer.spans.clear()
            tracer.install()
        ops = []
        try:
            for i, op in enumerate(plan["ops"]):
                argv = [a.replace("{out}", str(out)) for a in op["argv"]]
                t0 = perf_counter()
                if traced:
                    tracer.op = i
                    rc, err = tracer.span("lanekit.cli.main", "cli", _run_op,
                                          lanekit.cli.main, argv)
                else:
                    rc, err = _run_op(lanekit.cli.main, argv)
                ops.append({"rc": rc, "seconds": perf_counter() - t0, "error": err})
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "ops": ops})
        if traced:
            traced_spans.append({"pass": k, "spans": list(tracer.spans)})

    # whole passes until the next would end after `seconds`, at least three
    # so that the median discards one pass slowed by the machine; with
    # tracing, odd passes are traced
    started = perf_counter()
    while True:
        run_pass(tracer is not None and len(passes) % 2 == 1)
        done = len(passes)
        if done >= MIN_PASSES and \
                (perf_counter() - started) * (done + 1) / done > plan["seconds"]:
            break

    if traced_spans:
        (workdir / "spans.json").write_text(json.dumps(traced_spans))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (workdir / "result.json").write_text(json.dumps(
        {"passes": passes, "peak_rss_mb": peak_kb / 1024.0}))


if __name__ == "__main__":
    main(Path(sys.argv[1]))

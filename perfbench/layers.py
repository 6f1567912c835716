"""Per-layer metrics of one traced pass, computed from its spans.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans of a pass add up to the
durations of its top-level ``lanekit.cli.main`` spans, the traced pass's
wall time.  ``<fn>_s`` metrics are inclusive: every span of that function
that is not nested in another span of the same function.
"""

from __future__ import annotations

LAYERS = ("io", "trajectory", "detection", "robustness", "criticality", "stats",
          "wiedemann", "mis", "cli")
SUBCOMMANDS = ("detect", "robustness", "criticality", "stats", "sample", "mis-eval")
WRITERS = {"write_trajectories", "write_vehicles", "write_events", "write_records",
           "write_robustness", "write_json"}

NAME, LAYER, START, END, PARENT, OP, COUNT = range(7)


class _Pass:
    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.base = [s[NAME].rsplit(".", 1)[-1] for s in spans]
        self.dur = [s[END] - s[START] for s in spans]

    def ancestors(self, i: int):
        p = self.spans[i][PARENT]
        while p >= 0:
            yield p
            p = self.spans[p][PARENT]

    def outermost(self, names: set[str]) -> list[int]:
        return [i for i, b in enumerate(self.base) if b in names
                and not any(self.base[a] in names for a in self.ancestors(i))]

    def inclusive(self, *names: str) -> float:
        return sum(self.dur[i] for i in self.outermost(set(names)))

    def calls(self, name: str) -> int:
        return sum(1 for b in self.base if b == name)

    def count(self, name: str) -> int:
        return sum(s[COUNT] or 0 for s, b in zip(self.spans, self.base) if b == name)

    def self_times(self) -> list[float]:
        own = list(self.dur)
        for s, d in zip(self.spans, self.dur):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= d
        return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[list], op_kinds: list[str], pairs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``op_kinds`` gives the subcommand of each operation id; ``pairs`` is
    the events x opponents count of the pass, taken from its inputs.
    """
    p = _Pass(spans)
    own = p.self_times()
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        m[f"{s[LAYER]}.self_s"] += t
    for kind in SUBCOMMANDS:
        m[f"cli.{kind}.self_s"] = sum(
            t for s, t in zip(spans, own)
            if s[NAME] == "lanekit.cli.main" and op_kinds[s[OP]] == kind)

    ingest_s = p.inclusive("ingest")
    m.update({
        "io.ingest_s": ingest_s,
        "io.ingest_rows": p.count("ingest"),
        "io.ingest_rows_per_s": _ratio(p.count("ingest"), ingest_s),
        "io.read_events_s": p.inclusive("read_events"),
        "io.write_s": p.inclusive(*WRITERS),
        "trajectory.resample_s": p.inclusive("resample"),
        "trajectory.resample_calls": p.calls("resample"),
        "trajectory.lowpass_s": p.inclusive("lowpass"),
        "trajectory.lowpass_calls": p.calls("lowpass"),
        "detection.gradient_s": p.inclusive("detect_gradient"),
        "detection.peak_s": p.inclusive("detect_peak"),
        "detection.distance_s": p.inclusive("detect_distance"),
        "detection.classify_double_s": p.inclusive("classify_double"),
        "detection.events": sum(
            s[COUNT] for s in spans
            if s[NAME] in ("lanekit.cli.detect_gradient", "lanekit.cli.detect_peak",
                           "lanekit.cli.detect_distance")),
        "criticality.most_critical_s": p.inclusive("most_critical"),
        "criticality.pairs": pairs,
        "criticality.us_per_pair": 1e6 * _ratio(p.inclusive("most_critical"), pairs),
        "criticality.direction_stats_s": p.inclusive("direction_stats"),
        "stats.event_stats_s": p.inclusive("event_stats"),
    })

    sweeps = p.outermost({"sweep"})
    points_per_op: dict[int, int] = {}
    for i in sweeps:
        op = spans[i][OP]
        points_per_op[op] = max(points_per_op.get(op, 0), spans[i][COUNT])
    points = sum(points_per_op.values())
    sweep_ids = set(sweeps)
    sweep_lowpass = sum(1 for i, b in enumerate(p.base) if b == "lowpass"
                        and any(a in sweep_ids for a in p.ancestors(i)))
    m.update({
        "robustness.sweep_s": sum(p.dur[i] for i in sweeps),
        "robustness.vehicle_points": points,
        "robustness.lowpass_per_vehicle_point": _ratio(sweep_lowpass, points),
    })

    simulate_s = p.inclusive("simulate")
    steps = p.count("simulate")
    loop_s = p.inclusive("run_closed_loop")
    mis_steps = p.count("run_closed_loop")
    m.update({
        "wiedemann.simulate_s": simulate_s,
        "wiedemann.steps": steps,
        "wiedemann.steps_per_s": _ratio(steps, simulate_s),
        "wiedemann.thw_trace_s": p.inclusive("sample_cc1") - simulate_s,
        "mis.run_closed_loop_s": loop_s,
        "mis.steps": mis_steps,
        "mis.steps_per_s": _ratio(mis_steps, loop_s),
        "trace.spans": len(spans),
    })
    return m

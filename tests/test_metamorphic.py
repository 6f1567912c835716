"""Metamorphic relations of the pipeline: inputs transformed in a way whose
effect on the outputs is known in advance.

* Mirror: lane ``k`` becomes ``lane_count - 1 - k``, ``lat`` and ``a_lat``
  change sign and ``d_left`` and ``d_right`` swap.  Every event and
  criticality record is the same with its direction swapped, and so is
  every sweep count of an unperturbed row.  A perturbed row is not
  mirrored with the track: a bias ``b`` on the mirror is ``-b`` on the
  original, and the Brownian walk is added, not negated.
* Clock shift: every time moves by 1000 s.  Counts, flags and sweep counts
  are equal; times move by 1000 s within 1e-6 s, and metrics and
  durations agree to 9 significant digits, as the shifted times round
  otherwise.
* Station shift: every ``s`` moves by 1000 m.  Events and sweep counts are
  equal; records agree to 9 significant digits, as the gaps between the
  shifted stations round otherwise.
* Id rename: each vehicle id maps to another of its recording, by a
  bijection that reverses the vehicle numbers.  Everything is equal under
  the rename.

Each runs the steps of ``detect``, ``criticality`` and ``robustness`` in
process on a small synthetic corpus and on its transform.
"""

import dataclasses
import math

import pytest

from lanekit.criticality import critical_records
from lanekit.detection import EventKind, classify_double, detect_gradient, detect_rows
from lanekit.io import RunConfig
from lanekit.robustness import Perturbation, sweep
from lanekit.synth import generate_corpus
from lanekit.trajectory import preprocess

from helpers import assert_same_record

SHIFT = 1000.0  # [s]
S_SHIFT = 1000.0  # [m]
SWAP = {"left": "right", "right": "left"}
CFG = RunConfig()
GRID = ([Perturbation("bias", b) for b in CFG.bias_grid]
        + [Perturbation("brownian", s) for s in CFG.brownian_grid])


def _mirror(traj, layout):
    return traj.with_channels(lane=layout.lane_count - 1 - traj.lane, lat=-traj.lat,
                              a_lat=-traj.a_lat, d_left=traj.d_right, d_right=traj.d_left)


def _shift(traj, layout):
    return traj.with_channels(t=traj.t + SHIFT)


def _s_shift(traj, layout):
    return traj.with_channels(s=traj.s + S_SHIFT)


def _renamed(vehicle_id):
    """``r<recording>v<9999 - number>`` of ``r<recording>v<number>``."""
    recording, number = vehicle_id.split("v")
    return f"{recording}v{9999 - int(number):04d}"


def _rename(traj, layout):
    return dataclasses.replace(traj, vehicle_id=_renamed(traj.vehicle_id))


def _pipeline(corpus, transform=None):
    """Events as ``detect`` writes them, their criticality records and the
    default sweep's counts."""
    layout = corpus.layout
    trajectories = [transform(t, layout) if transform else t for t in corpus.trajectories]
    kept, skipped = preprocess(trajectories, layout)
    assert skipped == []
    pres = [pre for _, pre in kept]
    events = []
    for (i, _), rows in zip(kept, detect_rows(pres, [pre.lat[None] for pre in pres], layout,
                                              ("peak", "distance"))):
        events += classify_double(detect_gradient(trajectories[i], layout), layout)
        events += classify_double(rows["peak"][0], layout)
        events += classify_double(rows["distance"][0], layout)
    windows = [(e.vehicle_id, (e.t_start, e.t_end), e.direction.value)
               for e in events if e.kind is EventKind.SINGLE]
    records = critical_records(trajectories, windows, layout)
    report = sweep(dataclasses.replace(corpus, trajectories=tuple(trajectories)),
                   ("peak", "distance"), GRID, layout, seed=2)
    return events, records, [p.detected for p in report.points]


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(n=24, seed=5)


@pytest.fixture(scope="module")
def base(corpus):
    events, records, counts = _pipeline(corpus)
    assert {e.direction.value for e in events} == {"left", "right"}
    assert any(r.flags["d"] for r in records) and any(c != counts[0] for c in counts)
    return events, records, counts


def _digits(a: float, b: float) -> bool:
    """Equal to 9 significant digits; NaN equals NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    scale = max(abs(a), abs(b))
    return scale < 1e-12 or abs(a - b) <= 1.01 * 10.0 ** (math.floor(math.log10(scale)) - 8)


def _compare(want, got, direction, shift=0.0):
    """Each of ``got`` is its ``want`` with the direction ``direction`` maps
    it to and every time ``shift`` later."""
    assert len(got) == len(want) > 0
    for w, g in zip(want, got):
        for field in dataclasses.fields(w):
            a, b = getattr(w, field.name), getattr(g, field.name)
            if field.name in ("t_start", "t_mid", "t_end"):
                assert abs(b - shift - a) <= 1e-6, (field.name, a, b)
            elif field.name == "direction":
                assert getattr(b, "value", b) == direction(getattr(a, "value", a))
            elif isinstance(a, float):
                assert _digits(a, b), (field.name, a, b)
            else:
                assert a == b, field.name


def _same(want, got):
    """``got`` is ``want`` bit for bit, field by field; NaN equals NaN."""
    assert len(got) == len(want) > 0
    for w, g in zip(want, got):
        assert_same_record(g, w)


def test_mirror_swaps_every_direction(corpus, base):
    events, records, counts = base
    m_events, m_records, m_counts = _pipeline(corpus, _mirror)
    _compare(events, m_events, SWAP.get)
    _compare(records, m_records, SWAP.get)
    zero = [i for i, p in enumerate(GRID * 2) if p.magnitude == 0.0]
    assert [m_counts[i] for i in zero] == [counts[i] for i in zero]


def test_clock_shift_moves_only_the_times(corpus, base):
    events, records, counts = base
    s_events, s_records, s_counts = _pipeline(corpus, _shift)
    _compare(events, s_events, lambda d: d, SHIFT)
    _compare(records, s_records, lambda d: d, SHIFT)
    assert s_counts == counts


def test_station_shift_changes_nothing(corpus, base):
    events, records, counts = base
    s_events, s_records, s_counts = _pipeline(corpus, _s_shift)
    _same(events, s_events)
    _compare(records, s_records, lambda d: d)
    assert s_counts == counts


def test_id_rename_renames_every_output(corpus, base):
    events, records, counts = base
    assert len({_renamed(t.vehicle_id) for t in corpus.trajectories}) == len(corpus.trajectories)
    r_events, r_records, r_counts = _pipeline(corpus, _rename)
    _same([dataclasses.replace(e, vehicle_id=_renamed(e.vehicle_id)) for e in events],
          r_events)
    _same([dataclasses.replace(r, vehicle_id=_renamed(r.vehicle_id)) for r in records],
          r_records)
    assert r_counts == counts

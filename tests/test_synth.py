import numpy as np
import pytest

from lanekit.io import ingest, write_trajectories
from lanekit.synth import generate_corpus
from lanekit.trajectory import VehicleClass, fmt

from helpers import LAYOUT


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(n=60, seed=4)


def test_deterministic_given_seed(corpus):
    again = generate_corpus(n=60, seed=4)
    assert len(again.trajectories) == len(corpus.trajectories)
    for a, b in zip(corpus.trajectories, again.trajectories):
        assert a.vehicle_id == b.vehicle_id
        assert np.array_equal(a.lat, b.lat)
        assert np.array_equal(a.v, b.v)
    assert again.truth_events == corpus.truth_events


def test_seed_changes_corpus(corpus):
    other = generate_corpus(n=60, seed=5)
    assert any(not np.array_equal(a.lat, b.lat)
               for a, b in zip(corpus.trajectories, other.trajectories))


def test_marking_distance_consistency(corpus):
    for traj in corpus.trajectories:
        total = traj.d_left + traj.d_right
        expected = LAYOUT.lane_width - traj.shape.width
        assert np.max(np.abs(total - expected)) < 0.05


def test_lat_within_half_lane(corpus):
    for traj in corpus.trajectories:
        assert np.all(np.abs(traj.lat) <= LAYOUT.lane_width / 2.0 + 1e-9)


def test_lanes_within_layout(corpus):
    for traj in corpus.trajectories:
        assert traj.lane.min() >= 0
        assert traj.lane.max() < LAYOUT.lane_count


def test_truth_events_fully_recorded(corpus):
    by_id = {t.vehicle_id: t for t in corpus.trajectories}
    for ev in corpus.truth_events:
        traj = by_id[ev.vehicle_id]
        assert ev.t_start > traj.t[0]
        assert ev.t_end < traj.t[-1]
        assert 3.0 <= ev.duration <= 10.0
        assert 22.0 <= ev.v_mid <= 42.5


def test_event_spacing(corpus):
    by_vehicle = {}
    for ev in corpus.truth_events:
        by_vehicle.setdefault(ev.vehicle_id, []).append(ev.t_mid)
    for mids in by_vehicle.values():
        mids.sort()
        assert all(b - a >= 15.0 for a, b in zip(mids, mids[1:]))


def test_both_classes_present(corpus):
    classes = {t.shape.vclass for t in corpus.trajectories}
    assert classes == {VehicleClass.CAR, VehicleClass.TRUCK}


def test_channels_are_9_digit_clean(corpus):
    traj = corpus.trajectories[0]
    for ch in (traj.t, traj.lat, traj.v, traj.d_left):
        assert all(float(f"{x:.9g}") == x for x in ch)


@pytest.mark.parametrize("seed", [7, 11])
def test_channels_are_the_csv_text_and_round_trip_bit_for_bit(tmp_path, seed):
    corpus = generate_corpus(n=12, seed=seed)
    path = tmp_path / "traj.csv"
    write_trajectories(path, corpus.trajectories)
    back = ingest(path, shapes={t.vehicle_id: t.shape for t in corpus.trajectories})
    assert not back.rejected_rows and not back.rejected_vehicles
    assert len(back.trajectories) == len(corpus.trajectories)
    for orig, read in zip(corpus.trajectories, back.trajectories):
        for name in ("t", "s", "lat", "v", "a_lon", "a_lat", "d_left", "d_right"):
            values = getattr(orig, name)
            bits = values.view(np.int64)
            assert np.array_equal(np.array([float(fmt(x)) for x in values.tolist()])
                                  .view(np.int64), bits), name
            assert np.array_equal(getattr(read, name).view(np.int64), bits), name


def test_recording_ids(corpus):
    recs = {t.vehicle_id.split("v")[0] for t in corpus.trajectories}
    assert len(recs) == 8

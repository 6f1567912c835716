import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanekit.trajectory import (
    InsufficientSamplesError,
    LaneLayout,
    Trajectory,
    VehicleShape,
    continuous_lateral,
    derivative,
    lowpass,
    resample,
)

from helpers import CAR, LAYOUT, lane_keeping, make_trajectory


def ramp_trajectory(rate=100.0, record_len=4.0, slope=0.1):
    t = np.arange(0.0, record_len, 1.0 / rate)
    return make_trajectory(t, slope * t, markings=False)


# ---------------------------------------------------------------------------
# type invariants

def test_layout_validation():
    with pytest.raises(ValueError):
        LaneLayout(lane_count=0)
    with pytest.raises(ValueError):
        LaneLayout(lane_width=-1.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        VehicleShape(length=2.0, width=2.5)


def test_trajectory_requires_two_samples():
    with pytest.raises(InsufficientSamplesError):
        Trajectory("v", CAR, [0.0], [0.0], [0], [0.0], [30.0], [0.0], [0.0], 5.0)


def test_trajectory_requires_monotone_time():
    with pytest.raises(ValueError, match="increasing"):
        Trajectory("v", CAR, [0.0, 0.0], [0.0, 1.0], [0, 0], [0.0, 0.0],
                   [30.0, 30.0], [0.0, 0.0], [0.0, 0.0], 5.0)


def test_channels_are_immutable():
    traj = lane_keeping()
    with pytest.raises(ValueError):
        traj.lat[0] = 99.0


def test_csv_round_trip(tmp_path):
    """Every channel, the rate and the markings flag survive the CSV round trip."""
    from lanekit.io import ingest, write_trajectories
    from lanekit.synth import generate_corpus

    corpus = generate_corpus(n=6, seed=11)
    trajs = list(corpus.trajectories)
    trajs[1] = trajs[1].with_channels(d_left=None, d_right=None)
    path = tmp_path / "traj.csv"
    write_trajectories(path, trajs)
    back = ingest(path, shapes={t.vehicle_id: t.shape for t in trajs}).trajectories
    assert [t.vehicle_id for t in back] == [t.vehicle_id for t in trajs]
    for orig, got in zip(trajs, back):
        assert got.has_markings == orig.has_markings
        assert got.rate == pytest.approx(orig.rate, rel=1e-9)
        assert got.shape == orig.shape
        for name in ("t", "s", "lane", "lat", "v", "a_lon", "a_lat", "d_left", "d_right"):
            a, b = getattr(got, name), getattr(orig, name)
            if b is None:
                assert a is None, name
            else:
                assert a.dtype == b.dtype and np.array_equal(a, b), name


# ---------------------------------------------------------------------------
# resample

def test_resample_25_to_5_grid():
    t = np.arange(0.0, 10.0, 1.0 / 25.0)
    traj = make_trajectory(t, 0.1 * np.sin(0.5 * t), markings=False)
    out = resample(traj, 5.0)
    assert out.rate == 5.0
    assert np.allclose(out.t / 0.2, np.round(out.t / 0.2), atol=1e-9)
    # time span preserved within one output period
    assert out.t[0] - t[0] < 0.2 and t[-1] - out.t[-1] < 0.2


def test_resample_identity_at_matching_rate():
    t = np.arange(0.0, 20.0, 0.2)
    traj = make_trajectory(t, 0.1 * np.sin(0.3 * t), markings=False)
    out = resample(traj, 5.0)
    assert np.array_equal(out.t, traj.t)
    assert np.array_equal(out.lat, traj.lat)
    assert np.array_equal(out.v, traj.v)


def test_resample_idempotent():
    traj = lane_keeping(rate=5.0)
    once = resample(traj, 5.0)
    twice = resample(once, 5.0)
    assert np.array_equal(once.t, twice.t)
    assert np.array_equal(once.lat, twice.lat)


def test_resample_linear_signal_exact():
    out = resample(ramp_trajectory(rate=100.0, slope=0.1), 5.0)
    idx = int(np.argmin(np.abs(out.t - 1.0)))
    assert out.t[idx] == pytest.approx(1.0, abs=1e-12)
    assert out.lat[idx] == pytest.approx(0.1, abs=1e-12)


def test_resample_insufficient_samples():
    t = np.arange(0.0, 10.0, 0.2)
    traj = make_trajectory(t, np.zeros_like(t), markings=False)
    with pytest.raises(InsufficientSamplesError, match="insufficient samples"):
        resample(traj, 0.05)


def test_resample_does_not_average_across_rereference():
    # lane switch halfway: lat jumps by one lane width
    t = np.arange(0.0, 10.0, 1.0 / 25.0)
    y = np.where(t < 5.0, 1.74, 1.76)  # crossing the 1.75 boundary
    traj = make_trajectory(t, y)
    out = resample(traj, 5.0)
    # lat values must come from one side or the other, never an average
    assert np.all((np.abs(out.lat - 1.74) < 1e-9) | (np.abs(out.lat + 1.74) < 1e-9))


# ---------------------------------------------------------------------------
# lowpass

def amplitude_ratio(freq, cutoff=1.3, rate=25.0):
    t = np.arange(0.0, 60.0, 1.0 / rate)
    traj = make_trajectory(t, 0.5 * np.sin(2 * np.pi * freq * t), markings=False)
    out = lowpass(traj, cutoff)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    return float(np.max(np.abs(out.lat[mid]))) / 0.5


def test_lowpass_attenuates_3hz():
    assert amplitude_ratio(3.0) < 0.10


def test_lowpass_preserves_02hz():
    assert amplitude_ratio(0.2) > 0.95


def test_lowpass_dc_invariance():
    t = np.arange(0.0, 20.0, 0.2)
    traj = make_trajectory(t, np.full_like(t, 0.4), markings=False)
    out = lowpass(traj, 1.3)
    assert np.allclose(out.lat, 0.4, atol=1e-9)


@pytest.mark.parametrize("freq", [0.1, 0.5, 1.0, 1.3, 1.8, 2.4])
def test_lowpass_double_application_never_amplifies(freq):
    t = np.arange(0.0, 120.0, 0.2)
    traj = make_trajectory(t, 0.5 * np.sin(2 * np.pi * freq * t), markings=False)
    once = lowpass(traj, 1.3)
    twice = lowpass(once, 1.3)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    amp_once = np.max(np.abs(once.lat[mid]))
    amp_twice = np.max(np.abs(twice.lat[mid]))
    assert amp_twice <= amp_once + 1e-9


def test_lowpass_rejects_cutoff_at_nyquist():
    traj = lane_keeping(rate=5.0)
    with pytest.raises(ValueError, match="Nyquist"):
        lowpass(traj, 2.5)


def test_lowpass_filters_composite_across_lane_change():
    # a lane change must not produce ringing from the lat re-reference jump
    from helpers import sigmoid_lane_change
    traj = sigmoid_lane_change()
    out = lowpass(traj, 1.3, LAYOUT)
    y_in = traj.lane * LAYOUT.lane_width + traj.lat
    y_out = out.lane * LAYOUT.lane_width + out.lat
    assert np.max(np.abs(y_out - y_in)) < 0.05


def test_lowpass_needs_layout_across_lane_changes():
    from helpers import sigmoid_lane_change
    with pytest.raises(ValueError, match="layout"):
        lowpass(sigmoid_lane_change(), 1.3)


@pytest.mark.parametrize("cutoff,rate", [(1.3, 5.0), (1.3, 25.0), (0.5, 10.0)])
def test_cached_filter_design_matches_butter(cutoff, rate):
    from scipy import signal
    from lanekit.trajectory import _butter_sos
    want = signal.butter(2, cutoff, btype="low", fs=rate, output="sos")
    for _ in range(2):  # the miss, then the hit
        assert np.array_equal(_butter_sos(cutoff, rate), want)


def test_mutating_returned_filter_leaves_cache_intact():
    from helpers import ref_lowpass_lat, sigmoid_lane_change
    from lanekit.trajectory import _butter_sos
    traj = sigmoid_lane_change(rate=25.0)
    want = ref_lowpass_lat(traj, 1.3, LAYOUT).lat
    sos = _butter_sos(1.3, 25.0)
    sos[:] = 0.0
    assert np.array_equal(lowpass(traj, 1.3, LAYOUT).lat, want)


@pytest.mark.parametrize("rate", [5.0, 25.0])
def test_stacked_rows_filter_like_one_lowpass_each(rate):
    # the sweep filters all grid points of a vehicle in one call
    from helpers import ref_lowpass_lat, sigmoid_lane_change
    from lanekit.trajectory import _zero_phase
    rng = np.random.default_rng(4)
    for traj in (sigmoid_lane_change(rate=rate), lane_keeping(rate=rate, lane=1)):
        rows = traj.lat + np.cumsum(rng.normal(0.0, 0.02, (6, len(traj.t))), axis=1)
        rows[0] = traj.lat
        got = _zero_phase(traj, rows, 1.3, LAYOUT, lateral=True)
        for row, lat in zip(got, rows):
            want = ref_lowpass_lat(traj.with_channels(lat=lat), 1.3, LAYOUT).lat
            assert np.array_equal(row, want)
            assert np.array_equal(lowpass(traj.with_channels(lat=lat), 1.3, LAYOUT).lat,
                                  want)


def test_lowpass_short_track_insufficient():
    t = np.arange(9) * 0.2  # one sample short of the filter's minimum
    with pytest.raises(InsufficientSamplesError, match="insufficient samples"):
        lowpass(make_trajectory(t, np.zeros(9)), 1.3)
    assert len(lowpass(make_trajectory(np.arange(10) * 0.2, np.zeros(10)), 1.3).t) == 10


# ---------------------------------------------------------------------------
# continuous lateral

def test_continuous_lateral_definition():
    t = np.arange(0.0, 1.0, 0.2)
    traj = Trajectory("v", CAR, t, 30 * t, np.full(len(t), 1, int),
                      np.zeros(len(t)), np.full(len(t), 30.0),
                      np.zeros(len(t)), np.zeros(len(t)), 5.0)
    y = continuous_lateral(traj, LAYOUT)
    assert np.allclose(y.y, 3.5)


def test_continuous_lateral_negative_offset():
    t = np.arange(0.0, 1.0, 0.2)
    traj = Trajectory("v", CAR, t, 30 * t, np.full(len(t), 2, int),
                      np.full(len(t), -1.0), np.full(len(t), 30.0),
                      np.zeros(len(t)), np.zeros(len(t)), 5.0)
    assert np.allclose(continuous_lateral(traj, LAYOUT).y, 6.0)


def test_continuous_lateral_continuous_across_switch():
    from helpers import sigmoid_lane_change
    traj = sigmoid_lane_change()
    y = continuous_lateral(traj, LAYOUT)
    # physical motion per 0.2 s sample is bounded; no lane-width jumps
    assert np.max(np.abs(np.diff(y.y))) < 0.35


def test_continuous_lateral_lane_out_of_range():
    t = np.arange(0.0, 1.0, 0.2)
    traj = Trajectory("v", CAR, t, 30 * t, np.full(len(t), 7, int),
                      np.zeros(len(t)), np.full(len(t), 30.0),
                      np.zeros(len(t)), np.zeros(len(t)), 5.0)
    with pytest.raises(ValueError, match="lane index"):
        continuous_lateral(traj, LAYOUT)


def test_continuous_lateral_bias_shift_exact():
    traj = lane_keeping()
    y0 = continuous_lateral(traj, LAYOUT)
    y1 = continuous_lateral(traj.with_channels(lat=traj.lat + 0.7), LAYOUT)
    assert np.allclose(y1.y - y0.y, 0.7, atol=1e-12)


# ---------------------------------------------------------------------------
# derivative

def test_derivative_linear():
    t = np.arange(0.0, 10.0, 0.2)
    assert np.allclose(derivative(2.0 * t, 0.2), 2.0)


def test_derivative_constant():
    assert np.allclose(derivative(np.full(50, 1.3), 0.2), 0.0)


def test_derivative_matches_analytic_cosine():
    t = np.arange(0.0, 10.0, 0.01)
    err = derivative(np.sin(t), 0.01)[1:-1] - np.cos(t)[1:-1]
    assert np.max(np.abs(err)) < 1e-3


def test_derivative_too_short():
    with pytest.raises(InsufficientSamplesError):
        derivative(np.array([1.0]), 0.2)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_derivative_bias_invariance(c):
    rng = np.random.default_rng(9)
    y = rng.normal(0.0, 1.0, 64)
    d0 = derivative(y, 0.2)
    d1 = derivative(y + c, 0.2)
    assert np.allclose(d0, d1, atol=1e-9)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanekit.trajectory import (
    InsufficientSamplesError,
    LaneLayout,
    Trajectory,
    VehicleShape,
    _interp_with_rereference,
    continuous_lateral,
    derivative,
    held_lane,
    lowpass,
    resample,
    time_overlap,
)

from helpers import (
    CAR,
    LAYOUT,
    lane_keeping,
    make_trajectory,
    ref_interp_with_rereference,
    ref_resample_lane,
    ref_synth_split,
    ref_wiedemann_held_lane,
)


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
    with pytest.raises(ValueError, match="length must be finite"):
        VehicleShape(length=np.inf)


def test_trajectory_requires_two_samples():
    with pytest.raises(InsufficientSamplesError):
        Trajectory("v", CAR, [0.0], [0.0], [0], [0.0], [30.0], [0.0], [0.0], 5.0)


def test_trajectory_requires_monotone_time():
    with pytest.raises(ValueError, match="increasing"):
        Trajectory("v", CAR, [0.0, 0.0], [0.0, 1.0], [0, 0], [0.0, 0.0],
                   [30.0, 30.0], [0.0, 0.0], [0.0, 0.0], 5.0)


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_trajectory_rate_must_be_finite(rate):
    with pytest.raises(ValueError, match="rate must be finite"):
        lane_keeping().with_channels(rate=rate)


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
    out = lowpass(traj, cutoff, LAYOUT)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    return float(np.max(np.abs(out.lat[mid]))) / 0.5


def test_lowpass_attenuates_3hz():
    assert amplitude_ratio(3.0) < 0.10


def test_lowpass_preserves_02hz():
    assert amplitude_ratio(0.2) > 0.95


def test_lowpass_dc_invariance():
    t = np.arange(0.0, 20.0, 0.2)
    traj = make_trajectory(t, np.full_like(t, 0.4), markings=False)
    out = lowpass(traj, 1.3, LAYOUT)
    assert np.allclose(out.lat, 0.4, atol=1e-9)


@pytest.mark.parametrize("freq", [0.1, 0.5, 1.0, 1.3, 1.8, 2.4])
def test_lowpass_double_application_never_amplifies(freq):
    t = np.arange(0.0, 120.0, 0.2)
    traj = make_trajectory(t, 0.5 * np.sin(2 * np.pi * freq * t), markings=False)
    once = lowpass(traj, 1.3, LAYOUT)
    twice = lowpass(once, 1.3, LAYOUT)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    amp_once = np.max(np.abs(once.lat[mid]))
    amp_twice = np.max(np.abs(twice.lat[mid]))
    assert amp_twice <= amp_once + 1e-9


def test_lowpass_rejects_cutoff_at_nyquist():
    traj = lane_keeping(rate=5.0)
    with pytest.raises(ValueError, match="Nyquist"):
        lowpass(traj, 2.5, LAYOUT)


def test_lowpass_filters_composite_across_lane_change():
    # a lane change must not produce ringing from the lat re-reference jump
    from helpers import sigmoid_lane_change
    traj = sigmoid_lane_change()
    out = lowpass(traj, 1.3, LAYOUT)
    y_in = traj.lane * LAYOUT.lane_width + traj.lat
    y_out = out.lane * LAYOUT.lane_width + out.lat
    assert np.max(np.abs(y_out - y_in)) < 0.05


# sampling rates as ingest derives them: nominal, or float noise off it
RATES = (st.sampled_from([5.0, 25.0, 4.999999999999929, 5.000000000000018])
         | st.builds(lambda base, ulps: base * (1.0 + ulps * 2.0 ** -52),
                     st.sampled_from([5.0, 10.0, 25.0, 30.0]), st.integers(-100, 100))
         | st.floats(2.7, 200.0))


@pytest.mark.parametrize("cutoff,rate", [(1.3, 5.0), (1.3, 25.0), (0.5, 10.0)])
def test_cached_filter_design_matches_butter(cutoff, rate):
    # the nominal rates, against scipy.signal.butter itself, twice over
    from scipy import signal
    from helpers import same_bits
    from lanekit.trajectory import _butter
    sos = signal.butter(2, cutoff, btype="low", fs=rate, output="sos")
    for _ in range(2):
        got = _butter(cutoff, rate)
        assert same_bits(got[:3], sos[0, :3])
        assert same_bits(got[3:5], sos[0, 4:])
        assert same_bits(got[5:], signal.sosfilt_zi(sos)[0])


@settings(max_examples=400, deadline=None)
@given(rate=RATES, share=st.none() | st.floats(0.001, 0.99))
def test_filter_design_matches_butter(rate, share):
    from helpers import ref_butter, same_bits
    from lanekit.trajectory import _butter
    cutoff = 1.3 if share is None else share * rate / 2.0
    assert same_bits(_butter(cutoff, rate), ref_butter(cutoff, rate))


@st.composite
def lat_stacks(draw):
    """Trajectories at noisy rates, each with its ``lat`` or a stack of
    versions of it: ragged lengths, rows of exactly 10 samples, lane
    changes and rows holding NaN."""
    trajs, rows = [], []
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from([10, 10, 11]) | st.integers(10, 120))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        y = draw(st.sampled_from([0.0, 3.5, 5.0])) + np.cumsum(
            rng.normal(0.0, draw(st.sampled_from([0.0, 0.05, 1.0])), n))
        traj = make_trajectory(np.arange(n) * 0.2, y, vehicle_id=f"v{k}")
        traj = dataclasses.replace(traj, rate=draw(RATES))
        lat = traj.lat + rng.normal(0.0, 0.1, (draw(st.integers(1, 4)), n))
        for row in lat[:draw(st.integers(0, 2))]:
            row[rng.integers(0, n)] = np.nan
        trajs.append(traj)
        rows.append(lat if draw(st.booleans()) else lat[0])
    return trajs, rows


@settings(max_examples=200, deadline=None)
@given(lat_stacks())
def test_filtered_rows_match_sosfiltfilt(stacks):
    # every row of every trajectory in one call, against scipy row by row
    from helpers import ref_lowpass_lat, same_bits
    from lanekit.trajectory import lowpass_rows
    trajs, rows = stacks
    got = list(lowpass_rows(trajs, rows, 1.3, LAYOUT))
    assert len(got) == len(trajs)
    for traj, lat, out in zip(trajs, rows, got):
        assert out.shape == lat.shape
        for row, filtered in zip(np.atleast_2d(lat), np.atleast_2d(out)):
            assert same_bits(filtered, ref_lowpass_lat(traj.with_channels(lat=row), 1.3,
                                                       LAYOUT).lat)


def test_a_long_track_does_not_pad_the_short_ones():
    # one time-major array for all rows would hold 100 short stacks at the
    # long track's length: 5018 x 404 samples, 16 MB
    import tracemalloc
    from lanekit.trajectory import lowpass_rows
    trajs = [make_trajectory(np.arange(n) * 0.2, np.zeros(n), vehicle_id=str(k))
             for k, n in enumerate([100] * 100 + [5000])]
    stacks = [np.stack([traj.lat] * 4) for traj in trajs]
    tracemalloc.start()
    try:
        out = list(lowpass_rows(trajs, stacks, 1.3, LAYOUT))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [o.shape for o in out] == [s.shape for s in stacks]
    assert peak < 4e6, peak


@pytest.mark.parametrize("rate", [5.0, 25.0])
def test_stacked_rows_filter_like_one_lowpass_each(rate):
    # the sweep filters all grid points of all vehicles in one call
    from helpers import ref_lowpass_lat, sigmoid_lane_change
    from lanekit.trajectory import lowpass_rows
    rng = np.random.default_rng(4)
    trajs = [sigmoid_lane_change(rate=rate), lane_keeping(rate=rate, lane=1)]
    stacks = []
    for traj in trajs:
        rows = traj.lat + np.cumsum(rng.normal(0.0, 0.02, (6, len(traj.t))), axis=1)
        rows[0] = traj.lat
        stacks.append(rows)
    for traj, rows, got in zip(trajs, stacks, lowpass_rows(trajs, stacks, 1.3, LAYOUT)):
        for row, lat in zip(got, rows):
            want = ref_lowpass_lat(traj.with_channels(lat=lat), 1.3, LAYOUT).lat
            assert np.array_equal(row, want)
            assert np.array_equal(lowpass(traj.with_channels(lat=lat), 1.3, LAYOUT).lat,
                                  want)


def test_lowpass_short_track_insufficient():
    t = np.arange(9) * 0.2  # one sample short of the filter's minimum
    with pytest.raises(InsufficientSamplesError, match="insufficient samples"):
        lowpass(make_trajectory(t, np.zeros(9)), 1.3, LAYOUT)
    assert len(lowpass(make_trajectory(np.arange(10) * 0.2, np.zeros(10)), 1.3, LAYOUT).t) == 10


# ---------------------------------------------------------------------------
# continuous lateral

def test_continuous_lateral_definition():
    t = np.arange(0.0, 1.0, 0.2)
    traj = Trajectory("v", CAR, t, 30 * t, np.full(len(t), 1, int),
                      np.zeros(len(t)), np.full(len(t), 30.0),
                      np.zeros(len(t)), np.zeros(len(t)), 5.0)
    y = continuous_lateral(traj, LAYOUT)
    assert np.allclose(y, 3.5)


def test_continuous_lateral_negative_offset():
    t = np.arange(0.0, 1.0, 0.2)
    traj = Trajectory("v", CAR, t, 30 * t, np.full(len(t), 2, int),
                      np.full(len(t), -1.0), np.full(len(t), 30.0),
                      np.zeros(len(t)), np.zeros(len(t)), 5.0)
    assert np.allclose(continuous_lateral(traj, LAYOUT), 6.0)


def test_continuous_lateral_continuous_across_switch():
    from helpers import sigmoid_lane_change
    traj = sigmoid_lane_change()
    y = continuous_lateral(traj, LAYOUT)
    # physical motion per 0.2 s sample is bounded; no lane-width jumps
    assert np.max(np.abs(np.diff(y))) < 0.35


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
    assert np.allclose(y1 - y0, 0.7, atol=1e-12)


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=32)
                | st.sampled_from([0.0, -0.0]), min_size=2, max_size=40),
       st.integers(1, 3), st.sampled_from([0.2, 0.04, 1.0 / 3.0, 1e-300, 7.0]))
def test_derivative_is_numpys_gradient(values, rows, dt):
    # each row of a stack, bit for bit: signs of zero, NaN and inf too
    from helpers import same_bits
    stack = np.stack([np.roll(values, k) for k in range(rows)])
    with np.errstate(all="ignore"):
        want = np.gradient(stack, dt, axis=-1)
        got = derivative(stack, dt)
    assert same_bits(got, want)


def test_derivative_too_short():
    with pytest.raises(InsufficientSamplesError):
        derivative(np.array([1.0]), 0.2)
    with pytest.raises(InsufficientSamplesError):
        derivative(np.ones((3, 1)), 0.2)


@pytest.mark.parametrize("rows", [1, 4])
def test_derivative_of_a_stack_is_each_row_alone(rows):
    # a one-point robustness grid stacks a single row: the samples, not the
    # rows, must number at least two
    stack = np.random.default_rng(3).normal(size=(rows, 30))
    got = derivative(stack, 0.04)
    for r in range(rows):
        assert got[r].tobytes() == derivative(stack[r], 0.04).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_derivative_bias_invariance(c):
    rng = np.random.default_rng(9)
    y = rng.normal(0.0, 1.0, 64)
    d0 = derivative(y, 0.2)
    d1 = derivative(y + c, 0.2)
    assert np.allclose(d0, d1, atol=1e-9)


# ---------------------------------------------------------------------------
# windows

bound = st.one_of(st.floats(-3.0, 13.0), st.sampled_from([0.0, 0.25, 9.75, float("nan")]))


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.sampled_from([0.25, 0.04, 1.0 / 3.0]), min_size=1, max_size=40),
       t0=bound, t1=bound)
def test_time_overlap_holds_the_samples_of_the_window(steps, t0, t1):
    # the slice holds exactly the samples the inclusive mask picks: bounds
    # on a sample, reversed, outside the grid or NaN
    t = np.cumsum([0.0] + steps)
    np.testing.assert_array_equal(t[time_overlap(t, (t0, t1))], t[(t >= t0) & (t <= t1)])


# ---------------------------------------------------------------------------
# the lateral frame

@settings(max_examples=300, deadline=None)
@given(step=st.sampled_from([0.04, 0.05, 0.2, 1.0 / 3.0]), k0=st.integers(0, 300),
       samples=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2), st.booleans(),
                                  st.floats(-1e-13, 1e-13), st.floats(0.0, 1.0)),
                        min_size=2, max_size=30))
def test_held_lane_matches_both_old_lookups(step, k0, samples):
    # sample times on grid points up to float noise, or at least 1e-7 s (the
    # 9 digits of the CSV files) away from them; the grid reaches past both ends
    k = k0 + np.cumsum([gap for gap, *_ in samples])
    offset = np.array([noise if on_grid else 1e-7 + frac * (step - 2e-7)
                       for _, _, on_grid, noise, frac in samples])
    t = k * step + offset
    traj = Trajectory("v", CAR, t, np.zeros(len(t)), np.array([lane for _, lane, *_ in samples]),
                      np.zeros(len(t)), np.zeros(len(t)), np.zeros(len(t)), np.zeros(len(t)),
                      rate=1.0 / float(np.median(np.diff(t))))
    grid = np.arange(k[0] - 2, k[-1] + 3) * step
    got = held_lane(traj, grid)
    np.testing.assert_array_equal(got, ref_resample_lane(traj, grid, 1.0 / step))
    np.testing.assert_array_equal(got, ref_wiedemann_held_lane(traj, grid))


@settings(max_examples=200, deadline=None)
@given(y=st.lists(st.floats(-12.0, 25.0), min_size=1, max_size=20),
       lane_count=st.integers(1, 4), lane_width=st.sampled_from([2.9, 3.5, 3.75]))
def test_split_is_the_nearest_lane_and_offset(y, lane_count, lane_width):
    # beyond the outer lanes the lane is clipped and the offset grows
    layout = LaneLayout(lane_count=lane_count, lane_width=lane_width)
    y = np.array(y)
    lane, lat = layout.split(y)
    ref_lane, ref_lat = ref_synth_split(y, layout)
    np.testing.assert_array_equal(lane, ref_lane)
    assert lane.dtype == ref_lane.dtype and lat.tobytes() == ref_lat.tobytes()
    np.testing.assert_allclose(layout.lateral(lane, lat), y, rtol=0.0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.sampled_from([0.04, 0.2, 0.25, 1.0 / 3.0]), min_size=1, max_size=25),
       lanes=st.lists(st.integers(0, 2), min_size=26, max_size=26),
       values=st.lists(st.sampled_from([-1.6, -0.0, 0.0, 0.4, 1.75, -1.75, 2.0]),
                       min_size=26, max_size=26),
       step=st.sampled_from([0.05, 0.1, 0.2, 0.3]), start=st.floats(-0.5, 0.5),
       on_samples=st.lists(st.integers(0, 25), max_size=8))
def test_rereference_guard_matches_the_masked_loop(steps, lanes, values, step, start,
                                                   on_samples):
    # the slices of time_overlap include the two samples of a switch; there
    # the nearer-sample rule gives what np.interp gave, bit for bit
    t_old = np.cumsum([0.0] + steps)
    n = len(t_old)
    lane_old, v_old = np.array(lanes[:n]), np.array(values[:n])
    grid = start + np.arange(0, int((t_old[-1] - start) / step) + 1) * step
    t_new = np.unique(np.concatenate([grid[grid >= 0.0],
                                      t_old[[i for i in on_samples if i < n]]]))
    got = _interp_with_rereference(t_new, t_old, v_old, lane_old)
    assert got.tobytes() == ref_interp_with_rereference(t_new, t_old, v_old, lane_old).tobytes()

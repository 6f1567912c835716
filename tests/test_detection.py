import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanekit import detection
from lanekit.detection import (
    DEFAULT_SETTLE_DWELL,
    DEFAULT_SETTLE_RATE,
    Direction,
    EventKind,
    LaneChangeEvent,
    PeakHit,
    PeakParams,
    classify_double,
    detect_distance,
    detect_gradient,
    detect_peak,
    detect_rows,
    find_peaks,
    peak_width,
    rel_height_from_widths,
)
from lanekit.detection import _block, _distance_rows, _interp, _peaks
from lanekit.io import fmt
from lanekit.robustness import inject_bias
from lanekit.trajectory import LaneRangeError, VehicleShape, derivative

from helpers import (
    CAR,
    LAYOUT,
    assert_same_record,
    continuous,
    lane_keeping,
    make_trajectory,
    ref_detect_distance,
    ref_detect_peak,
    ref_find_peaks,
    same_bits,
    same_float,
    sigmoid_lane_change,
    sigmoid_profile,
)


def exported(events):
    """Events at the precision of the CSV serialization."""
    return [(e.vehicle_id, fmt(e.t_start), fmt(e.t_mid), fmt(e.t_end),
             fmt(e.duration), e.direction.value, fmt(e.v_mid),
             fmt(e.lateral_extent), e.kind.value) for e in events]


# ---------------------------------------------------------------------------
# rel_height

def test_rel_height_car_in_standard_lane():
    assert rel_height_from_widths(2.0, 3.5) == pytest.approx(1.0 - (2.0 / 3.5) / 2.0,
                                                             abs=1e-12)


def test_peak_params_bounds():
    with pytest.raises(ValueError):
        PeakParams(prominence_min=0.0)


# ---------------------------------------------------------------------------
# find_peaks

def test_single_gaussian_bump():
    t = np.arange(0.0, 20.0, 0.2)
    sig = 1.0 * np.exp(-0.5 * ((t - 10.0) / 1.0) ** 2)
    hits = find_peaks(sig, 5.0, PeakParams())
    assert len(hits) == 1
    assert t[hits[0].index] == pytest.approx(10.0, abs=0.2)
    assert hits[0].prominence == pytest.approx(1.0, abs=1e-6)


def test_flat_signal_no_peaks():
    assert find_peaks(np.zeros(100), 5.0, PeakParams()) == []


def test_two_bumps_within_separation_keep_higher():
    t = np.arange(0.0, 20.0, 0.2)
    sig = (0.8 * np.exp(-0.5 * ((t - 9.0) / 0.5) ** 2)
           + 1.0 * np.exp(-0.5 * ((t - 11.0) / 0.5) ** 2))
    hits = find_peaks(sig, 5.0, PeakParams(min_peak_separation=5.0))
    assert len(hits) == 1
    assert t[hits[0].index] == pytest.approx(11.0, abs=0.2)


def test_range_equal_to_prominence_min_still_finds_the_peak():
    # the range pre-check must let a series through whose range equals
    # prominence_min: the peak's prominence is then exactly the minimum
    sig = np.array([0.0, 0.0, 0.15, 0.0, 0.0])
    assert np.ptp(sig) == 0.15
    hits = find_peaks(sig, 5.0, PeakParams(prominence_min=0.15))
    assert hits == [PeakHit(2, 0.15, 0.15)]
    assert find_peaks(sig, 5.0, PeakParams(prominence_min=np.nextafter(0.15, 1.0))) == []


@st.composite
def peak_series(draw):
    """Series of a few levels, so plateaus, equal peak heights and both
    signs of zero are common, with NaN among them now and then."""
    levels = draw(st.lists(st.sampled_from([0.0, -0.0, 0.15, 0.5, 1.0, np.nan])
                           | st.floats(-2.0, 2.0, width=16), min_size=1, max_size=5))
    return np.array(draw(st.lists(st.sampled_from(levels), max_size=150)), dtype=float)


def assert_same_hits(got, want):
    assert [h.index for h in got] == [h.index for h in want]
    for a, b in zip(got, want):
        assert same_float(a.height, b.height) and same_float(a.prominence, b.prominence)


@settings(max_examples=600, deadline=None)
@given(peak_series(), st.sampled_from([0.01, 0.15, 0.5]),
       st.sampled_from([0.0, 0.2, 0.6, 2.0, 10.0]))
def test_find_peaks_matches_scipy(series, prominence, separation):
    params = PeakParams(prominence_min=prominence, min_peak_separation=separation)
    assert_same_hits(find_peaks(series, 5.0, params), ref_find_peaks(series, 5.0, params))


def test_find_peaks_breaks_ties_of_height_as_scipy():
    # 60 peaks of two heights, 3 samples apart, 5 apart required: which
    # survive depends on the order np.argsort gives equal heights, and
    # that order is not the peaks' order
    heights = np.random.default_rng(0).choice([1.0, 2.0], 60)
    assert not np.array_equal(np.argsort(heights), np.argsort(heights, kind="stable"))
    series = np.zeros(180)
    series[1::3] = heights
    params = PeakParams(prominence_min=0.5, min_peak_separation=1.0)
    assert_same_hits(find_peaks(series, 5.0, params), ref_find_peaks(series, 5.0, params))


# ---------------------------------------------------------------------------
# peak_width

def triangle(n=51, peak=1.0):
    up = np.linspace(0.0, peak, n // 2 + 1)
    return np.concatenate([up, up[-2::-1]])


def test_triangle_width_half_height():
    sig = triangle()
    t = np.arange(len(sig)) * 0.2
    hit = PeakHit(index=25, height=1.0, prominence=1.0)
    w = peak_width(sig, t, hit, rel_height=0.5)
    base = (len(sig) - 1) * 0.2
    assert w.duration == pytest.approx(base / 2.0, rel=1e-9)
    assert not w.truncated


def test_width_approaches_base_at_rel_height_one():
    sig = triangle()
    t = np.arange(len(sig)) * 0.2
    hit = PeakHit(index=25, height=1.0, prominence=1.0)
    w = peak_width(sig, t, hit, rel_height=0.999)
    base = (len(sig) - 1) * 0.2
    assert w.duration == pytest.approx(base, rel=5e-3)


def test_width_clamps_and_flags_truncated():
    # rising flank only: the left crossing does not exist
    sig = np.linspace(0.0, 1.0, 50)
    sig[-1] = 0.9  # make index 48 a local maximum
    t = np.arange(len(sig)) * 0.2
    hit = PeakHit(index=48, height=float(sig[48]), prominence=2.0)
    w = peak_width(sig, t, hit, rel_height=0.9)
    assert w.truncated
    assert w.t_start == t[0]


# ---------------------------------------------------------------------------
# detect_peak

def test_sigmoid_single_event():
    traj = sigmoid_lane_change(duration=6.0, v=30.0)
    events = detect_peak(traj, LAYOUT)
    assert len(events) == 1
    ev = events[0]
    assert ev.direction is Direction.LEFT
    assert 4.8 <= ev.duration <= 7.2
    # regression: frozen measurement of the 6 s reference maneuver
    assert ev.duration == pytest.approx(6.342381682634144, abs=1e-9)
    assert ev.t_mid == pytest.approx(30.0, abs=0.05)
    assert ev.v_mid == pytest.approx(30.0, abs=1e-6)


def test_bias_leaves_event_list_identical():
    traj = sigmoid_lane_change(duration=6.0)
    base = detect_peak(traj, LAYOUT)
    shifted = detect_peak(inject_bias(traj, 1.0), LAYOUT)
    assert exported(base) == exported(shifted)


def test_small_extent_rejected():
    traj = sigmoid_lane_change(amplitude=2.0)
    assert detect_peak(traj, LAYOUT) == []


def test_lane_keeping_no_events():
    assert detect_peak(lane_keeping(wiggle=0.5), LAYOUT) == []


def test_direction_matches_displacement_sign():
    up = sigmoid_lane_change(duration=5.0)
    t = np.arange(0.0, 60.0, 0.2)
    down = make_trajectory(t, sigmoid_profile(t, 30.0, 5.0, -3.5, base=3.5))
    for traj, expected in ((up, Direction.LEFT), (down, Direction.RIGHT)):
        events = detect_peak(traj, LAYOUT)
        assert len(events) == 1
        ev = events[0]
        assert ev.direction is expected
        y = continuous(traj)
        dy = np.interp(ev.t_end, y.t, y.y) - np.interp(ev.t_start, y.t, y.y)
        assert (dy > 0) == (ev.direction is Direction.LEFT)


def test_event_window_ordering():
    traj = sigmoid_lane_change(duration=4.0)
    for ev in detect_peak(traj, LAYOUT):
        assert ev.t_start < ev.t_mid < ev.t_end
        assert ev.duration > 0


# ---------------------------------------------------------------------------
# detect_distance

def test_distance_sigmoid_one_event():
    traj = sigmoid_lane_change(duration=6.0)
    events = detect_distance(traj, LAYOUT, 0.8)
    assert len(events) == 1
    assert events[0].direction is Direction.LEFT
    assert events[0].lateral_extent == pytest.approx(3.5)


def test_distance_lane_keeping_none():
    assert detect_distance(lane_keeping(wiggle=0.5), LAYOUT, 0.8) == []


def test_distance_bias_changes_count():
    # regression: the 3.5 m / 6 s sigmoid with +1.0 m bias never settles
    traj = sigmoid_lane_change(duration=6.0)
    assert len(detect_distance(traj, LAYOUT, 0.8)) == 1
    assert len(detect_distance(inject_bias(traj, 1.0), LAYOUT, 0.8)) == 0


def test_distance_threshold_validation():
    with pytest.raises(ValueError):
        detect_distance(lane_keeping(), LAYOUT, 2.0)


@pytest.mark.parametrize("lane", [-1, 3])
def test_detectors_refuse_a_lane_outside_the_layout(lane):
    traj = lane_keeping()
    traj = traj.with_channels(lane=np.where(traj.t < 30.0, traj.lane, lane))
    with pytest.raises(LaneRangeError):
        detect_peak(traj, LAYOUT)
    with pytest.raises(LaneRangeError):
        detect_distance(traj, LAYOUT)


# the array-driven loop against the per-sample reference

def lateral(y, rate=4.0):
    """A track whose lateral position is ``y``, up to the rounding of its
    split into lane and ``lat``; the references take ``continuous`` of it."""
    t = np.arange(len(y)) / rate  # exact sample times at 4 Hz
    return make_trajectory(t, y, v=30.0 + 0.1 * t, markings=False)


def assert_distance_like_reference(traj, threshold=0.8, settle_rate=DEFAULT_SETTLE_RATE,
                                   settle_dwell=DEFAULT_SETTLE_DWELL):
    """The distance kernel at these settle values, against the reference;
    at the default ones ``detect_distance`` too."""
    y = continuous(traj)
    (got,) = _distance_rows(_block([traj], [y.y[None]], [derivative(y.y, y.dt)[None]]),
                            LAYOUT, threshold, settle_rate, settle_dwell)
    want = ref_detect_distance(y, LAYOUT, threshold, settle_rate, settle_dwell)
    runs = [got]
    if (settle_rate, settle_dwell) == (DEFAULT_SETTLE_RATE, DEFAULT_SETTLE_DWELL):
        runs.append(detect_distance(traj, LAYOUT, threshold))
    for events in runs:
        assert len(events) == len(want)
        for a, b in zip(events, want):
            assert_same_record(a, b)
    return got


def test_distance_exceedance_at_first_sample():
    traj = lateral([1.0] + [3.5] * 20)
    events = assert_distance_like_reference(traj)
    assert len(events) == 1 and events[0].t_start == 0.0


def test_distance_exceedance_at_last_sample():
    assert assert_distance_like_reference(lateral([0.0] * 20 + [1.0])) == []


def test_distance_abandoned_return():
    traj = lateral(np.concatenate([np.zeros(8), np.linspace(0.0, 1.6, 6),
                                   np.linspace(1.6, 0.0, 6), np.zeros(20)]))
    assert assert_distance_like_reference(traj) == []


@pytest.mark.parametrize("hold,count", [(0, 1), (12, 2)])
def test_distance_double_change(hold, count):
    # straight through lane 1, or a settled stop in it
    traj = lateral(np.concatenate([np.zeros(8), np.linspace(0.0, 3.5, 8),
                                   np.full(hold, 3.5), np.linspace(3.5, 7.0, 8),
                                   np.full(16, 7.0)]))
    events = assert_distance_like_reference(traj)
    assert len(events) == count
    assert sum(e.lateral_extent for e in events) == 7.0


@pytest.mark.parametrize("hold,count", [(10, 0), (11, 1)])
def test_distance_dwell_exactly_settle_dwell(hold, count):
    # step up at sample 8, step down at 8 + hold: the rest run spans
    # (hold - 3) * 0.25 s, exactly settle_dwell = 2.0 s for hold = 11
    traj = lateral([0.0] * 8 + [3.5] * hold + [0.0] * 4)
    assert len(assert_distance_like_reference(traj, settle_dwell=2.0)) == count


@pytest.mark.parametrize("hold,count", [(9, 0), (10, 1)])
def test_distance_rest_run_starts_after_the_exceedance(hold, count):
    # a settle rate so loose that the exceeding sample 8 already rests in
    # lane 1; the rest run still starts at sample 9, so the dwell of 2.0 s
    # needs samples 9-17, that is hold >= 10
    traj = lateral([0.0] * 8 + [3.5] * hold + [0.0] * 4)
    events = assert_distance_like_reference(traj, settle_rate=100.0)
    assert len(events) == count
    assert [e.t_end for e in events] == [9 * 0.25] * count


@st.composite
def lane_signals(draw):
    rate = draw(st.sampled_from([4.0, 5.0, 25.0]))
    dwell = int(2.0 * rate)
    # mostly lane centers, else excursions that may turn back
    level = (st.sampled_from([0.0, 3.5, 7.0]) | st.sampled_from([0.0, 3.5, 7.0])
             | st.sampled_from([0.9, 2.6, -0.5]) | st.floats(-0.5, 7.5))
    hold = (st.integers(0, 6) | st.sampled_from([dwell - 1, dwell, dwell + 1])
            | st.integers(dwell + 2, 3 * dwell))
    y = [draw(level)]
    for _ in range(draw(st.integers(0, 6))):
        target = draw(level)
        y.extend(np.linspace(y[-1], target, draw(st.integers(1, 12)) + 1)[1:])
        y.extend([target] * draw(hold))
    y.extend([y[-1]] * max(0, 2 - len(y)))
    noise = draw(st.sampled_from([0.0, 0.0, 0.005, 0.05]))
    seed = draw(st.integers(0, 2**16))
    y = np.asarray(y) + np.cumsum(np.random.default_rng(seed).normal(0.0, noise, len(y)))
    return lateral(y, rate)


@settings(max_examples=300, deadline=None)
@given(lane_signals(), st.sampled_from([0.5, 0.8, 1.2]), st.sampled_from([0.15, 0.15, 20.0]))
def test_distance_matches_reference_on_random_signals(traj, threshold, settle_rate):
    assert_distance_like_reference(traj, threshold=threshold, settle_rate=settle_rate)


@st.composite
def peak_signals(draw):
    """Lane changes of random timing and size, optionally on a random walk."""
    rate = draw(st.sampled_from([5.0, 25.0]))
    t = np.arange(draw(st.integers(2, int(40 * rate)))) / rate
    y = np.full(len(t), draw(st.sampled_from([0.0, 3.5, 5.0])))
    for _ in range(draw(st.integers(0, 3))):
        y += sigmoid_profile(t, t_mid=draw(st.floats(-5.0, 45.0)),
                             duration=draw(st.floats(0.5, 10.0)),
                             amplitude=draw(st.sampled_from([3.5, -3.5, 0.4, 7.0])))
    noise = draw(st.sampled_from([0.0, 0.0, 0.005, 0.05]))
    seed = draw(st.integers(0, 2**16))
    y = y + np.cumsum(np.random.default_rng(seed).normal(0.0, noise, len(t)))
    return lateral(y, rate)


@settings(max_examples=300, deadline=None)
@given(peak_signals(), st.sampled_from([None, 0.0, 2.5]),
       st.sampled_from(["below", "at", "above", "default"]), st.sampled_from([1.0, -1.0]),
       # relative heights 1 - width / 7: the car's, about 0.3 and 0.7
       st.sampled_from([CAR, VehicleShape(16.0, 4.9), VehicleShape(4.8, 2.1)]))
def test_peak_matches_reference_on_random_signals(traj, min_extent, edge, sign, shape):
    traj = dataclasses.replace(traj, shape=shape)
    y = continuous(traj)
    # prominence_min just below, exactly at or just above the largest peak
    # of one rectified derivative, where the range pre-check decides
    top = float(np.ptp(np.maximum(sign * np.gradient(y.y, y.dt), 0.0)))
    if edge == "default" or top == 0.0:
        prominence = 0.15
    else:
        prominence = {"below": np.nextafter(top, 0.0), "at": top,
                      "above": np.nextafter(top, np.inf)}[edge]
    params = PeakParams(prominence_min=float(prominence))
    got = detect_peak(traj, LAYOUT, params, min_extent=min_extent)
    want = ref_detect_peak(y, shape, LAYOUT, params, min_extent=min_extent)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_record(a, b)


# ---------------------------------------------------------------------------
# detect_gradient

def test_gradient_single_jump():
    traj = sigmoid_lane_change(duration=6.0)
    events = detect_gradient(traj, LAYOUT)
    assert len(events) == 1
    assert events[0].t_mid == pytest.approx(30.0, abs=0.2)
    assert events[0].direction is Direction.LEFT


def test_gradient_lane_keeping_none():
    assert detect_gradient(lane_keeping(wiggle=0.5), LAYOUT) == []


def test_gradient_two_jumps_ordered():
    t = np.arange(0.0, 80.0, 0.2)
    y = (sigmoid_profile(t, 20.0, 5.0, 3.5)
         + sigmoid_profile(t, 40.0, 5.0, 3.5))
    traj = make_trajectory(t, y)
    events = detect_gradient(traj, LAYOUT)
    assert [e.direction for e in events] == [Direction.LEFT, Direction.LEFT]
    assert events[0].t_mid == pytest.approx(20.0, abs=0.2)
    assert events[1].t_mid == pytest.approx(40.0, abs=0.2)


def test_gradient_requires_markings():
    traj = sigmoid_lane_change(markings=False)
    with pytest.raises(ValueError, match="gradient criterion unavailable"):
        detect_gradient(traj, LAYOUT)


def test_gradient_matches_peak_at_zero_perturbation():
    for duration in (3.5, 6.0, 9.0):
        traj = sigmoid_lane_change(duration=duration)
        grad = detect_gradient(traj, LAYOUT)
        peak = detect_peak(traj, LAYOUT)
        assert len(grad) == len(peak) == 1
        assert abs(grad[0].t_mid - peak[0].t_mid) < 1.0


def test_gradient_fallback_window_without_a_matching_peak():
    # a left change 1.1 s after the track starts and a right one 0.9 s
    # before it ends; no peak of the jump's direction lies within 3 s (the
    # peaks given lie at the jump in the other direction, or 3.1 s away)
    from lanekit.detection import _gradient_events
    t = np.arange(0.0, 6.0, 0.2)
    y = sigmoid_profile(t, 1.0, 1.5, 3.5) - sigmoid_profile(t, 5.0, 1.5, 3.5)
    traj = make_trajectory(t, y, v=np.linspace(25.0, 31.0, len(t)))
    jumps = np.flatnonzero(np.abs(np.diff(traj.d_left)) > 0.5 * LAYOUT.lane_width)
    mids = [0.5 * (t[i] + t[i + 1]) for i in jumps]
    assert len(mids) == 2

    def peak(t_mid, direction):
        return LaneChangeEvent("veh", t_mid - 1.0, t_mid, t_mid + 1.0, 2.0, direction, 30.0, 3.5)

    y_cont = traj.lane * LAYOUT.lane_width + traj.lat
    for peaks in ([], [peak(mids[0], Direction.RIGHT), peak(mids[0] + 3.1, Direction.LEFT),
                       peak(mids[1] - 3.1, Direction.RIGHT)]):
        events = _gradient_events(traj, LAYOUT, peaks)
        assert [e.direction for e in events] == [Direction.LEFT, Direction.RIGHT]
        for ev, t_mid in zip(events, mids):
            t0, t1 = max(t[0], t_mid - 2.5), min(t[-1], t_mid + 2.5)
            assert (ev.t_start, ev.t_mid, ev.t_end, ev.duration) == (t0, t_mid, t1, t1 - t0)
            assert ev.truncated and ev.criterion == "gradient" and ev.kind is EventKind.SINGLE
            assert ev.v_mid == float(np.interp(t_mid, t, traj.v))
            assert ev.lateral_extent == abs(float(np.interp(t1, t, y_cont))
                                            - float(np.interp(t0, t, y_cont)))
        assert events[0].t_start == t[0] and events[1].t_end == t[-1]  # clamped to the track


# ---------------------------------------------------------------------------
# classify_double

def event(t0, t1, direction=Direction.LEFT, extent=3.5):
    return LaneChangeEvent("v", t0, (t0 + t1) / 2, t1, t1 - t0, direction,
                           30.0, extent)


def test_extent_two_lanes_is_double():
    out = classify_double([event(10.0, 18.0, extent=7.0)], LAYOUT)
    assert out[0].kind is EventKind.DOUBLE


def test_extent_one_lane_is_single():
    out = classify_double([event(10.0, 16.0, extent=3.5)], LAYOUT)
    assert out[0].kind is EventKind.SINGLE


def test_overlapping_same_direction_merge():
    out = classify_double([event(10.0, 16.0), event(14.0, 20.0)], LAYOUT)
    assert len(out) == 1
    assert out[0].kind is EventKind.DOUBLE
    assert out[0].t_start == 10.0
    assert out[0].t_end == 20.0
    assert out[0].lateral_extent == pytest.approx(7.0)


def test_disjoint_events_stay_single():
    out = classify_double([event(10.0, 16.0), event(30.0, 36.0, Direction.RIGHT)],
                          LAYOUT)
    assert [e.kind for e in out] == [EventKind.SINGLE, EventKind.SINGLE]


def test_double_lane_change_detected_and_classified():
    t = np.arange(0.0, 60.0, 0.2)
    sweep_two = make_trajectory(t, sigmoid_profile(t, 30.0, 8.0, 7.0))
    events = detect_peak(sweep_two, LAYOUT)
    assert len(events) == 1
    out = classify_double(events, LAYOUT)
    assert out[0].kind is EventKind.DOUBLE


# ---------------------------------------------------------------------------
# joined stacks: every row of a block is detected as if it were alone

@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(peak_series(), st.sampled_from([1, 2, 3, 5, 40])),
                min_size=1, max_size=6),
       st.sampled_from([0.01, 0.15, 0.5]))
def test_joined_peak_search_is_scipys_on_each_segment(segments, prominence):
    # ragged segments of few levels: plateaus, NaN, equal heights closer than
    # the distance, segments shorter than it or with a range below the
    # prominence; each segment keeps its own distance
    s, lo, hi = [np.nan], [], []
    for series, _ in segments:
        lo.append(len(s))
        s.extend(series)
        hi.append(len(s))
        s.append(np.nan)
    at, seg, heights, prominences = _peaks(np.array(s), np.array(lo), np.array(hi),
                                           np.array([d for _, d in segments]), prominence)
    assert np.all(np.diff(at) > 0)
    for g, (series, distance) in enumerate(segments):
        mine = seg == g
        got = [PeakHit(i - lo[g], h, p) for i, h, p in
               zip(at[mine].tolist(), heights[mine].tolist(), prominences[mine].tolist())]
        assert_same_hits(got, ref_find_peaks(series, 1.0, PeakParams(prominence, distance)))


SHAPES = [CAR, VehicleShape(16.0, 4.9), VehicleShape(4.8, 2.1)]


@st.composite
def peak_stacks(draw, nan=True):
    """One to three tracks, each of its own length, rate and shape, with a
    stack of ``lat`` rows: lane changes that may reach past the track's
    ends, on random walks, some rounded into plateaus of the derivative,
    some with NaN samples."""
    trajs, stacks = [], []
    for k in range(draw(st.integers(1, 3))):
        rate = draw(st.sampled_from([5.0, 25.0]))
        t = np.arange(draw(st.integers(2, int(30 * rate)))) / rate
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            y = np.full(len(t), draw(st.sampled_from([0.0, 3.5, 5.0])))
            for _ in range(draw(st.integers(0, 3))):
                y += sigmoid_profile(t, t_mid=draw(st.floats(-5.0, 35.0)),
                                     duration=draw(st.floats(0.5, 10.0)),
                                     amplitude=draw(st.sampled_from([3.5, -3.5, 0.4, 7.0])))
            noise = draw(st.sampled_from([0.0, 0.0, 0.005, 0.05]))
            y += np.cumsum(np.random.default_rng(draw(st.integers(0, 2**16)))
                           .normal(0.0, noise, len(t)))
            step = draw(st.sampled_from([None, None, 0.01, 0.2]))
            rows.append(y if step is None else np.round(y / step) * step)
        traj = make_trajectory(t, rows[0], v=30.0 + 0.1 * t, shape=draw(st.sampled_from(SHAPES)),
                               vehicle_id=f"v{k}", markings=False)
        lat = np.stack(rows) - LAYOUT.center(traj.lane)
        if nan and draw(st.booleans()):
            lat[draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(t) - 1))] = np.nan
        trajs.append(traj)
        stacks.append(lat)
    return trajs, stacks


def assert_same_events(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_record(a, b)


@settings(max_examples=200, deadline=None)
@given(peak_stacks(), st.sampled_from([None, 0.0, 2.5]),
       st.sampled_from([0.15, 0.01, 0.5]))
def test_peak_rows_of_joined_stacks_match_reference(stacks, min_extent, prominence):
    trajs, lats = stacks
    params = PeakParams(prominence_min=prominence)
    found = detect_rows(trajs, lats, LAYOUT, ("peak",), params, cutoff=None,
                        min_extent=min_extent)
    for traj, lat, rows in zip(trajs, lats, found):
        for row, got in zip(lat, rows["peak"]):
            y = continuous(traj.with_channels(lat=row))
            assert_same_events(got, ref_detect_peak(y, traj.shape, LAYOUT, params, min_extent))


@st.composite
def distance_stacks(draw):
    """One to three tracks with stacks of lane signals cut to one length,
    so rows may end inside a maneuver; excursions may turn back home."""
    trajs, stacks = [], []
    for k in range(draw(st.integers(1, 3))):
        rows = [draw(lane_signals()) for _ in range(draw(st.integers(1, 4)))]
        rate = draw(st.sampled_from([4.0, 5.0, 25.0]))
        n = min(len(row.t) for row in rows)
        ys = np.stack([continuous(row).y[:n] for row in rows])
        traj = make_trajectory(np.arange(n) / rate, ys[0], v=30.0 + np.arange(n) / 7.0,
                               vehicle_id=f"v{k}", markings=False)
        trajs.append(traj)
        stacks.append(ys - LAYOUT.center(traj.lane))
    return trajs, stacks


@settings(max_examples=200, deadline=None)
@given(distance_stacks(), st.sampled_from([0.5, 0.8, 1.2]), st.sampled_from([0.15, 20.0]))
def test_distance_rows_of_joined_stacks_match_reference(stacks, threshold, settle_rate):
    # a loose settle rate lets the exceeding sample itself rest in the new lane
    trajs, lats = stacks
    ys = [LAYOUT.lateral(traj.lane, lat) for traj, lat in zip(trajs, lats)]
    found = iter(_distance_rows(_block(trajs, ys, [derivative(y, traj.dt)
                                                   for traj, y in zip(trajs, ys)]),
                                LAYOUT, threshold, settle_rate, DEFAULT_SETTLE_DWELL))
    for traj, lat in zip(trajs, lats):
        for row in lat:
            y = continuous(traj.with_channels(lat=row))
            assert_same_events(next(found), ref_detect_distance(y, LAYOUT, threshold, settle_rate))


def exact(events):
    """Events with every float as its bits."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(e))
            for e in events]


@settings(max_examples=100, deadline=None)
@given(peak_stacks(nan=False), st.data(), st.sampled_from([1, 50, 8192]))
def test_a_rows_events_do_not_depend_on_the_other_rows(stacks, data, block):
    # drop, permute and repeat rows, in blocks of every size: each row keeps
    # its events, bit for bit
    trajs, lats = stacks
    criteria = ("peak", "distance")
    picks = [data.draw(st.lists(st.integers(0, len(lat) - 1), min_size=1, max_size=6))
             for lat in lats]
    whole = list(detect_rows(trajs, lats, LAYOUT, criteria, cutoff=None, min_extent=None))
    with mock.patch.object(detection, "_BLOCK_SAMPLES", block):
        part = list(detect_rows(trajs, [lat[pick] for lat, pick in zip(lats, picks)], LAYOUT,
                                criteria, cutoff=None, min_extent=None))
    for all_rows, some_rows, pick in zip(whole, part, picks):
        for name in criteria:
            assert [exact(all_rows[name][r]) for r in pick] == list(map(exact, some_rows[name]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=12, unique=True),
       st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, np.nan, np.inf, -np.inf])
                | st.floats(-10.0, 10.0), min_size=12, max_size=12),
       st.lists(st.floats(-1.1e3, 1.1e3) | st.sampled_from([np.nan, np.inf]), max_size=20),
       st.integers(0, 3))
def test_interp_is_numpys(t, values, x, offset):
    # the row's samples inside longer flat arrays, queried on, between and
    # beyond them
    t = np.sort(np.array(t))
    values = np.array(values[:len(t)])
    x = np.concatenate((np.array(x, dtype=float), t, (t[1:] + t[:-1]) / 2.0))
    pad = np.full(offset, 7.0)
    first, last = np.full(len(x), offset), np.full(len(x), offset + len(t) - 1)
    j = np.searchsorted(t, x, side="right") - 1 + offset
    got = _interp(x, j, first, last, np.concatenate((pad, t, pad)),
                  np.concatenate((pad, values, pad)))
    assert same_bits(got, np.interp(x, t, values))

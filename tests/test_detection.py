import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanekit.detection import (
    Direction,
    EventKind,
    LaneChangeEvent,
    PeakHit,
    PeakParams,
    classify_double,
    detect_distance,
    detect_gradient,
    detect_peak,
    exceedance_predicate,
    find_peaks,
    peak_width,
    rel_height_from_widths,
)
from lanekit.io import fmt
from lanekit.trajectory import ContinuousLateral

from helpers import (
    CAR,
    LAYOUT,
    assert_same_record,
    continuous,
    lane_keeping,
    make_trajectory,
    ref_detect_distance,
    ref_detect_peak,
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


def test_rel_height_bounds():
    with pytest.raises(ValueError):
        PeakParams(rel_height=1.2)
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
    events = detect_peak(continuous(traj), CAR, LAYOUT)
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
    y = continuous(traj)
    base = detect_peak(y, CAR, LAYOUT)
    shifted = detect_peak(y.shifted(1.0), CAR, LAYOUT)
    assert exported(base) == exported(shifted)


def test_small_extent_rejected():
    traj = sigmoid_lane_change(amplitude=2.0)
    assert detect_peak(continuous(traj), CAR, LAYOUT) == []


def test_lane_keeping_no_events():
    assert detect_peak(continuous(lane_keeping(wiggle=0.5)), CAR, LAYOUT) == []


def test_direction_matches_displacement_sign():
    up = sigmoid_lane_change(duration=5.0)
    t = np.arange(0.0, 60.0, 0.2)
    down = make_trajectory(t, sigmoid_profile(t, 30.0, 5.0, -3.5, base=3.5))
    for traj, expected in ((up, Direction.LEFT), (down, Direction.RIGHT)):
        events = detect_peak(continuous(traj), CAR, LAYOUT)
        assert len(events) == 1
        ev = events[0]
        assert ev.direction is expected
        y = continuous(traj)
        dy = np.interp(ev.t_end, y.t, y.y) - np.interp(ev.t_start, y.t, y.y)
        assert (dy > 0) == (ev.direction is Direction.LEFT)


def test_event_window_ordering():
    traj = sigmoid_lane_change(duration=4.0)
    for ev in detect_peak(continuous(traj), CAR, LAYOUT):
        assert ev.t_start < ev.t_mid < ev.t_end
        assert ev.duration > 0


# ---------------------------------------------------------------------------
# detect_distance

def test_distance_sigmoid_one_event():
    traj = sigmoid_lane_change(duration=6.0)
    events = detect_distance(continuous(traj), LAYOUT, 0.8)
    assert len(events) == 1
    assert events[0].direction is Direction.LEFT
    assert events[0].lateral_extent == pytest.approx(3.5)


def test_distance_lane_keeping_none():
    assert detect_distance(continuous(lane_keeping(wiggle=0.5)), LAYOUT, 0.8) == []


def test_distance_bias_changes_count():
    # regression: the 3.5 m / 6 s sigmoid with +1.0 m bias never settles
    y = continuous(sigmoid_lane_change(duration=6.0))
    assert len(detect_distance(y, LAYOUT, 0.8)) == 1
    assert len(detect_distance(y.shifted(1.0), LAYOUT, 0.8)) == 0


def test_distance_threshold_validation():
    y = continuous(lane_keeping())
    with pytest.raises(ValueError):
        detect_distance(y, LAYOUT, 2.0)


# the array-driven loop against the per-sample reference

def lateral(y, rate=4.0):
    y = np.asarray(y, dtype=float)
    t = np.arange(len(y)) / rate  # exact sample times at 4 Hz
    return ContinuousLateral("veh", t, y, rate, v=30.0 + 0.1 * t)


def assert_distance_like_reference(y, **kwargs):
    got = detect_distance(y, LAYOUT, **kwargs)
    want = ref_detect_distance(y, LAYOUT, **kwargs)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_record(a, b)
    return got


def test_distance_exceedance_at_first_sample():
    y = lateral([1.0] + [3.5] * 20)
    events = assert_distance_like_reference(y)
    assert len(events) == 1 and events[0].t_start == 0.0


def test_distance_exceedance_at_last_sample():
    assert assert_distance_like_reference(lateral([0.0] * 20 + [1.0])) == []


def test_distance_abandoned_return():
    y = lateral(np.concatenate([np.zeros(8), np.linspace(0.0, 1.6, 6),
                                np.linspace(1.6, 0.0, 6), np.zeros(20)]))
    assert assert_distance_like_reference(y) == []


@pytest.mark.parametrize("hold,count", [(0, 1), (12, 2)])
def test_distance_double_change(hold, count):
    # straight through lane 1, or a settled stop in it
    y = lateral(np.concatenate([np.zeros(8), np.linspace(0.0, 3.5, 8),
                                np.full(hold, 3.5), np.linspace(3.5, 7.0, 8),
                                np.full(16, 7.0)]))
    events = assert_distance_like_reference(y)
    assert len(events) == count
    assert sum(e.lateral_extent for e in events) == 7.0


@pytest.mark.parametrize("hold,count", [(10, 0), (11, 1)])
def test_distance_dwell_exactly_settle_dwell(hold, count):
    # step up at sample 8, step down at 8 + hold: the rest run spans
    # (hold - 3) * 0.25 s, exactly settle_dwell = 2.0 s for hold = 11
    y = lateral([0.0] * 8 + [3.5] * hold + [0.0] * 4)
    assert len(assert_distance_like_reference(y, settle_dwell=2.0)) == count


@pytest.mark.parametrize("hold,count", [(9, 0), (10, 1)])
def test_distance_rest_run_starts_after_the_exceedance(hold, count):
    # a settle rate so loose that the exceeding sample 8 already rests in
    # lane 1; the rest run still starts at sample 9, so the dwell of 2.0 s
    # needs samples 9-17, that is hold >= 10
    y = lateral([0.0] * 8 + [3.5] * hold + [0.0] * 4)
    events = assert_distance_like_reference(y, settle_rate=100.0)
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
def test_distance_matches_reference_on_random_signals(y, threshold, settle_rate):
    assert_distance_like_reference(y, threshold=threshold, settle_rate=settle_rate)


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
       st.sampled_from([None, 0.3, 0.7]))
def test_peak_matches_reference_on_random_signals(y, min_extent, edge, sign, rel_height):
    # prominence_min just below, exactly at or just above the largest peak
    # of one rectified derivative, where the range pre-check decides
    top = float(np.ptp(np.maximum(sign * np.gradient(y.y, y.dt), 0.0)))
    if edge == "default" or top == 0.0:
        prominence = 0.15
    else:
        prominence = {"below": np.nextafter(top, 0.0), "at": top,
                      "above": np.nextafter(top, np.inf)}[edge]
    params = PeakParams(prominence_min=float(prominence), rel_height=rel_height)
    got = detect_peak(y, CAR, LAYOUT, params, min_extent=min_extent)
    want = ref_detect_peak(y, CAR, LAYOUT, params, min_extent=min_extent)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_record(a, b)


def test_exceedance_predicate_shift():
    rng = np.random.default_rng(3)
    y = rng.uniform(-1.5, 1.5, 200)
    b = 0.4
    shifted = exceedance_predicate(y + b, 0.0, 0.8)
    # same predicate with the threshold window shifted by -b
    manual = (y > 0.8 - b) | (y < -0.8 - b)
    assert np.array_equal(shifted, manual)


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
        peak = detect_peak(continuous(traj), CAR, LAYOUT)
        assert len(grad) == len(peak) == 1
        assert abs(grad[0].t_mid - peak[0].t_mid) < 1.0


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
    events = detect_peak(continuous(sweep_two), CAR, LAYOUT)
    assert len(events) == 1
    out = classify_double(events, LAYOUT)
    assert out[0].kind is EventKind.DOUBLE

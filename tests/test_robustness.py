import numpy as np
import pytest

from lanekit.io import RunConfig
from lanekit.robustness import (
    Perturbation,
    inject_bias,
    inject_brownian,
    sweep,
)
from lanekit.synth import SyntheticCorpus, generate_corpus

from helpers import lane_keeping


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation("bias", -0.1)
    with pytest.raises(ValueError):
        Perturbation("gaussian", 0.1)
    with pytest.raises(TypeError):  # streams come from sweep's seed alone
        Perturbation("brownian", 0.01, seed=5)


# ---------------------------------------------------------------------------
# bias injection

def test_bias_zero_is_identity():
    traj = lane_keeping()
    out = inject_bias(traj, 0.0)
    assert np.array_equal(out.lat, traj.lat)


def test_bias_definition():
    traj = lane_keeping(wiggle=0.0)
    base = traj.with_channels(lat=np.full(len(traj.t), 0.2))
    out = inject_bias(base, 1.0)
    assert np.allclose(out.lat, 1.2)
    assert np.array_equal(out.v, base.v)
    assert np.array_equal(out.d_left, base.d_left)


def test_bias_inverse():
    traj = lane_keeping()
    back = inject_bias(inject_bias(traj, 0.5), -0.5)
    assert np.allclose(back.lat, traj.lat, atol=1e-12)


# ---------------------------------------------------------------------------
# brownian injection

def test_brownian_zero_is_identity():
    traj = lane_keeping()
    assert np.array_equal(inject_brownian(traj, 0.0, 1).lat, traj.lat)


def test_brownian_deterministic_per_seed():
    traj = lane_keeping()
    a = inject_brownian(traj, 0.02, 42)
    b = inject_brownian(traj, 0.02, 42)
    c = inject_brownian(traj, 0.02, 43)
    assert np.array_equal(a.lat, b.lat)
    assert not np.array_equal(a.lat, c.lat)


def test_brownian_starts_at_zero():
    traj = lane_keeping()
    out = inject_brownian(traj, 0.05, 7)
    assert out.lat[0] == traj.lat[0]


def test_brownian_variance_grows_linearly():
    # random-walk property: Var(W_k) ~ k * step_std^2
    traj = lane_keeping(record_len=20.0)
    step_std = 0.05
    walks = np.array([
        inject_brownian(traj, step_std, seed).lat - traj.lat
        for seed in range(10_000)
    ])
    var = walks.var(axis=0)
    k = np.arange(len(traj.t))
    slope = np.polyfit(k[1:], var[1:], 1)[0]
    assert slope == pytest.approx(step_std ** 2, rel=0.15)


# ---------------------------------------------------------------------------
# sweep

@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(n=40, seed=11)


def test_sweep_rejects_unknown_criterion(corpus):
    with pytest.raises(ValueError, match="criterion"):
        sweep(corpus, "wavelet", [Perturbation("bias", 0.0)], corpus.layout)


def test_zero_perturbation_matches_unperturbed(corpus):
    grid = [Perturbation("bias", 0.0), Perturbation("brownian", 0.0)]
    rep = sweep(corpus, "peak", grid, corpus.layout, refilter=False)
    counts = {p.kind: p.detected for p in rep.points}
    assert counts["bias"] == counts["brownian"]


def test_peak_count_constant_along_bias_axis(corpus):
    grid = [Perturbation("bias", b) for b in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)]
    rep = sweep(corpus, "peak", grid, corpus.layout, refilter=False)
    counts = [p.detected for p in rep.points]
    assert len(set(counts)) == 1


def test_distance_count_collapses_beyond_threshold(corpus):
    grid = [Perturbation("bias", b) for b in (0.0, 1.0, 1.5)]
    rep = sweep(corpus, "distance", grid, corpus.layout, refilter=False)
    truth = rep.points[0].truth
    assert rep.points[0].detected == truth
    for p in rep.points[1:]:
        assert abs(p.detected - truth) / truth >= 0.10


def test_brownian_noise_floods_peak_criterion(corpus):
    grid = [Perturbation("brownian", 0.05)]
    rep = sweep(corpus, "peak", grid, corpus.layout, refilter=False, seed=3)
    assert rep.points[0].detected > rep.points[0].truth


def test_sweep_reproducible(corpus):
    grid = [Perturbation("brownian", s) for s in (0.01, 0.05)]
    a = sweep(corpus, "peak", grid, corpus.layout, refilter=False, seed=5)
    b = sweep(corpus, "peak", grid, corpus.layout, refilter=False, seed=5)
    assert a == b


def test_report_series_sorted(corpus):
    grid = [Perturbation("bias", b) for b in (0.5, 0.0, 0.25)]
    rep = sweep(corpus, "peak", grid, corpus.layout, refilter=False)
    x, y = rep.series("peak", "bias")
    assert np.array_equal(x, [0.0, 0.25, 0.5])
    assert len(y) == 3


# ---------------------------------------------------------------------------
# one-pass sweep against the two-pass reference

BIAS_GRID = [Perturbation("bias", b) for b in (0.0, 0.5, 1.0, 1.5)]
BROWNIAN_GRID = [Perturbation("brownian", s) for s in (0.0, 0.01, 0.05)]
# both zero points perturb alike, as do the two bias 0.05 points; the two
# Brownian 0.05 points draw different streams, and a bias and a Brownian
# point share a magnitude
MIXED_GRID = [Perturbation("bias", 0.0), Perturbation("brownian", 0.0),
              Perturbation("brownian", 0.05), Perturbation("bias", 0.05),
              Perturbation("brownian", 0.05), Perturbation("bias", 1.5),
              Perturbation("bias", 0.05)]
DEFAULT_GRID = ([Perturbation("bias", b) for b in RunConfig().bias_grid]
                + [Perturbation("brownian", s) for s in RunConfig().brownian_grid])


@pytest.fixture(scope="module")
def sample():
    """24 synthetic 5 Hz vehicles and one 25 Hz vehicle changing lanes twice."""
    from helpers import make_trajectory, sigmoid_profile
    corpus = generate_corpus(n=24, seed=3)
    t = np.arange(0.0, 30.0, 0.04)
    y = (sigmoid_profile(t, 9.0, 5.0, 3.5) + sigmoid_profile(t, 21.0, 4.0, -3.5)
         + np.cumsum(np.random.default_rng(4).normal(0.0, 0.002, len(t))))
    fast = make_trajectory(t, y, vehicle_id="fast", markings=False)
    return SyntheticCorpus((*corpus.trajectories, fast), corpus.truth_events,
                           corpus.layout)


@pytest.mark.parametrize("refilter", [True, False])
@pytest.mark.parametrize("grid", [BIAS_GRID, BROWNIAN_GRID, MIXED_GRID, DEFAULT_GRID],
                         ids=["bias", "brownian", "mixed", "default"])
def test_one_pass_sweep_matches_two_pass_reference(sample, grid, refilter):
    from helpers import ref_sweep
    # at 5 Hz only the 25 Hz vehicle is resampled, at 10 Hz every vehicle
    for rate in (5.0, 10.0):
        got = sweep(sample, ("peak", "distance"), grid, sample.layout, seed=9,
                    refilter=refilter, rate=rate)
        want = (ref_sweep(sample, "peak", grid, sample.layout, seed=9, refilter=refilter,
                          rate=rate).points
                + ref_sweep(sample, "distance", grid, sample.layout, seed=9,
                            refilter=refilter, rate=rate).points)
        assert got.points == want
        assert any(p.detected != p.truth for p in got.points)


def test_sweep_points_grouped_by_criterion_in_given_order(corpus):
    grid = [Perturbation("bias", 0.5), Perturbation("brownian", 0.01)]
    both = sweep(corpus, ("distance", "peak"), grid, corpus.layout, seed=2)
    assert [(p.criterion, p.kind) for p in both.points] == [
        ("distance", "bias"), ("distance", "brownian"),
        ("peak", "bias"), ("peak", "brownian")]
    for name in ("distance", "peak"):
        alone = sweep(corpus, name, grid, corpus.layout, seed=2)
        assert alone.points == tuple(p for p in both.points if p.criterion == name)


def test_sweep_skips_short_track(corpus):
    from helpers import make_trajectory
    t = np.arange(8) * 0.2  # 8 samples: too short to low-pass
    short = make_trajectory(t, np.full(len(t), 3.6), vehicle_id="short")
    mixed = SyntheticCorpus((corpus.trajectories[0], short, *corpus.trajectories[1:]),
                            corpus.truth_events, corpus.layout)
    grid = [Perturbation("bias", 0.5), Perturbation("brownian", 0.01)]
    got = sweep(mixed, ("peak", "distance"), grid, corpus.layout)
    assert got.skipped == (("short", "insufficient samples"),)
    # bias draws no random stream: the other vehicles' counts stay as without it
    want = sweep(corpus, ("peak", "distance"), grid[:1], corpus.layout)
    assert want.skipped == ()
    assert tuple(p for p in got.points if p.kind == "bias") == want.points
    # detect skips it too, so the sweep does whether or not it filters
    assert sweep(mixed, "peak", grid, corpus.layout, refilter=False).skipped == got.skipped


def test_truth_counts_only_the_swept_vehicles(corpus):
    # the true events of a skipped vehicle and of one without a track are
    # neither detected nor counted as missed
    import dataclasses
    from helpers import make_trajectory
    t = np.arange(8) * 0.2  # 8 samples: too short to low-pass
    short = make_trajectory(t, np.full(len(t), 3.6), vehicle_id="short")
    extra = tuple(dataclasses.replace(corpus.truth_events[0], vehicle_id=vid)
                  for vid in ("short", "short", "absent"))
    mixed = SyntheticCorpus((*corpus.trajectories, short), corpus.truth_events + extra,
                            corpus.layout)
    grid = [Perturbation("bias", 0.0), Perturbation("brownian", 0.01)]
    got = sweep(mixed, ("peak", "distance"), grid, corpus.layout, seed=1)
    assert {p.truth for p in got.points} == {len(corpus.truth_events)}
    assert got.truth_left_out == 3
    assert got.points == sweep(corpus, ("peak", "distance"), grid, corpus.layout, seed=1).points
    assert sweep(mixed, "peak", [], corpus.layout).truth_left_out == 3


@pytest.mark.parametrize("refilter", [True, False])
def test_sweep_skips_lane_out_of_range(corpus, refilter):
    from helpers import make_trajectory
    t = np.arange(0.0, 20.0, 0.2)
    wide = make_trajectory(t, np.zeros(len(t)), vehicle_id="wide")
    wide = wide.with_channels(lane=np.where(t < 10.0, 2, 3))  # lane 3 of lanes 0-2
    mixed = SyntheticCorpus((corpus.trajectories[0], wide, *corpus.trajectories[1:]),
                            corpus.truth_events, corpus.layout)
    grid = [Perturbation("bias", 0.0), Perturbation("bias", 0.5)]
    got = sweep(mixed, ("peak", "distance"), grid, corpus.layout, refilter=refilter)
    assert got.skipped == (("wide", "lane index out of range for layout"),)
    assert got.points == sweep(corpus, ("peak", "distance"), grid, corpus.layout,
                               refilter=refilter).points


def test_25_hz_corpus_sweeps_as_its_5_hz_resample():
    # the sweep resamples first, so a recording and its resample are one input
    from lanekit.trajectory import resample
    from helpers import aerial_corpus
    fast = aerial_corpus()
    slow = SyntheticCorpus(tuple(resample(traj, 5.0) for traj in fast.trajectories),
                           fast.truth_events, fast.layout)
    got = sweep(fast, ("peak", "distance"), DEFAULT_GRID, fast.layout, seed=4)
    assert got == sweep(slow, ("peak", "distance"), DEFAULT_GRID, fast.layout, seed=4)
    assert got.skipped == (("short", "insufficient samples"),)
    assert any(p.detected != p.truth for p in got.points)


@pytest.mark.parametrize("rate", [5.0, 25.0])
def test_detects_row_is_the_stacks_unperturbed_row(rate):
    # detect's call (one row per vehicle) and a sweep-like stack whose first
    # row is unperturbed give that row the same events, bit for bit
    from lanekit.detection import detect_rows
    from lanekit.trajectory import preprocess
    from helpers import aerial_corpus
    corpus = generate_corpus(n=24, seed=3) if rate == 5.0 else aerial_corpus()
    kept, _ = preprocess(corpus.trajectories, corpus.layout)
    pres = [pre for _, pre in kept]
    rng = np.random.default_rng(1)
    stacks = [np.stack([pre.lat, pre.lat + 0.5, pre.lat + rng.normal(0.0, 0.05, len(pre.t))])
              for pre in pres]
    rows = {"detect": [pre.lat[None] for pre in pres], "sweep": stacks}
    found = {k: list(detect_rows(pres, v, corpus.layout, ("peak", "distance"), min_extent=None))
             for k, v in rows.items()}
    assert sum(len(f["peak"][0]) for f in found["detect"]) > 0
    for one, stack in zip(found["detect"], found["sweep"]):
        assert one["peak"][0] == stack["peak"][0]
        assert one["distance"][0] == stack["distance"][0]

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import bidirectional_reference, track_sequence_reference
from helpers import det, mixed, rect_mask
from movingseg.metrics import evaluate
from movingseg.synth import NoiseConfig, SynthConfig, corrupt, generate
from movingseg.tracker import (Detection, Track, TrackerConfig, bidirectional_track,
                               gate, merge_moving_static, step, track_sequence)

W, H = 64, 48
CFG = TrackerConfig()


def moving_object(frames, x0=4, y0=4, vx=1, score=0.95, size=8):
    """One detection per frame, drifting right."""
    return {f: [det(f, score, W, H, x0 + vx * f, y0, size, size)] for f in frames}


class TestConfig:
    def test_defaults(self):
        assert (CFG.alpha_high, CFG.alpha_low, CFG.t_inactive) == (0.9, 0.7, 10)

    def test_alpha_ordering_enforced(self):
        with pytest.raises(ValueError):
            TrackerConfig(alpha_low=0.95, alpha_high=0.9)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            TrackerConfig(t_inactive=-1)


@pytest.mark.parametrize("score", [-0.1, 1.5, 2, float("nan"), float("inf"), -float("inf")])
def test_detection_refuses_a_score_outside_the_unit_interval(score):
    # the readers refuse such a score, so no writer may be given one
    with pytest.raises(ValueError, match=re.escape(
            f"detection score must lie in [0, 1], got {score!r}")):
        Detection(0, score, rect_mask(W, H, 1, 1, 2, 2))


class TestGate:
    def test_below_removed(self):
        dets = [det(0, 0.65, W, H, 0, 0, 4, 4)]
        assert gate(dets, CFG) == []

    def test_boundary_kept(self):
        dets = [det(0, 0.7, W, H, 0, 0, 4, 4)]
        assert gate(dets, CFG) == dets

    def test_filter(self):
        dets = [det(0, s, W, H, 0, 0, 4, 4) for s in (0.95, 0.5, 0.8)]
        assert [d.score for d in gate(dets, CFG)] == [0.95, 0.8]


class TestStep:
    def test_match_extends(self):
        t = Track(1, (det(0, 0.95, W, H, 4, 4, 8, 8),))
        out = step([t], [det(1, 0.8, W, H, 5, 4, 8, 8)], CFG)
        assert len(out) == 1
        assert len(out[0].entries) == 2
        assert out[0].last_active_frame == 1

    def test_high_score_initializes(self):
        out = step([], [det(0, 0.95, W, H, 0, 0, 4, 4)], CFG)
        assert [t.id for t in out] == [1]

    def test_unmatched_mid_score_discarded(self):
        t = Track(1, (det(0, 0.95, W, H, 4, 4, 8, 8),))
        out = step([t], [det(1, 0.8, W, H, 40, 30, 8, 8)], CFG)
        assert len(out) == 1
        assert len(out[0].entries) == 1

    def test_unmatched_high_score_starts_track(self):
        t = Track(1, (det(0, 0.95, W, H, 4, 4, 8, 8),))
        out = step([t], [det(1, 0.9, W, H, 40, 30, 8, 8)], CFG)
        assert [t.id for t in out] == [1, 2]

    def test_static_never_initializes(self):
        out = step([], [det(0, 0.99, W, H, 0, 0, 4, 4, kind="static")], CFG)
        assert out == []

    def test_static_extends(self):
        t = Track(1, (det(0, 0.95, W, H, 4, 4, 8, 8),))
        out = step([t], [det(1, 0.8, W, H, 4, 4, 8, 8, kind="static")], CFG)
        assert len(out[0].entries) == 2

    def test_frame_ordering_violation(self):
        t = Track(1, (det(5, 0.95, W, H, 4, 4, 8, 8),))
        with pytest.raises(ValueError):
            step([t], [det(5, 0.95, W, H, 4, 4, 8, 8)], CFG)

    def test_mixed_frames_rejected(self):
        with pytest.raises(ValueError, match=re.escape("detections span several frames: [0, 1]")):
            step([], [det(0, 0.95, W, H, 0, 0, 4, 4),
                      det(1, 0.95, W, H, 0, 0, 4, 4)], CFG)

    def test_frame_comes_from_the_detections_alone(self):
        # the frame is the detections' own: there is no frame argument to check it against
        with pytest.raises(TypeError):
            step([], [det(0, 0.95, W, H, 0, 0, 4, 4)], CFG, frame=0)
        with pytest.raises(ValueError, match="cannot infer frame from an empty detection list"):
            step([], [], CFG)


class TestTrackSequence:
    def test_detections_under_another_frame_key_rejected(self):
        with pytest.raises(ValueError, match="^detections are for frame 1, expected 0$"):
            track_sequence({0: [det(1, 0.95, W, H, 0, 0, 4, 4)]}, CFG)

    def test_single_object_single_track(self):
        tracks = track_sequence(moving_object(range(30)), CFG)
        assert len(tracks) == 1
        assert len(tracks[0].entries) == 30

    def test_gap_within_budget_keeps_identity(self):
        frames = list(range(10)) + list(range(10 + CFG.t_inactive, 40))
        tracks = track_sequence(moving_object(frames, vx=0), CFG)
        assert len(tracks) == 1

    def test_gap_over_budget_splits(self):
        frames = list(range(10)) + list(range(10 + CFG.t_inactive + 2, 40))
        tracks = track_sequence(moving_object(frames, vx=0), CFG)
        assert len(tracks) == 2

    def test_zero_budget_always_splits(self):
        cfg = TrackerConfig(t_inactive=0)
        tracks = track_sequence(moving_object([0, 1, 3, 4], vx=0), cfg)
        assert len(tracks) == 2

    def test_first_frame_needs_alpha_high(self):
        dets = {0: [det(0, 0.8, W, H, 0, 0, 8, 8)],
                1: [det(1, 0.95, W, H, 0, 0, 8, 8)]}
        tracks = track_sequence(dets, CFG)
        assert len(tracks) == 1
        assert tracks[0].first_frame == 1

    def test_detection_used_at_most_once(self):
        dets = moving_object(range(10))
        tracks = track_sequence(dets, CFG)
        seen = set()
        for t in tracks:
            for d in t.entries:
                assert id(d) not in seen
                seen.add(id(d))

    def test_entry_scores_respect_gates(self):
        rng = np.random.default_rng(3)
        dets = {}
        for f in range(20):
            dets[f] = [det(f, float(rng.uniform(0.4, 1.0)), W, H, 4 + f, 4, 8, 8)]
        tracks = track_sequence(dets, CFG)
        for t in tracks:
            assert all(d.score >= CFG.alpha_low for d in t.entries)
            assert any(d.score >= CFG.alpha_high for d in t.entries)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        dets = {}
        for f in range(15):
            dets[f] = [det(f, float(rng.uniform(0.7, 1.0)), W, H,
                           int(rng.integers(0, 40)), int(rng.integers(0, 30)), 8, 8)
                       for _ in range(3)]
        a = track_sequence(dets, CFG)
        b = track_sequence(dets, CFG)
        assert [(t.id, t.entries) for t in a] == [(t.id, t.entries) for t in b]


class TestMergeMovingStatic:
    def test_identical_static_removed(self):
        moving = {0: [det(0, 0.95, W, H, 4, 4, 8, 8)]}
        static = {0: [det(0, 0.8, W, H, 4, 4, 8, 8, kind="static")]}
        merged = merge_moving_static(mixed(moving, static), CFG)
        assert [d.kind for d in merged[0]] == ["moving"]

    def test_disjoint_static_kept(self):
        moving = {0: [det(0, 0.95, W, H, 4, 4, 8, 8)]}
        static = {0: [det(0, 0.8, W, H, 40, 30, 8, 8, kind="static")]}
        merged = merge_moving_static(mixed(moving, static), CFG)
        assert [d.kind for d in merged[0]] == ["moving", "static"]

    def test_threshold_rule(self):
        # IoU 8x8 vs 8x8 shifted by 1 col: 56/72 = 0.78 > 0.5 -> removed
        moving = {0: [det(0, 0.95, W, H, 4, 4, 8, 8)]}
        static = {0: [det(0, 0.8, W, H, 5, 4, 8, 8, kind="static")]}
        assert [d.kind for d in merge_moving_static(mixed(moving, static), CFG)[0]] == ["moving"]
        lax = TrackerConfig(static_overlap_iou=0.9)
        assert len(merge_moving_static(mixed(moving, static), lax)[0]) == 2

    def test_gated_moving_does_not_suppress_static(self):
        # the moving detection scores below alpha_low, so the gate drops it first
        moving = {0: [det(0, 0.5, W, H, 4, 4, 8, 8)]}
        static = {0: [det(0, 0.8, W, H, 4, 4, 8, 8, kind="static")]}
        assert [d.kind for d in merge_moving_static(mixed(moving, static), CFG)[0]] == ["static"]

    def test_moving_suppresses_static_wherever_it_sits(self):
        # the kind decides, not the place in the frame's list
        mover = det(0, 0.95, W, H, 4, 4, 8, 8)
        over = det(0, 0.8, W, H, 5, 4, 8, 8, kind="static")
        apart = det(0, 0.8, W, H, 40, 30, 8, 8, kind="static")
        for frame in ([over, mover, apart], [apart, over, mover], [over, apart, mover]):
            assert merge_moving_static({0: frame}, CFG)[0] == [mover, apart]

    def test_static_opens_no_track(self):
        # a static detection above alpha_high, alone on its frame, opens no track
        static = {0: [det(0, 0.95, W, H, 4, 4, 8, 8, kind="static")]}
        assert merge_moving_static(static, CFG) == static
        assert track_sequence(merge_moving_static(static, CFG), CFG) == []
        assert bidirectional_track(static, CFG) == []


class TestBidirectional:
    @staticmethod
    def _static_then_moving():
        moving = {f: [det(f, 0.95, W, H, 10, 10, 10, 10)] for f in range(10, 30)}
        static = {f: [det(f, 0.85, W, H, 10, 10, 10, 10, kind="static")]
                  for f in range(10)}
        return moving, static

    def test_backward_extension(self):
        moving, static = self._static_then_moving()
        cfg = TrackerConfig()
        tracks = bidirectional_track(mixed(moving, static), cfg)
        assert len(tracks) == 1
        assert tracks[0].first_frame == 0
        assert tracks[0].last_active_frame == 29
        assert len(tracks[0].entries) == 30
        frames = [d.frame for d in tracks[0].entries]
        assert frames == sorted(set(frames))

    def test_forward_only_starts_late(self):
        moving, static = self._static_then_moving()
        cfg = TrackerConfig()
        merged = merge_moving_static(mixed(
            {f: gate(d, cfg) for f, d in moving.items()},
            {f: gate(d, cfg) for f, d in static.items()}), cfg)
        tracks = track_sequence(merged, cfg)
        assert tracks[0].first_frame == 10

    def test_no_static_identical_to_forward(self):
        moving, _ = self._static_then_moving()
        cfg = TrackerConfig()
        bi = bidirectional_track(moving, cfg)
        fw = track_sequence(moving, cfg)
        assert [(t.id, t.entries) for t in bi] == [(t.id, t.entries) for t in fw]

    def test_moving_from_frame_zero_adds_nothing(self):
        moving = {f: [det(f, 0.95, W, H, 10, 10, 10, 10)] for f in range(20)}
        static = {f: [det(f, 0.85, W, H, 40, 30, 6, 6, kind="static")]
                  for f in range(20)}
        cfg = TrackerConfig()
        tracks = bidirectional_track(mixed(moving, static), cfg)
        assert len(tracks) == 1
        assert tracks[0].first_frame == 0
        assert all(d.kind == "moving" for d in tracks[0].entries)

    def test_backward_respects_inactivity(self):
        moving = {f: [det(f, 0.95, W, H, 10, 10, 10, 10)] for f in range(20, 30)}
        static = {f: [det(f, 0.85, W, H, 10, 10, 10, 10, kind="static")]
                  for f in range(0, 5)}   # gap 5..19 exceeds t_inactive=3
        cfg = TrackerConfig(t_inactive=3)
        tracks = bidirectional_track(mixed(moving, static), cfg)
        assert len(tracks) == 1
        assert tracks[0].first_frame == 20


# below the gate, on alpha_low, between the gates (extends, never opens), on alpha_high, above
_SCORES = [0.6, 0.7, 0.8, 0.9, 0.95]


@st.composite
def _streams(draw):
    """Moving and static streams over sparse frames of a 10x8 canvas, and a tracker
    config with an inactivity budget of 0 to 3 frames.

    One to three objects drift by up to a pixel a frame.  On its frames the moving
    stream sees each object or misses it, sometimes twice, and may add a stray
    rectangle; on frames of its own the static stream sees each object or misses it.
    Gaps run up to 5 frames, so budgets are often exceeded, and twins and objects on
    the same rectangle bring exact IoU ties.
    """
    w, h = 10, 8

    def rect():
        rw, rh = draw(st.integers(2, 5)), draw(st.integers(2, 4))
        return [draw(st.integers(0, w - rw)), draw(st.integers(0, h - rh)), rw, rh]

    def sees(frame, obj, kind):
        return det(frame, draw(st.sampled_from(_SCORES)), w, h, *obj, kind)

    frames = st.lists(st.integers(1, 5), min_size=3, max_size=10).map(
        lambda gaps: {sum(gaps[:k]) for k in range(len(gaps))})
    objects = [rect() for _ in range(draw(st.integers(1, 3)))]
    moving_frames, static_frames = draw(frames), draw(frames)
    moving, static = {}, {}
    for f in sorted(moving_frames | static_frames):
        for obj in objects:
            obj[0] = min(max(obj[0] + draw(st.integers(-1, 1)), 0), w - obj[2])
            obj[1] = min(max(obj[1] + draw(st.integers(-1, 1)), 0), h - obj[3])
        if f in moving_frames:
            seen = [obj for obj in objects if draw(st.booleans())]
            twin = seen[:draw(st.integers(0, 1))]
            stray = [rect() for _ in range(draw(st.integers(0, 1)))]
            moving[f] = [sees(f, obj, "moving") for obj in seen + twin + stray]
        if f in static_frames:
            static[f] = [sees(f, obj, "static") for obj in objects if draw(st.booleans())]
    cfg = TrackerConfig(t_inactive=draw(st.integers(0, 3)),
                        min_match_iou=draw(st.sampled_from([1e-9, 0.25, 0.5])),
                        static_overlap_iou=draw(st.sampled_from([0.2, 0.5])))
    return moving, static, cfg


def _by_identity(tracks):
    return [(tid, [id(d) for d in entries]) for tid, entries in tracks]


@given(_streams())
@settings(max_examples=150, deadline=None)
def test_tracker_matches_dense_reference(streams):
    """Both passes pick the same detections, by identity, under the same ids as the
    whole-state fold over decoded grids and exhaustive matchings."""
    moving, static, cfg = streams
    stream = mixed(moving, static)
    assert _by_identity((t.id, t.entries) for t in track_sequence(stream, cfg)) == \
        _by_identity(track_sequence_reference(stream, cfg))
    assert _by_identity((t.id, t.entries) for t in bidirectional_track(stream, cfg)) == \
        _by_identity(bidirectional_reference(stream, cfg))


@given(_streams(), st.data())
@settings(max_examples=100, deadline=None)
def test_kind_decides_not_position(streams, data):
    """Interleaving each frame's moving and static detections at random, each kind in its
    own order, changes neither the merge nor either pass: the same detections, by
    identity, as for the stream with each frame's moving detections first."""
    moving, static, cfg = streams
    stream, shuffled = mixed(moving, static), {}
    for f in stream:
        movers, statics = moving.get(f, []), static.get(f, [])
        order = data.draw(st.permutations([True] * len(movers) + [False] * len(statics)))
        movers, statics = iter(movers), iter(statics)
        shuffled[f] = [next(movers) if is_moving else next(statics) for is_moving in order]

    def passes(dets):
        merged = merge_moving_static(dets, cfg)
        return ({f: [id(d) for d in ds] for f, ds in merged.items()},
                _by_identity((t.id, t.entries) for t in track_sequence(merged, cfg)),
                _by_identity((t.id, t.entries) for t in bidirectional_track(dets, cfg)))

    assert passes(shuffled) == passes(stream)


@given(_streams())
@settings(max_examples=60, deadline=None)
def test_step_fold_equals_track_sequence(streams):
    moving, static, cfg = streams
    stream, tracks = mixed(moving, static), []
    for frame in sorted(stream):
        kept = gate(stream[frame], cfg)
        if kept:
            tracks = step(tracks, kept, cfg)
    assert _by_identity((t.id, t.entries) for t in tracks) == \
        _by_identity((t.id, t.entries) for t in track_sequence(stream, cfg))


def test_synthetic_identity_agreement():
    # no occlusion, jitter <= 2 px on objects large enough that boundary noise
    # costs well under 1% of pixel F; any identity swap or split would cost more
    cfg = SynthConfig(seed=21, frames=30, width=1280, height=1280, objects=2,
                      velocity=(1.0, 2.0), object_size=(380, 420),
                      noise=NoiseConfig(jitter_px=2))
    gt, _ = generate(cfg)
    dets = corrupt(gt, cfg.noise, seed=21)
    tracks = track_sequence(dets, TrackerConfig())
    rep = evaluate("proposed", [("s", gt, tracks)])
    assert rep.f_measure >= 0.99


def test_zero_jitter_multi_object_identity_exact():
    cfg = SynthConfig(seed=4, frames=25, width=96, height=72, objects=3,
                      velocity=(0.5, 1.5))
    gt, _ = generate(cfg)
    dets = corrupt(gt, cfg.noise, seed=4)
    tracks = track_sequence(dets, TrackerConfig())
    assert evaluate("proposed", [("s", gt, tracks)]).f_measure == 1.0

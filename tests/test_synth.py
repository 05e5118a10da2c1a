import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from dense_reference import corrupt_reference

from movingseg.mask import area, rle_decode
from movingseg.metrics import evaluate
from movingseg.synth import (NoiseConfig, OcclusionEvent, PlacementError, _advance,
                             SynthConfig, corrupt, generate)
from movingseg.tracker import Track, TrackerConfig, track_sequence


def base_cfg(**kw):
    defaults = dict(seed=1, frames=5, width=64, height=48, objects=1)
    defaults.update(kw)
    return SynthConfig(**defaults)


def _reflect(pos, vel, hi):
    """One reflection per turn, off 0 and hi."""
    pos += vel
    while pos < 0 or pos > hi:
        pos, vel = (-pos, -vel) if pos < 0 else (2 * hi - pos, -vel)
    return pos, vel


def test_advance_folds_long_moves():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        hi = float(rng.uniform(0.5, 50))
        pos = float(rng.uniform(0, hi))
        vel = float(rng.uniform(-1, 1) * hi)
        assert _advance(pos, vel, hi) == _reflect(pos, vel, hi)   # bit for bit
        vel *= float(rng.uniform(1, 40))
        got, want = _advance(pos, vel, hi), _reflect(pos, vel, hi)
        assert 0 <= got[0] <= hi and got[1] == want[1]
        assert got[0] == pytest.approx(want[0], abs=1e-9 * abs(vel))
    assert _advance(5.0, 5.0, 5.0) == _reflect(5.0, 5.0, 5.0) == (0.0, -5.0)   # lands on 2*hi
    assert 0 <= _advance(3.0, 1e12, 37.0)[0] <= 37.0


class TestGenerate:
    def test_single_object_bookkeeping(self):
        gt, tracks = generate(base_cfg())
        assert len(tracks) == 1
        assert len(tracks[0].entries) == 5
        for f in range(5):
            assert set(np.unique(gt.labeled_frames[f]).tolist()) == {0, 1}

    def test_determinism(self):
        a_gt, a_tracks = generate(base_cfg(seed=42, objects=3, frames=10))
        b_gt, b_tracks = generate(base_cfg(seed=42, objects=3, frames=10))
        assert a_tracks == b_tracks
        b_labels = b_gt.labeled_frames
        for f, label in a_gt.labeled_frames.items():
            assert (label == b_labels[f]).all()

    def test_different_seeds_differ(self):
        a_gt, _ = generate(base_cfg(seed=1))
        b_gt, _ = generate(base_cfg(seed=2))
        b_labels = b_gt.labeled_frames
        assert any((label != b_labels[f]).any() for f, label in a_gt.labeled_frames.items())

    def test_occlusion_event_blanks_frames(self):
        cfg = base_cfg(frames=6, occlusions=(OcclusionEvent(0, 2, 3),))
        gt, tracks = generate(cfg)
        for f in (2, 3, 4):
            assert 1 not in np.unique(gt.labeled_frames[f])
        for f in (0, 1, 5):
            assert 1 in np.unique(gt.labeled_frames[f])
        assert [d.frame for d in tracks[0].entries] == [0, 1, 5]

    @pytest.mark.parametrize("event, message", [
        ((2, 0, 1), "occlusions[1].object_index must lie in [0, 2), got 2"),
        ((-1, 0, 1), "occlusions[1].object_index must lie in [0, 2), got -1"),
        ((0, 6, 1), "occlusions[1].start_frame must lie in [0, 6), got 6"),
        ((0, -1, 3), "occlusions[1].start_frame must lie in [0, 6), got -1"),
        ((0, 2, 0), "occlusions[1].duration must be at least 1, got 0"),
        ((0, 2, -4), "occlusions[1].duration must be at least 1, got -4")])
    def test_occlusion_event_that_occludes_nothing_rejected(self, event, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            base_cfg(frames=6, objects=2,
                     occlusions=(OcclusionEvent(1, 0, 6), OcclusionEvent(*event)))

    def test_occlusion_event_past_the_last_frame_kept(self):
        # an event may run past the last frame; it blanks the frames it reaches
        gt, tracks = generate(base_cfg(frames=6, occlusions=(OcclusionEvent(0, 5, 9),)))
        assert [d.frame for d in tracks[0].entries] == [0, 1, 2, 3, 4]

    def test_later_objects_occlude_earlier(self):
        cfg = base_cfg(objects=4, frames=12, seed=11)
        gt, tracks = generate(cfg)
        by_id = {t.id: t for t in tracks}
        for f, label in gt.labeled_frames.items():
            for tid, t in by_id.items():
                entry = next((d for d in t.entries if d.frame == f), None)
                expected = (label == tid)
                if entry is None:
                    assert not expected.any()
                else:
                    assert (rle_decode(entry.mask).astype(bool) == expected).all()

    def test_placement_error(self):
        with pytest.raises(PlacementError):
            generate(SynthConfig(seed=0, frames=1, width=2, height=2))
        with pytest.raises(PlacementError):
            generate(base_cfg(object_size=(50, 100)))

    def test_object_size_respected(self):
        cfg = base_cfg(object_size=(10, 10))
        _, tracks = generate(cfg)
        assert area(tracks[0].entries[0].mask) == 100

    def test_ellipse_shape(self):
        cfg = base_cfg(shape="ellipse", object_size=(12, 12))
        gt, tracks = generate(cfg)
        a = area(tracks[0].entries[0].mask)
        assert 0 < a < 144          # strictly inside its bounding square

    def test_reflection_keeps_objects_inside(self):
        cfg = base_cfg(frames=200, velocity=(5.0, 9.0), seed=3)
        gt, tracks = generate(cfg)
        assert len(tracks[0].entries) == 200
        for f, label in gt.labeled_frames.items():
            assert (label >= 0).all()

    def test_frames_share_one_canvas(self):
        # five 1920x1080 int32 maps would take 40 MiB; one canvas and its runs take under 24
        cfg = SynthConfig(seed=3, frames=5, width=1920, height=1080, objects=10,
                          object_size=(240, 280))
        tracemalloc.start()
        try:
            gt, _ = generate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gt.eval_frames() == [0, 1, 2, 3, 4]
        assert peak < 24 * 2**20

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SynthConfig(seed=0, frames=0, width=8, height=8)
        with pytest.raises(ValueError):
            SynthConfig(seed=0, frames=1, width=8, height=8, shape="triangle")
        with pytest.raises(ValueError):
            SynthConfig(seed=0, frames=1, width=8, height=8, velocity=(3.0, 1.0))
        with pytest.raises(ValueError):
            NoiseConfig(fp_rate=1.5)


_NONFINITE = [math.nan, math.inf, -math.inf]
# every float field of the library configs, with a valid value for the others
_FLOAT_FIELDS = [(TrackerConfig, {}, name) for name in
                 ("alpha_high", "alpha_low", "min_match_iou", "static_overlap_iou")] + \
                [(NoiseConfig, {}, name) for name in
                 ("score_mean", "score_spread", "fp_rate", "fn_rate")] + \
                [(SynthConfig, dict(seed=0, frames=1, width=8, height=8), "velocity")]


@pytest.mark.parametrize("config,kwargs,name", _FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, _, n in _FLOAT_FIELDS])
@pytest.mark.parametrize("bad", _NONFINITE, ids=["nan", "inf", "-inf"])
def test_configs_reject_non_finite_floats(config, kwargs, name, bad):
    values = [(bad, 1.0), (0.0, bad)] if name == "velocity" else [bad]
    for value in values:
        with pytest.raises(ValueError, match=name):
            config(**kwargs, **{name: value})
    config(**kwargs)   # the defaults are finite


@pytest.mark.parametrize("config,kwargs,bad,bound,message", [
    (SynthConfig, dict(frames=1, width=8, height=8), {"seed": -1}, {"seed": 0}, "seed must"),
    (NoiseConfig, {}, {"score_spread": 1e308}, {"score_spread": sys.float_info.max / 2},
     "score_spread must"),
    (NoiseConfig, {}, {"jitter_px": 2**62 + 1}, {"jitter_px": 2**62}, "jitter_px must"),
    (NoiseConfig, {}, {"jitter_px": 10**21}, {"jitter_px": 2**62}, "jitter_px must"),
    (SynthConfig, dict(seed=0, frames=1, width=8, height=8), {"objects": 65536},
     {"objects": 65535}, "objects must be at most 65535, got 65536"),
    (SynthConfig, dict(seed=0, frames=1, width=8, height=8), {"object_size": (9, 9)},
     {"object_size": (8, 8)}, "canvas 8x8 cannot hold a 9px object"),
], ids=["seed", "score_spread", "jitter_px", "jitter_px-beyond-int64", "objects",
        "object_size-past-the-canvas"])
def test_configs_refuse_values_the_generators_cannot_draw_with(config, kwargs, bad, bound,
                                                               message):
    """A seed SeedSequence refuses, a spread or jitter whose range overflows a draw,
    more objects than a PGM map has labels, or an object larger than the canvas is a
    ValueError raised by the config itself; the bound itself is accepted."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        config(**kwargs, **bad)
    config(**kwargs, **bound)


def test_the_largest_spread_and_jitter_run():
    gt, _ = generate(base_cfg(frames=2, objects=2, seed=0))
    noise = NoiseConfig(jitter_px=2**62, score_spread=sys.float_info.max / 2, fp_rate=1.0)
    dets = corrupt(gt, noise, seed=0)
    # every object is shifted out of the frame or not at all; only false positives remain
    assert all(0.0 <= d.score <= 1.0 for ds in dets.values() for d in ds)
    assert corrupt(gt, noise, seed=0) == dets


class TestCorrupt:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_loop(self, seed):
        # seed 5's canvas is as high as its objects; jitter as wide as the objects
        # pushes some masks partly or wholly off the frame
        height, sides = (3, (3, 3)) if seed == 5 else (20, (3, 9))
        cfg = base_cfg(seed=seed, frames=6, width=30, height=height, objects=8,
                       shape="ellipse" if seed % 2 else "rectangle", object_size=sides,
                       occlusions=(OcclusionEvent(2, 1, 3),))
        gt, _ = generate(cfg)
        for noise in (NoiseConfig(),
                      NoiseConfig(jitter_px=1, score_mean=0.8, score_spread=0.3,
                                  fp_rate=0.5, fn_rate=0.2),
                      NoiseConfig(jitter_px=12, fn_rate=0.1, fp_rate=1.0),
                      NoiseConfig(jitter_px=40, score_spread=0.5)):
            assert corrupt(gt, noise, seed) == corrupt_reference(gt, noise, seed)

    def test_zero_noise_identity(self):
        gt, tracks = generate(base_cfg(objects=2, frames=8, seed=5))
        dets = corrupt(gt, NoiseConfig(), seed=5)
        for t in tracks:
            for d in t.entries:
                assert any(x.mask == d.mask and x.score == 1.0 for x in dets[d.frame])

    def test_fn_rate_one_drops_everything(self):
        gt, _ = generate(base_cfg(objects=2, frames=8, seed=5))
        dets = corrupt(gt, NoiseConfig(fn_rate=1.0), seed=5)
        assert all(len(v) == 0 for v in dets.values())

    def test_fp_rate_one_adds_one_per_frame(self):
        gt, _ = generate(base_cfg(objects=2, frames=10, seed=5))
        clean = corrupt(gt, NoiseConfig(), seed=5)
        noisy = corrupt(gt, NoiseConfig(fp_rate=1.0), seed=5)
        added = sum(len(noisy[f]) - len(clean[f]) for f in clean)
        assert added == 10

    def test_spurious_disjoint_from_objects(self):
        gt, _ = generate(base_cfg(objects=2, frames=10, seed=5))
        noisy = corrupt(gt, NoiseConfig(fp_rate=1.0), seed=5)
        labels = gt.labeled_frames
        for f, dets in noisy.items():
            occupied = labels[f] > 0
            spurious = dets[-1]
            assert not (rle_decode(spurious.mask).astype(bool) & occupied).any()

    def test_determinism(self):
        gt, _ = generate(base_cfg(objects=2, frames=8, seed=5))
        noise = NoiseConfig(jitter_px=2, score_mean=0.9, score_spread=0.1,
                            fp_rate=0.5, fn_rate=0.2)
        a = corrupt(gt, noise, seed=9)
        b = corrupt(gt, noise, seed=9)
        assert a == b

    def test_scores_clamped(self):
        gt, _ = generate(base_cfg(frames=10))
        dets = corrupt(gt, NoiseConfig(score_mean=0.95, score_spread=0.3), seed=1)
        for v in dets.values():
            for d in v:
                assert 0.0 <= d.score <= 1.0


class TestPipelineProperties:
    def test_zero_noise_pipeline_perfect_f(self):
        cfg = base_cfg(seed=13, frames=20, width=96, height=64, objects=2)
        gt, _ = generate(cfg)
        dets = corrupt(gt, NoiseConfig(), seed=13)
        tracks = track_sequence(dets, TrackerConfig())
        rep = evaluate("proposed", [("s", gt, tracks)])
        assert rep.f_measure == 1.0

    def test_fp_rate_never_raises_precision(self):
        gt, _ = generate(base_cfg(seed=8, frames=12, objects=2))

        def raw_precision(rate):
            dets = corrupt(gt, NoiseConfig(fp_rate=rate), seed=8)
            tracks, k = [], 0
            for f in sorted(dets):
                for d in dets[f]:
                    tracks.append(Track(k, (d,)))
                    k += 1
            return evaluate("proposed", [("s", gt, tracks)]).precision

        values = [raw_precision(r) for r in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

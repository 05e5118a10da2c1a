"""Run-space fast paths against the dense references in dense_reference.py."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (boundary_f_edt, boundary_map, interval_grid,
                             translate_dense)
from movingseg import metrics, tracker
from movingseg.mask import (Mask, boundary_pixels, intersect_cuts, intersect_cuts_many,
                            rle_decode, rle_encode, translate, union_merge)
from movingseg.metrics import average_precision, boundary_f
from movingseg.synth import NoiseConfig, SynthConfig, _box_mask, corrupt, generate
from movingseg.tracker import (Detection, TrackerConfig, bidirectional_track, gate,
                               merge_moving_static, track_sequence)

DENSITIES = st.sampled_from([0.0, 0.15, 0.5, 0.85, 1.0])


@st.composite
def interval_sets(draw, size):
    """Sorted boundaries with repeats, so intervals may be empty or touch."""
    points = sorted(draw(st.lists(st.integers(0, size), max_size=16)))
    return np.array(points[:len(points) // 2 * 2], dtype=np.int64)


@st.composite
def grids(draw, max_side=12):
    """A random binary grid; density 0 is empty and 1 fills the frame."""
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(DENSITIES)
    grid = (np.random.default_rng(seed).random((h, w)) < density).astype(np.uint8)
    return grid, w, h


def _seeded_grid(seed, density, w, h):
    return (np.random.default_rng(seed).random((h, w)) < density).astype(np.uint8)


class TestIntersectKernel:
    @given(st.data(), st.integers(1, 40))
    @settings(max_examples=300)
    def test_matches_dense(self, data, size):
        a = data.draw(interval_sets(size))
        bs = [data.draw(interval_sets(size)) for _ in range(data.draw(st.integers(0, 4)))]
        dense_a = interval_grid(a, size)
        expected = [int((dense_a & interval_grid(b, size)).sum()) for b in bs]
        assert [intersect_cuts(a, b) for b in bs] == expected
        many = intersect_cuts_many(a, bs)
        assert many.shape == (len(bs),)
        assert many.tolist() == expected

    def test_hand_cases(self):
        a = np.array([2, 5, 5, 8], dtype=np.int64)          # touching intervals
        assert intersect_cuts(a, np.array([0, 10])) == 6
        assert intersect_cuts(a, np.array([5, 5])) == 0       # empty interval
        assert intersect_cuts(a, np.array([8, 12])) == 0      # disjoint, touching
        assert intersect_cuts(np.empty(0, np.int64), a) == 0
        empty = np.empty(0, np.int64)
        assert intersect_cuts_many(a, [empty, np.array([4, 6]), a]).tolist() == [0, 2, 6]
        assert intersect_cuts_many(empty, [a]).tolist() == [0]
        assert intersect_cuts_many(a, []).tolist() == []


class TestUnion:
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
           st.integers(1, 12), st.integers(1, 12), DENSITIES)
    @settings(max_examples=150)
    def test_matches_dense(self, seeds, w, h, density):
        grids_ = [_seeded_grid(s, density, w, h) for s in seeds]
        merged = union_merge([rle_encode(g, w, h) for g in grids_])
        expected = np.logical_or.reduce([g.astype(bool) for g in grids_])
        assert merged == rle_encode(expected, w, h)


def _assert_translate_matches(mask, dx, dy):
    shifted = translate(mask, dx, dy)
    expected = translate_dense(mask, dx, dy)
    if expected is None:
        assert shifted.is_empty
    else:
        assert shifted == expected


class TestTranslate:
    @given(grids(), st.data())
    @settings(max_examples=300)
    def test_matches_dense(self, g, data):
        grid, w, h = g
        dx = data.draw(st.integers(-2 * w - 1, 2 * w + 1))
        dy = data.draw(st.integers(-2 * h - 1, 2 * h + 1))
        _assert_translate_matches(rle_encode(grid, w, h), dx, dy)

    @pytest.mark.parametrize("dx,dy", [(4, 0), (0, 3), (-4, -3), (5, 7), (1, -1),
                                       (-1, 1), (3, 2), (-3, 0)])
    def test_runs_wrapping_rows(self, dx, dy):
        # one run covers the frame; another wraps from a row's end to the next start
        _assert_translate_matches(Mask(4, 3, (0, 12)), dx, dy)
        _assert_translate_matches(Mask(4, 3, (2, 5, 5)), dx, dy)


@pytest.mark.parametrize("box", [(0, 0, 0, 0), (2, 1, 5, 3), (0, 2, 7, 4),
                                 (0, 0, 7, 5), (7, 5, 7, 5)])
def test_box_mask_matches_painted_box(box):
    x0, y0, x1, y1 = box
    grid = np.zeros((6, 8), dtype=np.uint8)
    grid[y0:y1 + 1, x0:x1 + 1] = 1
    assert _box_mask(box, 8, 6) == rle_encode(grid, 8, 6)


class TestBoundary:
    @given(grids(max_side=16))
    @settings(max_examples=300)
    def test_pixels_match_dense(self, g):
        grid, w, h = g
        mask = rle_encode(grid, w, h)
        assert boundary_pixels(mask).tolist() == np.flatnonzero(boundary_map(mask)).tolist()

    @given(st.integers(1, 14), st.integers(1, 14), st.integers(1, 3),
           st.lists(st.tuples(st.integers(0, 2**32 - 1), DENSITIES, DENSITIES),
                    min_size=3, max_size=3),
           st.one_of(st.just(0), st.integers(0, 8),
                     st.floats(0, 9, allow_nan=False, allow_infinity=False)))
    @settings(max_examples=300)
    def test_f_matches_edt(self, w, h, n_frames, draws, tolerance):
        gt, pred = {}, {}
        for f, (seed, d_gt, d_pr) in enumerate(draws[:n_frames]):
            rng = np.random.default_rng(seed)
            gt[f] = rle_encode(rng.random((h, w)) < d_gt, w, h)
            pred[f] = rle_encode(rng.random((h, w)) < d_pr, w, h)
        assert boundary_f(gt, pred, tolerance) == boundary_f_edt(gt, pred, tolerance)

    @pytest.mark.parametrize("tolerance", [0, 0.5, 1, 1.4142135, 1.4142136, 2.5, 30])
    def test_edge_cases_match_edt(self, tolerance):
        w, h = 20, 15
        empty = Mask(w, h, (w * h,))
        full = Mask(w, h, (0, w * h))
        corner = rle_encode(np.pad(np.ones((4, 5), np.uint8), ((0, 11), (0, 15))), w, h)
        inner = rle_encode(np.pad(np.ones((5, 6), np.uint8), ((5, 5), (7, 7))), w, h)
        frames = [(empty, empty), (empty, inner), (corner, empty), (full, inner),
                  (corner, full), (inner, corner), (inner, inner)]
        gt = {f: g for f, (g, _) in enumerate(frames)}
        pred = {f: p for f, (_, p) in enumerate(frames)}
        assert boundary_f(gt, pred, tolerance) == boundary_f_edt(gt, pred, tolerance)
        for f in gt:
            one = boundary_f({0: gt[f]}, {0: pred[f]}, tolerance)
            assert one == boundary_f_edt({0: gt[f]}, {0: pred[f]}, tolerance)


def _all_pairs(a, b):
    return np.ones((len(a), len(b)), dtype=bool)


def _crowded_inputs(seed):
    cfg = SynthConfig(seed=seed, frames=8, width=48, height=36, objects=6,
                      object_size=(3, 12))
    gt, _ = generate(cfg)
    noise = NoiseConfig(jitter_px=2, score_mean=0.85, score_spread=0.15,
                        fp_rate=1.0, fn_rate=0.1)
    moving = corrupt(gt, noise, seed)
    static = {f: [Detection(d.frame, d.score, d.mask, "static") for d in ds]
              for f, ds in corrupt(gt, noise, seed + 1).items()}
    return gt, moving, static


class TestBoxSkip:
    """Skipping pairs with disjoint bounding boxes changes no result."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_tracker_matches_unskipped(self, seed):
        gt, moving, static = _crowded_inputs(seed)
        cfg = TrackerConfig()
        bidir = TrackerConfig(bidirectional=True)

        def run():
            gated_moving = {f: gate(ds, cfg) for f, ds in moving.items()}
            gated_static = {f: gate(ds, cfg) for f, ds in static.items()}
            merged = merge_moving_static(gated_moving, gated_static, cfg)
            return merged, track_sequence(merged, cfg), bidirectional_track(moving, static, bidir)

        skipped = run()
        with mock.patch.object(tracker, "boxes_meet", _all_pairs):
            unskipped = run()
        assert skipped == unskipped

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_average_precision_matches_unskipped(self, seed):
        gt, moving, _ = _crowded_inputs(seed)
        gt_frames = {f: [r.frames[f] for r in gt.regions() if f in r.frames]
                     for f in gt.eval_frames()}

        def run():
            return [average_precision(gt_frames, moving, t) for t in (0.1, 0.5, 0.75)]

        skipped = run()
        with mock.patch.object(metrics, "boxes_meet", _all_pairs):
            assert run() == skipped


def test_encode_accepts_every_binary_dtype():
    dense = np.array([[0, 1], [1, 0]])
    expected = rle_encode(dense.astype(bool), 2, 2)
    for dtype in (np.uint8, np.int32, np.int64, np.float32, np.float64):
        assert rle_encode(dense.astype(dtype), 2, 2) == expected
    assert (rle_decode(expected) == dense).all()

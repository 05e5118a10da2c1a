"""Run-space fast paths against the dense references in dense_reference.py."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (average_precision_dense, boundary_f_edt, boundary_map,
                             grid_box, grid_iou, interval_grid, translate_dense)
from movingseg import mask as mask_module
from movingseg.mask import (DimensionMismatchError, Mask, _boxes, _overlaps, bbox,
                            boundary_pixels, intersect_cuts, iou, iou_matrix,
                            rle_decode, rle_encode, translate, union_merge)
from movingseg.metrics import average_precision, boundary_f, davis_j
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


@st.composite
def frame_grids(draw, w, h):
    """A w x h grid: random pixels at any density, or a rectangle, often at the frame edge."""
    if draw(st.booleans()):
        return _seeded_grid(draw(st.integers(0, 2**32 - 1)), draw(DENSITIES), w, h)
    x0, x1 = sorted([draw(st.integers(0, w - 1)), draw(st.integers(0, w - 1))])
    y0, y1 = sorted([draw(st.integers(0, h - 1)), draw(st.integers(0, h - 1))])
    grid = np.zeros((h, w), dtype=np.uint8)
    grid[y0:y1 + 1, x0:x1 + 1] = 1
    return grid


class TestIntersectKernel:
    @given(st.data(), st.integers(1, 40), st.sampled_from([1, 2, 3, 6, mask_module._CHUNK]))
    @settings(max_examples=300)
    def test_matches_dense(self, data, size, chunk):
        # sets may be empty, or hold empty and touching intervals; pairs may repeat
        sets = st.one_of(st.just(np.empty(0, np.int64)), interval_sets(size))
        a_sets = data.draw(st.lists(sets, min_size=1, max_size=4))
        b_sets = data.draw(st.lists(sets, min_size=1, max_size=4))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, len(a_sets) - 1),
                                             st.integers(0, len(b_sets) - 1)), max_size=12))
        ii, jj = [i for i, _ in pairs], [j for _, j in pairs]
        expected = [int((interval_grid(a_sets[i], size) & interval_grid(b_sets[j], size)).sum())
                    for i, j in pairs]
        with mock.patch.object(mask_module, "_CHUNK", chunk):
            got = _overlaps(a_sets, b_sets, ii, jj, size + 1)
        assert got.dtype == np.int64 and got.tolist() == expected
        assert [intersect_cuts(a_sets[i], b_sets[j]) for i, j in pairs] == expected

    def test_hand_cases(self):
        a = np.array([2, 5, 5, 8], dtype=np.int64)          # touching intervals
        assert intersect_cuts(a, np.array([0, 10])) == 6
        assert intersect_cuts(a, np.array([5, 5])) == 0       # empty interval
        assert intersect_cuts(a, np.array([8, 12])) == 0      # disjoint, touching
        assert intersect_cuts(np.empty(0, np.int64), a) == 0
        empty = np.empty(0, np.int64)
        got = _overlaps([a, empty], [empty, np.array([4, 6]), a],
                        [0, 0, 0, 1, 0], [0, 1, 2, 2, 1], 13)
        assert got.tolist() == [0, 2, 6, 0, 2]
        assert _overlaps([a], [a], [], [], 13).tolist() == []


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

    @given(st.data(), st.one_of(
               st.tuples(st.integers(1, 14), st.integers(1, 14)),
               # long, thin frames clip the search windows at the row and frame edges
               st.tuples(st.integers(1, 40), st.integers(1, 6)),
               st.tuples(st.integers(1, 6), st.integers(1, 40))),
           st.lists(st.tuples(st.integers(0, 2**32 - 1), DENSITIES, DENSITIES),
                    min_size=1, max_size=6),
           st.sampled_from([1, 2, 3, mask_module._CHUNK]))
    @settings(max_examples=400, deadline=None)
    def test_f_matches_edt(self, data, size, draws, chunk):
        w, h = size
        gt, pred = {}, {}
        for f, (seed, d_gt, d_pr) in enumerate(draws):   # density 0 leaves a side empty
            rng = np.random.default_rng(seed)
            gt[f] = rle_encode(rng.random((h, w)) < d_gt, w, h)
            pred[f] = rle_encode(rng.random((h, w)) < d_pr, w, h)
        root = math.sqrt(data.draw(st.integers(0, 60)))
        tolerance = data.draw(st.one_of(
            st.just(0), st.just(0.0), st.integers(-3, 8),
            st.floats(-9, 9, allow_nan=False),
            # the distances a transform gives, and the floats on either side of one
            st.sampled_from([root, np.nextafter(root, -np.inf), np.nextafter(root, np.inf)]),
            st.floats(math.hypot(w, h), 1e300)))   # wider than the frame
        with mock.patch.object(mask_module, "_CHUNK", chunk):
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


class TestDavisJ:
    @given(st.integers(1, 12), st.integers(1, 12),
           st.lists(st.tuples(st.integers(0, 2**32 - 1), DENSITIES, DENSITIES),
                    min_size=1, max_size=9),
           st.sampled_from([1, 2, 3, mask_module._CHUNK]))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_iou(self, w, h, draws, chunk):
        gt, pred, ious = {}, {}, []
        for f, (seed, d_gt, d_pr) in enumerate(draws):
            rng = np.random.default_rng(seed)
            g, p = rng.random((h, w)) < d_gt, rng.random((h, w)) < d_pr
            gt[f], pred[f] = rle_encode(g, w, h), rle_encode(p, w, h)
            # DAVIS's db_eval_iou scores a frame with both masks empty 1
            ious.append(grid_iou(p, g) if (g | p).any() else 1.0)
        ious = np.array(ious)
        bins = np.array_split(ious, 4)
        decay = np.mean(bins[0]) - np.mean(bins[3]) if len(ious) >= 4 else ious[0] - ious[-1]
        with mock.patch.object(mask_module, "_CHUNK", chunk):
            assert davis_j(gt, pred) == (ious.mean(), (ious > 0.5).mean(), decay)


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
    """Skipping pairs with disjoint bounding boxes changes no result.

    ``iou_matrix`` finds the pairs to test with ``mask.boxes_meet``; patching
    that binding to pass every pair gives the unskipped result.
    """

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
        with mock.patch.object(mask_module, "boxes_meet", _all_pairs):
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
        with mock.patch.object(mask_module, "boxes_meet", _all_pairs):
            assert run() == skipped


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_average_precision_matches_dense(seed):
    gt, moving, _ = _crowded_inputs(seed)
    gt_frames = {f: gt.instance_masks(f) for f in gt.eval_frames()}
    dets = {f: ds + ds[:2] for f, ds in moving.items()}   # repeats tie on score and overlap
    for mode in ("mask", "box"):
        for threshold in (0.1, 0.5, 0.75):
            assert (average_precision(gt_frames, dets, threshold, mode)
                    == average_precision_dense(gt_frames, dets, threshold, mode))


class TestIouMatrix:
    @given(st.data(), st.integers(1, 10), st.integers(1, 10))
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_iou_and_dense(self, data, w, h):
        grids_a = data.draw(st.lists(frame_grids(w, h), max_size=5))
        grids_b = data.draw(st.lists(frame_grids(w, h), max_size=5))
        grids_b += grids_a[:data.draw(st.integers(0, len(grids_a)))]   # identical masks
        a = [rle_encode(g, w, h) for g in grids_a]
        b = [rle_encode(g, w, h) for g in grids_b]
        matrix = iou_matrix(a, b)
        assert matrix.shape == (len(a), len(b)) and matrix.dtype == np.float64
        expected = [[iou(x, y) for y in b] for x in a]
        assert matrix.tolist() == expected
        assert expected == [[grid_iou(x, y) for y in grids_b] for x in grids_a]
        for chunk in (2, 6):   # pairs split over several binary searches
            with mock.patch.object(mask_module, "_CHUNK", chunk):
                assert iou_matrix(a, b).tolist() == expected

    def test_hand_cases(self):
        empty, full = Mask(4, 3, (12,)), Mask(4, 3, (0, 12))
        first, last = Mask(4, 3, (0, 1, 11)), Mask(4, 3, (11, 1))
        wrap = Mask(4, 3, (2, 5, 5))        # row 0's last two pixels and row 1's first three
        left, right = Mask(4, 3, (0, 2, 2, 2, 2, 2, 2)), Mask(4, 3, (2, 2, 2, 2, 2, 2))
        masks = [empty, full, first, last, wrap, left, right]
        assert iou_matrix(masks, masks).tolist() == [[iou(x, y) for y in masks] for x in masks]
        assert iou_matrix([left], [right, wrap]).tolist() == [[0.0, 2 / 9]]   # right touches left
        assert iou_matrix([empty], [empty, full]).tolist() == [[0.0, 0.0]]
        assert iou_matrix([first], [last]).tolist() == [[0.0]]                # disjoint boxes
        for a, b, shape in (([], [], (0, 0)), ([], masks, (0, 7)), (masks, [], (7, 0))):
            assert iou_matrix(a, b).shape == shape

    def test_mixed_frame_sizes_raise(self):
        wide, tall = Mask(4, 3, (0, 12)), Mask(3, 4, (0, 12))   # same pixel count
        for a, b in (([wide, tall], []), ([wide], [tall]), ([], [wide, tall]),
                     ([Mask(4, 3, (12,))], [Mask(4, 4, (16,))])):
            with pytest.raises(DimensionMismatchError):
                iou_matrix(a, b)


@given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10))
                .flatmap(lambda size: frame_grids(*size)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_boxes_match_dense(grids_):
    masks = [rle_encode(g, g.shape[1], g.shape[0]) for g in grids_]   # frame sizes may differ
    expected = [grid_box(g) for g in grids_]
    assert [tuple(box) for box in _boxes(masks).tolist()] == expected
    assert [bbox(m) for m in masks] == [None if m.is_empty else box
                                        for m, box in zip(masks, expected)]


def test_encode_accepts_every_binary_dtype():
    dense = np.array([[0, 1], [1, 0]])
    expected = rle_encode(dense.astype(bool), 2, 2)
    for dtype in (np.uint8, np.int32, np.int64, np.float32, np.float64):
        assert rle_encode(dense.astype(dtype), 2, 2) == expected
    assert (rle_decode(expected) == dense).all()

"""Run-space fast paths against the dense references in dense_reference.py."""

import math
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (_box_iou, average_precision_dense, boundary_f_edt, boundary_map,
                             grid_box, grid_iou, grid_runs, interval_grid, translate_dense)
from helpers import mixed
from movingseg import mask as mask_module
from movingseg.mask import (DimensionMismatchError, Mask, _boundaries, _boxes, _overlaps, _sweep,
                            _tagged_overlaps, _translate_cuts, intersect_cuts, iou, iou_matrix,
                            mask_from_cuts, rle_decode, rle_encode)
from movingseg.metrics import (_frame_ious, average_precision, binarize_detections, boundary_f,
                               davis_j)
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


@given(st.data(), st.integers(1, 40), st.integers(1, 4),
       st.sampled_from([1, 2, 3, 6, mask_module._CHUNK]))
@settings(max_examples=300)
def test_tagged_overlaps_match_dense(data, size, n_tags, chunk):
    # the sets and the tagged intervals may be empty or hold empty and touching
    # intervals; a tag may recur, or label no interval
    sets = data.draw(st.lists(interval_sets(size), max_size=4))
    tagged = data.draw(interval_sets(size))
    tags = np.array(data.draw(st.lists(st.integers(0, n_tags - 1), min_size=len(tagged) // 2,
                                       max_size=len(tagged) // 2)), dtype=np.int64)
    cuts = np.concatenate([np.empty(0, np.int64), *sets])
    counts = np.array([len(c) // 2 for c in sets], dtype=np.int64)
    with mock.patch.object(mask_module, "_CHUNK", chunk):
        got = _tagged_overlaps(cuts, counts, tagged[0::2], tagged[1::2], tags, n_tags)
    tag_of = np.full(size, -1)   # each pixel's tag, -1 outside every tagged interval
    for start, end, tag in zip(tagged[0::2], tagged[1::2], tags):
        tag_of[start:end] = tag
    expected = [[int((interval_grid(c, size) & (tag_of == t)).sum()) for t in range(n_tags)]
                for c in sets]
    assert got.dtype == np.int64 and got.shape == (len(sets), n_tags)
    assert got.tolist() == expected


class TestUnion:
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
           st.integers(1, 12), st.integers(1, 12), DENSITIES)
    @settings(max_examples=150)
    def test_matches_dense(self, seeds, w, h, density):
        grids_ = [_seeded_grid(s, density, w, h) for s in seeds]
        merged = _sweep([rle_encode(g, w, h).foreground_cuts for g in grids_], 1)
        expected = np.logical_or.reduce([g.astype(bool) for g in grids_])
        assert merged.tolist() == rle_encode(expected, w, h).foreground_cuts.tolist()


def _assert_translate_matches(masks, shifts, w, h):
    shifted = _translate_cuts([m.foreground_cuts for m in masks], shifts, w, h)
    assert len(shifted) == len(masks)
    for mask, (dx, dy), cuts in zip(masks, shifts, shifted):
        expected = translate_dense(mask, dx, dy)
        assert mask_from_cuts(cuts, w, h) == (Mask(w, h, (w * h,)) if expected is None
                                              else expected)
        assert not cuts.flags.writeable


@st.composite
def shifted_frames(draw):
    """Masks of one frame, each with its own shift, often as far as the frame or farther.

    Frames of one row or one column come up often; the masks are random pixels at
    any density, rectangles (touching the frame edges too), or runs that wrap rows.
    """
    w, h = draw(st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                          st.tuples(st.integers(1, 12), st.just(1)),
                          st.tuples(st.just(1), st.integers(1, 12))))
    grids_ = draw(st.lists(frame_grids(w, h), max_size=6))
    masks = [rle_encode(g, w, h) for g in grids_]
    # a run from a row's middle through the next row's middle wraps the row seam
    if w > 1 and h > 1 and draw(st.booleans()):
        masks.append(mask_from_cuts([w // 2, w + w // 2], w, h))
    shift = st.tuples(st.integers(-2 * w - 1, 2 * w + 1), st.integers(-2 * h - 1, 2 * h + 1))
    small = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    shifts = [draw(st.one_of(shift, small)) for _ in masks]
    return masks, shifts, w, h


class TestTranslate:
    @given(grids(), st.data())
    @settings(max_examples=300)
    def test_matches_dense(self, g, data):
        grid, w, h = g
        dx = data.draw(st.integers(-2 * w - 1, 2 * w + 1))
        dy = data.draw(st.integers(-2 * h - 1, 2 * h + 1))
        _assert_translate_matches([rle_encode(grid, w, h)], [(dx, dy)], w, h)

    @given(shifted_frames())
    @settings(max_examples=400, deadline=None)
    def test_frame_of_masks_matches_dense_mask_by_mask(self, frame):
        _assert_translate_matches(*frame)

    @pytest.mark.parametrize("dx,dy", [(4, 0), (0, 3), (-4, -3), (5, 7), (1, -1),
                                       (-1, 1), (3, 2), (-3, 0)])
    def test_runs_wrapping_rows(self, dx, dy):
        # one run covers the frame; another wraps from a row's end to the next start
        masks = [Mask(4, 3, (0, 12)), Mask(4, 3, (2, 5, 5))]
        _assert_translate_matches(masks, [(dx, dy)] * 2, 4, 3)
        _assert_translate_matches(masks, [(dx, dy), (-dx, -dy)], 4, 3)

    def test_hand_cases(self):
        wrap = [2, 7]   # row 0's last two pixels and row 1's first three, of a 4x3 frame
        full = [0, 12]

        def runs(cut_sets, shifts):
            return [mask_from_cuts(cuts, 4, 3).runs
                    for cuts in _translate_cuts(cut_sets, shifts, 4, 3)]

        # unshifted, the pieces of a wrapping run meet at the row seam again; shifted
        # right, row 0's piece moves out and row 1's piece stays whole
        assert runs([wrap, wrap, full], [(0, 0), (2, 0), (0, -2)]) \
            == [(2, 5, 5), (6, 2, 4), (0, 4, 8)]
        assert runs([full], [(-4, 0)]) == [(12,)]   # all of it leaves the frame
        assert _translate_cuts([], [], 4, 3) == []


@pytest.mark.parametrize("box", [(0, 0, 0, 0), (2, 1, 5, 3), (0, 2, 7, 4),
                                 (0, 0, 7, 5), (7, 5, 7, 5)])
def test_box_mask_matches_painted_box(box):
    x0, y0, x1, y1 = box
    grid = np.zeros((6, 8), dtype=np.uint8)
    grid[y0:y1 + 1, x0:x1 + 1] = 1
    assert _box_mask(box, 8, 6) == rle_encode(grid, 8, 6)


class TestBoundary:
    @given(st.data(), st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                                st.tuples(st.just(1), st.integers(1, 12)),    # 1 px wide
                                st.tuples(st.integers(1, 12), st.just(1))),   # 1 px tall
           st.integers(0, 3), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_layout_matches_dense(self, data, size, cols, rows):
        w, h = size
        grids = []
        for _ in range(data.draw(st.integers(1, 6))):
            kind = data.draw(st.sampled_from(["frame", "empty", "full", "top and bottom"]))
            if kind == "frame":
                grid = data.draw(frame_grids(w, h))
            else:   # edge rows on consecutive frames meet across the blank rows
                grid = np.full((h, w), kind == "full", dtype=np.uint8)
                grid[[0, -1]] |= kind == "top and bottom"
            grids.append(grid)
        masks = [rle_encode(g, w, h) for g in grids]
        points, counts = _boundaries(masks, cols, rows)
        frame, rest = np.divmod(points, (h + rows) * (w + cols))
        y, x = np.divmod(rest, w + cols)
        assert (y < h).all() and (x < w).all()   # no point in a blank margin
        assert counts.tolist() == np.bincount(frame, minlength=len(masks)).tolist()
        for k, mask in enumerate(masks):
            assert (y * w + x)[frame == k].tolist() == np.flatnonzero(boundary_map(mask)).tolist()

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
        pytest.importorskip("scipy.ndimage")   # the oracle's distance transform
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
        pytest.importorskip("scipy.ndimage")
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


def _shifted(grid, shift):
    """``grid`` moved by (dx, dy), what leaves it cut off."""
    dx, dy = shift
    h, w = grid.shape
    out = np.zeros_like(grid)
    ys, xs = np.nonzero(grid)
    keep = (0 <= xs + dx) & (xs + dx < w) & (0 <= ys + dy) & (ys + dy < h)
    out[ys[keep] + dy, xs[keep] + dx] = 1
    return out


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


def _all_meet(ba, bb):
    return np.ones(np.broadcast_shapes(ba.shape[:-1], bb.shape[:-1]), dtype=bool)


class TestBoxSkip:
    """Skipping pairs with disjoint bounding boxes changes no result.

    ``iou_matrix`` and ``metrics._frame_ious`` find the pairs to test with
    ``mask._meet``; patching that one binding to pass every pair gives the
    unskipped result.
    """

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_tracker_matches_unskipped(self, seed):
        gt, moving, static = _crowded_inputs(seed)
        cfg = TrackerConfig()

        def run():
            gated_moving = {f: gate(ds, cfg) for f, ds in moving.items()}
            gated_static = {f: gate(ds, cfg) for f, ds in static.items()}
            merged = merge_moving_static(mixed(gated_moving, gated_static), cfg)
            stream = mixed(moving, static)
            return merged, track_sequence(merged, cfg), bidirectional_track(stream, cfg)

        skipped = run()
        with mock.patch.object(mask_module, "_meet", _all_meet):
            unskipped = run()
        assert skipped == unskipped

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_average_precision_matches_unskipped(self, seed):
        gt, moving, _ = _crowded_inputs(seed)
        tracks = gt.tracks()
        gt_frames = {f: [d.mask for t in tracks for d in t.entries if d.frame == f]
                     for f in gt.eval_frames()}

        def run():
            return [average_precision(gt_frames, moving, t) for t in (0.1, 0.5, 0.75)]

        skipped = run()
        with mock.patch.object(mask_module, "_meet", _all_meet):
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


# a scored mask as the AP and binarization inputs read it; unlike a Detection, it may be empty
Scored = namedtuple("Scored", "score mask")


@given(st.data(), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_frame_ious_equal_each_frame_alone(data, w, h):
    # frames with no detections, with no objects and missing from the ground truth
    dets_by_frame, gt_by_frame = {}, {}
    for f in data.draw(st.lists(st.integers(0, 20), unique=True, max_size=5)):
        dets_by_frame[f] = [Scored(0.5, rle_encode(g, w, h))
                            for g in data.draw(st.lists(frame_grids(w, h), max_size=4))]
        objects = data.draw(st.lists(frame_grids(w, h), max_size=4))
        if objects or data.draw(st.booleans()):
            gt_by_frame[f] = [rle_encode(g, w, h) for g in objects]
    for chunk in (2, mask_module._CHUNK):   # overlaps summed in several blocks
        with mock.patch.object(mask_module, "_CHUNK", chunk):
            masks = _frame_ious(gt_by_frame, dets_by_frame, "mask")
        boxes = _frame_ious(gt_by_frame, dets_by_frame, "box")
        for (f, dets), by_mask, by_box in zip(dets_by_frame.items(), masks, boxes):
            objects = gt_by_frame.get(f, [])
            assert by_mask.shape == by_box.shape == (len(dets), len(objects))
            assert by_mask.tolist() == iou_matrix([d.mask for d in dets], objects).tolist()
            dense_boxes = [grid_box(rle_decode(m)) for m in objects]
            assert by_box.tolist() == [[_box_iou(grid_box(rle_decode(d.mask)), box)
                                        for box in dense_boxes] for d in dets]


def test_frame_ious_refuse_mixed_frame_sizes_in_mask_mode():
    dets = {0: [Scored(0.5, Mask(4, 3, (0, 12)))], 1: [Scored(0.5, Mask(3, 4, (0, 12)))]}
    with pytest.raises(DimensionMismatchError):
        _frame_ious({}, dets, "mask")
    assert [m.shape for m in _frame_ious({}, dets, "box")] == [(1, 0), (1, 0)]


@given(st.data(), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_binarize_equals_dense_union_frame_by_frame(data, w, h):
    """Against the dense OR of each frame's kept masks; frame keys may be negative and
    come in any order."""
    dets_by_frame, dense = {}, {}
    for f in data.draw(st.lists(st.integers(-20, 20), unique=True, max_size=5)):
        grids_ = data.draw(st.lists(frame_grids(w, h), max_size=4))
        scores = data.draw(st.lists(st.sampled_from([0.5, 0.7, 0.71, 0.9]),
                                    min_size=len(grids_), max_size=len(grids_)))
        dets_by_frame[f] = [Scored(s, rle_encode(g, w, h)) for g, s in zip(grids_, scores)]
        dense[f] = np.zeros(w * h, dtype=bool)
        for g, s in zip(grids_, scores):
            if s > 0.7:
                dense[f] |= g.ravel().astype(bool)
    out = binarize_detections(dets_by_frame, width=w, height=h)
    assert list(out) == sorted(dets_by_frame)
    for f in dets_by_frame:
        assert out[f] == rle_encode(dense[f].reshape(h, w), w, h)
        assert out[f].foreground_cuts.dtype == np.int64
        assert not out[f].foreground_cuts.flags.writeable


def test_binarize_keeps_adjacent_frames_apart():
    w, h = 5, 4
    last, first = Mask(w, h, (w * h - 1, 1)), Mask(w, h, (0, 1, w * h - 1))
    full = Mask(w, h, (0, w * h))
    dets = {2: [Detection(2, 0.9, last)], 3: [Detection(3, 0.9, first)],
            4: [Detection(4, 0.9, full), Detection(4, 0.9, first)], 5: [],
            7: [Detection(7, 0.9, last)]}
    assert binarize_detections(dets, width=w, height=h) == {
        2: last, 3: first, 4: full, 5: Mask(w, h, (w * h,)), 7: last}
    with pytest.raises(DimensionMismatchError):
        binarize_detections({0: [Detection(0, 0.9, Mask(h, w, (0, w * h)))]}, width=w, height=h)


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
        for chunk in (2, 6):   # overlaps summed in several blocks
            with mock.patch.object(mask_module, "_CHUNK", chunk):
                assert iou_matrix(a, b).tolist() == expected

    @given(st.data(), st.integers(1, 10), st.integers(1, 10))
    @settings(max_examples=150, deadline=None)
    def test_masks_of_every_constructor_reused_across_calls(self, data, w, h):
        # a mask keeps the box and area of its first call; later calls, with other
        # masks and in other places, still give the dense IoU
        grids_ = data.draw(st.lists(frame_grids(w, h), min_size=1, max_size=4))
        shifts = [data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))) for _ in grids_]
        runs = [grid_runs(g) for g in grids_]
        masks = [Mask(w, h, r) for r in runs]
        # a grid's cuts are where its pixel values change, the frame's ends counting as 0
        cuts = [np.flatnonzero(np.diff(g.ravel().astype(int), prepend=0, append=0))
                for g in grids_]
        shifted = _translate_cuts([m.foreground_cuts for m in masks], shifts, w, h)
        pool = [*masks, *mask_module._split_runs(runs, w, h),
                *(mask_module._mask(w, h, c) for c in shifted),
                *(mask_module._from_cuts(w, h, c) for c in cuts)]
        dense = [*grids_, *grids_, *map(_shifted, grids_, shifts), *grids_]
        for _ in range(3):
            a = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))
            b = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))
            assert (iou_matrix([pool[i] for i in a], [pool[j] for j in b]).tolist()
                    == [[grid_iou(dense[i], dense[j]) for j in b] for i in a])

    def test_box_computed_once_per_mask(self):
        masks = [rle_encode(_seeded_grid(seed, 0.5, 9, 7), 9, 7) for seed in range(6)]
        with mock.patch.object(mask_module, "_cut_bounds",
                               wraps=mask_module._cut_bounds) as bounds:
            first = iou_matrix(masks[:4], masks[2:])
            again = iou_matrix(masks[2:], masks[:4])
            iou_matrix(masks[::-1], masks)
        assert sum(len(c.args[0]) for c in bounds.call_args_list) == len(masks)
        assert again.tolist() == first.T.tolist()

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_tracker_computes_each_box_once(self, seed):
        _, moving, static = _crowded_inputs(seed)
        masks = {id(d.mask) for stream in (moving, static) for ds in stream.values() for d in ds}
        with mock.patch.object(mask_module, "_cut_bounds",
                               wraps=mask_module._cut_bounds) as bounds:
            bidirectional_track(mixed(moving, static), TrackerConfig())
        assert sum(len(c.args[0]) for c in bounds.call_args_list) <= len(masks)

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


def test_encode_accepts_every_binary_dtype():
    dense = np.array([[0, 1], [1, 0]])
    expected = rle_encode(dense.astype(bool), 2, 2)
    for dtype in (np.uint8, np.int32, np.int64, np.float32, np.float64):
        assert rle_encode(dense.astype(dtype), 2, 2) == expected
    assert (rle_decode(expected) == dense).all()

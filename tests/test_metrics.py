import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import average_precision_dense, brute_force_assignment, interval_grid
from helpers import det, rect_labels, rect_mask, region, single_frame_gt
from movingseg import mask as mask_module
from movingseg.mask import DimensionMismatchError, MalformedMaskError, Mask, rle_encode
from movingseg.metrics import (GroundTruthSequence, SequenceTally, _f_matrix, _prf, _track_cuts,
                               average_precision, binarize_detections, boundary_f, davis_j,
                               default_boundary_tolerance, evaluate, sequence_tally)
from movingseg.synth import NoiseConfig, SynthConfig, corrupt, generate
from movingseg.tracker import Detection, Track, TrackerConfig, track_sequence

W, H = 40, 20


def dense_union(masks, width, height):
    """The pixelwise OR of masks of one frame size, from their dense grids."""
    grid = np.zeros(width * height, dtype=bool)
    for m in masks:
        grid |= interval_grid(m.foreground_cuts, width * height)
    return rle_encode(grid.reshape(height, width), width, height)


def report_of(metric, gt, preds):
    """``evaluate``'s report of ``metric`` on one sequence of the tracks ``preds``."""
    return evaluate(metric, [("s", gt, preds)])


def prf(metric, gt, preds):
    rep = report_of(metric, gt, preds)
    return rep.precision, rep.recall, rep.f_measure


def test_instance_masks_skip_background_and_ignore():
    gt = single_frame_gt(W, H, [(9, 0, 0, W, 2), (2, 0, 4, 3, 3), (1, 8, 4, 2, 2)],
                         ignore_value=9)
    assert gt.instance_masks(0) == [rect_mask(W, H, 8, 4, 2, 2), rect_mask(W, H, 0, 4, 3, 3)]
    assert single_frame_gt(W, H, []).instance_masks(0) == []


def test_foreground_is_union_of_instance_masks():
    # label 1 ends where label 2 starts, at a row end; ignored 9 sits between two parts of 2
    gt = single_frame_gt(W, H, [(1, 0, 0, W, 2), (2, 0, 2, 5, 3), (9, 5, 2, 4, 3),
                                (2, 9, 2, 3, 3)], ignore_value=9)
    fg = gt.foreground(0)
    assert fg == dense_union(gt.instance_masks(0), W, H)
    assert fg == rle_encode((gt.labeled_frames[0] != 0) & (gt.labeled_frames[0] != 9), W, H)
    assert single_frame_gt(W, H, []).foreground(0) == Mask(W, H, (W * H,))


@pytest.mark.parametrize("width,height,frames", [(5, 0, {0: np.zeros((0, 5), np.uint8)}),
                                                 (0, 0, {}), (2**20, 2**12, {})])
def test_ground_truth_frame_size_checked(width, height, frames):
    # a frame no Mask can have is refused up front, not when a label map is first read
    with pytest.raises(MalformedMaskError):
        GroundTruthSequence(width, height, frames)


@pytest.mark.parametrize("labels,message", [
    (np.full((2, 3), 0.5), "frame 7 label map dtype float64 is not an integer type"),
    (np.ones((2, 3), np.float32), "frame 7 label map dtype float32 is not an integer type"),
    (np.array([[0, -1, 0], [0, 0, 0]]), "frame 7 labels must lie in [0, 65535], got -1 to 0"),
    (np.array([[0, 70000, 0], [0, 0, 0]]),
     "frame 7 labels must lie in [0, 65535], got 0 to 70000")],
    ids=["half", "float32", "negative", "past-65535"])
def test_ground_truth_refuses_labels_no_pgm_map_holds(labels, message):
    # 0.5 was kept as background, and -1 and 70000 as objects write_sequence refuses
    with pytest.raises(ValueError, match=re.escape(message)):
        GroundTruthSequence(3, 2, {0: np.zeros((2, 3), np.uint8), 7: labels})


@pytest.mark.parametrize("ignore", [0, np.uint8(0)])
def test_background_as_ignore_label_rejected(ignore):
    # were it accepted, every background pixel would be unlabelled: on this 4x4 map one
    # prediction covering the object and 4 background pixels would score precision 1.0
    labels = rect_labels(4, 4, [(1, 0, 0, 2, 2)])
    with pytest.raises(ValueError, match="ignore_value"):
        GroundTruthSequence(4, 4, {0: labels}, ignore_value=ignore)
    gt = GroundTruthSequence(4, 4, {0: labels})
    assert prf("official", gt, [region(1, 4, 4, {0: (0, 0, 2, 4)})])[0] == 0.5


@pytest.mark.parametrize("ignore", [-1, 65536, 70000, True, 2.5])
def test_ignore_label_outside_pgm_range_rejected(ignore):
    # True would ignore label 1; the others no PGM map holds, so they would ignore nothing
    labels = rect_labels(4, 4, [(1, 0, 0, 2, 2)])
    message = f"ignore_value {ignore!r} is not a PGM label (1 to 65535)"
    with pytest.raises(ValueError, match=re.escape(message)):
        GroundTruthSequence(4, 4, {0: labels}, ignore_value=ignore)


def test_largest_pgm_label_accepted_as_ignore_label():
    labels = rect_labels(4, 4, [(1, 0, 0, 2, 2), (65535, 2, 2, 2, 2)])
    gt = GroundTruthSequence(4, 4, {0: labels}, ignore_value=65535)
    assert gt.ignore_value == 65535 and gt.region_ids() == [1]


@given(st.integers(1, 12), st.integers(1, 8), st.sampled_from([None, 3, 7]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_foreground_matches_dense_union(width, height, ignore, seed):
    labels = np.random.default_rng(seed).integers(0, 5, size=(height, width))
    gt = GroundTruthSequence(width, height, {0: labels}, ignore_value=ignore)
    fg = gt.foreground(0)
    assert fg == dense_union(gt.instance_masks(0), width, height)
    assert fg.foreground_cuts.dtype == np.int64 and not fg.foreground_cuts.flags.writeable


@given(st.integers(1, 12), st.integers(1, 8), st.sampled_from([np.uint8, ">u2", np.int32]),
       st.sampled_from([None, 1, 255, 256, 65535]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_labeled_frames_decode_the_input_maps(width, height, dtype, ignore, seed):
    rng = np.random.default_rng(seed)
    palette = [0, 1, 255] if dtype is np.uint8 else [0, 1, 255, 256, 65535]
    maps = {f: rng.choice(palette, size=(height, width)).astype(dtype) for f in (4, 0, 9)}
    gt = GroundTruthSequence(width, height, maps, ignore_value=ignore)
    decoded = gt.labeled_frames
    assert list(decoded) == list(maps) and gt.eval_frames() == [0, 4, 9]
    for f, arr in maps.items():
        assert decoded[f].dtype == arr.dtype and np.array_equal(decoded[f], arr)
    decoded[0][...] = 7            # a fresh array each read: the sequence does not change
    assert np.array_equal(gt.labeled_frames[0], maps[0])
    with pytest.raises(AttributeError):
        gt.labeled_frames = {}


class TestPairwisePrf:
    """One prediction against a one-object sequence: its P/R/F with that object."""

    def test_identity(self):
        gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
        pred = region(1, W, H, {0: (0, 0, 10, 10)})
        assert prf("proposed", gt, [pred]) == (1.0, 1.0, 1.0)

    def test_half_overlap(self):
        # |c|=100, |g|=50, inter=50
        gt = single_frame_gt(W, H, [(1, 0, 0, 10, 5)])
        pred = region(1, W, H, {0: (0, 0, 10, 10)})
        p, r, f = prf("proposed", gt, [pred])
        assert (p, r) == (0.5, 1.0)
        assert f == pytest.approx(2 / 3, abs=1e-15)

    def test_disjoint(self):
        gt = single_frame_gt(W, H, [(1, 0, 0, 5, 5)])
        pred = region(1, W, H, {0: (20, 10, 5, 5)})
        assert prf("proposed", gt, [pred]) == (0.0, 0.0, 0.0)

    def test_frames_outside_eval_are_invisible(self):
        gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
        pred = region(1, W, H, {0: (0, 0, 10, 10), 5: (20, 10, 10, 5)})
        assert prf("proposed", gt, [pred]) == (1.0, 1.0, 1.0)

    def test_ignore_pixels_removed_from_prediction(self):
        labels = rect_labels(W, H, [(1, 0, 0, 10, 10), (9, 10, 0, 10, 10)])
        gt = GroundTruthSequence(W, H, {0: labels}, ignore_value=9)
        pred = region(1, W, H, {0: (0, 0, 20, 10)})   # covers gt + ignore
        p, _, _ = prf("official", gt, [pred])   # ignore pixels leave the prediction
        assert p == 1.0
        p_raw, _, _ = prf("proposed", gt, [pred])
        assert p_raw == 0.5


class TestOfficialMeasure:
    def test_perfect_prediction(self):
        gt = single_frame_gt(W, H, [(1, 2, 2, 10, 10)])
        rep = report_of("official", gt, [region(1, W, H, {0: (2, 2, 10, 10)})])
        assert (rep.precision, rep.recall, rep.f_measure) == (1.0, 1.0, 1.0)
        assert rep.n_over_075 == 1

    def test_unmatched_prediction_ignored(self):
        gt = single_frame_gt(W, H, [(1, 2, 2, 10, 10)])
        preds = [region(1, W, H, {0: (2, 2, 10, 10)}),
                 region(2, W, H, {0: (25, 5, 8, 8)})]
        rep = report_of("official", gt, preds)
        assert rep.f_measure == 1.0
        assert rep.n_over_075 == 1

    def test_half_cover(self):
        # gt 100 px, matched pred covers half of it and nothing else
        gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
        rep = report_of("official", gt, [region(1, W, H, {0: (0, 0, 10, 5)})])
        assert rep.precision == 1.0
        assert rep.recall == 0.5
        assert rep.f_measure == pytest.approx(2 / 3, abs=1e-15)
        assert rep.n_over_075 == 0

    def test_ignore_pixels_omitted(self):
        labels = rect_labels(W, H, [(1, 0, 0, 10, 10), (9, 10, 0, 10, 10)])
        gt = GroundTruthSequence(W, H, {0: labels}, ignore_value=9)
        rep = report_of("official", gt, [region(1, W, H, {0: (0, 0, 20, 10)})])
        assert rep.precision == 1.0

    def test_no_ground_truth_degenerate(self):
        gt = single_frame_gt(W, H, [])
        rep = report_of("official", gt, [region(1, W, H, {0: (0, 0, 4, 4)})])
        assert "degenerate" in rep.flags
        assert rep.f_measure is None


class TestProposedMeasure:
    def test_perfect_prediction(self):
        gt = single_frame_gt(W, H, [(1, 2, 2, 10, 10)])
        rep = report_of("proposed", gt, [region(1, W, H, {0: (2, 2, 10, 10)})])
        assert (rep.precision, rep.recall, rep.f_measure) == (1.0, 1.0, 1.0)
        assert rep.n_over_075 is None

    def test_false_positive_counts(self):
        # gt 100 px exactly predicted, plus a 50 px unmatched prediction
        gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
        preds = [region(1, W, H, {0: (0, 0, 10, 10)}),
                 region(2, W, H, {0: (20, 0, 5, 10)})]
        rep = report_of("proposed", gt, preds)
        assert rep.precision == pytest.approx(2 / 3, abs=1e-15)
        assert rep.recall == 1.0
        assert rep.f_measure == pytest.approx(0.8, abs=1e-15)

    def test_oversized_prediction(self):
        # pred covers gt (100 px) plus 100 background px
        gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
        rep = report_of("proposed", gt, [region(1, W, H, {0: (0, 0, 20, 10)})])
        assert rep.precision == 0.5
        assert rep.recall == 1.0
        assert rep.f_measure == pytest.approx(2 / 3, abs=1e-15)

    def test_ignore_pixels_still_count(self):
        labels = rect_labels(W, H, [(1, 0, 0, 10, 10), (9, 10, 0, 10, 10)])
        gt = GroundTruthSequence(W, H, {0: labels}, ignore_value=9)
        rep = report_of("proposed", gt, [region(1, W, H, {0: (0, 0, 20, 10)})])
        assert rep.precision == 0.5

    def test_empty_prediction_set(self):
        gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
        rep = report_of("proposed", gt, [])
        assert (rep.precision, rep.recall, rep.f_measure) == (0.0, 0.0, 0.0)
        assert "no_predictions" in rep.flags
        official = report_of("official", gt, [])   # both measures agree on no predictions
        assert (official.precision, official.recall, official.f_measure) == (0.0, 0.0, 0.0)
        assert rep.flags == official.flags == ("no_predictions",)


@given(st.data(), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_f_matrix_equals_prf_per_pair(data, n_pred, n_gt):
    areas = st.one_of(st.just(0), st.integers(1, 50), st.integers(1, 2**50))
    c = data.draw(st.lists(areas, min_size=n_pred, max_size=n_pred))
    g = data.draw(st.lists(areas, min_size=n_gt, max_size=n_gt))
    inter = [[data.draw(st.integers(0, min(ci, gj))) for gj in g] for ci in c]
    f = _f_matrix(np.array(inter, dtype=np.int64).reshape(n_pred, n_gt), c, g)
    assert f.tolist() == [[_prf(inter[i][j], ci, gj)[2] for j, gj in enumerate(g)]
                          for i, ci in enumerate(c)]


class TestMeasureInvariants:
    def _random_instance(self, seed):
        rng = np.random.default_rng(seed)
        n_obj = int(rng.integers(1, 3))
        rects = []
        for i in range(n_obj):
            x = int(rng.integers(0, 10))
            y = int(rng.integers(0, H - 8))
            rects.append((i + 1, x, y, int(rng.integers(4, 8)), int(rng.integers(4, 8))))
        gt = single_frame_gt(W, H, rects)
        preds = []
        for i, (rid, x, y, w, h) in enumerate(rects):
            dx, dy = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
            preds.append(region(i + 1, W, H,
                                {0: (max(0, x + dx), max(0, min(H - h, y + dy)), w, h)}))
        return gt, preds

    @pytest.mark.parametrize("seed", range(25))
    def test_fp_contrast(self, seed):
        gt, preds = self._random_instance(seed)
        extra = region(99, W, H, {0: (30, 5, 6, 6)})   # right half: gt stays left
        off_before = report_of("official", gt, preds).f_measure
        off_after = report_of("official", gt, preds + [extra]).f_measure
        assert off_before == off_after
        prop_before = report_of("proposed", gt, preds).f_measure
        prop_after = report_of("proposed", gt, preds + [extra]).f_measure
        assert prop_after <= prop_before
        if prop_before > 0:
            assert prop_after < prop_before

    @pytest.mark.parametrize("seed", range(10))
    def test_relabeling_invariance(self, seed):
        gt, preds = self._random_instance(seed)
        rep = report_of("proposed", gt, preds)
        relabeled = [Track(1000 - i, p.entries) for i, p in enumerate(preds)]
        rep2 = report_of("proposed", gt, relabeled)
        assert rep.values() == rep2.values()

    @pytest.mark.parametrize("seed", range(10))
    def test_ranges(self, seed):
        gt, preds = self._random_instance(seed)
        for rep in (report_of("official", gt, preds), report_of("proposed", gt, preds)):
            for v in (rep.precision, rep.recall, rep.f_measure):
                assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("seed", range(15))
    def test_matching_maximizes_f_sum(self, seed):
        rng = np.random.default_rng(seed + 500)
        gt, preds = self._random_instance(seed)
        *_, f_matrix = _dense_f_matrix(gt, preds, official=False)
        from movingseg.assign import solve_max_assignment
        total = solve_max_assignment(f_matrix).total_score
        assert total == pytest.approx(brute_force_assignment(f_matrix).total_score,
                                      abs=1e-12)

    def test_proposed_f_is_one_iff_exact_partition(self):
        gt = single_frame_gt(W, H, [(1, 0, 0, 8, 8), (2, 20, 4, 8, 8)])
        exact = [region(1, W, H, {0: (0, 0, 8, 8)}),
                 region(2, W, H, {0: (20, 4, 8, 8)})]
        assert report_of("proposed", gt, exact).f_measure == 1.0
        off_by_one = [region(1, W, H, {0: (0, 0, 8, 8)}),
                      region(2, W, H, {0: (21, 4, 8, 8)})]
        assert report_of("proposed", gt, off_by_one).f_measure < 1.0
        missing = [region(1, W, H, {0: (0, 0, 8, 8)})]
        assert report_of("proposed", gt, missing).f_measure < 1.0
        extra = exact + [region(3, W, H, {0: (32, 0, 4, 4)})]
        assert report_of("proposed", gt, extra).f_measure < 1.0


class TestDatasetAggregation:
    def test_micro_average_pools_pixels(self):
        gt_a = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])    # 100 px, predicted exactly
        gt_b = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])    # 100 px, half covered
        preds_a = [region(1, W, H, {0: (0, 0, 10, 10)})]
        preds_b = [region(1, W, H, {0: (0, 0, 10, 5)})]
        rep = evaluate("proposed", [("a", gt_a, preds_a), ("b", gt_b, preds_b)])
        assert rep.precision == 1.0                      # 150 / 150
        assert rep.recall == pytest.approx(150 / 200)
        assert set(rep.per_sequence) == {"a", "b"}
        assert rep.per_sequence["b"].recall == 0.5

    def test_duplicate_names_rejected(self):
        gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
        exact = [region(1, W, H, {0: (0, 0, 10, 10)})]
        half = [region(1, W, H, {0: (0, 0, 10, 5)})]
        with pytest.raises(ValueError, match="duplicate sequence names"):
            evaluate("proposed", [("a", gt, exact), ("a", gt, half)])


def test_evaluate_rejects_unknown_metric_and_no_sequences():
    with pytest.raises(ValueError, match="unknown metric 'recall'"):
        evaluate("recall", [("s", single_frame_gt(W, H, []), [])])
    with pytest.raises(ValueError, match="no sequences"):
        evaluate("proposed", [])


def test_evaluate_error_order_over_one_pass():
    # unknown metric, then bad options, before any sequence is drawn; then the input's
    # own errors in order; then "no sequences"; then duplicate names
    gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
    drawn = []

    def sequences(*items):
        for item in items:
            drawn.append(item)
            if isinstance(item, Exception):
                raise item
            yield item, gt, []

    with pytest.raises(ValueError, match="unknown metric"):
        evaluate("recall", sequences("a"), map_mode="poly")
    with pytest.raises(ValueError, match="map_mode must be"):
        evaluate("map", sequences("a"), map_mode="poly")
    assert drawn == []
    with pytest.raises(OSError, match="second"):
        evaluate("proposed", sequences("a", "a", OSError("second"), "b"))
    assert len(drawn) == 3  # "b" is never drawn
    with pytest.raises(ValueError, match="no sequences"):
        evaluate("proposed", sequences())
    with pytest.raises(ValueError, match="duplicate sequence names"):
        evaluate("proposed", sequences("a", "b", "a"))


@pytest.mark.parametrize("option,value", [
    ("map_mode", "poly"), ("binarize_threshold", float("nan")),
    ("binarize_threshold", float("inf")), ("boundary_tolerance", float("nan")),
    ("boundary_tolerance", float("inf")), ("boundary_tolerance", -5.0),
])
def test_evaluate_rejects_bad_options_before_scoring(option, value):
    gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
    tracks = [region(1, W, H, {0: (0, 0, 10, 10)})]
    with mock.patch("movingseg.metrics.sequence_tally") as tally:
        with pytest.raises(ValueError, match=f"^{option} must be"):
            evaluate("proposed", [("s", gt, tracks)], **{option: value})
    tally.assert_not_called()


@pytest.mark.parametrize("odd,message", [
    (region(7, W + 1, H, {0: (0, 0, 4, 4)}), "track 7 is 41x20 on frame 0"),
    # the entry of another size lies on a frame that is not evaluated: every entry counts
    (Track(7, (det(0, 1.0, W, H, 0, 0, 4, 4), det(5, 1.0, W, H + 1, 0, 0, 4, 4))),
     "track 7 is 40x21 on frame 5"),
])
def test_tally_rejects_a_track_of_another_frame_size(odd, message):
    """Every metric refuses it with one message, before scoring; so does the public
    ``sequence_tally``."""
    gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
    match = f"^{message}, sequence is 40x20$"
    for metric in ("proposed", "official", "delta-obj", "map", "davis"):
        with mock.patch("movingseg.metrics.sequence_tally") as tally:
            with pytest.raises(ValueError, match=match):
                evaluate(metric, [("s", gt, [region(1, W, H, {0: (0, 0, 10, 10)}), odd])])
        tally.assert_not_called()
    for official in (False, True):
        with pytest.raises(ValueError, match=match):
            sequence_tally(gt, [odd], official)


def test_delta_obj():
    def sequence(name, n_gt, n_pred):
        gt = single_frame_gt(W, H, [(i + 1, 2 * i, 0, 1, 1) for i in range(n_gt)])
        return name, gt, [region(i + 1, W, H, {0: (2 * i, 2, 1, 1)}) for i in range(n_pred)]

    assert evaluate("delta-obj", [sequence("s", 3, 3)]).delta_obj == 0.0
    assert evaluate("delta-obj", [sequence("a", 2, 2), sequence("b", 1, 4)]).delta_obj == 1.5
    assert evaluate("delta-obj", [sequence("s", 0, 4)]).delta_obj == 4.0


@pytest.mark.parametrize("pct", [100.0, 150.0, 1e6, 1e308, 1.7976931348623157e308])
def test_boundary_tolerance_beyond_the_diagonal_acts_as_100(pct):
    """Past 100 percent every distance within the frame matches; a product with the
    diagonal that overflows a float is no traceback."""
    assert default_boundary_tolerance(W, H, pct) == default_boundary_tolerance(W, H, 100.0)
    gt = single_frame_gt(W, H, [(1, 0, 0, 10, 10)])
    tracks = [region(1, W, H, {0: (25, 8, 12, 12)})]
    assert (evaluate("davis", [("s", gt, tracks)], boundary_tolerance=pct)
            == evaluate("davis", [("s", gt, tracks)], boundary_tolerance=100.0))


@pytest.mark.parametrize("mode", ["box", "mask"])
def test_map_matches_each_sequence_alone(mode):
    """Each sequence's frames are matched alone, in ``evaluate``'s per-sequence half; the
    reports equal the dense oracle's one score-ordered pass over the pooled frames."""
    sequences = []
    for seed in (3, 8):
        gt, _ = generate(SynthConfig(seed=seed, frames=6, width=48, height=32, objects=3))
        dets = corrupt(gt, NoiseConfig(jitter_px=1, fp_rate=0.7, score_spread=0.3), seed=seed)
        sequences.append((f"s{seed}", gt, track_sequence(dets, TrackerConfig(alpha_low=0.0))))
    rep = evaluate("map", sequences, map_mode=mode)
    pooled_gt, pooled_det = {}, {}
    for name, gt, tracks in sequences:
        for f in gt.eval_frames():
            pooled_gt[name, f] = gt.instance_masks(f)
            pooled_det[name, f] = [d for t in tracks for d in t.entries if d.frame == f]
        alone = {k: v for k, v in pooled_gt.items() if k[0] == name}
        assert getattr(rep.per_sequence[name], "ap_" + mode) == average_precision_dense(
            alone, {k: pooled_det[k] for k in alone}, 0.5, mode)
    assert getattr(rep, "ap_" + mode) == average_precision_dense(pooled_gt, pooled_det, 0.5, mode)


class TestAveragePrecision:
    def test_single_hit(self):
        gt = {0: [rect_mask(W, H, 0, 0, 10, 10)]}
        dets = {0: [det(0, 0.9, W, H, 0, 1, 10, 10)]}   # IoU ~0.82
        assert average_precision(gt, dets) == 1.0

    def test_single_miss(self):
        gt = {0: [rect_mask(W, H, 0, 0, 10, 10)]}
        dets = {0: [det(0, 0.9, W, H, 6, 6, 10, 10)]}   # IoU ~0.09
        assert average_precision(gt, dets) == 0.0

    def test_three_detections_golden(self):
        gt = {0: [rect_mask(W, H, 0, 0, 6, 6), rect_mask(W, H, 20, 0, 6, 6)]}
        dets = {0: [det(0, 0.9, W, H, 0, 0, 6, 6),
                    det(0, 0.8, W, H, 10, 12, 4, 4),
                    det(0, 0.7, W, H, 20, 0, 6, 6)]}
        assert average_precision(gt, dets) == pytest.approx(5 / 6, abs=1e-12)

    def test_box_mode(self):
        gt = {0: [rect_mask(W, H, 0, 0, 10, 10)]}
        dets = {0: [det(0, 0.9, W, H, 1, 1, 10, 10)]}
        assert average_precision(gt, dets, mode="box") == 1.0

    def test_no_ground_truth(self):
        assert average_precision({}, {0: [det(0, 0.9, W, H, 0, 0, 4, 4)]}) is None

    @pytest.mark.parametrize("mode", ["mask", "box"])
    def test_overlap_tie_takes_first_object(self, mode):
        gt = {0: [rect_mask(W, H, 0, 0, 4, 4), rect_mask(W, H, 6, 0, 4, 4)]}
        # the first detection meets both objects with IoU 1/4; it takes the first, so
        # the second detection, an exact copy of that object, is a false positive
        dets = {0: [det(0, 0.9, W, H, 2, 0, 6, 4), det(0, 0.8, W, H, 0, 0, 4, 4)]}
        assert average_precision(gt, dets, 0.2, mode) == 0.5

    def test_each_gt_matched_once(self):
        gt = {0: [rect_mask(W, H, 0, 0, 10, 10)]}
        dets = {0: [det(0, 0.9, W, H, 0, 0, 10, 10), det(0, 0.8, W, H, 0, 0, 10, 10)]}
        # second (duplicate) detection is a false positive: PR = (1,1), (1,0.5)
        assert average_precision(gt, dets) == 1.0


class TestDavisJ:
    def test_identical(self):
        m = rect_mask(W, H, 0, 0, 8, 8)
        frames = {f: m for f in range(4)}
        assert davis_j(frames, frames) == (1.0, 1.0, 0.0)

    def test_half_then_miss(self):
        good, bad = rect_mask(W, H, 0, 0, 8, 8), rect_mask(W, H, 20, 10, 8, 8)
        gt = {f: good for f in range(4)}
        pred = {0: good, 1: good, 2: bad, 3: bad}
        mean, recall, decay = davis_j(gt, pred)
        assert (mean, recall, decay) == (0.5, 0.5, 1.0)

    def test_all_disjoint(self):
        gt = {f: rect_mask(W, H, 0, 0, 8, 8) for f in range(3)}
        pred = {f: rect_mask(W, H, 20, 10, 8, 8) for f in range(3)}
        assert davis_j(gt, pred) == (0.0, 0.0, 0.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            davis_j({}, {})

    def test_both_empty_frame_scores_one(self):
        # DAVIS db_eval_iou: an empty union is a perfect frame, as boundary F has it
        gt = {0: rect_mask(W, H, 0, 0, 8, 8), 1: Mask(W, H, (W * H,))}
        assert davis_j(gt, dict(gt)) == (1.0, 1.0, 0.0)
        assert boundary_f(gt, dict(gt)) == 1.0

    @pytest.mark.parametrize("measure", [davis_j, boundary_f])
    def test_mixed_frame_sizes_rejected(self, measure):
        # a sequence is scored at one frame size, pooled over its frames
        small, large = rect_mask(W, H, 0, 0, 8, 8), rect_mask(W, H + 1, 0, 0, 8, 8)
        with pytest.raises(DimensionMismatchError):
            measure({0: small}, {0: large})
        with pytest.raises(DimensionMismatchError):
            measure({0: small, 1: large}, {0: small, 1: large})


class TestBoundaryF:
    def test_identical(self):
        m = rect_mask(W, H, 4, 4, 10, 10)
        assert boundary_f({0: m}, {0: m}) == 1.0

    def test_empty_prediction(self):
        m = rect_mask(W, H, 4, 4, 10, 10)
        empty = Mask(W, H, (W * H,))
        assert boundary_f({0: m}, {0: empty}) == 0.0

    def test_offset_beyond_tolerance(self):
        # concentric squares, every side displaced by more than the tolerance
        gt = rect_mask(60, 60, 25, 25, 10, 10)
        pred = rect_mask(60, 60, 15, 15, 30, 30)
        assert boundary_f({0: gt}, {0: pred}, tolerance_px=3) == 0.0

    def test_within_tolerance(self):
        gt = rect_mask(60, 60, 25, 25, 10, 10)
        pred = rect_mask(60, 60, 24, 24, 12, 12)
        assert boundary_f({0: gt}, {0: pred}, tolerance_px=2) == 1.0


class TestBinarize:
    def test_strict_threshold(self):
        m = rect_mask(W, H, 0, 0, 6, 6)
        out = binarize_detections({0: [det(0, 0.7, W, H, 0, 0, 6, 6)]},
                                  width=W, height=H)
        assert out[0].is_empty
        out = binarize_detections({0: [det(0, 0.71, W, H, 0, 0, 6, 6)]},
                                  width=W, height=H)
        assert out[0] == m

    def test_union_of_qualifying(self):
        a = det(0, 0.9, W, H, 0, 0, 6, 6)
        b = det(0, 0.8, W, H, 10, 0, 6, 6)
        out = binarize_detections({0: [a, b]}, width=W, height=H)
        assert out[0] == dense_union([a.mask, b.mask], W, H)


def _dense_f_matrix(gt, preds, official):
    """Per (prediction, region) overlaps, prediction and region areas and F, from dense pixels."""
    from movingseg.mask import rle_decode

    labels = gt.labeled_frames
    frames = sorted(labels)
    gt_ids = gt.region_ids()
    dense_preds = []
    for p in preds:
        stack = {f: np.zeros((gt.height, gt.width), dtype=bool) for f in frames}
        for d in p.entries:
            if d.frame in stack:
                stack[d.frame] = rle_decode(d.mask).astype(bool)
        dense_preds.append(stack)
    inter = np.zeros((len(preds), len(gt_ids)), dtype=np.int64)
    c_area = np.zeros(len(preds), dtype=np.int64)
    g_area = np.zeros(len(gt_ids), dtype=np.int64)
    for f in frames:
        label = labels[f]
        ignore = (label == gt.ignore_value) if gt.ignore_value is not None else \
            np.zeros_like(label, dtype=bool)
        for j, gid in enumerate(gt_ids):
            g_area[j] += int((label == gid).sum())
        for i, stack in enumerate(dense_preds):
            pixels = stack[f]
            c_area[i] += int((pixels & ~ignore).sum()) if official else int(pixels.sum())
            for j, gid in enumerate(gt_ids):
                inter[i, j] += int((pixels & (label == gid)).sum())
    f_matrix = np.zeros((len(preds), len(gt_ids)))
    for i in range(len(preds)):
        for j in range(len(gt_ids)):
            p = inter[i, j] / c_area[i] if c_area[i] else 0.0
            r = inter[i, j] / g_area[j] if g_area[j] else 0.0
            f_matrix[i, j] = 2 * p * r / (p + r) if p + r else 0.0
    return inter, c_area, g_area, f_matrix


def _dense_oracle(gt, preds, official):
    """``sequence_tally``'s counts recomputed from dense pixel arrays + the brute-force matcher."""
    inter, c_area, g_area, f_matrix = _dense_f_matrix(gt, preds, official)
    matched = [(i, j) for i, j in brute_force_assignment(f_matrix).pairs
               if f_matrix[i, j] > 0]
    return SequenceTally(
        matched_intersection=int(sum(inter[i, j] for i, j in matched)),
        pred_pixels=int(sum(c_area[i] for i, _ in matched) if official else c_area.sum()),
        gt_pixels=int(g_area.sum()),
        n_over_075=sum(1 for i, j in matched if f_matrix[i, j] > 0.75),
        n_predictions=len(preds),
        n_gt_regions=len(g_area),
    )


def _dense_prf(tally):
    num, den_c, den_g = tally.matched_intersection, tally.pred_pixels, tally.gt_pixels
    p = num / den_c if den_c else 0.0
    r = num / den_g if den_g else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


@st.composite
def _labelled_sequences(draw):
    """A small sequence of random label maps and random predictions over it.

    Labels alternate within rows, some are missing on some frames, and the
    ignore label (when there is one) lies inside objects; some frames are
    unlabelled.  Predictions are random pixels, a label's own pixels (so
    their runs start and end on label run ends), or empty, on labelled and
    unlabelled frames; there may be none.  A track holds no empty mask and no
    track is empty, so those are left out.
    """
    w, h = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    n_frames = draw(st.integers(1, 4))
    ignore = draw(st.sampled_from([None, 9, 9]))
    values = [0, 1, 2, 3, 4, 9]
    labels = {}
    for f in range(n_frames):
        if draw(st.integers(0, 3)) == 0:
            continue   # an unlabelled frame
        pool = draw(st.lists(st.sampled_from(values), min_size=1, max_size=4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        labels[f] = rng.choice(pool, (h, w)).astype(np.uint8)
    gt = GroundTruthSequence(w, h, labels, ignore_value=ignore)
    preds = []
    for k in range(draw(st.integers(0, 4))):
        entries = []
        for f in sorted(draw(st.sets(st.integers(0, n_frames)))):   # frame n_frames is unlabelled
            kind = draw(st.sampled_from(["random", "label", "label", "empty"]))
            if kind == "label" and f in labels:
                grid = labels[f] == draw(st.sampled_from(values))
            elif kind == "random":
                rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                grid = rng.random((h, w)) < draw(st.sampled_from([0.2, 0.5, 0.9]))
            else:
                grid = np.zeros((h, w), dtype=bool)
            if grid.any():
                entries.append(Detection(f, 1.0, rle_encode(grid, w, h)))
        if entries:
            preds.append(Track(k + 1, tuple(entries)))
    return gt, preds


@given(_labelled_sequences())
@settings(max_examples=200, deadline=None)
def test_region_cuts_equal_frame_by_frame(case):
    gt, preds = case
    frames, frame_px = gt.eval_frames(), gt.width * gt.height
    expected = []
    for t in preds:
        masks = {d.frame: d.mask for d in t.entries}
        expected.append(np.concatenate([np.empty(0, dtype=np.int64)]
                                       + [masks[f].foreground_cuts + k * frame_px
                                          for k, f in enumerate(frames) if f in masks]))
    pooled, counts = _track_cuts(preds, frames, gt.width, gt.height)
    assert pooled.dtype == np.int64
    assert counts.tolist() == [len(c) // 2 for c in expected]
    edges = np.cumsum([0, *(2 * counts).tolist()]).tolist()
    assert [pooled[a:b].tolist() for a, b in zip(edges, edges[1:])] == \
        [c.tolist() for c in expected]


@given(_labelled_sequences(), st.booleans(), st.sampled_from([1, 2, mask_module._CHUNK]))
@settings(max_examples=400, deadline=None)
def test_sequence_tally_matches_dense_oracle(case, official, chunk):
    gt, preds = case
    with mock.patch.object(mask_module, "_CHUNK", chunk):   # overlaps summed in blocks
        assert sequence_tally(gt, preds, official) == _dense_oracle(gt, preds, official)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("official", [False, True])
def test_measures_match_dense_oracle(seed, official):
    rng = np.random.default_rng(seed + 900)
    n_obj = int(rng.integers(1, 4))
    rects = [(i + 1, int(rng.integers(0, W - 8)), int(rng.integers(0, H - 8)),
              int(rng.integers(3, 8)), int(rng.integers(3, 8)))
             for i in range(n_obj)]
    # odd seeds label a band under the objects as ignored
    ignore = 9 if seed % 2 else None
    band = [(9, 0, int(rng.integers(0, H - 6)), W, 6)] if ignore else []
    # frames 1 and 3 are unlabelled, and the predictions cover them too
    labels = {f: rect_labels(W, H, band + [(v, x + f, y, w, h) for v, x, y, w, h in rects])
              for f in (0, 2)}
    gt = GroundTruthSequence(W, H, labels, ignore_value=ignore)
    preds = []
    for i in range(0 if seed % 5 == 0 else int(rng.integers(1, 5))):
        x, y = int(rng.integers(0, W - 8)), int(rng.integers(0, H - 8))
        w, h = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        if i < n_obj:   # near an object, so that some predictions match
            _, x, y, w, h = rects[i]
            x, y = max(x + int(rng.integers(-2, 3)), 0), max(y + int(rng.integers(-2, 3)), 0)
        preds.append(region(i + 1, W, H, {f: (x + f, y, w, h) for f in range(4)}))
    p, r, f = _dense_prf(_dense_oracle(gt, preds, official))
    # tiny chunks make one tally's label search cross chunk boundaries
    for chunk in (mask_module._CHUNK, 2, 6):
        with mock.patch.object(mask_module, "_CHUNK", chunk):
            rep = report_of("official" if official else "proposed", gt, preds)
        assert rep.precision == pytest.approx(p, abs=1e-12)
        assert rep.recall == pytest.approx(r, abs=1e-12)
        assert rep.f_measure == pytest.approx(f, abs=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_official_never_drops_with_disjoint_extra(seed):
    rng = np.random.default_rng(seed)
    x, y = int(rng.integers(0, 8)), int(rng.integers(0, 8))
    gt = single_frame_gt(W, H, [(1, x, y, 8, 8)])
    pred = region(1, W, H, {0: (x, y, 8, 8)})
    extra = region(2, W, H, {0: (28, 8, 6, 6)})
    assert report_of("official", gt, [pred, extra]).f_measure == \
        report_of("official", gt, [pred]).f_measure

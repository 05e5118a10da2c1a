import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingseg.mask import (DimensionMismatchError, MalformedMaskError, Mask, _boxes,
                            _label_runs, _mask, _sweep, _translate_cuts, _value_cuts, area,
                            intersect_cuts, iou, mask_from_cuts, rle_decode, rle_encode)
from movingseg.metrics import GroundTruthSequence


def grid(rows):
    return np.array(rows, dtype=np.uint8)


@pytest.mark.parametrize("dense,w,h,runs", [
    ([[0, 0], [0, 0]], 2, 2, (4,)),
    ([[1, 1], [1, 1]], 2, 2, (0, 4)),
    ([[0, 1, 0]], 3, 1, (1, 1, 1)),
])
def test_encode_hand_cases(dense, w, h, runs):
    assert rle_encode(grid(dense), w, h).runs == runs


@pytest.mark.parametrize("runs,w,h,dense", [
    ((4,), 2, 2, [[0, 0], [0, 0]]),
    ((0, 4), 2, 2, [[1, 1], [1, 1]]),
    ((1, 1, 1), 3, 1, [[0, 1, 0]]),
])
def test_decode_hand_cases(runs, w, h, dense):
    assert rle_decode(Mask(w, h, runs)).tolist() == dense


def test_encode_rejects_bad_sizes():
    with pytest.raises(DimensionMismatchError):
        rle_encode(grid([[0, 1]]), 3, 1)
    with pytest.raises(DimensionMismatchError):
        rle_encode(grid([[0, 1], [1, 0]]), 4, 1)


def test_encode_rejects_non_positive_dimensions():
    with pytest.raises(MalformedMaskError):
        rle_encode(np.array([1]), -1, -1)


def test_encode_rejects_non_binary():
    # integer grids take the range check, other grids the equality check
    for bad in (np.array([[0, 2]]), np.array([[-1, 0]]), np.array([[0.5, 1.0]]),
                np.array([[0.0, 2.0]]), np.array([[-1.0, 1.0]])):
        with pytest.raises(MalformedMaskError):
            rle_encode(bad, 2, 1)


@pytest.mark.parametrize("runs", [(), (1, 0, 2), (-1, 4), (3,), (2, 1)])
def test_mask_invariants_rejected(runs):
    with pytest.raises(MalformedMaskError):
        Mask(2, 2, runs)


def test_area_hand_cases():
    assert area(Mask(2, 2, (0, 4))) == 4
    assert area(Mask(2, 2, (4,))) == 0
    assert area(Mask(3, 1, (1, 1, 1))) == 1


def test_intersection_hand_cases():
    a = rle_encode(grid([[0, 1, 1]]), 3, 1)
    b = rle_encode(grid([[1, 1, 0]]), 3, 1)
    assert intersect_cuts(a.foreground_cuts, b.foreground_cuts) == 1
    assert intersect_cuts(a.foreground_cuts, a.foreground_cuts) == 2
    assert iou(a, b) == 1 / 3
    disjoint = rle_encode(grid([[1, 0, 0]]), 3, 1)
    other = rle_encode(grid([[0, 0, 1]]), 3, 1)
    assert intersect_cuts(disjoint.foreground_cuts, other.foreground_cuts) == 0
    with pytest.raises(DimensionMismatchError):
        iou(a, Mask(2, 2, (4,)))


def test_iou_hand_cases():
    a = rle_encode(grid([[1, 1, 0, 0]]), 4, 1)
    assert iou(a, a) == 1.0
    b = rle_encode(grid([[0, 0, 1, 1]]), 4, 1)
    assert iou(a, b) == 0.0
    empty = Mask(4, 1, (4,))
    assert iou(empty, empty) == 0.0


def test_iou_half_overlap():
    g = np.zeros((10, 20), dtype=np.uint8)
    g[:, :10] = 1           # 100 px
    h = np.zeros((10, 20), dtype=np.uint8)
    h[:, 5:15] = 1          # 100 px, 50 shared
    assert iou(rle_encode(g, 20, 10), rle_encode(h, 20, 10)) == pytest.approx(50 / 150)


@st.composite
def random_masks(draw, max_side=24):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    bits = draw(st.lists(st.integers(0, 1), min_size=w * h, max_size=w * h))
    return np.array(bits, dtype=np.uint8).reshape(h, w), w, h


@given(random_masks())
@settings(max_examples=200)
def test_roundtrip_property(data):
    dense, w, h = data
    m = rle_encode(dense, w, h)
    assert (rle_decode(m) == dense).all()
    assert rle_encode(rle_decode(m), w, h) == m


@given(random_masks(max_side=12), st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_ops_match_dense_oracle(data, seed):
    dense, w, h = data
    other = np.random.default_rng(seed).integers(0, 2, size=(h, w)).astype(np.uint8)
    a, b = rle_encode(dense, w, h), rle_encode(other, w, h)
    inter_dense = int((dense.astype(bool) & other.astype(bool)).sum())
    union_dense = int((dense.astype(bool) | other.astype(bool)).sum())
    inter = intersect_cuts(a.foreground_cuts, b.foreground_cuts)
    assert inter == inter_dense
    assert inter == intersect_cuts(b.foreground_cuts, a.foreground_cuts)
    assert area(a) == int(dense.sum())
    assert iou(a, b) == iou(b, a)
    assert 0.0 <= iou(a, b) <= 1.0
    assert inter <= min(area(a), area(b))
    union = mask_from_cuts(_sweep([a.foreground_cuts, b.foreground_cuts], 1), w, h)
    assert (rle_decode(union) == (dense.astype(bool) | other.astype(bool))).all()
    assert iou(a, b) == (inter_dense / union_dense if union_dense else 0.0)


@pytest.mark.parametrize("runs", [(1.5, 2.5, 1), (1.0, 2.0, 1.0), (np.float64(1), 2, 1),
                                  ("1", "2", "1"), (True, 2, True), (np.True_, 2, 1),
                                  (1, None, 3)],
                         ids=["floats", "whole-floats", "float64", "strings", "bools",
                              "numpy-bool", "none"])
def test_mask_refuses_runs_the_readers_refuse(runs):
    # int() of each run would have repaired these into a valid list
    with pytest.raises(MalformedMaskError, match="runs must be integers"):
        Mask(4, 1, runs)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
def test_mask_takes_numpy_int_runs(dtype):
    runs = np.array([1, 2, 1], dtype=dtype)
    for given_runs in (runs, list(runs)):
        mask = Mask(4, 1, given_runs)
        assert mask == Mask(4, 1, (1, 2, 1)) and mask.runs == (1, 2, 1)
        assert all(type(r) is int for r in mask.runs)


def test_mask_is_immutable():
    m = Mask(2, 2, (0, 4))
    with pytest.raises(AttributeError):
        m.width = 3


@given(random_masks(max_side=8), random_masks(max_side=8))
@settings(max_examples=100)
def test_mask_value_semantics(one, two):
    a, b = (rle_encode(*data) for data in (one, two))
    for m in (a, b):
        for clone in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
            assert clone == m and hash(clone) == hash(m) and clone.runs == m.runs
            assert not clone.foreground_cuts.flags.writeable
    same = (a.width, a.height, a.runs) == (b.width, b.height, b.runs)
    assert (a == b) == same and (a != b) != same
    assert (a == Mask(b.width, b.height, b.runs)) == same
    if same:
        assert hash(a) == hash(b)


def test_foreground_cuts_read_only():
    m = Mask(4, 2, (1, 2, 5))
    gt = GroundTruthSequence(4, 2, {0: np.array([[0, 1, 1, 2], [2, 2, 0, 0]], np.uint8)})
    built = [m, rle_encode(rle_decode(m), 4, 2), mask_from_cuts(np.array([1, 3]), 4, 2),
             *(_mask(4, 2, cuts) for cuts in _translate_cuts([m.foreground_cuts] * 2,
                                                             [(1, 1), (0, 0)], 4, 2)),
             gt.tracks()[0].entries[0].mask,
             *gt.instance_masks(0), gt.foreground(0)]
    for mask in built:
        with pytest.raises(ValueError):
            mask.foreground_cuts[0] = 0
    with pytest.raises(AttributeError):
        m.foreground_cuts = np.array([0, 8])
    with pytest.raises(AttributeError):
        m.runs = (0, 8)
    assert m.runs == (1, 2, 5)


@pytest.mark.parametrize("cuts,width", [([2], 4), ([0, 2, 3], 4), ([-1, 2], 4), ([2, 5], 4),
                                        ([3, 1], 4), ([0, 2, 1, 3], 4), ([], 0)])
def test_mask_from_cuts_rejects_bad_cuts(cuts, width):
    with pytest.raises(MalformedMaskError):
        mask_from_cuts(np.array(cuts, dtype=np.int64), width, 1)


def test_mask_from_cuts_keeps_its_own_copy():
    cuts = np.array([1, 3, 3, 4])
    m = mask_from_cuts(cuts, 4, 1)
    cuts[0] = 0
    assert m.runs == (1, 3) and cuts.flags.writeable
    kept = np.array([0, 2])
    m = mask_from_cuts(kept, 4, 1)
    kept[1] = 4
    assert m.runs == (0, 2, 2)


def test_mask_from_cuts_hand_cases():
    # an empty interval touching the one before it
    assert mask_from_cuts([3, 5, 5, 5], 10, 1).foreground_cuts.tolist() == [3, 5]
    with pytest.raises(MalformedMaskError):   # decreasing after a run of equal cuts
        mask_from_cuts([0, 5, 5, 5, 5, 3], 10, 1)
    with pytest.raises(MalformedMaskError):   # a frame above MAX_PIXELS
        mask_from_cuts([0, 10], 2**40, 1)


@st.composite
def _sorted_cut_lists(draw):
    """A frame and a non-decreasing, even-length cut list in it with repeated cuts."""
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    points = draw(st.lists(st.tuples(st.integers(0, w * h), st.integers(1, 4)), max_size=8))
    cuts = sorted(p for p, times in points for _ in range(times))
    return w, h, cuts[:len(cuts) & ~1]


@given(_sorted_cut_lists())
@settings(max_examples=300, deadline=None)
def test_mask_from_cuts_is_union_of_painted_intervals(case):
    w, h, cuts = case
    painted = np.zeros(w * h, dtype=bool)
    for s, e in zip(cuts[0::2], cuts[1::2]):
        painted[s:e] = True
    assert mask_from_cuts(cuts, w, h) == rle_encode(painted, w, h)
    steps = np.flatnonzero(np.diff(cuts) > 0)
    if len(steps):   # swapping a strictly increasing neighbour pair makes a decreasing step
        k = int(steps[len(steps) // 2])
        cuts[k], cuts[k + 1] = cuts[k + 1], cuts[k]
        with pytest.raises(MalformedMaskError):
            mask_from_cuts(cuts, w, h)


@pytest.mark.parametrize("dtype", [np.uint8, ">u2", np.int32, bool])
def test_value_cuts_match_dense_labels(dtype):
    rng = np.random.default_rng(5)
    top = {bool: 2, np.uint8: 256, ">u2": 2**16, np.int32: 2**31}[dtype]
    for k in range(60):
        n = int(rng.integers(1, 40 if k < 40 else 2000))
        # a few values, or hundreds drawn from the dtype's whole range (above 255 for >u2)
        pool = rng.integers(0, min(top, 4 if k < 40 else top), 300 if k >= 40 else 4)
        flat = rng.choice(pool, n).astype(dtype)
        flat = np.repeat(flat, rng.integers(1, 4, n))   # runs longer than one
        table = _value_cuts(*_label_runs(flat))
        assert list(table) == np.unique(flat).tolist()   # keys ascending
        for value, cuts in table.items():
            assert cuts.dtype == np.int64 and (np.diff(cuts) > 0).all()
            painted = np.zeros(flat.size, dtype=bool)
            for s, e in zip(cuts[0::2], cuts[1::2]):
                painted[s:e] = True
            assert (painted == (flat == value)).all()
        # a sequence of two frames of these labels lists its regions in label order
        w = 2 if flat.size % 2 == 0 else 1
        frames = {0: flat.reshape(-1, w), 3: flat[::-1].reshape(-1, w)}
        # 0 is the background, never the ignore label, and an ignore label is a PGM label
        ignore = int(flat[0]) if 0 < flat[0] <= 65535 else None
        if flat.max() > 65535:   # no PGM map holds the label: only _from_runs takes it
            with pytest.raises(ValueError, match=r"frame 0 labels must lie in \[0, 65535\]"):
                GroundTruthSequence(w, flat.size // w, frames, ignore_value=ignore)
            gt = GroundTruthSequence._from_runs(
                w, flat.size // w, {f: _label_runs(m.ravel()) for f, m in frames.items()},
                ignore_value=ignore)
        else:
            gt = GroundTruthSequence(w, flat.size // w, frames, ignore_value=ignore)
        ids = sorted(set(np.unique(flat).tolist()) - {0, ignore})
        assert gt.region_ids() == ids
        tracks = gt.tracks()
        assert [t.id for t in tracks] == ids
        for f, label in frames.items():
            assert gt.instance_masks(f) == [rle_encode(label == v, w, flat.size // w)
                                            for v in ids]
            # each object's track holds its mask on every frame where it appears
            assert [(d.mask, d.score, d.kind) for t in tracks for d in t.entries
                    if d.frame == f] == [(m, 1.0, "moving") for m in gt.instance_masks(f)]


def test_mask_from_cuts_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w, h = int(rng.integers(1, 16)), int(rng.integers(1, 16))
        dense = rng.integers(0, 2, size=(h, w)).astype(np.uint8)
        m = rle_encode(dense, w, h)
        assert mask_from_cuts(m.foreground_cuts, w, h) == m


def test_bbox():
    g = np.zeros((6, 8), dtype=np.uint8)
    g[2:4, 3:6] = 1
    full = Mask(8, 6, (0, 48))
    # an empty mask gets a box that meets nothing
    assert _boxes([rle_encode(g, 8, 6), Mask(8, 6, (48,)), full]).tolist() == \
        [[3, 2, 5, 3], [0, 0, -1, -1], [0, 0, 7, 5]]

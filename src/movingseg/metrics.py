"""Evaluation measures for spatio-temporal segmentation and tracking.

Two region-matching F-measures are provided.  The matched-only ("official")
variant Hungarian-matches predictions to ground truth, scores matched pairs,
ignores every unmatched prediction, and omits ignore-labeled pixels.  The
false-positive-penalizing ("proposed") variant keeps the same matching but
divides by the pixels of *all* predictions, so spurious regions pull precision
down, and it counts every pixel including ignore-labeled ones.

Also here: per-sequence object-count error (delta-obj), single-category
average precision at an IoU threshold, binary-mask J statistics, and a
boundary F-measure with a distance tolerance.  ``evaluate`` is the one entry
to all five metrics, for the library and the CLI alike: it scores each named
sequence and combines the scores into a report with its flags.

Each metric scores a sequence in passes over all its frames, not one call per
frame: the F-measure tally pools every track entry with one offset, and takes
every prediction's area from one sum; map's IoU of every frame's (detection,
object) pairs comes from one box test and one overlap count; DAVIS takes each
frame's foreground straight from its label runs and binarizes the detections
of all frames in one union.

An object across frames, predicted or ground truth, is one type: a
``tracker.Track``, an id and one entry per frame it appears on.  A
ground-truth sequence keeps each frame's label runs.  The label values that
occur are taken from them once, and a frame's cuts per label value are
grouped on first use and kept; ``tracks`` reads those for the objects, and
map for its instance masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from . import mask as mask_module
from .assign import solve_max_assignment
from .mask import (DimensionMismatchError, Mask, _boundaries, _box_iou, _boxes, _frame_pixels,
                   _from_cuts, _is_int, _label_runs, _mask, _one_size, _overlaps, _pair_ious,
                   _pooled, _sweep, _tagged_overlaps, _value_cuts)
# davis_j counts overlaps with _overlaps; iou stays bound as mask_iou because
# bench/spans.py's tracer test wraps metrics.mask_iou
from .mask import iou as mask_iou  # noqa: F401
from .tracker import Track, _detection, _track


def _ignore_fault(value) -> str | None:
    """What is wrong with ``value`` as an ignore value: None when it is None or a PGM
    label other than background, an int from 1 to 65535."""
    if value == 0:
        return "0 is the background label"
    if value is not None and not (_is_int(value) and 0 < value <= 65535):
        return f"{value!r} is not a PGM label (1 to 65535)"
    return None


class GroundTruthSequence:
    """Per-frame instance label maps with an optional ignore value.

    Labels are ints or bools from 0 to 65535, the ones a PGM map holds, and
    label 0 is background; ``ignore_value``, None or any other PGM label (an int
    from 1 to 65535), marks unlabeled pixels that the matched-only measure
    excludes from prediction areas.  Only frames present in ``labeled_frames``
    take part in evaluation.  Each frame is held as its label runs, not as a
    dense map: ``labeled_frames`` decodes fresh arrays, in each input map's own
    dtype, whenever it is read.
    """

    def __init__(self, width: int, height: int,
                 labeled_frames: Mapping[int, np.ndarray],
                 ignore_value: int | None = None):
        _frame_pixels(width, height)   # ints only: 3.7 and "3" are refused, not rounded
        width, height = int(width), int(height)   # a numpy int becomes the int it holds
        if fault := _ignore_fault(ignore_value):
            raise ValueError(f"ignore_value {fault}")
        runs = {}
        for idx, arr in labeled_frames.items():
            if not _is_int(idx):
                raise ValueError(f"frame index {idx!r} must be an integer")
            arr = np.asarray(arr)
            if arr.shape != (height, width):
                raise ValueError(
                    f"frame {idx} label map shape {arr.shape} != ({height}, {width})"
                )
            if arr.dtype.kind not in "biu":   # a float label would round into another
                raise ValueError(f"frame {idx} label map dtype {arr.dtype} is not an integer type")
            _, values = runs[int(idx)] = _label_runs(arr.ravel())
            if values.min() < 0 or values.max() > 65535:   # the labels a PGM map holds
                raise ValueError(f"frame {idx} labels must lie in [0, 65535], "
                                 f"got {values.min()} to {values.max()}")
        self._set(width, height, runs, None if ignore_value is None else int(ignore_value))

    @classmethod
    def _from_runs(cls, width: int, height: int,
                   runs: dict[int, tuple[np.ndarray, np.ndarray]],
                   ignore_value: int | None = None) -> GroundTruthSequence:
        """A sequence from each int frame index's ``_label_runs`` of a width x height
        map, unchecked."""
        gt = cls.__new__(cls)
        gt._set(width, height, runs, ignore_value)
        return gt

    def _set(self, width: int, height: int,
             runs: dict[int, tuple[np.ndarray, np.ndarray]], ignore_value) -> None:
        self.width = width
        self.height = height
        self.ignore_value = ignore_value
        self._runs = runs
        self._cuts = {}   # each frame's per-label cuts, once frame_value_cuts has built them

    @cached_property
    def _values(self) -> list[int]:
        """The label values that occur, ascending and as ints, from one pass over all
        frames' runs."""
        values = [v for _, v in self._runs.values()]
        return list(map(int, np.unique(np.concatenate(values)).tolist())) if values else []

    @property
    def labeled_frames(self) -> dict[int, np.ndarray]:
        """Every frame's label map, decoded afresh from its runs."""
        return {idx: np.repeat(values, np.diff(bounds)).reshape(self.height, self.width)
                for idx, (bounds, values) in self._runs.items()}

    def eval_frames(self) -> list[int]:
        return sorted(self._runs)

    def frame_value_cuts(self, frame: int) -> dict[int, np.ndarray]:
        """Foreground interval boundaries of every label value in one frame, as read-only
        arrays; built on the frame's first call and kept."""
        cuts = self._cuts.get(frame)
        if cuts is None:
            cuts = self._cuts[frame] = _value_cuts(*self._runs[frame])
        return cuts

    def region_ids(self) -> list[int]:
        return [v for v in self._values if v != 0 and v != self.ignore_value]

    def tracks(self) -> list[Track]:
        """Each object, in id order, as a track of score-1 moving entries on the frames
        where it appears."""
        entries = {rid: [] for rid in self.region_ids()}
        for frame in self.eval_frames():
            for value, cuts in self.frame_value_cuts(frame).items():
                if value in entries:
                    entries[value].append(
                        _detection(frame, 1.0, _mask(self.width, self.height, cuts)))
        # each id occurs, so on some frame with a non-empty mask, and the frames rise
        return [_track(rid, tuple(es)) for rid, es in entries.items()]

    def _instance_cuts(self, frame: int) -> list[np.ndarray]:
        return [cuts for value, cuts in sorted(self.frame_value_cuts(frame).items())
                if value != 0 and value != self.ignore_value]

    def instance_masks(self, frame: int) -> list[Mask]:
        """One frame's masks in label order, without background or the ignore label."""
        return [_mask(self.width, self.height, cuts) for cuts in self._instance_cuts(frame)]

    def foreground(self, frame: int) -> Mask:
        """The union of one frame's instance masks."""
        bounds, values = self._runs[frame]
        inside = values != 0
        if self.ignore_value is not None:
            inside &= values != self.ignore_value
        # its cuts are the run bounds where "instance label" flips, the frame's ends outside
        flips = np.flatnonzero(np.diff(inside, prepend=False, append=False))
        return _from_cuts(self.width, self.height, bounds[flips])

    def _tagged_runs(self, columns: Mapping[int, int]):
        """The runs of the labels in ``columns`` over the sorted labelled frames, each
        frame moved up by its place among them as ``_pooled`` moves cuts: their starts,
        ends and ``columns`` entries, in ascending order."""
        frames = self.eval_frames()
        keys = [v for v in self._values if v in columns]
        if not keys:
            return (np.empty(0, dtype=np.int64),) * 3
        frame_px = self.width * self.height
        bounds = [self._runs[f][0] + k * frame_px for k, f in enumerate(frames)]
        values = np.concatenate([self._runs[f][1] for f in frames])
        keys = np.array(keys, dtype=values.dtype)   # all occur, so all are exact in it
        at = np.searchsorted(keys, values).clip(max=len(keys) - 1)
        hit = keys[at] == values
        tags = np.array([columns[k] for k in keys.tolist()], dtype=np.int64)
        starts = np.concatenate([b[:-1] for b in bounds])[hit]
        ends = np.concatenate([b[1:] for b in bounds])[hit]
        return starts, ends, tags[at[hit]]


@dataclass
class MetricReport:
    """Values of whichever measures were computed; absent ones stay None."""

    precision: float | None = None
    recall: float | None = None
    f_measure: float | None = None
    n_over_075: int | None = None
    delta_obj: float | None = None
    ap_box: float | None = None
    ap_mask: float | None = None
    j_mean: float | None = None
    j_recall: float | None = None
    j_decay: float | None = None
    f_boundary: float | None = None
    flags: tuple[str, ...] = ()
    per_sequence: dict[str, "MetricReport"] = field(default_factory=dict)

    def values(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_FIELDS}

    def to_dict(self) -> dict:
        out = dict(self.values())
        out["flags"] = list(self.flags)
        if self.per_sequence:
            out["per_sequence"] = {
                name: rep.to_dict() for name, rep in self.per_sequence.items()
            }
        return out


REPORT_FIELDS = tuple(f.name for f in fields(MetricReport)
                      if f.name not in ("flags", "per_sequence"))


def _check_size(gt: GroundTruthSequence, tracks: Sequence[Track]) -> None:
    """Refuse a track with an entry, on any frame, whose mask is not the sequence's size."""
    for t in tracks:
        for d in t.entries:
            m = d.mask
            if m.width != gt.width or m.height != gt.height:
                raise ValueError(f"track {t.id} is {m.width}x{m.height} on frame {d.frame}, "
                                 f"sequence is {gt.width}x{gt.height}")


def _track_cuts(tracks: Sequence[Track], frames: Sequence[int], width: int, height: int):
    """The tracks' entries on the sorted ``frames`` of a width x height sequence, pooled
    one track after another in one array, and each track's count of intervals."""
    place = {f: k for k, f in enumerate(frames)}
    cut_sets, places, counts = [], [], []
    for t in tracks:
        n = 0
        for d in t.entries:   # in rising frames, so each track's cuts come out in order
            k = place.get(d.frame)
            if k is not None:
                cuts = d.mask.foreground_cuts
                cut_sets.append(cuts)
                places.append(k)
                n += len(cuts)
        counts.append(n // 2)
    return _pooled(cut_sets, places, width * height), np.array(counts, dtype=np.int64)


def _prf(inter: int, c_area: int, g_area: int) -> tuple[float, float, float]:
    p = inter / c_area if c_area else 0.0
    r = inter / g_area if g_area else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def _f_matrix(inter: np.ndarray, c_areas, g_areas) -> np.ndarray:
    """``_prf``'s F of every (prediction, region) pair, operation for operation."""
    c = np.array(c_areas, dtype=np.int64)[:, None]
    g = np.array(g_areas, dtype=np.int64)
    p = np.divide(inter, c, out=np.zeros(inter.shape), where=c != 0)
    r = np.divide(inter, g, out=np.zeros(inter.shape), where=g != 0)
    return np.divide(2 * p * r, p + r, out=np.zeros(inter.shape), where=p + r != 0)


@dataclass(frozen=True)
class SequenceTally:
    matched_intersection: int
    pred_pixels: int
    gt_pixels: int
    n_over_075: int
    n_predictions: int
    n_gt_regions: int


def sequence_tally(gt: GroundTruthSequence, tracks: Sequence[Track],
                   official: bool) -> SequenceTally:
    _check_size(gt, tracks)
    frames = gt.eval_frames()
    gt_ids = gt.region_ids()
    # one column per region, and a last one for the ignore label, empty unless it counts
    columns = {v: j for j, v in enumerate(gt_ids)}
    if official and gt.ignore_value is not None:
        columns[gt.ignore_value] = len(gt_ids)
    starts, ends, tags = gt._tagged_runs(columns)
    gt_areas = np.zeros(len(gt_ids) + 1, dtype=np.int64)
    np.add.at(gt_areas, tags, ends - starts)
    gt_areas = gt_areas[:-1].tolist()
    pred_cuts, counts = _track_cuts(tracks, frames, gt.width, gt.height)
    # the regions are disjoint, so each prediction interval is searched for once
    overlaps = _tagged_overlaps(pred_cuts, counts, starts, ends, tags, len(gt_ids) + 1)
    inter = overlaps[:, :-1]
    # each prediction's length sum; a trailing 0 serves predictions without an interval
    lengths = np.append(pred_cuts[1::2] - pred_cuts[0::2], 0)
    areas = np.add.reduceat(lengths, np.cumsum(counts) - counts) * (counts > 0)
    pred_areas = (areas - overlaps[:, -1]).tolist()
    f_matrix = _f_matrix(inter, pred_areas, gt_areas)

    matched = solve_max_assignment(f_matrix).pairs
    matched_inter = int(sum(inter[i, j] for i, j in matched))
    n_over = sum(1 for i, j in matched if f_matrix[i, j] > 0.75)
    pred_pixels = (
        sum(pred_areas) if not official else sum(pred_areas[i] for i, _ in matched)
    )
    return SequenceTally(
        matched_intersection=matched_inter,
        pred_pixels=int(pred_pixels),
        gt_pixels=int(sum(gt_areas)),
        n_over_075=int(n_over),
        n_predictions=len(tracks),
        n_gt_regions=len(gt_ids),
    )


def average_precision(gt_by_frame, dets_by_frame, iou_threshold: float = 0.5,
                      mode: str = "mask") -> float | None:
    """Single-category AP: greedy score-ordered matching, all-points interpolation.

    ``gt_by_frame`` maps frame keys to instance Mask lists; ``dets_by_frame``
    maps the same keys to scored masks (.score/.mask).  Returns None when
    there is no ground truth at all.  Score ties break by frame then input
    order.
    """
    matches = _greedy_matches(gt_by_frame, dets_by_frame, iou_threshold, mode)
    return _interpolated_ap([tp for *_, tp in sorted(matches)],
                            sum(map(len, gt_by_frame.values())))


def _frame_ious(gt_by_frame, dets_by_frame, mode: str) -> list[np.ndarray]:
    """Each frame of ``dets_by_frame``'s detections x ``gt_by_frame``'s objects IoU.

    In "mask" mode each value is ``iou_matrix``'s bit for bit, and in "box"
    mode the IoU of the two bounding boxes.  The matrices are views of one
    array: every frame's pairs are box-tested at once, and in mask mode the
    pairs whose boxes meet are counted by one ``_pair_ious`` call.
    """
    dets = list(dets_by_frame.values())
    gts = [list(gt_by_frame.get(f, ())) for f in dets_by_frame]
    a = [d.mask for ds in dets for d in ds]
    b = [m for g in gts for m in g]
    nd = np.fromiter(map(len, dets), np.int64, len(dets))
    ng = np.fromiter(map(len, gts), np.int64, len(gts))
    cells = nd * ng
    block = np.cumsum(cells) - cells   # where each frame's matrix starts
    ious = np.zeros(int(cells.sum()))
    # cell k of frame f's matrix pairs detection k // ng[f] with object k % ng[f]
    frame = np.repeat(np.arange(len(dets)), cells)
    ii, jj = np.divmod(np.arange(len(ious)) - block[frame], ng[frame])
    ii += (np.cumsum(nd) - nd)[frame]
    jj += (np.cumsum(ng) - ng)[frame]
    boxes = _boxes(a + b)
    ba, bb = boxes[:len(a)][ii], boxes[len(a):][jj]
    if mode == "box":
        ious[:] = _box_iou(ba, bb)
    else:
        # looked up in mask, as iou_matrix does, so the box test has one binding
        at = np.flatnonzero(mask_module._meet(ba, bb))
        ious[at] = _pair_ious(a, b, ii[at], jj[at])
    return [ious[k:k + n * m].reshape(n, m)
            for k, n, m in zip(block.tolist(), nd.tolist(), ng.tolist())]


def _greedy_matches(gt_by_frame, dets_by_frame, iou_threshold: float, mode: str):
    """(-score, frame, input index, true positive) of every detection.

    Within a frame, detections by descending score, then input order, each
    take the first of their best-overlapping objects left, if its IoU is at
    least ``iou_threshold`` and above 0.  A frame's flags depend on that frame
    alone, so they equal the flags of matching all frames in one score order.
    """
    if mode not in ("box", "mask"):
        raise ValueError(f"unknown AP mode {mode!r}")
    matches = []
    for (f, dets), ious in zip(dets_by_frame.items(),
                               _frame_ious(gt_by_frame, dets_by_frame, mode)):
        # a taken object's column is zeroed
        for idx in sorted(range(len(dets)), key=lambda i: -dets[i].score):
            row = ious[idx]
            j = int(row.argmax()) if len(row) else -1   # the first of the best overlaps
            tp = j >= 0 and row[j] > 0 and row[j] >= iou_threshold   # 0 matches nothing
            if tp:
                ious[:, j] = 0.0
            matches.append((-dets[idx].score, f, idx, tp))
    return matches


def _interpolated_ap(tp, n_gt: int) -> float | None:
    """All-points interpolated AP of the true-positive flags ``tp`` in score order;
    None without ground truth."""
    if n_gt == 0:
        return None
    tp = np.array(tp, dtype=bool)
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(~tp)
    rec = tp_cum / n_gt
    prec = tp_cum / np.maximum(tp_cum + fp_cum, 1)
    mrec = np.concatenate(([0.0], rec, [1.0]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], prec, [0.0]))[::-1])[::-1]
    moved = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[moved] - mrec[moved - 1]) * mpre[moved]))


def _binary_sequence(gt_binary: Mapping[int, Mask], pred_binary: Mapping[int, Mask]):
    """The sorted frames of ground truth and prediction, which must match, and their one size."""
    frames = sorted(gt_binary)
    if not frames:
        raise ValueError("empty sequence")
    if sorted(pred_binary) != frames:
        raise ValueError("prediction frames do not match ground-truth frames")
    return frames, _one_size([*gt_binary.values(), *pred_binary.values()])


def davis_j(gt_binary: Mapping[int, Mask], pred_binary: Mapping[int, Mask]):
    """Per-frame IoU statistics: (mean, recall over 0.5, first-vs-last quartile decay)."""
    frames, (width, height) = _binary_sequence(gt_binary, pred_binary)
    pred = [pred_binary[f] for f in frames]
    gt = [gt_binary[f] for f in frames]
    pairs = np.arange(len(frames))
    inter = _overlaps([m.foreground_cuts for m in pred], [m.foreground_cuts for m in gt],
                      pairs, pairs, width * height + 1)
    union = np.fromiter((p._area + g._area for p, g in zip(pred, gt)), np.int64,
                        len(frames)) - inter
    # a frame with both masks empty scores 1, as DAVIS's db_eval_iou has it; int64 to
    # float64 is exact below 2**53, so each other quotient is mask.iou's
    ious = np.divide(inter, union, out=np.ones(len(frames)), where=union != 0)
    mean = float(ious.mean())
    recall = float((ious > 0.5).mean())
    if len(ious) >= 4:
        bins = np.array_split(ious, 4)
        decay = float(np.mean(bins[0]) - np.mean(bins[3]))
    else:
        decay = float(ious[0] - ious[-1])
    return mean, recall, decay


def _moves(tolerance_px: float, width: int, height: int) -> list[tuple[int, int]]:
    """(dy, dx) for dy = 0, 1, -1, 2, -2, ...: the largest dx < ``width`` with
    sqrt(float64(dx**2 + dy**2)) <= ``tolerance_px``, the test a distance
    transform's value passes, for every |dy| < ``height`` that has one."""
    if not tolerance_px >= 0:
        return []
    dy_max = height - 1 if tolerance_px >= height - 1 else math.floor(tolerance_px)
    dx = width - 1 if tolerance_px >= width - 1 else math.floor(tolerance_px)
    moves = []
    for dy in range(dy_max + 1):
        while math.sqrt(dx * dx + dy * dy) > tolerance_px:   # dx shrinks as |dy| grows
            dx -= 1
        moves += [(dy, dx), (-dy, dx)] if dy else [(0, dx)]
    return moves


def _far(points: np.ndarray, targets: np.ndarray, moves, pitch: int, stride: int,
         n_frames: int) -> np.ndarray:
    """Per frame, how many of ``points`` have none of ``targets`` within a move of ``_moves``.

    Both are sorted offsets in ``mask._boundaries``' layout, rows ``pitch`` and
    frames ``stride`` apart.  A point p is near when a target lies in [p + dy*pitch
    - dx, p + dy*pitch + dx], a window the blank margins keep in p's row and frame.
    One binary search per move and chunk of ``mask._CHUNK`` points finds the first
    target at or after each window start; a sentinel past the last stands for none.
    """
    targets = np.append(targets, np.iinfo(np.int64).max)
    chunk = mask_module._CHUNK
    far = [points[:0]]
    for lo in range(0, len(points), chunk):
        p = points[lo:lo + chunk]
        for dy, dx in moves:
            start = p + (dy * pitch - dx)
            p = p[targets.take(np.searchsorted(targets, start)) > start + 2 * dx]
            if not len(p):
                break
        far.append(p)
    return np.bincount(np.concatenate(far) // stride, minlength=n_frames)


def default_boundary_tolerance(width: int, height: int, pct: float = 0.8) -> int:
    """Boundary match distance: given percent of the image diagonal, rounded up.

    A percentage above 100 acts as 100: every distance within the frame matches.
    """
    return math.ceil(min(pct, 100.0) / 100.0 * math.hypot(width, height))


def boundary_f(gt_binary: Mapping[int, Mask], pred_binary: Mapping[int, Mask],
               tolerance_px: int | None = None) -> float:
    """Boundary precision/recall F with a pixel distance tolerance, frame-averaged.

    Boundaries are 4-connected: foreground pixels with a background (or
    out-of-image) neighbor.  A boundary pixel matches when the opposite
    boundary passes within ``tolerance_px`` (Euclidean), measured as a
    full-frame distance transform would.  No such transform is computed: a
    group of frames of about ``mask._CHUNK // 2`` row pieces gets both sides'
    boundary pixels from one ``_boundaries`` call, with as many blank pixels
    and rows as the widest and tallest window, and ``_far`` searches them.
    """
    frames, (width, height) = _binary_sequence(gt_binary, pred_binary)
    if tolerance_px is None:
        tolerance_px = default_boundary_tolerance(width, height)
    moves = _moves(tolerance_px, width, height)
    # the first move has the widest window, and the last (dy = 0 or -dy_max) the tallest
    cols, rows = (moves[0][1], max(1, -moves[-1][0])) if moves else (0, 1)
    pitch, stride = width + cols, (height + rows) * (width + cols)
    sides = [gt_binary[f] for f in frames] + [pred_binary[f] for f in frames]
    n = len(frames)
    # a bound on each mask's row pieces: its intervals, plus the row ends it spans
    pieces = np.array([len(c) // 2 + (c[-1] - 1) // width - c[0] // width if len(c) else 0
                       for c in (m.foreground_cuts for m in sides)]).reshape(2, n).sum(0)
    group = (np.cumsum(pieces) - pieces) // max(1, mask_module._CHUNK // 2)
    seams = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), n]
    scores = []
    for a, b in zip(seams, seams[1:]):
        points, counts = _boundaries(sides[a:b] + sides[n + a:n + b], cols, rows)
        n_gt, n_pr = counts[:b - a], counts[b - a:]
        gt_b, pr_b = np.split(points, [n_gt.sum()])
        # a frame without boundary on one side scores 0, and on both sides 1
        score = ((n_gt == 0) & (n_pr == 0)).astype(np.float64)
        both = (n_gt > 0) & (n_pr > 0)
        gt_b, pr_b = gt_b[np.repeat(both, n_gt)], pr_b[np.repeat(both, n_pr)] - (b - a) * stride
        n_gt, n_pr = n_gt[both], n_pr[both]
        precision = (n_pr - _far(pr_b, gt_b, moves, pitch, stride, b - a)[both]) / n_pr
        recall = (n_gt - _far(gt_b, pr_b, moves, pitch, stride, b - a)[both]) / n_gt
        score[both] = np.divide(2 * precision * recall, precision + recall,
                                out=np.zeros(len(n_gt)), where=precision + recall != 0)
        scores.append(score)
    return float(np.mean(np.concatenate(scores)))


def binarize_detections(dets_by_frame, threshold: float = 0.7, *,
                        width: int, height: int) -> dict[int, Mask]:
    """Per frame, the union of detection masks scoring strictly above the threshold.

    All frames are unioned by one ``_sweep``: the kept masks of the k-th sorted
    frame are moved up by k times ``width*height + 1``, so a spare pixel, never
    covered, keeps each frame's intervals apart from the next's.
    """
    stride = _frame_pixels(width, height) + 1
    frames = sorted(dets_by_frame)
    kept = [(k, d.mask) for k, f in enumerate(frames) for d in dets_by_frame[f]
            if d.score > threshold]
    if {(m.width, m.height) for _, m in kept} - {(width, height)}:
        raise DimensionMismatchError("stated dimensions disagree with masks")
    cuts = _sweep([_pooled([m.foreground_cuts for _, m in kept], [k for k, _ in kept], stride)], 1)
    edges = [0, *np.searchsorted(cuts, np.arange(1, len(frames) + 1) * stride).tolist()]
    local = cuts - np.repeat(np.arange(len(frames)) * stride, np.diff(edges))
    return {f: _from_cuts(width, height, local[a:b]) for f, a, b in zip(frames, edges, edges[1:])}


# Each metric is a per-sequence score, (gt, tracks) -> payload, and a combine,
# [(name, payload)] -> MetricReport, that sets the values; ``evaluate`` binds each
# to the options it reads and sets the flags, the same for every metric.

METRICS = ("proposed", "official", "delta-obj", "map", "davis")


def _pool_tallies(items, official):
    tallies = [tally for _, tally in items]
    n_over = sum(t.n_over_075 for t in tallies) if official else None
    g_pool = sum(t.gt_pixels for t in tallies)
    if not g_pool:   # no ground-truth object, so no ratio
        return MetricReport(n_over_075=n_over)
    precision, recall, f = _prf(sum(t.matched_intersection for t in tallies),
                                sum(t.pred_pixels for t in tallies), g_pool)
    return MetricReport(precision=precision, recall=recall, f_measure=f, n_over_075=n_over)


def _count_error(gt, tracks):
    """|predicted object count - ground-truth count|, as a one-value score."""
    return (abs(len(tracks) - len(gt.region_ids())),)


def _detections_by_frame(gt, tracks):
    """Track entries on evaluated frames, keyed by frame in track order."""
    by_frame = {f: [] for f in gt.eval_frames()}
    for t in tracks:
        for d in t.entries:
            if d.frame in by_frame:
                by_frame[d.frame].append(d)
    return by_frame


def _ap_matches(gt, tracks, map_mode):
    gt_frames = {f: gt.instance_masks(f) for f in gt.eval_frames()}
    return (_greedy_matches(gt_frames, _detections_by_frame(gt, tracks), 0.5, map_mode),
            sum(map(len, gt_frames.values())))


def _pooled_ap(items, map_mode):
    # (name, frame) keys order the detections of one score as frame keys do within a sequence
    matches = sorted((neg_score, name, *rest) for name, (ms, _) in items
                     for neg_score, *rest in ms)
    ap = _interpolated_ap([tp for *_, tp in matches], sum(n for _, (_, n) in items))
    return MetricReport(**{"ap_" + map_mode: ap})


def _davis_scores(gt, tracks, binarize_threshold, boundary_tolerance):
    gtb = {f: gt.foreground(f) for f in gt.eval_frames()}
    prb = binarize_detections(_detections_by_frame(gt, tracks), binarize_threshold,
                              width=gt.width, height=gt.height)
    tol = default_boundary_tolerance(gt.width, gt.height, boundary_tolerance)
    return (*davis_j(gtb, prb), boundary_f(gtb, prb, tolerance_px=tol))


def _means(items, fields):
    """The mean over sequences of each value of a score, as the report's ``fields``."""
    return MetricReport(**{field: sum(p[k] for _, p in items) / len(items)
                           for k, field in enumerate(fields)})


def evaluate(metric: str, sequences, *, map_mode: str = "mask",
             binarize_threshold: float = 0.7, boundary_tolerance: float = 0.8) -> MetricReport:
    """Score ``metric`` over (name, ground truth, tracks) triples; names must be unique.

    ``metric`` is one of ``METRICS``: ``proposed``, ``official``, ``delta-obj``,
    ``map`` and ``davis``.  The options are the CLI's flags of the same names:
    map's ``map_mode``, "box" or "mask" IoU; davis's ``binarize_threshold``,
    which a mask must score strictly above, and its ``boundary_tolerance``, a
    percent of the image diagonal.  Tracks are ``tracker.Track``s; an entry,
    on any frame, whose mask is not the sequence's size is a ValueError naming
    its track.
    ``sequences`` is any iterable, read once: each sequence is scored as it
    arrives and only its score is kept, so a generator of loads holds one
    sequence at a time.

    The aggregate combines every sequence and each ``per_sequence`` entry
    combines its sequence alone.  A report is flagged ``degenerate`` when none
    of its sequences has a ground-truth object and ``no_predictions`` when none
    has a track.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {sorted(METRICS)}")
    if map_mode not in ("box", "mask"):
        raise ValueError(f"map_mode must be 'box' or 'mask', got {map_mode!r}")
    if not math.isfinite(binarize_threshold):
        raise ValueError(f"binarize_threshold must be finite, got {binarize_threshold!r}")
    if not (math.isfinite(boundary_tolerance) and boundary_tolerance >= 0):
        raise ValueError(f"boundary_tolerance must be finite and >= 0, got {boundary_tolerance!r}")
    # (score, combine) in METRICS order, looked up now, so that a kernel replaced on
    # this module after import, as a tracer or a test does, is the one called
    score, combine = (
        (partial(sequence_tally, official=False), partial(_pool_tallies, official=False)),
        (partial(sequence_tally, official=True), partial(_pool_tallies, official=True)),
        (_count_error, partial(_means, fields=("delta_obj",))),
        (partial(_ap_matches, map_mode=map_mode), partial(_pooled_ap, map_mode=map_mode)),
        (partial(_davis_scores, binarize_threshold=binarize_threshold,
                 boundary_tolerance=boundary_tolerance),
         partial(_means, fields=("j_mean", "j_recall", "j_decay", "f_boundary"))),
    )[METRICS.index(metric)]

    def scored(triple):
        name, gt, tracks = triple
        _check_size(gt, tracks)
        return name, len(gt.region_ids()), len(tracks), score(gt, tracks)

    # map lets go of each triple once it is scored; a for loop would keep it bound
    # while the next one loads
    scores = list(map(scored, sequences))
    if not scores:
        raise ValueError("no sequences")
    names = [name for name, *_ in scores]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate sequence names: {sorted(names)}")

    def report(rows):
        rep = combine([(name, payload) for name, _, _, payload in rows])
        rep.flags = (("degenerate",) * (not any(n_gt for _, n_gt, _, _ in rows))
                     + ("no_predictions",) * (not any(n for _, _, n, _ in rows)))
        return rep

    rep = report(scores)
    rep.per_sequence = {row[0]: report([row]) for row in scores}
    return rep

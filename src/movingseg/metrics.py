"""Evaluation measures for spatio-temporal segmentation and tracking.

Two region-matching F-measures are provided.  The matched-only ("official")
variant Hungarian-matches predictions to ground truth, scores matched pairs,
ignores every unmatched prediction, and omits ignore-labeled pixels.  The
false-positive-penalizing ("proposed") variant keeps the same matching but
divides by the pixels of *all* predictions, so spurious regions pull precision
down, and it counts every pixel including ignore-labeled ones.

Also here: per-sequence object-count error (delta_obj), single-category
average precision at an IoU threshold, binary-mask J statistics, and a
boundary F-measure with a distance tolerance.  ``evaluate`` is the one entry
to all five metrics, for the library and the CLI alike: it scores each named
sequence and combines the scores into a report with its flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from . import mask as mask_module
from .assign import solve_max_assignment
from .mask import (DimensionMismatchError, Mask, _boxes, _cuts_area, _frame_pixels, _from_cuts,
                   _label_runs, _overlaps, _tagged_overlaps, _value_cuts, boundary_pixels,
                   iou_matrix, mask_from_cuts, union_merge)
# davis_j counts overlaps with _overlaps; iou stays bound as mask_iou because
# bench/spans.py's tracer test wraps metrics.mask_iou
from .mask import iou as mask_iou  # noqa: F401

REPORT_FIELDS = (
    "precision",
    "recall",
    "f_measure",
    "n_over_075",
    "delta_obj",
    "ap_box",
    "ap_mask",
    "j_mean",
    "j_recall",
    "j_decay",
    "f_boundary",
)


@dataclass(frozen=True)
class Region:
    """One object's pixels across frames: a predicted track or a ground-truth instance."""

    id: int
    frames: Mapping[int, Mask]

    def __post_init__(self) -> None:
        dims = {(m.width, m.height) for m in self.frames.values()}
        if len(dims) > 1:
            raise ValueError(f"region {self.id} mixes mask dimensions {sorted(dims)}")


class GroundTruthSequence:
    """Per-frame instance label maps with an optional ignore value.

    Label 0 is background; ``ignore_value`` marks unlabeled pixels that the
    matched-only measure excludes from prediction areas.  Only frames present
    in ``labeled_frames`` take part in evaluation.  Each frame is held as its
    label runs, not as a dense map: ``labeled_frames`` decodes fresh arrays, in
    each input map's own dtype, whenever it is read.
    """

    def __init__(self, width: int, height: int,
                 labeled_frames: Mapping[int, np.ndarray],
                 ignore_value: int | None = None):
        width, height = int(width), int(height)
        _frame_pixels(width, height)
        runs = {}
        for idx, arr in labeled_frames.items():
            arr = np.asarray(arr)
            if arr.shape != (height, width):
                raise ValueError(
                    f"frame {idx} label map shape {arr.shape} != ({height}, {width})"
                )
            runs[int(idx)] = _label_runs(arr.ravel())
        self._set(width, height, runs, ignore_value)

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
        self._cuts = {idx: _value_cuts(*r) for idx, r in runs.items()}

    @property
    def labeled_frames(self) -> dict[int, np.ndarray]:
        """Every frame's label map, decoded afresh from its runs."""
        return {idx: np.repeat(values, np.diff(bounds)).reshape(self.height, self.width)
                for idx, (bounds, values) in self._runs.items()}

    def eval_frames(self) -> list[int]:
        return sorted(self._runs)

    def frame_value_cuts(self, frame: int) -> dict[int, np.ndarray]:
        """Foreground interval boundaries of every label value in one frame."""
        return self._cuts[frame]

    def region_ids(self) -> list[int]:
        return sorted(set().union(*self._cuts.values()) - {0, self.ignore_value})

    def region(self, region_id: int) -> Region:
        frames = {}
        for frame in self.eval_frames():
            cuts = self.frame_value_cuts(frame).get(region_id)
            if cuts is not None:
                frames[frame] = _from_cuts(self.width, self.height, cuts)
        return Region(region_id, frames)

    def regions(self) -> list[Region]:
        return [self.region(rid) for rid in self.region_ids()]

    def _instance_cuts(self, frame: int) -> list[np.ndarray]:
        return [cuts for value, cuts in sorted(self.frame_value_cuts(frame).items())
                if value != 0 and value != self.ignore_value]

    def instance_masks(self, frame: int) -> list[Mask]:
        """One frame's masks in label order, without background or the ignore label."""
        return [_from_cuts(self.width, self.height, cuts) for cuts in self._instance_cuts(frame)]

    def foreground(self, frame: int) -> Mask:
        """The union of one frame's instance masks."""
        # labels cover disjoint intervals; mask_from_cuts drops their shared seams
        cuts = np.concatenate([np.empty(0, dtype=np.int64), *self._instance_cuts(frame)])
        return mask_from_cuts(np.sort(cuts), self.width, self.height)

    def _tagged_runs(self, columns: Mapping[int, int]):
        """The runs of the labels in ``columns`` over the sorted labelled frames, each
        frame moved up by its place among them as ``_pooled`` moves cuts: their starts,
        ends and ``columns`` entries, in ascending order."""
        frames = self.eval_frames()
        keys = sorted(set().union(*(self._cuts[f] for f in frames)).intersection(columns))
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


def _pooled(per_frame, frame_px: int) -> np.ndarray:
    """One region's cuts over a sequence, from ``per_frame[k]``, its cuts in the
    k-th frame (None where it is absent), moved up by k frames."""
    chunks = [cuts + k * frame_px for k, cuts in enumerate(per_frame) if cuts is not None]
    return np.concatenate([np.empty(0, dtype=np.int64), *chunks])


def _region_cuts(regions, frames: Sequence[int], width: int, height: int):
    """Each region's pooled cuts over the sorted ``frames`` of a width x height sequence."""
    for r in regions:
        m = next(iter(r.frames.values()), None)   # a Region holds one frame size
        if m is not None and (m.width, m.height) != (width, height):
            raise ValueError(f"region {r.id} is {m.width}x{m.height}, "
                             f"sequence is {width}x{height}")
    return [_pooled([r.frames[f].foreground_cuts if f in r.frames else None for f in frames],
                    width * height) for r in regions]


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


def sequence_tally(gt: GroundTruthSequence, preds: Sequence[Region],
                    official: bool) -> SequenceTally:
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
    pred_cuts = _region_cuts(preds, frames, gt.width, gt.height)
    # the regions are disjoint, so each prediction interval is searched for once
    overlaps = _tagged_overlaps(pred_cuts, starts, ends, tags, len(gt_ids) + 1)
    inter = overlaps[:, :-1]
    pred_areas = [_cuts_area(c) - int(ig) for c, ig in zip(pred_cuts, overlaps[:, -1])]
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
        n_predictions=len(preds),
        n_gt_regions=len(gt_ids),
    )


def delta_obj(gt_counts: Mapping[str, int], pred_counts: Mapping[str, int]) -> float:
    """Mean over sequences of |predicted object count - ground-truth count|."""
    if set(gt_counts) != set(pred_counts):
        missing = set(gt_counts) ^ set(pred_counts)
        raise ValueError(f"sequence keys differ: {sorted(missing)}")
    if not gt_counts:
        raise ValueError("no sequences")
    return float(
        sum(abs(pred_counts[k] - gt_counts[k]) for k in gt_counts) / len(gt_counts)
    )


def _box_ious(a, b) -> np.ndarray:
    """len(a) x len(b) IoU of the masks' bounding boxes; 0 where either is empty."""
    ba, bb = _boxes(a)[:, None, :], _boxes(b)[None, :, :]
    ix = np.minimum(ba[..., 2], bb[..., 2]) - np.maximum(ba[..., 0], bb[..., 0]) + 1
    iy = np.minimum(ba[..., 3], bb[..., 3]) - np.maximum(ba[..., 1], bb[..., 1]) + 1
    inter = np.maximum(ix, 0) * np.maximum(iy, 0)

    def box_area(x):
        return (x[..., 2] - x[..., 0] + 1) * (x[..., 3] - x[..., 1] + 1)

    return np.divide(inter, box_area(ba) + box_area(bb) - inter,
                     out=np.zeros(inter.shape), where=inter > 0)


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


def _greedy_matches(gt_by_frame, dets_by_frame, iou_threshold: float, mode: str):
    """(-score, frame, input index, true positive) of every detection.

    Within a frame, detections by descending score, then input order, each
    take the first of their best-overlapping objects left, if its IoU is at
    least ``iou_threshold`` and above 0.  A frame's flags depend on that frame
    alone, so they equal the flags of matching all frames in one score order.
    """
    if mode not in ("box", "mask"):
        raise ValueError(f"unknown AP mode {mode!r}")
    overlap = iou_matrix if mode == "mask" else _box_ious
    matches = []
    for f, dets in dets_by_frame.items():
        # one detections x ground-truth matrix per frame; a taken object's column is zeroed
        ious = overlap([d.mask for d in dets], gt_by_frame.get(f, ()))
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
    sizes = {(m.width, m.height) for m in chain(gt_binary.values(), pred_binary.values())}
    if len(sizes) > 1:
        raise DimensionMismatchError(f"mask dimensions differ: {sorted(sizes)}")
    return frames, sizes.pop()


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


def _far(points: np.ndarray, targets: np.ndarray, moves, width: int,
         frame_px: int) -> np.ndarray:
    """Per frame, how many of ``points`` have none of ``targets`` within a move of ``_moves``.

    Both are sorted pixel offsets pooled over frames of ``frame_px`` pixels,
    and each has some in every frame.  A point at (row, col) is near when a
    target lies on row row+dy of its frame between col-dx and col+dx; one
    binary search per move and chunk of ``mask._CHUNK`` points finds the first
    target at or after each window start.
    """
    height = frame_px // width
    chunk = mask_module._CHUNK
    far = []
    for lo in range(0, len(points), chunk):
        p = points[lo:lo + chunk]
        row, col = np.divmod(p % frame_px, width)
        for dy, dx in moves:
            centre = p + dy * width
            start = centre - np.minimum(col, dx)
            # past the last target this takes the last, which lies before start
            first = targets.take(np.searchsorted(targets, start), mode="clip")
            hit = (first >= start) & (first <= centre + np.minimum(width - 1 - col, dx))
            hit &= (row >= -dy) if dy < 0 else (row < height - dy)   # rows outside are skipped
            miss = ~hit
            p, row, col = p[miss], row[miss], col[miss]
            if not len(p):
                break
        far.append(p)
    return np.bincount(np.concatenate(far) // frame_px, minlength=points[-1] // frame_px + 1)


def default_boundary_tolerance(width: int, height: int, pct: float = 0.8) -> int:
    """Boundary match distance: given percent of the image diagonal, rounded up."""
    return math.ceil(pct / 100.0 * math.hypot(width, height))


def boundary_f(gt_binary: Mapping[int, Mask], pred_binary: Mapping[int, Mask],
               tolerance_px: int | None = None) -> float:
    """Boundary precision/recall F with a pixel distance tolerance, frame-averaged.

    Boundaries are 4-connected: foreground pixels with a background (or
    out-of-image) neighbor.  A boundary pixel matches when the opposite
    boundary passes within ``tolerance_px`` (Euclidean), measured as a
    full-frame distance transform would.  No such transform is computed: each
    boundary pixel looks for the opposite boundary's sorted offsets in one row
    window per row offset within the tolerance, over the whole sequence at once.
    """
    frames, (width, height) = _binary_sequence(gt_binary, pred_binary)
    if tolerance_px is None:
        tolerance_px = default_boundary_tolerance(width, height)
    gt_b = [boundary_pixels(gt_binary[f]) for f in frames]
    pr_b = [boundary_pixels(pred_binary[f]) for f in frames]
    n_gt = np.fromiter(map(len, gt_b), np.int64, len(frames))
    n_pr = np.fromiter(map(len, pr_b), np.int64, len(frames))
    # a frame without boundary on one side scores 0, and on both sides 1
    scores = ((n_gt == 0) & (n_pr == 0)).astype(np.float64)
    both = np.flatnonzero((n_gt > 0) & (n_pr > 0))
    if len(both):
        frame_px = width * height
        gt_pool = _pooled([gt_b[k] for k in both], frame_px)
        pr_pool = _pooled([pr_b[k] for k in both], frame_px)
        moves = _moves(tolerance_px, width, height)
        n_gt, n_pr = n_gt[both], n_pr[both]
        precision = (n_pr - _far(pr_pool, gt_pool, moves, width, frame_px)) / n_pr
        recall = (n_gt - _far(gt_pool, pr_pool, moves, width, frame_px)) / n_gt
        scores[both] = np.divide(2 * precision * recall, precision + recall,
                                 out=np.zeros(len(both)), where=precision + recall != 0)
    return float(np.mean(scores))


def binarize_detections(dets_by_frame, threshold: float = 0.7, *,
                        width: int, height: int) -> dict[int, Mask]:
    """Per frame, the union of detection masks scoring strictly above the threshold."""
    out = {}
    for f in sorted(dets_by_frame):
        masks = [d.mask for d in dets_by_frame[f] if d.score > threshold]
        out[f] = union_merge(masks, width=width, height=height)
    return out


@dataclass(frozen=True)
class _Options:
    """``evaluate``'s options, with the defaults of the CLI flags of the same names."""

    map_mode: str = "mask"              # map: "box" or "mask" IoU
    binarize_threshold: float = 0.7     # davis: keep masks scoring strictly above it
    boundary_tolerance: float = 0.8     # davis: percent of the image diagonal

    def __post_init__(self) -> None:
        if self.map_mode not in ("box", "mask"):
            raise ValueError(f"map_mode must be 'box' or 'mask', got {self.map_mode!r}")
        if not math.isfinite(self.binarize_threshold):
            raise ValueError(f"binarize_threshold must be finite, got {self.binarize_threshold!r}")
        if not (math.isfinite(self.boundary_tolerance) and self.boundary_tolerance >= 0):
            raise ValueError("boundary_tolerance must be finite and >= 0, "
                             f"got {self.boundary_tolerance!r}")


# Each metric is a per-sequence score, (gt, tracks, options) -> payload, and a
# combine, ([(name, (n_objects, n_tracks, payload))], options) -> MetricReport,
# that sets the values; the flags are the report's, the same for every metric.

def _tally(gt, tracks, options, official):
    preds = [Region(t.id, {d.frame: d.mask for d in t.entries}) for t in tracks]
    return sequence_tally(gt, preds, official=official)


def _pool_tallies(items, options, official):
    tallies = [tally for _, (_, _, tally) in items]
    n_over = sum(t.n_over_075 for t in tallies) if official else None
    g_pool = sum(t.gt_pixels for t in tallies)
    if not g_pool:   # no ground-truth object, so no ratio
        return MetricReport(n_over_075=n_over)
    precision, recall, f = _prf(sum(t.matched_intersection for t in tallies),
                                sum(t.pred_pixels for t in tallies), g_pool)
    return MetricReport(precision=precision, recall=recall, f_measure=f, n_over_075=n_over)


def _count_error(items, options):
    return MetricReport(delta_obj=delta_obj({name: n_gt for name, (n_gt, _, _) in items},
                                            {name: n_pred for name, (_, n_pred, _) in items}))


def _detections_by_frame(gt, tracks):
    """Track entries on evaluated frames, keyed by frame in track order."""
    by_frame = {f: [] for f in gt.eval_frames()}
    for t in tracks:
        for d in t.entries:
            if d.frame in by_frame:
                by_frame[d.frame].append(d)
    return by_frame


def _ap_matches(gt, tracks, options):
    gt_frames = {f: gt.instance_masks(f) for f in gt.eval_frames()}
    return (_greedy_matches(gt_frames, _detections_by_frame(gt, tracks), 0.5, options.map_mode),
            sum(map(len, gt_frames.values())))


def _pooled_ap(items, options):
    # (name, frame) keys order the detections of one score as frame keys do within a sequence
    matches = sorted((neg_score, name, *rest) for name, (_, _, (ms, _)) in items
                     for neg_score, *rest in ms)
    ap = _interpolated_ap([tp for *_, tp in matches], sum(n for _, (_, _, (_, n)) in items))
    return MetricReport(**{"ap_" + options.map_mode: ap})


_DAVIS_FIELDS = ("j_mean", "j_recall", "j_decay", "f_boundary")


def _davis_scores(gt, tracks, options):
    gtb = {f: gt.foreground(f) for f in gt.eval_frames()}
    prb = binarize_detections(_detections_by_frame(gt, tracks), options.binarize_threshold,
                              width=gt.width, height=gt.height)
    tol = default_boundary_tolerance(gt.width, gt.height, options.boundary_tolerance)
    return (*davis_j(gtb, prb), boundary_f(gtb, prb, tolerance_px=tol))


def _mean_davis(items, options):
    return MetricReport(**{field: sum(p[k] for _, (_, _, p) in items) / len(items)
                           for k, field in enumerate(_DAVIS_FIELDS)})


_METRICS = {
    "proposed": (partial(_tally, official=False), partial(_pool_tallies, official=False)),
    "official": (partial(_tally, official=True), partial(_pool_tallies, official=True)),
    "delta-obj": (lambda gt, tracks, options: None, _count_error),
    "map": (_ap_matches, _pooled_ap),
    "davis": (_davis_scores, _mean_davis),
}


def _metric(name: str):
    if name not in _METRICS:
        raise ValueError(f"unknown metric {name!r}, expected one of {sorted(_METRICS)}")
    return _METRICS[name]


def evaluate(metric: str, sequences, **options) -> MetricReport:
    """Score ``metric`` over (name, ground truth, tracks) triples; names must be unique.

    ``metric`` is one of ``proposed``, ``official``, ``delta-obj``, ``map`` and
    ``davis``; the options are ``map_mode`` ("mask"), ``binarize_threshold``
    (0.7) and ``boundary_tolerance`` (0.8, percent of the image diagonal), as
    the CLI's flags of the same names.  Tracks are ``tracker.Track``s.
    ``sequences`` is any iterable, read once: each sequence is scored as it
    arrives and only its score is kept, so a generator of loads holds one
    sequence at a time.

    The aggregate combines every sequence and each ``per_sequence`` entry
    combines its sequence alone.  A report is flagged ``degenerate`` when none
    of its sequences has a ground-truth object and ``no_predictions`` when none
    has a track.
    """
    score, combine = _metric(metric)
    opts = _Options(**options)

    def scored(triple):
        name, gt, tracks = triple
        return name, (len(gt.region_ids()), len(tracks), score(gt, tracks, opts))

    # map lets go of each triple once it is scored; a for loop would keep it bound
    # while the next one loads
    scores = list(map(scored, sequences))
    if not scores:
        raise ValueError("no sequences")
    names = [name for name, _ in scores]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate sequence names: {sorted(names)}")

    def report(items):
        rep = combine(items, opts)
        rep.flags = (("degenerate",) * (not any(n_gt for _, (n_gt, _, _) in items))
                     + ("no_predictions",) * (not any(n for _, (_, n, _) in items)))
        return rep

    rep = report(scores)
    rep.per_sequence = {name: report([(name, result)]) for name, result in scores}
    return rep

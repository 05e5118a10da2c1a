"""Evaluation measures for spatio-temporal segmentation and tracking.

Two region-matching F-measures are provided.  The matched-only ("official")
variant Hungarian-matches predictions to ground truth, scores matched pairs,
ignores every unmatched prediction, and omits ignore-labeled pixels.  The
false-positive-penalizing ("proposed") variant keeps the same matching but
divides by the pixels of *all* predictions, so spurious regions pull precision
down, and it counts every pixel including ignore-labeled ones.

Also here: per-sequence object-count error (delta_obj), single-category
average precision at an IoU threshold, binary-mask J statistics, and a
boundary F-measure with a distance tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .assign import solve_max_assignment
from .mask import (Mask, bbox as _mask_bbox, boundary_pixels, boxes_meet,
                   intersect_cuts, intersect_cuts_many, iou as mask_iou,
                   mask_from_cuts, union_merge)

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
    in ``labeled_frames`` take part in evaluation.
    """

    def __init__(self, width: int, height: int,
                 labeled_frames: Mapping[int, np.ndarray],
                 ignore_value: int | None = None):
        self.width = int(width)
        self.height = int(height)
        self.ignore_value = ignore_value
        self.labeled_frames: dict[int, np.ndarray] = {}
        for idx, arr in labeled_frames.items():
            arr = np.asarray(arr)
            if arr.shape != (self.height, self.width):
                raise ValueError(
                    f"frame {idx} label map shape {arr.shape} != ({self.height}, {self.width})"
                )
            self.labeled_frames[int(idx)] = arr
        self._cuts_cache: dict[int, dict[int, np.ndarray]] = {}

    def eval_frames(self) -> list[int]:
        return sorted(self.labeled_frames)

    def frame_value_cuts(self, frame: int) -> dict[int, np.ndarray]:
        """Foreground interval boundaries of every label value in one frame."""
        cached = self._cuts_cache.get(frame)
        if cached is None:
            cached = _labelmap_value_cuts(self.labeled_frames[frame])
            self._cuts_cache[frame] = cached
        return cached

    def region_ids(self) -> list[int]:
        ids: set[int] = set()
        for frame in self.labeled_frames:
            ids.update(self.frame_value_cuts(frame))
        ids.discard(0)
        if self.ignore_value is not None:
            ids.discard(self.ignore_value)
        return sorted(ids)

    def region(self, region_id: int) -> Region:
        frames = {}
        for frame in self.eval_frames():
            cuts = self.frame_value_cuts(frame).get(region_id)
            if cuts is not None:
                frames[frame] = mask_from_cuts(cuts, self.width, self.height)
        return Region(region_id, frames)

    def regions(self) -> list[Region]:
        return [self.region(rid) for rid in self.region_ids()]

    def _instance_cuts(self, frame: int) -> list[np.ndarray]:
        return [cuts for value, cuts in sorted(self.frame_value_cuts(frame).items())
                if value != 0 and value != self.ignore_value]

    def instance_masks(self, frame: int) -> list[Mask]:
        """One frame's masks in label order, without background or the ignore label."""
        return [mask_from_cuts(cuts, self.width, self.height)
                for cuts in self._instance_cuts(frame)]

    def foreground(self, frame: int) -> Mask:
        """The union of one frame's instance masks."""
        # labels cover disjoint intervals; mask_from_cuts drops their shared seams
        cuts = np.concatenate([np.empty(0, dtype=np.int64), *self._instance_cuts(frame)])
        return mask_from_cuts(np.sort(cuts), self.width, self.height)

    def ignore_masks(self) -> dict[int, Mask]:
        if self.ignore_value is None:
            return {}
        return dict(self.region(self.ignore_value).frames)


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


def _labelmap_value_cuts(arr: np.ndarray) -> dict[int, np.ndarray]:
    flat = np.asarray(arr).ravel()
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    values = flat[bounds[:-1]]
    out: dict[int, np.ndarray] = {}
    for vid in np.unique(values):
        idx = np.flatnonzero(values == vid)
        cuts = np.empty(2 * len(idx), dtype=np.int64)
        cuts[0::2] = bounds[idx]
        cuts[1::2] = bounds[idx + 1]
        out[int(vid)] = cuts
    return out


def _pool_region_cuts(region: Region, frame_slots: Mapping[int, int], frame_px: int,
                      width: int, height: int) -> np.ndarray:
    chunks = []
    for frame in sorted(region.frames):
        slot = frame_slots.get(frame)
        if slot is None:
            continue
        m = region.frames[frame]
        if m.width != width or m.height != height:
            raise ValueError(
                f"region {region.id} frame {frame} is {m.width}x{m.height}, "
                f"sequence is {width}x{height}"
            )
        if not m.is_empty:
            chunks.append(m.foreground_cuts + slot * frame_px)
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def _cuts_area(cuts: np.ndarray) -> int:
    return int(np.sum(cuts[1::2] - cuts[0::2]))


def _prf(inter: int, c_area: int, g_area: int) -> tuple[float, float, float]:
    p = inter / c_area if c_area else 0.0
    r = inter / g_area if g_area else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def pairwise_prf(pred: Region, gt: Region, eval_frames: Sequence[int],
                 ignore_masks: Mapping[int, Mask] | None = None):
    """Precision/recall/F of one prediction against one ground-truth region.

    Pixel counts pool over ``eval_frames`` only.  When ``ignore_masks`` is
    given, ignore-labeled pixels are removed from the prediction before its
    area is counted (they never overlap ground-truth regions).
    """
    frames = sorted(eval_frames)
    slots = {f: k for k, f in enumerate(frames)}
    sample = next(iter(gt.frames.values()), None) or next(iter(pred.frames.values()), None)
    if sample is None:
        return 0.0, 0.0, 0.0
    width, height = sample.width, sample.height
    frame_px = width * height
    c = _pool_region_cuts(pred, slots, frame_px, width, height)
    g = _pool_region_cuts(gt, slots, frame_px, width, height)
    inter = intersect_cuts(c, g)
    c_area = _cuts_area(c)
    if ignore_masks:
        ig = _pool_region_cuts(Region(-1, ignore_masks), slots, frame_px, width, height)
        c_area -= intersect_cuts(c, ig)
    return _prf(inter, c_area, _cuts_area(g))


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
    slots = {f: k for k, f in enumerate(frames)}
    frame_px = gt.width * gt.height

    def pooled(value):
        chunks = [cuts[value] + slots[f] * frame_px for f in frames
                  if value in (cuts := gt.frame_value_cuts(f))]
        return np.concatenate(chunks) if chunks else np.empty(0, np.int64)

    gt_ids = gt.region_ids()
    gt_cuts = [pooled(rid) for rid in gt_ids]
    gt_areas = [_cuts_area(c) for c in gt_cuts]
    ignore_cuts = pooled(gt.ignore_value) if official else np.empty(0, np.int64)

    pred_cuts = [_pool_region_cuts(p, slots, frame_px, gt.width, gt.height) for p in preds]
    pred_areas = [_cuts_area(c) for c in pred_cuts]
    # one kernel call per prediction scores it against every region and the ignore label
    targets = gt_cuts + [ignore_cuts] if official and len(ignore_cuts) else gt_cuts

    inter = np.zeros((len(preds), len(gt_ids)), dtype=np.int64)
    f_matrix = np.zeros((len(preds), len(gt_ids)))
    for i, c in enumerate(pred_cuts):
        overlaps = intersect_cuts_many(c, targets)
        inter[i] = overlaps[:len(gt_ids)]
        if len(targets) > len(gt_ids):
            pred_areas[i] -= int(overlaps[-1])
        for j in range(len(gt_ids)):
            f_matrix[i, j] = _prf(inter[i, j], pred_areas[i], gt_areas[j])[2]

    matched = [
        (i, j) for i, j in solve_max_assignment(f_matrix).pairs if f_matrix[i, j] > 0.0
    ]
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


def combine_tallies(tallies: Sequence[SequenceTally], official: bool) -> MetricReport:
    inter = sum(t.matched_intersection for t in tallies)
    c_pool = sum(t.pred_pixels for t in tallies)
    g_pool = sum(t.gt_pixels for t in tallies)
    n_preds = sum(t.n_predictions for t in tallies)
    n_gts = sum(t.n_gt_regions for t in tallies)
    flags: list[str] = []
    if n_gts == 0:
        flags.append("degenerate")
        if n_preds == 0:
            flags.append("no_predictions")
        return MetricReport(n_over_075=0 if official else None, flags=tuple(flags))
    if not official and n_preds == 0:
        return MetricReport(precision=1.0, recall=0.0, f_measure=0.0,
                            flags=("no_predictions",))
    if n_preds == 0:
        flags.append("no_predictions")
    precision, recall, f = _prf(inter, c_pool, g_pool)
    return MetricReport(
        precision=precision,
        recall=recall,
        f_measure=f,
        n_over_075=sum(t.n_over_075 for t in tallies) if official else None,
        flags=tuple(flags),
    )


def official_measure(gt: GroundTruthSequence, preds: Sequence[Region]) -> MetricReport:
    """Hungarian-matched F-measure that ignores unmatched predictions.

    Precision divides by matched prediction pixels only, with ignore-labeled
    pixels excluded; N counts ground-truth regions whose matched F exceeds
    0.75.
    """
    return combine_tallies([sequence_tally(gt, preds, official=True)], official=True)


def proposed_measure(gt: GroundTruthSequence, preds: Sequence[Region]) -> MetricReport:
    """F-measure in which unmatched predictions count as false positives.

    Precision divides by the pixels of all predictions; every pixel counts,
    including ignore-labeled ones.
    """
    return combine_tallies([sequence_tally(gt, preds, official=False)], official=False)


def aggregate(scored, combine) -> MetricReport:
    """Report over named per-sequence payloads, with each sequence's own report.

    ``scored`` lists (name, payload) pairs and ``combine`` turns such a list
    into a MetricReport; a sequence's own report is ``combine`` of it alone.
    """
    names = [name for name, _ in scored]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate sequence names: {sorted(names)}")
    report = combine(scored)
    report.per_sequence = {name: combine([(name, payload)]) for name, payload in scored}
    return report


def evaluate_dataset(named_inputs, official: bool) -> MetricReport:
    """Micro-averaged report over (name, gt, predictions) triples.

    Matching runs per sequence; the aggregate pools raw pixel counts across
    sequences before forming ratios.  Sequence names must be unique.
    """
    scored = [(name, sequence_tally(gt, preds, official=official))
              for name, gt, preds in named_inputs]
    return aggregate(scored, lambda items: combine_tallies(
        [tally for _, tally in items], official=official))


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


def _box_iou(a, b) -> float:
    if a is None or b is None:
        return 0.0
    ix = min(a[2], b[2]) - max(a[0], b[0]) + 1
    iy = min(a[3], b[3]) - max(a[1], b[1]) + 1
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0] + 1) * (a[3] - a[1] + 1)
    area_b = (b[2] - b[0] + 1) * (b[3] - b[1] + 1)
    return inter / (area_a + area_b - inter)


def average_precision(gt_by_frame, dets_by_frame, iou_threshold: float = 0.5,
                      mode: str = "mask") -> float | None:
    """Single-category AP: greedy score-ordered matching, all-points interpolation.

    ``gt_by_frame`` maps frame keys to instance Mask lists; ``dets_by_frame``
    maps the same keys to scored masks (.score/.mask).  Returns None when
    there is no ground truth at all.  Score ties break by frame then input
    order.
    """
    if mode not in ("box", "mask"):
        raise ValueError(f"unknown AP mode {mode!r}")
    frames = sorted(set(gt_by_frame) | set(dets_by_frame))
    n_gt = sum(len(gt_by_frame.get(f, ())) for f in frames)
    if n_gt == 0:
        return None
    frame_order = {f: k for k, f in enumerate(frames)}
    dets = []
    for f in frames:
        for idx, d in enumerate(dets_by_frame.get(f, ())):
            dets.append((-d.score, frame_order[f], idx, f, d.mask))
    dets.sort(key=lambda t: t[:3])

    gt_items = {f: list(gt_by_frame.get(f, ())) for f in frames}
    if mode == "box":
        gt_boxes = {f: [_mask_bbox(m) for m in ms] for f, ms in gt_items.items()}
    taken: dict[tuple, bool] = {}
    tp = np.zeros(len(dets), dtype=bool)
    for k, (_, _, _, f, mask) in enumerate(dets):
        best_iou, best_j = 0.0, -1
        if mode == "box":
            box = _mask_bbox(mask)
            overlaps = [_box_iou(box, gb) for gb in gt_boxes[f]]
        else:
            # disjoint bounding boxes mean an IoU of exactly 0
            meet = boxes_meet([mask], gt_items[f])[0]
            overlaps = [mask_iou(mask, gm) if meet[j] else 0.0
                        for j, gm in enumerate(gt_items[f])]
        for j, ov in enumerate(overlaps):
            if taken.get((f, j)):
                continue
            if ov > best_iou:
                best_iou, best_j = ov, j
        if best_j >= 0 and best_iou >= iou_threshold:
            taken[(f, best_j)] = True
            tp[k] = True
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(~tp)
    rec = tp_cum / n_gt
    prec = tp_cum / np.maximum(tp_cum + fp_cum, 1)
    mrec = np.concatenate(([0.0], rec, [1.0]))
    mpre = np.concatenate(([0.0], prec, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    moved = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[moved] - mrec[moved - 1]) * mpre[moved]))


def davis_j(gt_binary: Mapping[int, Mask], pred_binary: Mapping[int, Mask]):
    """Per-frame IoU statistics: (mean, recall over 0.5, first-vs-last quartile decay)."""
    frames = sorted(gt_binary)
    if not frames:
        raise ValueError("empty sequence")
    if sorted(pred_binary) != frames:
        raise ValueError("prediction frames do not match ground-truth frames")
    # a frame with both masks empty scores 1, as DAVIS's db_eval_iou has it
    ious = np.array([1.0 if pred_binary[f].is_empty and gt_binary[f].is_empty
                     else mask_iou(pred_binary[f], gt_binary[f]) for f in frames])
    mean = float(ious.mean())
    recall = float((ious > 0.5).mean())
    if len(ious) >= 4:
        bins = np.array_split(ious, 4)
        decay = float(np.mean(bins[0]) - np.mean(bins[3]))
    else:
        decay = float(ious[0] - ious[-1])
    return mean, recall, decay


def _boundary_points(mask: Mask) -> np.ndarray:
    return np.column_stack(np.divmod(boundary_pixels(mask), mask.width))


def _within(points: np.ndarray, targets: np.ndarray, tolerance_px: float) -> int:
    """How many points have a target within ``tolerance_px`` (Euclidean).

    The nearest target is exact, and its distance is the float64 square root
    of an integer squared distance, the value a distance transform gives.
    """
    _, nearest = cKDTree(targets).query(
        points, distance_upper_bound=max(tolerance_px, 0.0) + 1.0)
    found = nearest < len(targets)   # the rest have no target within the bound
    offsets = points[found] - targets[nearest[found]]
    dist = np.sqrt(np.sum(offsets * offsets, axis=1).astype(np.float64))
    return int(np.count_nonzero(dist <= tolerance_px))


def default_boundary_tolerance(width: int, height: int, pct: float = 0.8) -> int:
    """Boundary match distance: given percent of the image diagonal, rounded up."""
    return math.ceil(pct / 100.0 * math.hypot(width, height))


def boundary_f(gt_binary: Mapping[int, Mask], pred_binary: Mapping[int, Mask],
               tolerance_px: int | None = None) -> float:
    """Boundary precision/recall F with a pixel distance tolerance, frame-averaged.

    Boundaries are 4-connected: foreground pixels with a background (or
    out-of-image) neighbor.  A boundary pixel matches when the opposite
    boundary passes within ``tolerance_px`` (Euclidean).  Each boundary
    pixel's nearest opposite boundary pixel is found exactly, among boundary
    pixels only, so no full-frame distance transform is computed.
    """
    frames = sorted(gt_binary)
    if not frames:
        raise ValueError("empty sequence")
    if sorted(pred_binary) != frames:
        raise ValueError("prediction frames do not match ground-truth frames")
    sample = gt_binary[frames[0]]
    if tolerance_px is None:
        tolerance_px = default_boundary_tolerance(sample.width, sample.height)
    scores = []
    for f in frames:
        gt_b = _boundary_points(gt_binary[f])
        pr_b = _boundary_points(pred_binary[f])
        n_gt, n_pr = len(gt_b), len(pr_b)
        if n_gt == 0 and n_pr == 0:
            scores.append(1.0)
            continue
        if n_gt == 0 or n_pr == 0:
            scores.append(0.0)
            continue
        precision = float(_within(pr_b, gt_b, tolerance_px)) / n_pr
        recall = float(_within(gt_b, pr_b, tolerance_px)) / n_gt
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(scores))


def binarize_detections(dets_by_frame, threshold: float = 0.7, *,
                        width: int, height: int) -> dict[int, Mask]:
    """Per frame, the union of detection masks scoring strictly above the threshold."""
    out = {}
    for f in sorted(dets_by_frame):
        masks = [d.mask for d in dets_by_frame[f] if d.score > threshold]
        out[f] = union_merge(masks, width=width, height=height)
    return out

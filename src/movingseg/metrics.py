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
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from . import mask as mask_module
from .assign import solve_max_assignment
from .mask import (DimensionMismatchError, Mask, _boxes, _overlaps, boundary_pixels,
                   intersect_cuts, iou_matrix, mask_from_cuts, union_merge)
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


def _cuts_area(cuts: np.ndarray) -> int:
    return int(np.sum(cuts[1::2] - cuts[0::2]))


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


def pairwise_prf(pred: Region, gt: Region, eval_frames: Sequence[int],
                 ignore_masks: Mapping[int, Mask] | None = None):
    """Precision/recall/F of one prediction against one ground-truth region.

    Pixel counts pool over ``eval_frames`` only.  When ``ignore_masks`` is
    given, ignore-labeled pixels are removed from the prediction before its
    area is counted (they never overlap ground-truth regions).
    """
    sample = next(iter(gt.frames.values()), None) or next(iter(pred.frames.values()), None)
    if sample is None:
        return 0.0, 0.0, 0.0
    c, g, ig = _region_cuts([pred, gt, Region(-1, dict(ignore_masks or {}))],
                            sorted(eval_frames), sample.width, sample.height)
    return _prf(intersect_cuts(c, g), _cuts_area(c) - intersect_cuts(c, ig), _cuts_area(g))


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
    frame_px = gt.width * gt.height
    gt_ids = gt.region_ids()
    tables = [gt.frame_value_cuts(f) for f in frames]
    # the last column is the ignore label, empty unless it counts
    targets = [_pooled([t.get(v) for t in tables], frame_px)
               for v in [*gt_ids, gt.ignore_value if official else None]]
    gt_areas = [_cuts_area(c) for c in targets[:-1]]
    pred_cuts = _region_cuts(preds, frames, gt.width, gt.height)
    # one kernel call scores every prediction against every region and the ignore label
    ii, jj = np.divmod(np.arange(len(preds) * len(targets)), len(targets))
    overlaps = _overlaps(pred_cuts, targets, ii, jj, len(frames) * frame_px + 1)
    overlaps = overlaps.reshape(len(preds), len(targets))
    inter = overlaps[:, :-1]
    pred_areas = [_cuts_area(c) - int(ig) for c, ig in zip(pred_cuts, overlaps[:, -1])]
    f_matrix = _f_matrix(inter, pred_areas, gt_areas)

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
            dets.append((-d.score, frame_order[f], idx, f))
    dets.sort(key=lambda t: t[:3])

    overlap = iou_matrix if mode == "mask" else _box_ious
    # one detections x ground-truth matrix per frame; a taken object's column is zeroed
    ious = {f: overlap([d.mask for d in dets_by_frame.get(f, ())], gt_by_frame.get(f, ()))
            for f in frames}
    tp = np.zeros(len(dets), dtype=bool)
    for k, (_, _, idx, f) in enumerate(dets):
        row = ious[f][idx]
        j = int(row.argmax()) if len(row) else -1   # the first of the best overlaps
        if j >= 0 and row[j] > 0 and row[j] >= iou_threshold:   # 0 matches nothing
            ious[f][:, j] = 0.0
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

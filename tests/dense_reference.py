"""Dense reference implementations that the run-space fast paths are tested against.

Each one decodes masks into full pixel grids and works on those, sharing no
arithmetic with the interval kernels in ``movingseg.mask``.  The assignment
oracle enumerates every matching, sharing nothing with ``movingseg.assign``'s
solver beyond the input contract.
"""

import itertools
import math
from itertools import groupby

import numpy as np
from scipy.ndimage import distance_transform_edt

from movingseg.assign import Matching, _validated
from movingseg.mask import Mask, rle_decode, rle_encode
from movingseg.synth import _place_spurious
from movingseg.tracker import Detection


def interval_grid(cuts, size):
    """Boolean grid of ``size`` pixels set on every interval [cuts[2k], cuts[2k+1])."""
    grid = np.zeros(size, dtype=bool)
    for start, end in zip(cuts[0::2], cuts[1::2]):
        grid[start:end] = True
    return grid


def grid_runs(grid) -> list[int]:
    """Canonical run list of a 0/1 grid: the lengths of its equal-value stretches."""
    flat = np.asarray(grid).ravel().astype(bool).tolist()
    runs = [len(list(stretch)) for _, stretch in groupby(flat)]
    return [0, *runs] if flat[0] else runs


def grid_box(grid) -> tuple[int, int, int, int]:
    """(x0, y0, x1, y1) inclusive bounds of the set pixels; (0, 0, -1, -1) if none."""
    ys, xs = np.nonzero(grid)
    if not len(xs):
        return 0, 0, -1, -1
    return int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())


def grid_iou(a, b) -> float:
    """Set pixels in both grids over set pixels in either; 0.0 when neither has any."""
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    union = int((a | b).sum())
    return int((a & b).sum()) / union if union else 0.0


def translate_dense(mask: Mask, dx: int, dy: int) -> Mask | None:
    """Shift by decoding, copying the overlapping window, and re-encoding; None if empty."""
    if dx == 0 and dy == 0:
        return mask
    grid = rle_decode(mask)
    h, w = grid.shape
    out = np.zeros_like(grid)
    if abs(dy) < h and abs(dx) < w:
        out[max(0, dy):h + min(0, dy), max(0, dx):w + min(0, dx)] = \
            grid[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)]
    shifted = rle_encode(out, w, h)
    return None if shifted.is_empty else shifted


def corrupt_reference(gt, noise, seed: int) -> dict:
    """``synth.corrupt`` as a plain loop: each object's noise drawn and its mask shifted alone.

    The draws follow the README's streams: from ``[seed, 1]``, per object in
    label order, dx and dy (with jitter), a score offset (with a score
    spread) and a false-negative draw (with a false-negative rate); from
    ``[seed, 2]`` one false-positive gate per frame, and from ``[seed, 3,
    frame]`` the spurious box, placed by ``synth._place_spurious``.
    """
    def rng(*key):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))

    rng_obj, rng_fp = rng(seed, 1), rng(seed, 2)
    out = {}
    labels = gt.labeled_frames
    for f in sorted(labels):
        label = labels[f]
        grids = [label == v for v in np.unique(label).tolist() if v != 0]
        dets = []
        for grid in grids:
            dx = dy = 0
            if noise.jitter_px > 0:
                dx = int(rng_obj.integers(-noise.jitter_px, noise.jitter_px + 1))
                dy = int(rng_obj.integers(-noise.jitter_px, noise.jitter_px + 1))
            score = noise.score_mean
            if noise.score_spread > 0:
                score += float(rng_obj.uniform(-noise.score_spread, noise.score_spread))
            if noise.fn_rate > 0 and rng_obj.random() < noise.fn_rate:
                continue
            shifted = translate_dense(rle_encode(grid, gt.width, gt.height), dx, dy)
            if shifted is not None:
                dets.append(Detection(f, min(1.0, max(0.0, score)), shifted))
        if noise.fp_rate > 0 and rng_fp.random() < noise.fp_rate:
            rng_place = rng(seed, 3, f)
            box = _place_spurious(rng_place, gt.width, gt.height, [grid_box(g) for g in grids])
            if box is not None:
                score = noise.score_mean
                if noise.score_spread > 0:
                    score += float(rng_place.uniform(-noise.score_spread, noise.score_spread))
                x0, y0, x1, y1 = box
                grid = np.zeros((gt.height, gt.width), dtype=bool)
                grid[y0:y1 + 1, x0:x1 + 1] = True
                dets.append(Detection(f, min(1.0, max(0.0, score)),
                                      rle_encode(grid, gt.width, gt.height)))
        out[f] = dets
    return out


def boundary_map(mask: Mask) -> np.ndarray:
    """Foreground pixels with a background or out-of-image 4-neighbor."""
    grid = rle_decode(mask).astype(bool)
    padded = np.pad(grid, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return grid & ~interior


def boundary_f_edt(gt_binary, pred_binary, tolerance_px) -> float:
    """Frame-averaged boundary F from two full-frame Euclidean distance transforms per frame."""
    scores = []
    for f in sorted(gt_binary):
        gt_b = boundary_map(gt_binary[f])
        pr_b = boundary_map(pred_binary[f])
        n_gt, n_pr = int(gt_b.sum()), int(pr_b.sum())
        if n_gt == 0 and n_pr == 0:
            scores.append(1.0)
            continue
        if n_gt == 0 or n_pr == 0:
            scores.append(0.0)
            continue
        dist_to_gt = distance_transform_edt(~gt_b)
        dist_to_pr = distance_transform_edt(~pr_b)
        precision = float((pr_b & (dist_to_gt <= tolerance_px)).sum()) / n_pr
        recall = float((gt_b & (dist_to_pr <= tolerance_px)).sum()) / n_gt
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(scores))


def _box_iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0]) + 1
    iy = min(a[3], b[3]) - max(a[1], b[1]) + 1
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0] + 1) * (a[3] - a[1] + 1)
    area_b = (b[2] - b[0] + 1) * (b[3] - b[1] + 1)
    return inter / (area_a + area_b - inter)


def average_precision_dense(gt_by_frame, dets_by_frame, iou_threshold, mode) -> float | None:
    """Greedy score-ordered AP, pair by pair on decoded grids, all-points interpolation.

    A detection takes the first untaken object of its frame with the largest
    positive overlap; score ties break by frame, then input order.
    """
    frames = sorted(set(gt_by_frame) | set(dets_by_frame))
    n_gt = sum(len(gt_by_frame.get(f, ())) for f in frames)
    if n_gt == 0:
        return None
    grids = {f: [rle_decode(m) for m in gt_by_frame.get(f, ())] for f in frames}
    dets = sorted((-d.score, k, idx, f, rle_decode(d.mask))
                  for k, f in enumerate(frames)
                  for idx, d in enumerate(dets_by_frame.get(f, ())))
    taken, tp = set(), []
    for _, _, _, f, grid in dets:
        best, best_j = 0.0, -1
        for j, g in enumerate(grids[f]):
            ov = grid_iou(grid, g) if mode == "mask" else _box_iou(grid_box(grid), grid_box(g))
            if (f, j) not in taken and ov > best:
                best, best_j = ov, j
        tp.append(best_j >= 0 and best >= iou_threshold)
        if tp[-1]:
            taken.add((f, best_j))
    tp = np.array(tp, dtype=bool)
    rec = np.cumsum(tp) / n_gt
    prec = np.cumsum(tp) / np.arange(1, len(tp) + 1)
    mrec = np.concatenate(([0.0], rec, [1.0]))
    mpre = np.concatenate(([0.0], prec, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    moved = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[moved] - mrec[moved - 1]) * mpre[moved]))


def brute_force_assignment(scores) -> Matching:
    """Exhaustive search over all one-to-one matchings; min(rows, cols) <= 8.

    Test oracle of the positive-pairs rule: a matching's pairs are its
    positive ones, and the answer is the smallest sorted list of them among
    the matchings of the largest total.  It enumerates every injection of the
    smaller side into the larger and totals each one's positive entries with
    a plain sum.  The injections whose plain total lies within 1e-8 * max(1,
    total) of the best are totalled again exactly (``math.fsum``), and exact
    totals within 1e-9 * max(1, largest) of the largest count as tied.  A
    plain sum of at most 8 entries is off by far less than the gap between
    those two tolerances, so no tied matching is left out.
    """
    b = _validated(scores)
    n_rows, n_cols = b.shape
    if n_rows == 0 or n_cols == 0:
        return Matching((), 0.0)
    if min(n_rows, n_cols) > 8:
        raise ValueError(f"brute force limited to min dimension 8, got {min(n_rows, n_cols)}")
    flip = n_rows > n_cols
    gains = np.maximum(b.T if flip else b, 0.0).tolist()   # one row per smaller-side index
    values = b.tolist()
    near, best, floor = [], 0.0, -1e-8
    for perm in itertools.permutations(range(len(gains[0])), len(gains)):
        total = sum(map(list.__getitem__, gains, perm))
        if total >= floor:
            near.append((total, perm))
            if total > best:
                best = total
                floor = best - 1e-8 * max(1.0, best)
    candidates = []
    for total, perm in near:
        if total >= floor:
            pairs = ((r, c) for c, r in enumerate(perm)) if flip else enumerate(perm)
            kept = tuple(sorted((r, c) for r, c in pairs if values[r][c] > 0.0))
            candidates.append((math.fsum(values[r][c] for r, c in kept), kept))
    top = max(total for total, _ in candidates)
    pick = min(kept for total, kept in candidates if total >= top - 1e-9 * max(1.0, top))
    return Matching(pick, float(sum(values[r][c] for r, c in pick)))

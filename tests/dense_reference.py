"""Dense reference implementations that the run-space fast paths are tested against.

Each one decodes masks into full pixel grids and works on those, sharing no
arithmetic with the interval kernels in ``movingseg.mask``.
"""

import numpy as np
from scipy.ndimage import distance_transform_edt

from movingseg.mask import Mask, rle_decode, rle_encode


def interval_grid(cuts, size):
    """Boolean grid of ``size`` pixels set on every interval [cuts[2k], cuts[2k+1])."""
    grid = np.zeros(size, dtype=bool)
    for start, end in zip(cuts[0::2], cuts[1::2]):
        grid[start:end] = True
    return grid


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

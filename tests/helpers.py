"""Small constructors shared by the test modules."""

import numpy as np

from movingseg.mask import rle_encode
from movingseg.metrics import GroundTruthSequence, Region
from movingseg.tracker import Detection, Track


def rect_mask(width, height, x, y, w, h):
    grid = np.zeros((height, width), dtype=np.uint8)
    grid[y:y + h, x:x + w] = 1
    return rle_encode(grid, width, height)


def rect_labels(width, height, rects):
    """Label map from (value, x, y, w, h) rectangles painted in order."""
    label = np.zeros((height, width), dtype=np.int32)
    for value, x, y, w, h in rects:
        label[y:y + h, x:x + w] = value
    return label


def single_frame_gt(width, height, rects, ignore_value=None):
    return GroundTruthSequence(width, height, {0: rect_labels(width, height, rects)},
                               ignore_value)


def region(rid, width, height, frame_rects):
    """Region from {frame: (x, y, w, h)}."""
    return Region(rid, {f: rect_mask(width, height, *r) for f, r in frame_rects.items()})


def det(frame, score, width, height, x, y, w, h, kind="moving"):
    return Detection(frame, score, rect_mask(width, height, x, y, w, h), kind)


def tracks_of(regions):
    """Each region as a track of score-1 detections, the form ``metrics.evaluate`` scores."""
    return [Track(r.id, tuple(Detection(f, 1.0, m) for f, m in sorted(r.frames.items())))
            for r in regions]

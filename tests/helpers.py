"""Small constructors shared by the test modules."""

import numpy as np

from movingseg.mask import rle_encode
from movingseg.metrics import GroundTruthSequence
from movingseg.tracker import Detection, Track


# JSON files that json.loads refuses with something other than a JSONDecodeError:
# an integer beyond Python's digit limit, bytes that are not UTF-8, and nesting
# past the recursion limit
UNREADABLE_JSON = {
    "huge-int": b'{"format_version": ' + b"7" * 5000 + b"}",
    "bad-utf8": b'{"format_version": 1, "sequence": "\xff"}',
    "deep": b"[" * 200_000 + b"]" * 200_000,
}


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
    """A track of score-1 moving detections from {frame: (x, y, w, h)}, the form
    ``metrics.evaluate`` scores."""
    return Track(rid, tuple(det(f, 1.0, width, height, *r)
                            for f, r in sorted(frame_rects.items())))


def det(frame, score, width, height, x, y, w, h, kind="moving"):
    return Detection(frame, score, rect_mask(width, height, x, y, w, h), kind)


"""Run-length encoded binary masks and the pixel arithmetic built on them.

Files carry a mask as alternating run counts over the row-major pixel order,
starting with a (possibly zero) count of background pixels.  The encoding is
canonical: a given pixel set has exactly one valid ``runs`` tuple.

A Mask stores only its sorted foreground interval boundaries (a read-only int64
``foreground_cuts``); run lists are checked once, as they enter, a file's all
together.  Every other operation works on the cuts and never touches a dense
pixel grid, as pycocotools' ``maskApi.c`` does; this is what keeps evaluation
over long high-resolution sequences cheap.  Two prefix sums carry all of it:

- Overlap counts (``intersect_cuts``, batched as ``intersect_cuts_many``) take
  the cumulative interval lengths of B, find A's boundaries in B by binary
  search, and sum the differences of the covered lengths there.
- New interval sets (``union_merge``, the interior behind
  ``boundary_pixels``) come from a running sum of +1 at every interval start
  and -1 at every end over the sorted boundaries of all operands.

Translation and boundary extraction first split runs at row ends.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

import numpy as np

# The largest frame, in pixels: offsets stay within 2**31, so each int64 intermediate is
# exact (doubled in _sweep, strided in intersect_cuts_many, pooled over < 2**31 frames)
MAX_PIXELS = 2**31


class MaskError(ValueError):
    """Base class for mask construction and usage errors."""


class MalformedMaskError(MaskError):
    """Runs list violates the encoding invariants."""


class DimensionMismatchError(MaskError):
    """Operands do not share width/height."""


class Mask:
    """An immutable single-frame binary region.

    It stores ``width``, ``height`` and ``foreground_cuts``, the read-only int64
    flat offsets [s0, e0, s1, e1, ...] of the foreground runs, strictly
    increasing within [0, width*height].  ``Mask(width, height, runs)`` checks
    ``runs``: background/foreground counts in row-major order, only the first
    (leading background) may be zero, summing to ``width * height``.
    """

    def __init__(self, width: int, height: int, runs) -> None:
        if width <= 0 or height <= 0:
            raise MalformedMaskError(f"non-positive dimensions {width}x{height}")
        if width * height > MAX_PIXELS:
            raise MalformedMaskError(f"{width}x{height} frame exceeds {MAX_PIXELS} pixels")
        (cuts,) = _split_runs([[int(r) for r in runs]], width * height)
        self.__dict__.update(width=width, height=height, foreground_cuts=cuts)

    def __setattr__(self, name, value):
        raise AttributeError(f"Mask is immutable: cannot set {name!r}")

    def __reduce__(self):
        return Mask, (self.width, self.height, self.runs)

    def __eq__(self, o):
        return (isinstance(o, Mask) and (self.width, self.height) == (o.width, o.height)
                and np.array_equal(self.foreground_cuts, o.foreground_cuts))

    def __hash__(self) -> int:
        return hash((self.width, self.height, self.foreground_cuts.tobytes()))

    def __repr__(self) -> str:
        return f"Mask({self.width}, {self.height}, {self.runs})"

    @property
    def runs(self) -> tuple[int, ...]:
        """The canonical run list."""
        edges = np.concatenate(([0], self.foreground_cuts, [self.width * self.height]))
        runs = tuple((edges[1:] - edges[:-1]).tolist())
        return runs if runs[-1] else runs[:-1]   # no empty run after a foreground at the end

    @property
    def is_empty(self) -> bool:
        return not len(self.foreground_cuts)

    @cached_property
    def _area(self) -> int:
        return int(self.foreground_cuts[1::2].sum() - self.foreground_cuts[0::2].sum())

    @cached_property
    def _bbox(self) -> tuple[int, int, int, int] | None:
        cuts = self.foreground_cuts
        if not len(cuts):
            return None
        w = self.width
        starts, ends = cuts[0::2], cuts[1::2] - 1   # ends inclusive
        row_s, row_e = starts // w, ends // w
        y0, y1 = int(row_s.min()), int(row_e.max())
        if (row_e > row_s).any():   # a run wrapping rows spans the full width
            return 0, y0, w - 1, y1
        return int((starts % w).min()), y0, int((ends % w).max()), y1


def _from_cuts(width: int, height: int, cuts: np.ndarray) -> Mask:
    """A Mask over checked, read-only int64 cuts."""
    if width <= 0 or height <= 0:
        raise MalformedMaskError(f"non-positive dimensions {width}x{height}")
    mask = object.__new__(Mask)
    mask.__dict__.update(width=width, height=height, foreground_cuts=cuts)
    return mask


def _split_runs(rles, total: int) -> list[np.ndarray]:
    """Check lists of runs over ``total`` pixels, all in one int64 array.

    Returns each list's foreground cuts, read-only views of one cumulative sum.
    An error does not say which list failed: check a list alone for that.
    """
    if not rles:
        return []
    lengths = np.fromiter(map(len, rles), np.int64, len(rles))
    starts = (ends := np.cumsum(lengths)) - lengths
    if not lengths.all():
        raise MalformedMaskError("empty runs list")
    flat = list(chain.from_iterable(rles))
    if not set(map(type, flat)) <= {int}:   # JSON's 1.5, true and "4" are not runs
        raise MalformedMaskError("runs must be integers")
    # bounds first, with Python ints, so that the int64 array below is exact
    if min(flat) < 0:
        raise MalformedMaskError("negative run length")
    if max(flat) > total:
        raise MalformedMaskError("run length outside the frame")
    runs = np.fromiter(flat, np.int64, len(flat))
    if np.count_nonzero(runs == 0) > np.count_nonzero(runs[starts] == 0):   # only as a first run
        raise MalformedMaskError("zero-length interior run")
    sums = np.add.reduceat(runs, starts)
    if sums[k := np.argmax(sums != total)] != total:
        raise MalformedMaskError(f"runs sum {sums[k]} != width*height {total}")
    # every list sums to total: taking it off each later list's first run restarts the sum
    runs[starts[1:]] -= total
    cuts = np.cumsum(runs, out=runs)
    cuts.flags.writeable = False
    stops = ends - (lengths & 1)   # an odd list ends in background, closing at total
    return [cuts[a:b] for a, b in zip(starts.tolist(), stops.tolist())]


def rle_encode(dense, width: int, height: int) -> Mask:
    """Encode a row-major 0/1 grid into its canonical Mask."""
    arr = np.asarray(dense)
    if arr.ndim == 2 and arr.shape != (height, width):
        raise DimensionMismatchError(f"grid shape {arr.shape} != ({height}, {width})")
    flat = arr.ravel()
    if flat.size != width * height:
        raise DimensionMismatchError(
            f"grid has {flat.size} entries, expected {width * height}"
        )
    if flat.dtype != bool:
        if np.issubdtype(flat.dtype, np.integer):
            binary = flat.min() >= 0 and flat.max() <= 1
        else:
            binary = ((flat == 0) | (flat == 1)).all()
        if not binary:
            raise MalformedMaskError("grid entries must be 0 or 1")
        flat = flat.astype(bool)
    cuts = np.flatnonzero(flat[1:] != flat[:-1]).astype(np.int64) + 1
    if flat[0]:
        cuts = np.concatenate(([0], cuts))
    if flat[-1]:
        cuts = np.append(cuts, flat.size)
    cuts.flags.writeable = False
    return _from_cuts(width, height, cuts)


def rle_decode(mask: Mask) -> np.ndarray:
    """Expand a Mask into a height x width uint8 grid."""
    runs = mask.runs
    flat = np.repeat(np.arange(len(runs), dtype=np.uint8) % 2, runs)
    return flat.reshape(mask.height, mask.width)


def area(mask: Mask) -> int:
    """Number of foreground pixels."""
    return mask._area


def _require_same_dims(a: Mask, b: Mask) -> None:
    if a.width != b.width or a.height != b.height:
        raise DimensionMismatchError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def _interleave(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    cuts = np.empty(2 * len(starts), dtype=np.int64)
    cuts[0::2], cuts[1::2] = starts, ends
    return cuts


def _covered(cuts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pixels of the non-empty interval set ``cuts`` lying below each of ``points``."""
    lengths = np.zeros(len(cuts) // 2 + 1, dtype=np.int64)
    np.cumsum(cuts[1::2] - cuts[0::2], out=lengths[1:])
    k = np.searchsorted(cuts, points, side="right")
    # k odd: the point lies inside the interval starting at cuts[k - 1]
    return lengths[k >> 1] + (k & 1) * (points - cuts[k - 1])


def intersect_cuts(a: np.ndarray, b: np.ndarray) -> int:
    """Overlap, in pixels, of two foreground interval sets (prefix sums, no decode)."""
    if len(a) == 0 or len(b) == 0:
        return 0
    if a[-1] <= b[0] or b[-1] <= a[0]:
        return 0
    covered = _covered(b, a)
    return int(np.sum(covered[1::2] - covered[0::2]))


def intersect_cuts_many(a: np.ndarray, bs) -> np.ndarray:
    """Overlap of one interval set with each of several, from one binary search.

    Operand k of ``bs`` is moved up by k times a stride longer than any
    operand, so all of them share one sorted array and ``a``, repeated at each
    stride, is located in it at once.
    """
    out = np.zeros(len(bs), dtype=np.int64)
    if len(a) == 0 or not any(len(b) for b in bs):
        return out
    stride = max([int(a[-1])] + [int(b[-1]) for b in bs if len(b)]) + 1
    offsets = np.arange(len(bs), dtype=np.int64) * stride
    stacked = np.concatenate([b + off for b, off in zip(bs, offsets)])
    covered = _covered(stacked, (a + offsets[:, None]).ravel()).reshape(len(bs), len(a))
    return np.sum(covered[:, 1::2] - covered[:, 0::2], axis=1)


def _sweep(cut_arrays, depth: int) -> np.ndarray:
    """Boundaries of the pixels lying in at least ``depth`` of the interval sets.

    Each set's intervals must be disjoint and non-empty.  Starts sort before
    ends at one position, so touching intervals join in a union; the empty
    intervals this leaves where sets only touch are dropped.
    """
    cuts = np.concatenate(cut_arrays)
    if not len(cuts):
        return cuts
    keys = np.sort(cuts * 2 + (np.arange(len(cuts)) & 1))   # every set has even length
    level = np.cumsum(1 - 2 * (keys & 1))
    enter = np.flatnonzero((level == depth) & ((keys & 1) == 0))
    leave = np.flatnonzero((level == depth - 1) & ((keys & 1) == 1))
    starts, ends = keys[enter] >> 1, keys[leave] >> 1
    keep = starts < ends
    return _interleave(starts[keep], ends[keep])


def intersection_area(a: Mask, b: Mask) -> int:
    """Pixels set in both masks."""
    _require_same_dims(a, b)
    return intersect_cuts(a.foreground_cuts, b.foreground_cuts)


def iou(a: Mask, b: Mask) -> float:
    """Intersection over union; 0.0 when both masks are empty."""
    _require_same_dims(a, b)
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter
    if union == 0:
        return 0.0
    return inter / union


def union_merge(masks, *, width: int | None = None, height: int | None = None) -> Mask:
    """Pixelwise OR of masks sharing one frame size.

    An empty input list yields the empty mask of the stated dimensions.
    """
    masks = list(masks)
    if not masks:
        if width is None or height is None:
            raise DimensionMismatchError("empty mask list requires explicit width/height")
        return Mask(width, height, (width * height,))
    first = masks[0]
    if width is not None and (width != first.width or height != first.height):
        raise DimensionMismatchError("stated dimensions disagree with masks")
    for m in masks[1:]:
        _require_same_dims(first, m)
    cuts = _sweep([m.foreground_cuts for m in masks], 1)
    return mask_from_cuts(cuts, first.width, first.height)


def bbox(mask: Mask) -> tuple[int, int, int, int] | None:
    """Tight (x0, y0, x1, y1) inclusive bounds of the foreground, None if empty."""
    return mask._bbox


def boxes_meet(a, b) -> np.ndarray:
    """len(a) x len(b) matrix: whether the bounding boxes of a[i] and b[j] share a pixel.

    Masks whose boxes are disjoint (or either empty) have an IoU of exactly 0.
    """
    def boxes(masks):
        # an empty mask gets a box that meets nothing
        return np.array([m._bbox or (0, 0, -1, -1) for m in masks],
                        dtype=np.int64).reshape(-1, 4)

    ba, bb = boxes(a)[:, None, :], boxes(b)[None, :, :]
    return ((ba[..., 0] <= bb[..., 2]) & (bb[..., 0] <= ba[..., 2])
            & (ba[..., 1] <= bb[..., 3]) & (bb[..., 1] <= ba[..., 3]))


def _row_runs(cuts: np.ndarray, width: int):
    """Foreground intervals split at row ends, as (row, x_start, x_end) arrays; x_end exclusive."""
    starts, ends = cuts[0::2], cuts[1::2]
    first = starts // width
    n = (ends - 1) // width - first + 1
    piece = np.repeat(np.arange(len(starts)), n)
    rows = first[piece] + np.arange(len(piece)) - np.repeat(np.cumsum(n) - n, n)
    row_start = rows * width
    x0 = np.maximum(starts[piece], row_start) - row_start
    x1 = np.minimum(ends[piece], row_start + width) - row_start
    return rows, x0, x1


def translate(mask: Mask, dx: int, dy: int) -> Mask:
    """Shift a mask by (dx, dy) pixels; what leaves the frame is cut off."""
    if dx == 0 and dy == 0:
        return mask
    w, h = mask.width, mask.height
    rows, x0, x1 = _row_runs(mask.foreground_cuts, w)
    rows = rows + dy
    x0, x1 = np.clip(x0 + dx, 0, w), np.clip(x1 + dx, 0, w)
    keep = (rows >= 0) & (rows < h) & (x0 < x1)
    row_start = rows[keep] * w
    return mask_from_cuts(_interleave(row_start + x0[keep], row_start + x1[keep]), w, h)


def boundary_pixels(mask: Mask) -> np.ndarray:
    """Sorted flat offsets of the 4-connected boundary.

    A boundary pixel is a foreground pixel with a background or out-of-image
    neighbor.  The rest, the interior, is the foreground shrunk by one pixel
    within each row, intersected with the foreground moved one row down and
    one row up.
    """
    cuts = mask.foreground_cuts
    if not len(cuts):
        return cuts
    w = mask.width
    rows, x0, x1 = _row_runs(cuts, w)
    wide = x1 - x0 > 2
    row_start = rows[wide] * w
    shrunk = _interleave(row_start + x0[wide] + 1, row_start + x1[wide] - 1)
    interior = _sweep([shrunk, cuts + w, cuts - w], 3)
    # the interior lies strictly inside the foreground intervals, so merging the
    # two boundary lists gives the foreground minus the interior
    edges = np.sort(np.concatenate((cuts, interior)))
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def mask_from_cuts(cuts: np.ndarray, width: int, height: int) -> Mask:
    """Build a Mask from sorted foreground interval boundaries [s0,e0,s1,e1,...].

    Touching intervals (e_i == s_{i+1}) are merged and empty ones dropped; what is
    left must increase strictly within [0, width*height], in pairs.  The mask
    keeps its own copy.
    """
    cuts = np.array(cuts, dtype=np.int64)
    # drop seam points shared by touching (or empty) intervals
    while len(cuts):
        dup_at = np.flatnonzero(cuts[1:] == cuts[:-1])
        if not len(dup_at):
            break
        keep = np.ones(len(cuts), dtype=bool)
        keep[dup_at] = False
        keep[dup_at + 1] = False
        cuts = cuts[keep]
    if len(cuts) % 2 or len(cuts) and (
            cuts[0] < 0 or cuts[-1] > width * height or (cuts[1:] <= cuts[:-1]).any()):
        raise MalformedMaskError(f"cuts must be pairs increasing within [0, {width * height}]")
    cuts.flags.writeable = False
    return _from_cuts(width, height, cuts)

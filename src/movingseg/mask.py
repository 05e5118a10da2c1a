"""Run-length encoded binary masks and the pixel arithmetic built on them.

Files carry a mask as alternating run counts over the row-major pixel order,
starting with a (possibly zero) count of background pixels.  The encoding is
canonical: a given pixel set has exactly one valid ``runs`` tuple.

A Mask stores its sorted foreground interval boundaries (a read-only int64
``foreground_cuts``), and its area and bounding box once they are computed.
Run lists are checked once, by ``Mask(width, height, runs)`` or, a file's all
together, by ``_split_runs``, which converts every run of them in one
``array`` pass.  Cuts that are canonical by construction, such as ``_sweep``
output, go unchecked to ``_from_cuts``, which applies the frame-size rule and
makes them read-only; ``mask_from_cuts`` checks any other cuts once.
``_split_runs``, ``_translate_cuts`` and ``_value_cuts`` (which groups the runs
of the one run finder ``_label_runs`` by value) make one read-only array per
call, and each Mask over a slice of it is built with ``_mask``, the one
constructor that checks nothing.
Every other operation works on the cuts and never touches a dense pixel grid,
as pycocotools' ``maskApi.c`` does; this is what keeps evaluation over long
high-resolution sequences cheap.  Binary searches and prefix sums carry all of it:

- Overlap counts come from one kernel, ``_tagged_overlaps``: given sets of
  intervals and a sorted list of disjoint, tagged intervals, two binary
  searches find the first and the last tagged interval that each interval of
  the sets meets, and the overlaps with those and the ones between are summed
  per (set, tag).  The F-measure tally scores predictions against the labels'
  runs with it; ``_overlaps``, behind ``intersect_cuts``, ``iou_matrix``,
  ``davis_j`` and the IoU of ``average_precision``, stacks the masks of one
  side into one such list under a single tag, one block per mask, and moves
  each pair's other mask into its block.
- New interval sets (the binarized frames of ``metrics.binarize_detections``,
  the interior behind ``_boundaries``) come from ``_sweep``, a running sum
  of +1 at every interval start and -1 at every end over the sorted boundaries
  of all operands.

Translation and boundary extraction, each of many masks at once, first split
runs at row ends; ``_boundaries`` lays its masks out as one padded image.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import chain, repeat

import numpy as np

# The largest frame, in pixels: offsets stay within 2**31, so each int64 intermediate is
# exact (doubled in _sweep, pooled or strided by _pooled over < 2**31 frames, and laid out
# by _boundaries below 4*w*h per mask over < 2**29 masks)
MAX_PIXELS = 2**31
# overlaps per block in _tagged_overlaps, which bounds its working memory: at 2**14
# each int64 temporary is 128 KiB
_CHUNK = 1 << 14


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
    increasing within [0, width*height]; its area and box, once computed, are
    kept with them.  ``Mask(width, height, runs)`` checks ``runs``: int
    background/foreground counts (numpy ints too) in row-major order, only the
    first (leading background) may be zero, summing to ``width * height``.
    """

    def __init__(self, width: int, height: int, runs) -> None:
        # only numpy's ints convert: a float, string or bool run is refused, not rounded
        runs = [int(r) if isinstance(r, np.integer) else r for r in runs]
        (mask,) = _split_runs([runs], width, height)
        self.__dict__.update(vars(mask))

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
        return tuple(_run_lists([self])[0])

    @property
    def is_empty(self) -> bool:
        return not len(self.foreground_cuts)

    @cached_property
    def _area(self) -> int:
        return int(np.sum(self.foreground_cuts[1::2] - self.foreground_cuts[0::2]))


def _is_int(value) -> bool:
    """Whether ``value`` is an int or a numpy int, and not a bool: what a frame size, a
    frame index or a track id may be."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _frame_pixels(width: int, height: int) -> int:
    """``width * height``, once both sides are ints (``_is_int``), >= 1, and it is at
    most MAX_PIXELS."""
    if not (_is_int(width) and _is_int(height)):   # 2.5, "2" and True are not rounded
        raise MalformedMaskError(f"dimensions {width!r}x{height!r} must be integers")
    if width <= 0 or height <= 0:
        raise MalformedMaskError(f"non-positive dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise MalformedMaskError(f"{width}x{height} frame exceeds {MAX_PIXELS} pixels")
    return width * height


def _from_cuts(width: int, height: int, cuts: np.ndarray) -> Mask:
    """A Mask over int64 cuts that are canonical for the frame; it makes them read-only."""
    _frame_pixels(width, height)
    cuts.flags.writeable = False
    return _mask(width, height, cuts)


def _mask(width: int, height: int, cuts: np.ndarray) -> Mask:
    """The Mask of read-only int64 cuts canonical for a frame size ``_frame_pixels``
    accepts, built unchecked."""
    mask = object.__new__(Mask)
    mask.__dict__.update(width=width, height=height, foreground_cuts=cuts)
    return mask


def _run_lists(masks) -> list[list[int]]:
    """Each mask's canonical run list, from one difference over all masks' cuts.

    Mask k's runs are the differences of [0, cuts_k..., width*height].
    """
    if not masks:
        return []
    n = np.fromiter((len(m.foreground_cuts) for m in masks), np.int64, len(masks))
    first = np.cumsum(n + 2) - (n + 2)   # where each mask's 0 sits
    last = first + n + 1                 # and its width*height
    edges = np.empty(int(last[-1]) + 1, dtype=np.int64)
    cut_at = np.ones(len(edges), dtype=bool)
    cut_at[first] = cut_at[last] = False
    edges[first] = 0
    edges[last] = [m.width * m.height for m in masks]
    edges[cut_at] = np.concatenate([m.foreground_cuts for m in masks])
    diffs = np.diff(edges)
    last -= diffs[last - 1] == 0   # no empty run after a foreground at the end
    diffs = diffs.tolist()
    return [diffs[a:b] for a, b in zip(first.tolist(), last.tolist())]


def _split_runs(rles, width: int, height: int) -> list[Mask]:
    """Check lists of runs over a width x height frame, all in one int64 array.

    Returns each list's Mask; their cuts are views of one read-only cumulative
    sum.  An error does not say which list failed: check a list alone for that.
    """
    total = _frame_pixels(width, height)
    if not rles:
        return []
    lengths = np.fromiter(map(len, rles), np.int64, len(rles))
    starts = (ends := np.cumsum(lengths)) - lengths
    if not lengths.all():
        raise MalformedMaskError("empty runs list")
    flat = list(chain.from_iterable(rles))
    try:
        # one pass converts every run and refuses JSON's 1.5, "4", null, [] and {}
        runs = np.frombuffer(array("q", flat), np.int64)
    except TypeError:
        raise MalformedMaskError("runs must be integers") from None
    except OverflowError:   # some run is beyond int64: the types, then the bounds, exactly
        if not set(map(type, flat)) <= {int}:
            raise MalformedMaskError("runs must be integers") from None
        lo, hi = min(flat), max(flat)
    else:
        # JSON's true and false pass it as 1 and 0, so only runs up to 1 may be bools
        if any(type(flat[i]) is not int for i in np.flatnonzero(runs <= 1).tolist()):
            raise MalformedMaskError("runs must be integers")
        lo, hi = runs.min(), runs.max()
    if lo < 0:
        raise MalformedMaskError("negative run length")
    if hi > total:
        raise MalformedMaskError("run length outside the frame")
    if np.count_nonzero(runs == 0) > np.count_nonzero(runs[starts] == 0):   # only as a first run
        raise MalformedMaskError("zero-length interior run")
    sums = np.add.reduceat(runs, starts)
    if sums[k := np.argmax(sums != total)] != total:
        raise MalformedMaskError(f"runs sum {sums[k]} != width*height {total}")
    # every list sums to total: taking it off each later list's first run restarts the sum
    runs[starts[1:]] -= total
    cuts = np.cumsum(runs, out=runs)
    cuts.flags.writeable = False   # and so is every slice of it
    stops = ends - (lengths & 1)   # an odd list ends in background, closing at total
    views = map(cuts.__getitem__, map(slice, starts.tolist(), stops.tolist()))
    return list(map(_mask, repeat(width), repeat(height), views))


def rle_encode(dense, width: int, height: int) -> Mask:
    """Encode a row-major 0/1 grid into its canonical Mask."""
    total = _frame_pixels(width, height)
    arr = np.asarray(dense)
    if arr.ndim == 2 and arr.shape != (height, width):
        raise DimensionMismatchError(f"grid shape {arr.shape} != ({height}, {width})")
    flat = arr.ravel()
    if flat.size != total:
        raise DimensionMismatchError(f"grid has {flat.size} entries, expected {total}")
    if flat.dtype != bool:
        if np.issubdtype(flat.dtype, np.integer):
            binary = flat.min() >= 0 and flat.max() <= 1
        else:
            binary = ((flat == 0) | (flat == 1)).all()
        if not binary:
            raise MalformedMaskError("grid entries must be 0 or 1")
    return _from_cuts(width, height,
                      _value_cuts(*_label_runs(flat)).get(1, np.empty(0, dtype=np.int64)))


def _label_runs(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A non-empty flat label array's run bounds [0, ..., flat.size] and each run's value."""
    bounds = np.concatenate(([0], np.flatnonzero(flat[1:] != flat[:-1]) + 1, [flat.size]))
    return bounds, flat[bounds[:-1]]


def _value_cuts(bounds: np.ndarray, values: np.ndarray) -> dict[int, np.ndarray]:
    """The cuts of every value's runs, by ascending value, from ``_label_runs``' output.

    One stable sort groups the runs by value and keeps each group in position
    order; each value's cuts are a read-only slice of one interleaved array.
    """
    order = np.argsort(values, kind="stable")
    grouped = values[order]
    first = np.concatenate(([0], np.flatnonzero(grouped[1:] != grouped[:-1]) + 1))
    cuts = _interleave(bounds[:-1][order], bounds[1:][order])
    cuts.flags.writeable = False   # and so is every slice of it
    edges = [*(2 * first).tolist(), len(cuts)]
    return {int(v): cuts[a:b] for v, a, b in zip(grouped[first].tolist(), edges, edges[1:])}


def rle_decode(mask: Mask) -> np.ndarray:
    """Expand a Mask into a height x width uint8 grid."""
    runs = mask.runs
    flat = np.repeat(np.arange(len(runs), dtype=np.uint8) % 2, runs)
    return flat.reshape(mask.height, mask.width)


def area(mask: Mask) -> int:
    """Number of foreground pixels."""
    return mask._area


def _one_size(masks) -> tuple[int, int] | None:
    """The one (width, height) all of ``masks`` share, None if there are none; masks of
    two sizes are a DimensionMismatchError."""
    sizes = {(m.width, m.height) for m in masks}
    if len(sizes) > 1:
        raise DimensionMismatchError(f"mask dimensions differ: {sorted(sizes)}")
    return next(iter(sizes), None)


def _interleave(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    cuts = np.empty(2 * len(starts), dtype=np.int64)
    cuts[0::2], cuts[1::2] = starts, ends
    return cuts


def _pooled(cut_sets, places, stride: int) -> np.ndarray:
    """Every set of ``cut_sets`` moved up by its entry of ``places`` times ``stride``,
    in order, in one array."""
    lengths = np.fromiter(map(len, cut_sets), np.int64, len(cut_sets))
    pooled = np.concatenate([np.empty(0, dtype=np.int64), *cut_sets])
    pooled += np.repeat(np.asarray(places, dtype=np.int64) * stride, lengths)
    return pooled


def _overlaps(a_sets, b_sets, ii, jj, stride: int) -> np.ndarray:
    """Overlap, in pixels, of ``a_sets[ii[k]]`` and ``b_sets[jj[k]]`` for each k.

    Set j of ``b_sets`` is moved up by j times ``stride``, which must exceed
    every cut, so all of them form one sorted list of intervals under one tag.
    Pair k's query, a_sets[ii[k]] moved into b_sets[jj[k]]'s block, can meet
    only that block, so ``_tagged_overlaps``' one column is the pair's overlap.
    """
    ii, jj = np.asarray(ii, dtype=np.int64), np.asarray(jj, dtype=np.int64)
    blocks = _pooled(b_sets, np.arange(len(b_sets)), stride)
    queries = _pooled([a_sets[i] for i in ii.tolist()], jj, stride)
    counts = np.fromiter(map(len, a_sets), np.int64, len(a_sets))[ii] >> 1
    tags = np.zeros(len(blocks) >> 1, dtype=np.int64)
    return _tagged_overlaps(queries, counts, blocks[0::2], blocks[1::2], tags, 1)[:, 0]


def _tagged_overlaps(cuts, counts, starts, ends, tags, n_tags: int) -> np.ndarray:
    """len(counts) x n_tags int64 overlap, in pixels, of each set with the intervals of each tag.

    The sets lie one after another in the interval boundaries ``cuts``, set i
    with ``counts[i]`` intervals.  ``starts`` and ``ends`` bound disjoint
    intervals in ascending order, which may touch; the k-th has the tag
    ``tags[k]`` in [0, n_tags).  Two binary searches find the first and the
    last of them that each interval of the sets meets; the overlaps with those
    and the ones between are summed per (set, tag), at most about ``_CHUNK`` of
    them at a time.  An empty interval, on either side, counts 0.
    """
    out = np.zeros(len(counts) * n_tags, dtype=np.int64)
    if not len(cuts) or not len(starts):
        return out.reshape(len(counts), n_tags)
    lo_at, hi_at = cuts[0::2], cuts[1::2]
    row = np.repeat(np.arange(len(counts)) * n_tags, counts)
    # from the first interval ending after lo_at to the last starting before hi_at
    first = np.searchsorted(ends, lo_at, side="right")
    n = np.maximum(np.searchsorted(starts, hi_at) - first, 0)
    start = np.cumsum(n) - n
    # intervals whose overlaps start in one block of _CHUNK are summed together
    cut = np.flatnonzero(np.diff(start // _CHUNK)) + 1
    for lo, hi in zip([0, *cut.tolist()], [*cut.tolist(), len(n)]):
        q = np.repeat(np.arange(lo, hi), n[lo:hi])
        k = first[q] + np.arange(len(q)) - (start[q] - start[lo])
        np.add.at(out, row[q] + tags[k],
                  np.minimum(hi_at[q], ends[k]) - np.maximum(lo_at[q], starts[k]))
    return out.reshape(len(counts), n_tags)


def intersect_cuts(a: np.ndarray, b: np.ndarray) -> int:
    """Overlap, in pixels, of two foreground interval sets (prefix sums, no decode)."""
    return int(_overlaps([a], [b], [0], [0], 0)[0])   # one pair, so b's block sits at 0


def _sweep(cut_arrays, depth: int) -> np.ndarray:
    """Boundaries of the pixels lying in at least ``depth`` of the interval sets.

    Each set's intervals must be non-empty, and disjoint unless ``depth`` is 1:
    a union may take overlapping intervals in one set.  Starts sort before
    ends at one position, so touching intervals join in a union; the empty
    intervals this leaves where sets only touch are dropped.
    """
    cuts = np.concatenate(cut_arrays)
    if not len(cuts):
        return cuts
    # every set has even length, and a stable sort merges their sorted runs
    keys = np.sort(cuts * 2 + (np.arange(len(cuts)) & 1), kind="stable")
    level = np.cumsum(1 - 2 * (keys & 1))
    enter = np.flatnonzero((level == depth) & ((keys & 1) == 0))
    leave = np.flatnonzero((level == depth - 1) & ((keys & 1) == 1))
    starts, ends = keys[enter] >> 1, keys[leave] >> 1
    keep = starts < ends
    return _interleave(starts[keep], ends[keep])


def iou(a: Mask, b: Mask) -> float:
    """Intersection over union; 0.0 when both masks are empty."""
    _one_size((a, b))
    inter = intersect_cuts(a.foreground_cuts, b.foreground_cuts)
    union = area(a) + area(b) - inter
    if union == 0:
        return 0.0
    return inter / union


def iou_matrix(a, b) -> np.ndarray:
    """len(a) x len(b) float64 IoU of every pair, each equal to ``iou`` bit for bit.

    All masks must share one frame size.  Pairs whose bounding boxes are
    disjoint are 0 untested; the rest are counted by ``_pair_ious``.
    """
    a, b = list(a), list(b)
    out = np.zeros((len(a), len(b)))
    ii, jj = np.nonzero(_meet(_boxes(a)[:, None, :], _boxes(b)[None, :, :]))
    out[ii, jj] = _pair_ious(a, b, ii, jj)
    return out


def _pair_ious(a, b, ii, jj) -> np.ndarray:
    """IoU of masks ``a[ii[k]]`` and ``b[jj[k]]`` for each k, each equal to ``iou`` bit for bit.

    All masks of ``a`` and ``b`` must share one frame size.  The overlaps come
    from one ``_overlaps`` call at a stride of ``width*height + 1``.
    """
    size = _one_size(chain(a, b))
    if not len(ii):
        return np.zeros(0)
    w, h = size
    inter = _overlaps([m.foreground_cuts for m in a], [m.foreground_cuts for m in b],
                      ii, jj, w * h + 1)
    # the callers' _boxes has kept every mask's area
    area_a = np.fromiter((m._area for m in a), np.int64, len(a))
    area_b = np.fromiter((m._area for m in b), np.int64, len(b))
    # int64 to float64 is exact below 2**53, so each quotient is iou's
    return inter / (area_a[ii] + area_b[jj] - inter)


def _boxes(masks) -> np.ndarray:
    """(len(masks), 4) int64 inclusive (x0, y0, x1, y1) foreground bounds.

    An empty mask gets (0, 0, -1, -1), a box that meets nothing.  A mask's box
    and area are computed once in its life: the masks that lack them get both
    from one ``_cut_bounds`` pass and keep them in ``__dict__``, as ``_area``
    keeps a lone area.
    """
    fresh = [m for m in masks if "_box" not in m.__dict__]
    if fresh:
        bounds = _cut_bounds([m.foreground_cuts for m in fresh], [m.width for m in fresh])
        for m, box, area in zip(fresh, map(tuple, bounds[:, :4].tolist()), bounds[:, 4].tolist()):
            m.__dict__.update(_box=box, _area=area)
    return np.array([m._box for m in masks], dtype=np.int64).reshape(len(masks), 4)


def _cut_bounds(cut_sets, widths) -> np.ndarray:
    """(len(cut_sets), 5) int64: each interval set's inclusive (x0, y0, x1, y1) bounds
    in a frame of its entry of ``widths``, then its area.

    An empty set gets (0, 0, -1, -1, 0).
    """
    n = np.fromiter(map(len, cut_sets), np.int64, len(cut_sets)) // 2
    out = np.empty((len(cut_sets), 5), dtype=np.int64)
    out[:] = 0, 0, -1, -1, 0
    full = np.flatnonzero(n)
    if not len(full):
        return out
    w = np.repeat(widths, n)
    cuts = np.concatenate(cut_sets)
    row_s, x_s = np.divmod(cuts[0::2], w)
    row_e, x_e = np.divmod(cuts[1::2] - 1, w)   # ends inclusive
    wraps = row_e > row_s   # a run wrapping rows spans the full width
    first = (np.cumsum(n) - n)[full]   # each non-empty set's first run; runs are sorted
    out[full, 0] = np.minimum.reduceat(np.where(wraps, 0, x_s), first)
    out[full, 1] = row_s[first]
    out[full, 2] = np.maximum.reduceat(np.where(wraps, w - 1, x_e), first)
    out[full, 3] = row_e[first + n[full] - 1]
    out[full, 4] = np.add.reduceat(cuts[1::2] - cuts[0::2], first)
    return out


def _meet(ba: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """Whether the boxes of ``ba`` and ``bb``, (..., 4) arrays that broadcast, share a pixel."""
    return ((ba[..., 0] <= bb[..., 2]) & (bb[..., 0] <= ba[..., 2])
            & (ba[..., 1] <= bb[..., 3]) & (bb[..., 1] <= ba[..., 3]))


def _box_iou(ba: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """IoU of the boxes of ``ba`` and ``bb``, (..., 4) arrays that broadcast; 0 where
    they share no pixel."""
    ix = np.minimum(ba[..., 2], bb[..., 2]) - np.maximum(ba[..., 0], bb[..., 0]) + 1
    iy = np.minimum(ba[..., 3], bb[..., 3]) - np.maximum(ba[..., 1], bb[..., 1]) + 1
    inter = np.maximum(ix, 0) * np.maximum(iy, 0)

    def box_area(x):
        return (x[..., 2] - x[..., 0] + 1) * (x[..., 3] - x[..., 1] + 1)

    return np.divide(inter, box_area(ba) + box_area(bb) - inter,
                     out=np.zeros(inter.shape), where=inter > 0)


def _row_runs(cuts: np.ndarray, width: int):
    """Foreground intervals split at row ends, as (row, x_start, x_end, interval) arrays.

    x_end is exclusive; ``interval`` is the index of the interval each piece comes from.
    """
    starts, ends = cuts[0::2], cuts[1::2]
    first = starts // width
    n = (ends - 1) // width - first + 1
    piece = np.repeat(np.arange(len(starts)), n)
    rows = first[piece] + np.arange(len(piece)) - np.repeat(np.cumsum(n) - n, n)
    row_start = rows * width
    x0 = np.maximum(starts[piece], row_start) - row_start
    x1 = np.minimum(ends[piece], row_start + width) - row_start
    return rows, x0, x1, piece


def _translate_cuts(cut_sets, shifts, w: int, h: int) -> list[np.ndarray]:
    """Each interval set of ``cut_sets``, of a w x h frame, shifted by its own (dx, dy) of
    ``shifts`` and clipped to the frame; pieces of a set that a shift joins at a row seam
    merge again.  The shifted sets are read-only views of one array."""
    if not cut_sets:
        return []
    n = np.fromiter(map(len, cut_sets), np.int64, len(cut_sets)) // 2
    rows, x0, x1, piece = _row_runs(np.concatenate(cut_sets), w)
    owner = np.repeat(np.arange(len(cut_sets)), n)[piece]
    dx, dy = np.array(shifts, dtype=np.int64).reshape(len(cut_sets), 2)[owner].T
    rows = rows + dy
    x0, x1 = np.clip(x0 + dx, 0, w), np.clip(x1 + dx, 0, w)
    keep = (rows >= 0) & (rows < h) & (x0 < x1)
    row_start, owner = rows[keep] * w, owner[keep]
    cuts = _interleave(row_start + x0[keep], row_start + x1[keep])
    # a piece ending where the next piece of its set starts (at a row seam) joins it
    seam = np.flatnonzero((cuts[1:-1:2] == cuts[2::2]) & (owner[:-1] == owner[1:]))
    joined = np.ones(len(cuts), dtype=bool)
    joined[2 * seam + 1] = joined[2 * seam + 2] = False
    cuts = cuts[joined]
    pieces = (np.bincount(owner, minlength=len(cut_sets))
              - np.bincount(owner[seam], minlength=len(cut_sets)))
    edges = np.concatenate(([0], np.cumsum(2 * pieces))).tolist()
    cuts.flags.writeable = False   # and so is every slice of it
    return [cuts[a:b] for a, b in zip(edges, edges[1:])]


def _boundaries(masks, cols: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Every mask's 4-connected boundary pixels, sorted, in one padded layout, and their counts.

    A boundary pixel is a foreground pixel with a background or out-of-image
    neighbor.  The masks share one w x h frame; pixel (x, y) of mask k sits at
    ``(k * (h + rows) + y) * (w + cols) + x``, so blank pixels end each row and
    ``rows`` >= 1 blank rows, the out-of-image neighbors, end each frame.  The
    interior is the row pieces shrunk by one pixel and moved one row up and down.
    """
    w, h = masks[0].width, masks[0].height
    pitch = w + cols
    y, x0, x1, _ = _row_runs(_pooled([m.foreground_cuts for m in masks],
                                     np.arange(len(masks)), w * h), w)
    start = (y + y // h * rows) * pitch
    pieces = _interleave(start + x0, start + x1)
    shrunk = (pieces.reshape(-1, 2)[x1 - x0 > 2] + (1, -1)).ravel()
    interior = _sweep([shrunk, pieces + pitch, pieces - pitch], 3)
    # the interior lies strictly inside the pieces, so merging the two boundary lists
    # gives the pieces minus the interior
    edges = np.sort(np.concatenate((pieces, interior)), kind="stable")
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    points = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
    frames = np.arange(len(masks) + 1) * ((h + rows) * pitch)
    return points, np.diff(np.searchsorted(points, frames))


def mask_from_cuts(cuts: np.ndarray, width: int, height: int) -> Mask:
    """Build a Mask from foreground interval boundaries [s0,e0,s1,e1,...].

    The cuts must come in pairs, never decreasing, within [0, width*height];
    intervals may be empty or touch, and the mask is their union.  It keeps
    its own copy.
    """
    total = _frame_pixels(width, height)
    cuts = np.array(cuts, dtype=np.int64)
    least = (cuts[1:] - cuts[:-1]).min(initial=1)   # the smallest step, 1 if none
    if len(cuts) % 2 or least < 0 or len(cuts) and (cuts[0] < 0 or cuts[-1] > total):
        raise MalformedMaskError(f"cuts must be pairs never decreasing in [0, {total}]")
    if least == 0:
        # intervals that at most touch: a point bounds their union iff it occurs
        # an odd number of times
        values, counts = np.unique(cuts, return_counts=True)
        cuts = values[(counts & 1) == 1]
    return _from_cuts(width, height, cuts)

"""Deterministic synthetic sequences: moving shapes, ground truth, corrupted detections.

Objects follow linear trajectories with boundary reflection; later-indexed
objects occlude earlier ones where they overlap, and occlusion events blank an
object entirely for a frame span.  Ground-truth tracks are read back from the
painted label maps, so the two are consistent by construction.

All randomness comes from numpy PCG64 generators keyed on the config seed; the
exact stream layout is documented in the README so identical seeds reproduce
byte-identical outputs anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mask import Mask, _boxes, mask_from_cuts, translate
from .metrics import GroundTruthSequence
from .tracker import Detection, Track


class PlacementError(ValueError):
    """The canvas cannot hold an object of the requested size."""


_MIN_OBJECT = 3


@dataclass(frozen=True)
class NoiseConfig:
    jitter_px: int = 0
    score_mean: float = 1.0
    score_spread: float = 0.0
    fp_rate: float = 0.0
    fn_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.jitter_px < 0:
            raise ValueError("jitter_px must be >= 0")
        for name in ("fp_rate", "fn_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.score_spread < 0:
            raise ValueError("score_spread must be >= 0")


@dataclass(frozen=True)
class OcclusionEvent:
    object_index: int       # 0-based; label id is object_index + 1
    start_frame: int
    duration: int


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    frames: int
    width: int
    height: int
    objects: int = 1
    shape: str = "rectangle"
    velocity: tuple[float, float] = (1.0, 3.0)
    object_size: tuple[int, int] | None = None   # side-length range; default scales with canvas
    occlusions: tuple[OcclusionEvent, ...] = ()
    noise: NoiseConfig = NoiseConfig()

    def __post_init__(self) -> None:
        if self.frames < 1 or self.width < 1 or self.height < 1 or self.objects < 1:
            raise ValueError("frames, width, height and objects must be positive")
        if self.shape not in ("rectangle", "ellipse"):
            raise ValueError(f"unknown shape {self.shape!r}")
        lo, hi = self.velocity
        if lo < 0 or hi < lo:
            raise ValueError(f"bad velocity range {self.velocity}")
        if self.object_size is not None:
            s_lo, s_hi = self.object_size
            if s_lo < _MIN_OBJECT or s_hi < s_lo:
                raise ValueError(f"bad object_size range {self.object_size}")


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _advance(pos: float, vel: float, hi: float) -> tuple[float, float]:
    if hi <= 0:
        return 0.0, 0.0
    pos += vel
    while pos < 0 or pos > hi:
        if pos < 0:
            pos, vel = -pos, -vel
        else:
            pos, vel = 2 * hi - pos, -vel
    return pos, vel


def _paint(label: np.ndarray, x0: int, y0: int, w: int, h: int,
           value: int, shape: str) -> None:
    if shape == "rectangle":
        label[y0:y0 + h, x0:x0 + w] = value
        return
    yy, xx = np.ogrid[0:h, 0:w]
    inside = (((xx + 0.5 - w / 2) / (w / 2)) ** 2
              + ((yy + 0.5 - h / 2) / (h / 2)) ** 2) <= 1.0
    patch = label[y0:y0 + h, x0:x0 + w]
    patch[inside] = value


def generate(cfg: SynthConfig) -> tuple[GroundTruthSequence, list[Track]]:
    """Render the configured sequence into label maps plus ground-truth tracks."""
    if cfg.object_size is not None:
        size_lo, size_hi = cfg.object_size
    else:
        size_lo = _MIN_OBJECT
        size_hi = max(_MIN_OBJECT, min(cfg.width, cfg.height) // 3)
    if size_hi > min(cfg.width, cfg.height):
        raise PlacementError(
            f"canvas {cfg.width}x{cfg.height} cannot hold a {size_hi}px object"
        )
    rng = _rng(cfg.seed, 0)
    sizes, positions, velocities = [], [], []
    for _ in range(cfg.objects):
        w = int(rng.integers(size_lo, size_hi + 1))
        h = int(rng.integers(size_lo, size_hi + 1))
        sizes.append((w, h))
        positions.append([rng.uniform(0, cfg.width - w), rng.uniform(0, cfg.height - h)])
        speed = rng.uniform(cfg.velocity[0], cfg.velocity[1], 2)
        sign = rng.integers(0, 2, 2) * 2 - 1
        velocities.append([float(speed[0] * sign[0]), float(speed[1] * sign[1])])

    hidden: dict[int, set[int]] = {}
    for ev in cfg.occlusions:
        hidden.setdefault(ev.object_index, set()).update(
            range(ev.start_frame, ev.start_frame + ev.duration)
        )

    labels: dict[int, np.ndarray] = {}
    for f in range(cfg.frames):
        label = np.zeros((cfg.height, cfg.width), dtype=np.int32)
        for i in range(cfg.objects):
            if f in hidden.get(i, ()):
                continue
            w, h = sizes[i]
            x0 = int(positions[i][0] + 0.5)
            y0 = int(positions[i][1] + 0.5)
            _paint(label, x0, y0, w, h, i + 1, cfg.shape)
        labels[f] = label
        for i in range(cfg.objects):
            w, h = sizes[i]
            positions[i][0], velocities[i][0] = _advance(
                positions[i][0], velocities[i][0], cfg.width - w)
            positions[i][1], velocities[i][1] = _advance(
                positions[i][1], velocities[i][1], cfg.height - h)

    gt = GroundTruthSequence(cfg.width, cfg.height, labels)
    tracks = [Track(r.id, tuple(Detection(f, 1.0, m) for f, m in r.frames.items()))
              for r in gt.regions()]
    return gt, tracks


def _box_mask(box: tuple[int, int, int, int], width: int, height: int) -> Mask:
    x0, y0, x1, y1 = box
    row_start = np.arange(y0, y1 + 1, dtype=np.int64) * width
    cuts = np.empty(2 * len(row_start), dtype=np.int64)
    cuts[0::2], cuts[1::2] = row_start + x0, row_start + x1 + 1
    return mask_from_cuts(cuts, width, height)


def _boxes_overlap(a, b) -> bool:
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def _place_spurious(rng: np.random.Generator, width: int, height: int,
                    taken_boxes) -> tuple[int, int, int, int] | None:
    hi = max(_MIN_OBJECT, min(width, height) // 4)
    w = int(rng.integers(_MIN_OBJECT, hi + 1))
    h = int(rng.integers(_MIN_OBJECT, hi + 1))
    if w > width or h > height:
        return None
    for _ in range(20):
        x0 = int(rng.integers(0, width - w + 1))
        y0 = int(rng.integers(0, height - h + 1))
        box = (x0, y0, x0 + w - 1, y0 + h - 1)
        if not any(_boxes_overlap(box, t) for t in taken_boxes):
            return box
    for y0 in range(0, height - h + 1, max(1, h // 2)):
        for x0 in range(0, width - w + 1, max(1, w // 2)):
            box = (x0, y0, x0 + w - 1, y0 + h - 1)
            if not any(_boxes_overlap(box, t) for t in taken_boxes):
                return box
    return None


def corrupt(gt: GroundTruthSequence, noise: NoiseConfig, seed: int
            ) -> dict[int, list[Detection]]:
    """Derive detections from ground truth with controlled degradation.

    Per object and frame: jitter the mask, draw a score, possibly drop it
    (false negative).  Per frame, with the configured rate, add one spurious
    detection placed disjoint from every true object so false positives are
    exactly accountable.  Separate PCG64 streams drive object noise, the
    false-positive gate, and per-frame placement; raising fp_rate therefore
    only adds detections without disturbing the rest.
    """
    rng_obj = _rng(seed, 1)
    rng_fp = _rng(seed, 2)
    out: dict[int, list[Detection]] = {}
    for f in gt.eval_frames():
        dets: list[Detection] = []
        masks = gt.instance_masks(f)
        true_boxes = _boxes(masks).tolist()
        for mask in masks:
            if noise.jitter_px > 0:
                dx = int(rng_obj.integers(-noise.jitter_px, noise.jitter_px + 1))
                dy = int(rng_obj.integers(-noise.jitter_px, noise.jitter_px + 1))
            else:
                dx = dy = 0
            score = noise.score_mean
            if noise.score_spread > 0:
                score += float(rng_obj.uniform(-noise.score_spread, noise.score_spread))
            score = min(1.0, max(0.0, score))
            dropped = noise.fn_rate > 0 and rng_obj.random() < noise.fn_rate
            if dropped:
                continue
            shifted = translate(mask, dx, dy)
            if not shifted.is_empty:
                dets.append(Detection(f, score, shifted))
        if noise.fp_rate > 0 and rng_fp.random() < noise.fp_rate:
            rng_place = _rng(seed, 3, f)
            box = _place_spurious(rng_place, gt.width, gt.height, true_boxes)
            if box is not None:
                score = noise.score_mean
                if noise.score_spread > 0:
                    score += float(rng_place.uniform(-noise.score_spread, noise.score_spread))
                dets.append(Detection(f, min(1.0, max(0.0, score)),
                                      _box_mask(box, gt.width, gt.height)))
        out[f] = dets
    return out

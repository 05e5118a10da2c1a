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

import math
import sys
from dataclasses import dataclass

import numpy as np

from .mask import (Mask, _cut_bounds, _frame_pixels, _is_int, _label_runs, _mask, _meet,
                   _translate_cuts, mask_from_cuts)
from .metrics import GroundTruthSequence
from .tracker import Detection, Track, _detection, _require


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
        _require(self, math.isfinite, "finite", "score_mean", "score_spread", "fp_rate", "fn_rate")
        _require(self, _is_int, "an integer", "jitter_px")
        # rng.integers' bounds and _translate_cuts' row and column sums stay in int64
        if not 0 <= self.jitter_px <= 2**62:
            raise ValueError(f"jitter_px must lie in [0, 2**62], got {self.jitter_px}")
        for name in ("fp_rate", "fn_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        # rng.uniform's range, twice the spread, must be a finite float
        if not 0 <= self.score_spread <= sys.float_info.max / 2:
            raise ValueError("score_spread must lie in [0, sys.float_info.max / 2], "
                             f"got {self.score_spread}")


@dataclass(frozen=True)
class OcclusionEvent:
    object_index: int       # 0-based; label id is object_index + 1
    start_frame: int
    duration: int

    def __post_init__(self) -> None:
        _require(self, _is_int, "an integer", "object_index", "start_frame", "duration")


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
        # the seed is a SeedSequence key
        for name, least in (("seed", 0), ("frames", 1), ("width", 1), ("height", 1),
                            ("objects", 1)):
            _require(self, _is_int, "an integer", name)   # 2.5, "32" and True are not rounded
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        _frame_pixels(self.width, self.height)   # the readers' frame-size rule
        if self.objects > 65535:   # the largest label a PGM map holds
            raise ValueError(f"objects must be at most 65535, got {self.objects}")
        if self.shape not in ("rectangle", "ellipse"):
            raise ValueError(f"unknown shape {self.shape!r}")
        _require(self, math.isfinite, "finite", "velocity")
        lo, hi = self.velocity
        if lo < 0 or hi < lo:
            raise ValueError(f"bad velocity range {self.velocity}")
        if self.object_size is not None:
            _require(self, _is_int, "an integer", "object_size")
        s_lo, s_hi = self._size_range()
        if s_lo < _MIN_OBJECT or s_hi < s_lo:
            raise ValueError(f"bad object_size range {self.object_size}")
        if s_hi > min(self.width, self.height):
            raise PlacementError(
                f"canvas {self.width}x{self.height} cannot hold a {s_hi}px object")
        # an event outside the objects or frames, or of no frames, would occlude nothing
        for k, ev in enumerate(self.occlusions):
            for name, value, end in (("object_index", ev.object_index, self.objects),
                                     ("start_frame", ev.start_frame, self.frames)):
                if not 0 <= value < end:
                    raise ValueError(f"occlusions[{k}].{name} must lie in [0, {end}), got {value}")
            if ev.duration < 1:
                raise ValueError(f"occlusions[{k}].duration must be at least 1, got {ev.duration}")

    def _size_range(self) -> tuple[int, int]:
        """Side lengths objects draw from: object_size, or 3 px to a third of the canvas."""
        if self.object_size is not None:
            return self.object_size
        return _MIN_OBJECT, max(_MIN_OBJECT, min(self.width, self.height) // 3)


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _advance(pos: float, vel: float, hi: float) -> tuple[float, float]:
    if hi <= 0:
        return 0.0, 0.0
    pos += vel
    if abs(vel) > hi:   # reflection repeats every 2*hi: fold long moves exactly
        pos = math.fmod(pos, 2 * hi)
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
    size_lo, size_hi = cfg._size_range()
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

    runs = {}
    # one canvas for every frame, as narrow as the labels allow; the runs keep int32 labels
    label = np.empty((cfg.height, cfg.width), dtype=np.min_scalar_type(cfg.objects))
    for f in range(cfg.frames):
        label.fill(0)
        for i in range(cfg.objects):
            if f in hidden.get(i, ()):
                continue
            w, h = sizes[i]
            x0 = int(positions[i][0] + 0.5)
            y0 = int(positions[i][1] + 0.5)
            _paint(label, x0, y0, w, h, i + 1, cfg.shape)
        bounds, values = _label_runs(label.ravel())
        runs[f] = bounds, values.astype(np.int32)
        for i in range(cfg.objects):
            w, h = sizes[i]
            positions[i][0], velocities[i][0] = _advance(
                positions[i][0], velocities[i][0], cfg.width - w)
            positions[i][1], velocities[i][1] = _advance(
                positions[i][1], velocities[i][1], cfg.height - h)

    gt = GroundTruthSequence._from_runs(cfg.width, cfg.height, runs)
    return gt, gt.tracks()


def _box_mask(box: tuple[int, int, int, int], width: int, height: int) -> Mask:
    x0, y0, x1, y1 = box
    row_start = np.arange(y0, y1 + 1, dtype=np.int64) * width
    cuts = np.empty(2 * len(row_start), dtype=np.int64)
    cuts[0::2], cuts[1::2] = row_start + x0, row_start + x1 + 1
    return mask_from_cuts(cuts, width, height)


def _place_spurious(rng: np.random.Generator, width: int, height: int,
                    taken_boxes) -> tuple[int, int, int, int] | None:
    hi = max(_MIN_OBJECT, min(width, height) // 4)
    w = int(rng.integers(_MIN_OBJECT, hi + 1))
    h = int(rng.integers(_MIN_OBJECT, hi + 1))
    if w > width or h > height:
        return None
    taken = np.array(taken_boxes, dtype=np.int64).reshape(-1, 4)
    for _ in range(20):
        x0 = int(rng.integers(0, width - w + 1))
        y0 = int(rng.integers(0, height - h + 1))
        box = (x0, y0, x0 + w - 1, y0 + h - 1)
        if not _meet(np.array(box), taken).any():
            return box
    for y0 in range(0, height - h + 1, max(1, h // 2)):
        for x0 in range(0, width - w + 1, max(1, w // 2)):
            box = (x0, y0, x0 + w - 1, y0 + h - 1)
            if not _meet(np.array(box), taken).any():
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
    if not _is_int(seed) or seed < 0:   # SynthConfig's seed rule
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    rng_obj = _rng(seed, 1)
    rng_fp = _rng(seed, 2)
    w, h = gt.width, gt.height
    out: dict[int, list[Detection]] = {}
    for f in gt.eval_frames():
        objects = gt._instance_cuts(f)
        true_boxes = _cut_bounds(objects, [w] * len(objects))[:, :4].tolist()
        kept, shifts, scores = [], [], []
        for cuts in objects:
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
            if not dropped:
                kept.append(cuts)
                shifts.append((dx, dy))
                scores.append(score)
        # scores are clamped into [0, 1] and empty shifts dropped: Detection's checks hold
        dets = [_detection(f, score, _mask(w, h, shifted))
                for score, shifted in zip(scores, _translate_cuts(kept, shifts, w, h))
                if len(shifted)]
        if noise.fp_rate > 0 and rng_fp.random() < noise.fp_rate:
            rng_place = _rng(seed, 3, f)
            box = _place_spurious(rng_place, w, h, true_boxes)
            if box is not None:
                score = noise.score_mean
                if noise.score_spread > 0:
                    score += float(rng_place.uniform(-noise.score_spread, noise.score_spread))
                dets.append(_detection(f, min(1.0, max(0.0, score)), _box_mask(box, w, h)))
        out[f] = dets
    return out

"""Overlap-based multi-object tracker.

Detections are gated by score, then associated frame by frame: the benefit of
linking a track to a detection is the mask IoU between the track's most recent
segmentation and the detection, and the per-frame association is a maximum
Hungarian matching.  Unmatched high-scoring moving detections open new tracks;
tracks idle longer than the inactivity budget are retired, which no state
records: frames only move forward, so idle time only grows.  An optional
backward pass extends each track before its first frame, which lets static
detections of an object be attached before it starts moving.  Both passes keep
each track's entries in a list and build every ``Track`` once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .assign import solve_max_assignment
# the tracker calls only iou_matrix; iou stays bound because bench/spans.py wraps
# tracker.iou, so the bench's tracker.iou_pairs count reads 0
from .mask import Mask, _is_int, iou, iou_matrix  # noqa: F401


def _require(config, test, kind: str, *names: str) -> None:
    """Raise a ValueError naming the first of the fields ``names`` whose value, or an item
    of its tuple, fails ``test``; ``kind`` says what each must be."""
    for name in names:
        value = getattr(config, name)
        if not all(map(test, value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class TrackerConfig:
    alpha_high: float = 0.9
    alpha_low: float = 0.7
    t_inactive: int = 10
    min_match_iou: float = 1e-9
    static_overlap_iou: float = 0.5

    def __post_init__(self) -> None:
        _require(self, math.isfinite, "finite", "alpha_high", "alpha_low", "min_match_iou",
                 "static_overlap_iou")
        _require(self, _is_int, "an integer", "t_inactive")   # 2.5 and True are not rounded
        if not (self.alpha_low <= self.alpha_high):
            raise ValueError(
                f"alpha_low ({self.alpha_low}) must not exceed alpha_high ({self.alpha_high})"
            )
        if self.t_inactive < 0:
            raise ValueError("t_inactive must be >= 0")
        if self.min_match_iou < 0:
            raise ValueError("min_match_iou must be >= 0")


@dataclass(frozen=True)
class Detection:
    frame: int
    score: float
    mask: Mask
    kind: str = "moving"

    def __post_init__(self) -> None:
        # the readers' rules: an int frame and an int or float score, never a bool; a
        # numpy scalar becomes the Python number it holds, which the writers write
        if not _is_int(self.frame):
            raise ValueError(f"detection frame must be an integer, got {self.frame!r}")
        object.__setattr__(self, "frame", int(self.frame))
        if isinstance(self.score, (np.integer, np.floating)):
            object.__setattr__(self, "score", self.score.item())
        if isinstance(self.score, bool) or not isinstance(self.score, (int, float)):
            raise ValueError(f"detection score must be a real number, got {self.score!r}")
        if not 0 <= self.score <= 1:   # nan too
            raise ValueError(f"detection score must lie in [0, 1], got {self.score!r}")
        if self.kind not in ("moving", "static"):
            raise ValueError(f"unknown detection kind {self.kind!r}")
        if self.mask.is_empty:
            raise ValueError("detection mask must be non-empty")


@dataclass(frozen=True)
class Track:
    """A sequence of linked detections under one identity."""

    id: int
    entries: tuple[Detection, ...]

    def __post_init__(self) -> None:
        if not _is_int(self.id):   # the readers' rule; a numpy int becomes the int it holds
            raise ValueError(f"track id must be an integer, got {self.id!r}")
        object.__setattr__(self, "id", int(self.id))
        if not self.entries:
            raise ValueError("track must contain at least one detection")
        frames = [d.frame for d in self.entries]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("track frames must be strictly increasing")

    @property
    def last_active_frame(self) -> int:
        return self.entries[-1].frame

    @property
    def first_frame(self) -> int:
        return self.entries[0].frame


# The unchecked constructors set each field as the dataclass __init__ does, so their
# objects keep the checked ones' compact layout; filling __dict__ would double a
# Detection's size.

def _detection(frame: int, score: float, mask: Mask, kind: str = "moving") -> Detection:
    """A Detection of fields that already pass ``Detection``'s checks, built unchecked."""
    det, set_field = object.__new__(Detection), object.__setattr__
    set_field(det, "frame", frame)
    set_field(det, "score", score)
    set_field(det, "mask", mask)
    set_field(det, "kind", kind)
    return det


def _track(id: int, entries: tuple[Detection, ...]) -> Track:
    """A Track of entries already known non-empty and in strictly increasing frames,
    built unchecked."""
    track, set_field = object.__new__(Track), object.__setattr__
    set_field(track, "id", id)
    set_field(track, "entries", entries)
    return track


def gate(dets: Sequence[Detection], cfg: TrackerConfig) -> list[Detection]:
    """Drop detections scoring below alpha_low (boundary scores survive)."""
    return [d for d in dets if d.score >= cfg.alpha_low]


def _matches(masks: Sequence[Mask], dets: Sequence[Detection],
             cfg: TrackerConfig) -> list[tuple[int, int]]:
    """(mask index, detection index) pairs of the maximum IoU assignment whose IoU
    exceeds ``min_match_iou``."""
    benefit = iou_matrix(masks, [d.mask for d in dets])
    return [(i, j) for i, j in solve_max_assignment(benefit).pairs
            if benefit[i, j] > cfg.min_match_iou]


def _frame_of(frame_dets: Sequence[Detection], frame: int | None) -> int:
    """The one frame all of ``frame_dets`` come from, which must equal ``frame`` if given."""
    frames = {d.frame for d in frame_dets}
    if len(frames) > 1:
        raise ValueError(f"detections span several frames: {sorted(frames)}")
    if frame is None:
        if not frames:
            raise ValueError("cannot infer frame from an empty detection list")
        return frames.pop()
    if frames and frames != {frame}:
        raise ValueError(f"detections are for frame {frames.pop()}, expected {frame}")
    return frame


def _advance(ids: list[int], entries: list[list[Detection]], frame: int,
             dets: Sequence[Detection], cfg: TrackerConfig) -> None:
    """Move the tracks held as ``ids`` and their ``entries`` on to ``frame``, in place.

    A track idle (fully missed) for at most ``t_inactive`` frames before ``frame``
    is extended by the detection it is matched to; unmatched high-scoring moving
    detections open tracks, numbered on from the largest id.
    """
    live = [k for k, es in enumerate(entries) if frame - es[-1].frame - 1 <= cfg.t_inactive]
    matched = set()
    for i, j in _matches([entries[k][-1].mask for k in live], dets, cfg):
        entries[live[i]].append(dets[j])
        matched.add(j)
    next_id = max(ids, default=0) + 1
    for j, d in enumerate(dets):
        if j not in matched and d.kind == "moving" and d.score >= cfg.alpha_high:
            ids.append(next_id)
            entries.append([d])
            next_id += 1


def step(tracks: Sequence[Track], frame_dets: Sequence[Detection],
         cfg: TrackerConfig, frame: int | None = None) -> list[Track]:
    """Advance one frame: associate, extend, and open tracks.

    All detections must come from a single frame strictly after every track's
    last entry.  New ids continue from the largest existing id.
    """
    frame = _frame_of(frame_dets, frame)
    for t in tracks:
        if t.last_active_frame >= frame:
            raise ValueError(
                f"frame {frame} is not after track {t.id} (last entry {t.last_active_frame})"
            )
    ids, entries = [t.id for t in tracks], [list(t.entries) for t in tracks]
    _advance(ids, entries, frame, frame_dets, cfg)
    return [_track(i, tuple(es)) for i, es in zip(ids, entries)]


def track_sequence(dets_by_frame: Mapping[int, Sequence[Detection]],
                   cfg: TrackerConfig | None = None) -> list[Track]:
    """Gate, then walk the per-frame association over the whole sequence."""
    cfg = cfg or TrackerConfig()
    ids, entries = [], []   # the tracks' ids, and each one's entries in a list
    for frame in sorted(dets_by_frame):
        kept = gate(dets_by_frame[frame], cfg)
        if kept:
            _advance(ids, entries, _frame_of(kept, frame), kept, cfg)
    return [_track(i, tuple(es)) for i, es in zip(ids, entries)]


def merge_moving_static(moving: Mapping[int, Sequence[Detection]],
                        static: Mapping[int, Sequence[Detection]],
                        cfg: TrackerConfig | None = None) -> dict[int, list[Detection]]:
    """Gate both streams, then drop static detections overlapping a moving one.

    Only moving detections that pass the gate can suppress a static one.
    Downstream, surviving static detections may extend tracks but never open
    them.
    """
    cfg = cfg or TrackerConfig()
    merged: dict[int, list[Detection]] = {}
    for frame in sorted(set(moving) | set(static)):
        movers = gate(moving.get(frame, ()), cfg)
        statics = gate(static.get(frame, ()), cfg)
        overlap = iou_matrix([s.mask for s in statics], [m.mask for m in movers])
        keep = [s for s, row in zip(statics, overlap)
                if (row <= cfg.static_overlap_iou).all()]
        merged[frame] = movers + keep
    return merged


def bidirectional_track(moving: Mapping[int, Sequence[Detection]],
                        static: Mapping[int, Sequence[Detection]],
                        cfg: TrackerConfig) -> list[Track]:
    """Forward tracking, then a backward pass that only extends existing tracks.

    The backward pass walks frames in reverse; each forward track becomes
    matchable below its first frame, seeded with its earliest mask, and
    accretes leftover (typically static) detections.  Forward ids are kept and
    no new identities appear.
    """
    merged = merge_moving_static(moving, static, cfg)
    forward = track_sequence(merged, cfg)
    used = {id(d) for t in forward for d in t.entries}
    heads = [t.entries[0] for t in forward]   # each track's earliest entry so far
    earlier: list[list[Detection]] = [[] for _ in forward]   # latest first
    for frame in sorted(merged, reverse=True):
        cands = [d for d in merged[frame] if id(d) not in used]
        # a head at or before ``frame`` is a track the walk has not reached yet
        live = [k for k, d in enumerate(heads) if 0 <= d.frame - frame - 1 <= cfg.t_inactive]
        if cands and live:
            for i, j in _matches([heads[k].mask for k in live], cands, cfg):
                heads[live[i]] = cands[j]
                earlier[live[i]].append(cands[j])
    return [_track(t.id, (*extra[::-1], *t.entries)) if extra else t
            for t, extra in zip(forward, earlier)]

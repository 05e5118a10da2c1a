"""Overlap-based multi-object tracker.

Detections are gated by score, then associated frame by frame: the benefit of
linking a track to a detection is the mask IoU between the track's most recent
segmentation and the detection, and the per-frame association is a maximum
Hungarian matching.  Unmatched high-scoring moving detections open new tracks;
tracks idle longer than the inactivity budget are retired.  An optional
backward pass extends each track before its first frame, which lets static
detections of an object be attached before it starts moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .assign import solve_max_assignment
# the tracker calls only iou_matrix; iou stays bound because bench/spans.py wraps
# tracker.iou, so the bench's tracker.iou_pairs count reads 0
from .mask import Mask, iou, iou_matrix  # noqa: F401


def _require_finite(config, *names: str) -> None:
    """Raise a ValueError naming the first of the fields ``names`` that holds nan or inf."""
    for name in names:
        value = getattr(config, name)
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TrackerConfig:
    alpha_high: float = 0.9
    alpha_low: float = 0.7
    t_inactive: int = 10
    min_match_iou: float = 1e-9
    static_overlap_iou: float = 0.5

    def __post_init__(self) -> None:
        _require_finite(self, "alpha_high", "alpha_low", "min_match_iou", "static_overlap_iou")
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
        if not math.isfinite(self.score):
            raise ValueError("detection score must be finite")
        if self.kind not in ("moving", "static"):
            raise ValueError(f"unknown detection kind {self.kind!r}")
        if self.mask.is_empty:
            raise ValueError("detection mask must be non-empty")


@dataclass(frozen=True)
class Track:
    """A sequence of linked detections under one identity."""

    id: int
    entries: tuple[Detection, ...]
    state: str = "active"

    def __post_init__(self) -> None:
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

    @property
    def last_mask(self) -> Mask:
        return self.entries[-1].mask


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


def _track(id: int, entries: tuple[Detection, ...], state: str = "active") -> Track:
    """A Track of entries already known non-empty and in strictly increasing frames,
    built unchecked."""
    track, set_field = object.__new__(Track), object.__setattr__
    set_field(track, "id", id)
    set_field(track, "entries", entries)
    set_field(track, "state", state)
    return track


def gate(dets: Sequence[Detection], cfg: TrackerConfig) -> list[Detection]:
    """Drop detections scoring below alpha_low (boundary scores survive)."""
    return [d for d in dets if d.score >= cfg.alpha_low]


def _eligible(track: Track, frame: int, cfg: TrackerConfig) -> bool:
    # idle frames are the fully missed ones between the last entry and `frame`
    return track.state == "active" and (frame - track.last_active_frame - 1) <= cfg.t_inactive


def step(tracks: Sequence[Track], frame_dets: Sequence[Detection],
         cfg: TrackerConfig, frame: int | None = None) -> list[Track]:
    """Advance one frame: associate, extend, retire, and open tracks.

    All detections must come from a single frame strictly after every track's
    last entry.  New ids continue from the largest existing id.
    """
    frames = {d.frame for d in frame_dets}
    if len(frames) > 1:
        raise ValueError(f"detections span several frames: {sorted(frames)}")
    if frame is None:
        if not frames:
            raise ValueError("cannot infer frame from an empty detection list")
        frame = frames.pop()
    elif frames and frames != {frame}:
        raise ValueError(f"detections are for frame {frames.pop()}, expected {frame}")
    for t in tracks:
        if t.last_active_frame >= frame:
            raise ValueError(
                f"frame {frame} is not after track {t.id} (last entry {t.last_active_frame})"
            )

    updated: dict[int, Track] = {}
    candidates: list[Track] = []
    for t in tracks:
        if _eligible(t, frame, cfg):
            candidates.append(t)
            updated[t.id] = t
        else:
            updated[t.id] = t if t.state == "inactive" else _track(t.id, t.entries, "inactive")

    benefit = iou_matrix([t.last_mask for t in candidates], [d.mask for d in frame_dets])
    matched_dets: set[int] = set()
    for i, j in solve_max_assignment(benefit).pairs:
        if benefit[i, j] > cfg.min_match_iou:
            t = candidates[i]
            # every entry precedes ``frame``, checked above
            updated[t.id] = _track(t.id, (*t.entries, frame_dets[j]), t.state)
            matched_dets.add(j)

    result = [updated[t.id] for t in tracks]
    next_id = max((t.id for t in tracks), default=0) + 1
    for j, d in enumerate(frame_dets):
        if j in matched_dets:
            continue
        if d.kind == "moving" and d.score >= cfg.alpha_high:
            result.append(Track(next_id, (d,)))
            next_id += 1
    return result


def track_sequence(dets_by_frame: Mapping[int, Sequence[Detection]],
                   cfg: TrackerConfig | None = None) -> list[Track]:
    """Gate, then fold the per-frame association over the whole sequence."""
    cfg = cfg or TrackerConfig()
    tracks: list[Track] = []
    for frame in sorted(dets_by_frame):
        kept = gate(dets_by_frame[frame], cfg)
        if kept:
            tracks = step(tracks, kept, cfg, frame=frame)
    return tracks


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
    if not forward:
        return forward

    used = {id(d) for t in forward for d in t.entries}
    anchors: dict[int, list[int]] = {}
    for t in forward:
        anchors.setdefault(t.first_frame, []).append(t.id)
    by_id = {t.id: t for t in forward}

    live: dict[int, tuple[int, Mask]] = {}   # id -> (earliest frame so far, earliest mask)
    additions: dict[int, list[Detection]] = {t.id: [] for t in forward}
    for frame in sorted(merged, reverse=True):
        cands = [d for d in merged[frame] if id(d) not in used]
        eligible = sorted(
            tid for tid, (earliest, _) in live.items()
            if earliest - frame - 1 <= cfg.t_inactive
        )
        if cands and eligible:
            benefit = iou_matrix([live[tid][1] for tid in eligible],
                                 [d.mask for d in cands])
            for i, j in solve_max_assignment(benefit).pairs:
                if benefit[i, j] > cfg.min_match_iou:
                    tid, det = eligible[i], cands[j]
                    additions[tid].append(det)
                    live[tid] = (frame, det.mask)
                    used.add(id(det))
        for tid in anchors.get(frame, ()):
            live[tid] = (frame, by_id[tid].entries[0].mask)

    out = []
    for t in forward:
        extra = sorted(additions[t.id], key=lambda d: d.frame)
        # one addition per frame, each frame before the track's first
        out.append(_track(t.id, (*extra, *t.entries), t.state) if extra else t)
    return out

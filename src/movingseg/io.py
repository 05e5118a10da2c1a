"""Bit-exact dataset interchange.

Label maps travel as binary PGM (P5) with maxval 255 or 65535.  Everything
else is JSON with a top-level ``format_version`` of 1, written canonically
(sorted keys, two-space indent, trailing newline) so identical data always
produces identical bytes: exactly the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)`` plus the newline, with every flat list (every RLE) encoded
by the stdlib's C encoder.  Scores are serialized with Python's shortest
round-tripping float representation, so write/read is exact.  Readers reject
malformed input outright instead of repairing it; errors carry the path to the
offending field.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .mask import MAX_PIXELS, MalformedMaskError, _from_cuts, _run_lists, _split_runs
from .metrics import REPORT_FIELDS, GroundTruthSequence, MetricReport
from .tracker import Detection, Track

FORMAT_VERSION = 1

_WHITESPACE = (0x20, 0x09, 0x0A, 0x0D, 0x0B, 0x0C)


class SchemaError(ValueError):
    """A file violates its documented format."""


@dataclass(frozen=True)
class Manifest:
    sequence: str
    width: int
    height: int
    ignore_value: int | None
    frames: tuple[tuple[int, str], ...]   # (frame index, labelmap path relative to manifest)


# ---------------------------------------------------------------- PGM label maps

def read_labelmap(path) -> np.ndarray:
    """Parse a binary PGM (P5) file into a read-only label map.

    The array keeps the file's own sample type: ``uint8`` for maxval 255 and
    big-endian ``>u2`` for maxval 65535.
    """
    data = Path(path).read_bytes()
    tokens: list[bytes] = []
    i, n = 0, len(data)
    while len(tokens) < 4 and i < n:
        c = data[i]
        if c in _WHITESPACE:
            i += 1
            continue
        if c == 0x23:  # '#' comment runs to end of line
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        j = i
        while j < n and data[j] not in _WHITESPACE and data[j] != 0x23:
            j += 1
        tokens.append(data[i:j])
        i = j
    if len(tokens) < 4:
        raise SchemaError(f"{path}: truncated PGM header")
    if tokens[0] != b"P5":
        raise SchemaError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise SchemaError(f"{path}: non-numeric PGM header field") from None
    if width <= 0 or height <= 0:
        raise SchemaError(f"{path}: non-positive PGM dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise SchemaError(f"{path}.width: {width}x{height} frame exceeds {MAX_PIXELS} pixels")
    if maxval not in (255, 65535):
        raise SchemaError(f"{path}: unsupported maxval {maxval} (need 255 or 65535)")
    if i >= n or data[i] not in _WHITESPACE:
        raise SchemaError(f"{path}: missing whitespace after maxval")
    size = len(data) - (i + 1)
    expected = width * height * (1 if maxval == 255 else 2)
    if size != expected:
        raise SchemaError(f"{path}: payload is {size} bytes, expected {expected}")
    dtype = ">u1" if maxval == 255 else ">u2"
    return np.frombuffer(data, dtype=dtype, offset=i + 1).reshape(height, width)


def write_labelmap(arr: np.ndarray, path) -> None:
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("label map must be 2-D")
    lo, hi = (arr.min(), arr.max()) if arr.size else (0, 0)
    if lo < 0 or hi > 65535:
        raise ValueError("label values must lie in [0, 65535]")
    maxval = 255 if hi <= 255 else 65535
    payload = np.ascontiguousarray(arr, ">u1" if maxval == 255 else ">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(payload.data)


# ---------------------------------------------------------------- JSON plumbing

_SCALARS = {str, int, float, bool, type(None)}
_SCALAR = json.JSONEncoder()


@functools.lru_cache(maxsize=None)
def _flat_encoder(inner: str) -> json.JSONEncoder:
    return json.JSONEncoder(separators=("," + inner, ": "))


@functools.lru_cache(maxsize=4096)
def _key_prefix(key: str) -> str:
    return _SCALAR.encode(key) + ": "


def _canonical(obj, newline: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, for ``str`` keys only.

    ``indent`` turns off the stdlib's C encoder, so this walks dicts and
    nested lists itself and hands each list of scalars (every RLE) to the C
    encoder whole, with the indented item separator.  ``newline`` is the line
    break plus the indent of ``obj``'s own depth.
    """
    t = type(obj)
    if t is int or t is float and math.isfinite(obj):
        return repr(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not set(map(type, obj)) <= {str}:
            raise TypeError("canonical JSON keys must be str")
        body = ("," + inner).join(_key_prefix(k) + _canonical(obj[k], inner)
                                  for k in sorted(obj))
        return "{" + inner + body + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _SCALARS:
            body = _flat_encoder(inner).encode(obj)[1:-1]
        else:
            body = ("," + inner).join(_canonical(x, inner) for x in obj)
        return "[" + inner + body + newline + "]"
    return _SCALAR.encode(obj)


def _dump_json(obj, path) -> None:
    Path(path).write_text(_canonical(obj) + "\n", encoding="utf-8")


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON ({e})") from None


def _get(obj, key, kinds, where, allow_none=False):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in obj:
        raise SchemaError(f"{where}.{key}: missing")
    v = obj[key]
    if v is None and allow_none:
        return None
    if isinstance(v, bool) and bool not in (kinds if isinstance(kinds, tuple) else (kinds,)):
        raise SchemaError(f"{where}.{key}: expected {kinds}, got bool")
    if not isinstance(v, kinds):
        raise SchemaError(f"{where}.{key}: expected {kinds}, got {type(v).__name__}")
    return v


def _check_version(doc, path) -> None:
    version = _get(doc, "format_version", int, str(path))
    if version != FORMAT_VERSION:
        raise SchemaError(f"{path}.format_version: unsupported version {version}")


def _frame_size(doc, path) -> tuple[int, int]:
    width = _get(doc, "width", int, str(path))
    height = _get(doc, "height", int, str(path))
    for key, v in (("width", width), ("height", height)):
        if v < 1:
            raise SchemaError(f"{path}.{key}: must be at least 1, got {v}")
    if width * height > MAX_PIXELS:
        raise SchemaError(f"{path}.width: {width}x{height} frame exceeds {MAX_PIXELS} pixels")
    return width, height


def _detections_from_fields(fields, width, height) -> list[Detection]:
    """Detections from (frame, score, kind, rle, where) tuples, all run lists checked at once."""
    try:
        cuts = _split_runs([f[3] for f in fields], width * height)
        return [Detection(f[0], f[1], _from_cuts(width, height, c), f[2])
                for f, c in zip(fields, cuts)]
    except ValueError as e:
        for f in fields[:-1]:   # the first offending entry raises, with its own message
            _detections_from_fields([f], width, height)
        where = fields[-1][4] + (".rle" if isinstance(e, MalformedMaskError) else "")
        raise SchemaError(f"{where}: {e}") from None


def _score_from_field(raw, where) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise SchemaError(f"{where}: score must be a number")
    score = float(raw)
    if not math.isfinite(score) or not 0.0 <= score <= 1.0:
        raise SchemaError(f"{where}: score {raw} outside [0, 1]")
    return score


# ---------------------------------------------------------------- manifests

def read_manifest(path) -> Manifest:
    doc = _load_json(path)
    _check_version(doc, path)
    name = _get(doc, "sequence", str, str(path))
    width, height = _frame_size(doc, path)
    ignore = _get(doc, "ignore_value", int, str(path), allow_none=True)
    raw_frames = _get(doc, "frames", list, str(path))
    frames = []
    last = None
    for k, item in enumerate(raw_frames):
        where = f"{path}.frames[{k}]"
        idx = _get(item, "index", int, where)
        rel = _get(item, "labelmap", str, where)
        if last is not None and idx <= last:
            raise SchemaError(f"{where}.index: frame indices must be strictly increasing")
        last = idx
        frames.append((idx, rel))
    return Manifest(name, width, height, ignore, tuple(frames))


def write_manifest(manifest: Manifest, path) -> None:
    _dump_json(
        {
            "format_version": FORMAT_VERSION,
            "sequence": manifest.sequence,
            "width": manifest.width,
            "height": manifest.height,
            "ignore_value": manifest.ignore_value,
            "frames": [
                {"index": idx, "labelmap": rel} for idx, rel in manifest.frames
            ],
        },
        path,
    )


def load_sequence(manifest_path) -> tuple[str, GroundTruthSequence]:
    """Read a manifest and its label maps into a GroundTruthSequence."""
    manifest = read_manifest(manifest_path)
    base = Path(manifest_path).parent
    frames = {}
    for idx, rel in manifest.frames:
        file = base / rel
        if not file.is_file():
            raise SchemaError(f"{manifest_path}: labelmap {rel} does not exist")
        arr = read_labelmap(file)
        if arr.shape != (manifest.height, manifest.width):
            raise SchemaError(
                f"{file}: label map is {arr.shape[1]}x{arr.shape[0]}, manifest says "
                f"{manifest.width}x{manifest.height}"
            )
        frames[idx] = arr
    return manifest.sequence, GroundTruthSequence(
        manifest.width, manifest.height, frames, manifest.ignore_value
    )


def write_sequence(name: str, gt: GroundTruthSequence, out_dir,
                   labelmap_dir: str = "labelmaps") -> Path:
    """Write label maps plus manifest under out_dir; returns the manifest path."""
    out = Path(out_dir)
    (out / labelmap_dir).mkdir(parents=True, exist_ok=True)
    frames = []
    for idx in gt.eval_frames():
        rel = f"{labelmap_dir}/{idx:06d}.pgm"
        write_labelmap(gt.labeled_frames[idx], out / rel)
        frames.append((idx, rel))
    manifest = Manifest(name, gt.width, gt.height, gt.ignore_value, tuple(frames))
    manifest_path = out / "manifest.json"
    write_manifest(manifest, manifest_path)
    return manifest_path


# ---------------------------------------------------------------- detections

def read_detections(path) -> tuple[int, int, dict[int, list[Detection]]]:
    doc = _load_json(path)
    _check_version(doc, path)
    width, height = _frame_size(doc, path)
    raw_frames = _get(doc, "frames", list, str(path))
    fields, counts = [], {}
    last = None
    for k, item in enumerate(raw_frames):
        where = f"{path}.frames[{k}]"
        idx = _get(item, "index", int, where)
        if last is not None and idx <= last:
            raise SchemaError(f"{where}.index: frame indices must be strictly increasing")
        last = idx
        raw_dets = _get(item, "detections", list, where)
        for m, dd in enumerate(raw_dets):
            dwhere = f"{where}.detections[{m}]"
            score = _score_from_field(_get(dd, "score", (int, float), dwhere), dwhere)
            kind = _get(dd, "kind", str, dwhere)
            if kind not in ("moving", "static"):
                raise SchemaError(f"{dwhere}.kind: expected 'moving' or 'static'")
            fields.append((idx, score, kind, _get(dd, "rle", list, dwhere), dwhere))
        counts[idx] = len(raw_dets)
    dets = iter(_detections_from_fields(fields, width, height))
    return width, height, {idx: list(islice(dets, n)) for idx, n in counts.items()}


def write_detections(path, width: int, height: int, dets_by_frame) -> None:
    order = sorted(dets_by_frame)
    rles = iter(_run_lists([d.mask for idx in order for d in dets_by_frame[idx]]))
    frames = [
        {
            "index": idx,
            "detections": [
                {"score": d.score, "kind": d.kind, "rle": next(rles)}
                for d in dets_by_frame[idx]
            ],
        }
        for idx in order
    ]
    _dump_json(
        {"format_version": FORMAT_VERSION, "width": width, "height": height,
         "frames": frames},
        path,
    )


# ---------------------------------------------------------------- tracks

def read_tracks(path) -> tuple[int, int, list[Track]]:
    doc = _load_json(path)
    _check_version(doc, path)
    width, height = _frame_size(doc, path)
    fields, counts = [], {}
    for k, item in enumerate(_get(doc, "tracks", list, str(path))):
        where = f"{path}.tracks[{k}]"
        tid = _get(item, "id", int, where)
        if tid in counts:
            raise SchemaError(f"{where}.id: duplicate track id {tid}")
        raw_entries = _get(item, "frames", list, where)
        if not raw_entries:
            raise SchemaError(f"{where}: track has no frames")
        last = None
        for m, ff in enumerate(raw_entries):
            fwhere = f"{where}.frames[{m}]"
            idx = _get(ff, "index", int, fwhere)
            if last is not None and idx <= last:
                raise SchemaError(f"{fwhere}.index: track frames must be strictly increasing")
            last = idx
            score = _score_from_field(_get(ff, "score", (int, float), fwhere), fwhere)
            fields.append((idx, score, "moving", _get(ff, "rle", list, fwhere), fwhere))
        counts[tid] = len(raw_entries)
    entries = iter(_detections_from_fields(fields, width, height))
    return width, height, [Track(tid, tuple(islice(entries, n))) for tid, n in counts.items()]


def write_tracks(path, width: int, height: int, tracks) -> None:
    ids = [t.id for t in tracks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate track ids")
    rles = iter(_run_lists([d.mask for t in tracks for d in t.entries]))
    _dump_json(
        {
            "format_version": FORMAT_VERSION,
            "width": width,
            "height": height,
            "tracks": [
                {
                    "id": t.id,
                    "frames": [
                        {"index": d.frame, "score": d.score, "rle": next(rles)}
                        for d in t.entries
                    ],
                }
                for t in tracks
            ],
        },
        path,
    )


# ---------------------------------------------------------------- reports

def write_report(report: MetricReport, path) -> None:
    body = report.to_dict()
    per_seq = body.pop("per_sequence", {})
    _dump_json(
        {"format_version": FORMAT_VERSION, "aggregate": body,
         "per_sequence": per_seq},
        path,
    )


def write_report_csv(report: MetricReport, path) -> None:
    import csv

    def cell(v):
        return "" if v is None else repr(v) if isinstance(v, float) else str(v)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("sequence",) + REPORT_FIELDS)
        for name in sorted(report.per_sequence):
            rep = report.per_sequence[name]
            writer.writerow([name] + [cell(rep.values()[f]) for f in REPORT_FIELDS])
        writer.writerow(["aggregate"] + [cell(report.values()[f]) for f in REPORT_FIELDS])

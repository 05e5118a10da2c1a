"""Bit-exact dataset interchange.

Label maps travel as binary PGM (P5) with maxval 255 or 65535.  Everything
else is JSON with a top-level ``format_version`` of 1, written canonically
(sorted keys, two-space indent, trailing newline) so identical data always
produces identical bytes: exactly the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)`` plus the newline.  Manifests and reports are written by
that very call; detections and tracks files are written in their fixed
layout, each scalar by ``_scalar`` and every run list from one pass over all
masks' cuts and formatted by one ``%d`` format.  Scores are serialized with
Python's shortest round-tripping float representation, so write/read is
exact.  Readers reject malformed input outright instead of repairing it;
errors carry the path to the offending field.  The detections and tracks
readers check a whole parsed document in one batch pass and read it entry by
entry only when a check fails, to name the first bad field.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .mask import MAX_PIXELS, MalformedMaskError, _label_runs, _run_lists, _split_runs
from .metrics import REPORT_FIELDS, GroundTruthSequence, MetricReport
from .tracker import Detection, Track, _detection, _track

FORMAT_VERSION = 1
# write_sequence puts the label maps here, relative to the manifest
_LABELMAP_DIR = "labelmaps"

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
    with open(os.fspath(path), "rb") as fh:   # fspath: a file descriptor is no path
        data = fh.read()
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


def _sample_type(lo, hi) -> str:
    """The PGM sample type for labels from ``lo`` to ``hi``: one byte up to 255, else two."""
    if lo < 0 or hi > 65535:
        raise ValueError("label values must lie in [0, 65535]")
    return ">u1" if hi <= 255 else ">u2"


def write_labelmap(arr: np.ndarray, path) -> None:
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("label map must be 2-D")
    # one-byte labels lie in [0, 255] already, so they need no scan for their range
    sample = (">u1" if arr.dtype == np.uint8 else
              _sample_type(*((arr.min(), arr.max()) if arr.size else (0, 0))))
    maxval = 255 if sample == ">u1" else 65535
    payload = np.ascontiguousarray(arr, sample)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(payload.data)


# ---------------------------------------------------------------- JSON plumbing

_SCALAR = json.JSONEncoder()


def _scalar(value) -> str:
    """A JSON scalar as ``json.dumps`` encodes it; ints and finite floats by ``repr``."""
    t = type(value)
    if t is int or t is float and math.isfinite(value):
        return repr(value)
    return _SCALAR.encode(value)


@functools.lru_cache(maxsize=4096)
def _key_prefix(key: str) -> str:
    return _SCALAR.encode(key) + ": "


def _object(fields: dict[str, str], newline: str) -> str:
    """The canonical JSON object of ``fields``, encoded values by ``str`` key.

    ``newline`` is the line break plus the indent of the object's own depth;
    the values must be encoded one level deeper.
    """
    if not fields:
        return "{}"
    inner = newline + "  "
    sep = "," + inner
    # one join over every piece copies a long value once
    parts = [part for k in sorted(fields) for part in (sep, _key_prefix(k), fields[k])]
    parts[0] = "{" + inner
    return "".join((*parts, newline, "}"))


def _array(items: list[str], newline: str) -> str:
    """The canonical JSON array of encoded ``items``, laid out as ``_object``'s values."""
    if not items:
        return "[]"
    inner = newline + "  "
    sep = "," + inner
    parts = [part for item in items for part in (sep, item)]
    parts[0] = "[" + inner
    return "".join((*parts, newline, "]"))


def _write_json(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:   # no copy of text for its newline
        fh.write(text)
        fh.write("\n")


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
        masks = _split_runs([f[3] for f in fields], width, height)
        return [Detection(f[0], f[1], m, f[2]) for f, m in zip(fields, masks)]
    except ValueError as e:
        for f in fields[:-1]:   # the first offending entry raises, with its own message
            _detections_from_fields([f], width, height)
        where = fields[-1][4] + (".rle" if isinstance(e, MalformedMaskError) else "")
        raise SchemaError(f"{where}: {e}") from None


def _score_from_field(raw, where) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise SchemaError(f"{where}: score must be a number")
    if not 0 <= raw <= 1:   # nan too; an int is compared before float() could overflow
        raise SchemaError(f"{where}: score {raw} outside [0, 1]")
    return float(raw)


# The batch readers check a whole parsed document at once and build through the
# unchecked constructors.  They accept only what the entry-by-entry readers accept
# and return None otherwise; the entry-by-entry reader then names the first bad field.

def _rising(values: list, counts) -> bool:
    """Whether ``values``, ints, strictly increase within each run of ``counts`` of them."""
    try:
        v = np.fromiter(values, np.int64, len(values))
    except OverflowError:   # beyond int64: left to the entry-by-entry check
        return False
    rises = v[1:] > v[:-1]
    rises[np.cumsum(counts, dtype=np.int64)[:-1] - 1] = True   # each run's first value
    return bool(rises.all())


def _batch_entries(entries: list, frames, kinds, width, height) -> list[Detection] | None:
    """Detections of parsed entries, each a dict with a score in [0, 1] and the run list
    of a non-empty mask; ``frames`` and ``kinds`` give each entry's frame and kind."""
    if not set(map(type, entries)) <= {dict}:
        return None
    scores = [e.get("score") for e in entries]
    rles = [e.get("rle") for e in entries]
    if not (set(map(type, scores)) <= {int, float} and set(map(type, rles)) <= {list}
            and min(map(len, rles), default=2) > 1):   # one run: no foreground
        return None
    try:
        values = np.fromiter(scores, np.float64, len(scores))
        masks = _split_runs(rles, width, height)
    except (OverflowError, MalformedMaskError):
        return None
    if not ((values >= 0) & (values <= 1)).all():   # nan too
        return None
    return list(map(_detection, frames, values.tolist(), masks, kinds))


# ---------------------------------------------------------------- manifests

def read_manifest(path) -> Manifest:
    doc = _load_json(path)
    _check_version(doc, path)
    name = _get(doc, "sequence", str, str(path))
    width, height = _frame_size(doc, path)
    ignore = _get(doc, "ignore_value", int, str(path), allow_none=True)
    if ignore == 0:
        raise SchemaError(f"{path}.ignore_value: 0 is the background label")
    if ignore is not None and not 0 < ignore <= 65535:
        raise SchemaError(f"{path}.ignore_value: {ignore} is not a PGM label (1 to 65535)")
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
    _write_json(json.dumps({
        "format_version": FORMAT_VERSION,
        "sequence": manifest.sequence,
        "width": manifest.width,
        "height": manifest.height,
        "ignore_value": manifest.ignore_value,
        "frames": [{"index": idx, "labelmap": rel} for idx, rel in manifest.frames],
    }, indent=2, sort_keys=True), path)


def load_sequence(manifest_path) -> tuple[str, GroundTruthSequence]:
    """Read a manifest and its label maps into a GroundTruthSequence."""
    manifest = read_manifest(manifest_path)
    # names are joined as strings onto the parent as pathlib renders it once; beside a
    # manifest in the working directory a map is named bare, as pathlib names it
    base = str(Path(manifest_path).parent)
    runs = {}
    for idx, rel in manifest.frames:
        file = rel if base == "." else os.path.join(base, rel)
        if not os.path.isfile(file):   # missing, a directory, or a FIFO that open would wait on
            raise SchemaError(f"{manifest_path}: labelmap {rel} does not exist")
        arr = read_labelmap(file)
        if arr.shape != (manifest.height, manifest.width):
            raise SchemaError(
                f"{file}: label map is {arr.shape[1]}x{arr.shape[0]}, manifest says "
                f"{manifest.width}x{manifest.height}"
            )
        runs[idx] = _label_runs(arr.ravel())   # no view of arr: its bytes go with it
    return manifest.sequence, GroundTruthSequence._from_runs(
        manifest.width, manifest.height, runs, manifest.ignore_value
    )


def write_sequence(name: str, gt: GroundTruthSequence, out_dir) -> Path:
    """Write label maps plus manifest under out_dir; returns the manifest path."""
    if gt.ignore_value is not None and not 0 < gt.ignore_value <= 65535:
        raise ValueError(f"ignore_value {gt.ignore_value} is not a PGM label (1 to 65535)")
    out = Path(out_dir)
    (out / _LABELMAP_DIR).mkdir(parents=True, exist_ok=True)
    frames = []
    for idx in gt.eval_frames():
        rel = f"{_LABELMAP_DIR}/{idx:06d}.pgm"
        bounds, values = gt._runs[idx]
        # the run values give the sample type: a one-byte map is not scanned again
        labels = values.astype(_sample_type(values.min(), values.max()))
        write_labelmap(np.repeat(labels, np.diff(bounds)).reshape(gt.height, gt.width),
                       out / rel)
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
    items = _get(doc, "frames", list, str(path))
    dets = _batch_detections(items, width, height)
    if dets is None:
        dets = _checked_detections(items, width, height, path)
    return width, height, dets


def _batch_detections(items: list, width, height) -> dict[int, list[Detection]] | None:
    """``read_detections``' frames from its parsed ``frames`` list, or None."""
    if not set(map(type, items)) <= {dict}:
        return None
    indices = [item.get("index") for item in items]
    groups = [item.get("detections") for item in items]
    if not (set(map(type, indices)) <= {int} and set(map(type, groups)) <= {list}
            and _rising(indices, [len(indices)])):
        return None
    counts = list(map(len, groups))
    entries = list(chain.from_iterable(groups))
    kinds = [e.get("kind") if type(e) is dict else None for e in entries]
    if not (set(map(type, kinds)) <= {str} and set(kinds) <= {"moving", "static"}):
        return None
    frames = chain.from_iterable(map(repeat, indices, counts))
    dets = _batch_entries(entries, frames, kinds, width, height)
    if dets is None:
        return None
    it = iter(dets)
    return {idx: list(islice(it, n)) for idx, n in zip(indices, counts)}


def _checked_detections(items: list, width, height, path) -> dict[int, list[Detection]]:
    fields, counts = [], {}
    last = None
    for k, item in enumerate(items):
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
    return {idx: list(islice(dets, n)) for idx, n in counts.items()}


# The writers' fixed layouts: a detection or a tracks file entry is an object at
# depth 4 of its document, each "%s" one of its values in sorted key order, and
# its runs lie at depth 6
_NEWLINE = ["\n" + "  " * depth for depth in range(7)]
_DETECTION = _object({"kind": "%s", "rle": _array(["%s"], _NEWLINE[5]), "score": "%s"},
                     _NEWLINE[4])
_TRACK_ENTRY = _object({"index": "%s", "rle": _array(["%s"], _NEWLINE[5]), "score": "%s"},
                       _NEWLINE[4])


def _run_texts(masks) -> list[str]:
    """Each mask's run list, encoded at the fixed layouts' depth 6."""
    # one %-format per list converts its ints in C, where str() is a call per run
    return [("," + _NEWLINE[6]).join(["%d"] * len(runs)) % tuple(runs)
            for runs in _run_lists(masks)]


def write_detections(path, width: int, height: int, dets_by_frame) -> None:
    order = sorted(dets_by_frame)
    runs = iter(_run_texts([d.mask for idx in order for d in dets_by_frame[idx]]))
    frames = _array([
        _object({
            "detections": _array([_DETECTION % (_scalar(d.kind), next(runs),
                                                _scalar(d.score))
                                  for d in dets_by_frame[idx]], _NEWLINE[3]),
            "index": _scalar(idx),
        }, _NEWLINE[2])
        for idx in order
    ], _NEWLINE[1])
    _write_json(_object({"format_version": _scalar(FORMAT_VERSION), "frames": frames,
                         "height": _scalar(height), "width": _scalar(width)}, "\n"),
                path)


# ---------------------------------------------------------------- tracks

def read_tracks(path) -> tuple[int, int, list[Track]]:
    doc = _load_json(path)
    _check_version(doc, path)
    width, height = _frame_size(doc, path)
    items = _get(doc, "tracks", list, str(path))
    tracks = _batch_tracks(items, width, height)
    if tracks is None:
        tracks = _checked_tracks(items, width, height, path)
    return width, height, tracks


def _batch_tracks(items: list, width, height) -> list[Track] | None:
    """``read_tracks``' tracks from its parsed ``tracks`` list, or None."""
    if not set(map(type, items)) <= {dict}:
        return None
    ids = [item.get("id") for item in items]
    groups = [item.get("frames") for item in items]
    if not (set(map(type, ids)) <= {int} and set(map(type, groups)) <= {list}
            and len(set(ids)) == len(ids) and all(groups)):
        return None
    counts = list(map(len, groups))
    entries = list(chain.from_iterable(groups))
    frames = [e.get("index") if type(e) is dict else None for e in entries]
    if not (set(map(type, frames)) <= {int} and _rising(frames, counts)):
        return None
    dets = _batch_entries(entries, frames, repeat("moving"), width, height)
    if dets is None:
        return None
    it = iter(dets)
    return [_track(tid, tuple(islice(it, n))) for tid, n in zip(ids, counts)]


def _checked_tracks(items: list, width, height, path) -> list[Track]:
    fields, counts = [], {}
    for k, item in enumerate(items):
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
    return [Track(tid, tuple(islice(entries, n))) for tid, n in counts.items()]


def write_tracks(path, width: int, height: int, tracks) -> None:
    ids = [t.id for t in tracks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate track ids")
    runs = iter(_run_texts([d.mask for t in tracks for d in t.entries]))
    items = _array([
        _object({
            "frames": _array([_TRACK_ENTRY % (_scalar(d.frame), next(runs),
                                              _scalar(d.score))
                              for d in t.entries], _NEWLINE[3]),
            "id": _scalar(t.id),
        }, _NEWLINE[2])
        for t in tracks
    ], _NEWLINE[1])
    _write_json(_object({"format_version": _scalar(FORMAT_VERSION),
                         "height": _scalar(height), "tracks": items,
                         "width": _scalar(width)}, "\n"),
                path)


# ---------------------------------------------------------------- reports

def write_report(report: MetricReport, path) -> None:
    _require_str_names(report)
    body = report.to_dict()
    per_seq = body.pop("per_sequence", {})
    _write_json(json.dumps({"format_version": FORMAT_VERSION, "aggregate": body,
                            "per_sequence": per_seq}, indent=2, sort_keys=True), path)


def _require_str_names(report: MetricReport) -> None:
    """Refuse sequence names that are not ``str``: ``json.dumps`` would write int keys
    as text, sorted as numbers."""
    for name, rep in report.per_sequence.items():
        if type(name) is not str:
            raise TypeError(f"sequence names must be str, got {name!r}")
        _require_str_names(rep)


def write_report_csv(report: MetricReport, path) -> None:
    import csv

    def cell(v):
        return "" if v is None else repr(v) if isinstance(v, float) else str(v)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("sequence",) + REPORT_FIELDS)
        rows = [(name, report.per_sequence[name]) for name in sorted(report.per_sequence)]
        for name, rep in [*rows, ("aggregate", report)]:
            writer.writerow([name, *map(cell, rep.values().values())])

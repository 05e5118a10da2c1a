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
readers walk a parsed document once and check all its run lists in one call;
only a failing check formats the location of the field it names.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .mask import (MAX_PIXELS, MalformedMaskError, Mask, _label_runs, _run_lists,
                   _split_runs)
from .metrics import REPORT_FIELDS, GroundTruthSequence, MetricReport, _ignore_fault
from .tracker import Detection, Track, _detection, _track

FORMAT_VERSION = 1
# write_sequence puts the label maps here, relative to the manifest
_LABELMAP_DIR = "labelmaps"


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

# The PGM header: four tokens, before each a run of whitespace bytes and "#" comments.
# A comment runs to its line end; without the lookahead a run of "#" could be split into
# comments in exponentially many ways, each tried before a truncated header is refused.
_GAP = rb"(?:\s|#[^\n\r]*(?![^\n\r]))"
_PGM_HEADER = re.compile(_GAP + rb"*([^\s#]+)" + (_GAP + rb"+([^\s#]+)") * 3)


def read_labelmap(path) -> np.ndarray:
    """Parse a binary PGM (P5) file into a read-only label map.

    The array keeps the file's own sample type: ``uint8`` for maxval 255 and
    big-endian ``>u2`` for maxval 65535.
    """
    with open(os.fspath(path), "rb") as fh:   # fspath: a file descriptor is no path
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise SchemaError(f"{path}: truncated PGM header")
    magic, *fields = header.groups()
    if magic != b"P5":
        raise SchemaError(f"{path}: not a binary PGM (P5) file")
    try:
        if not all(t.isdigit() for t in fields):   # int() takes "+4", and "4_0" as 40
            raise ValueError
        width, height, maxval = map(int, fields)   # which refuses 4,301 digits or more
    except ValueError:
        raise SchemaError(f"{path}: non-numeric PGM header field") from None
    _check_size(width, height, path)
    if maxval not in (255, 65535):
        raise SchemaError(f"{path}: unsupported maxval {maxval} (need 255 or 65535)")
    i = header.end()
    if not data[i:i + 1].isspace():
        raise SchemaError(f"{path}: missing whitespace after maxval")
    size = len(data) - (i + 1)
    expected = width * height * (1 if maxval == 255 else 2)
    if size != expected:
        raise SchemaError(f"{path}: payload is {size} bytes, expected {expected}")
    dtype = ">u1" if maxval == 255 else ">u2"
    return np.frombuffer(data, dtype=dtype, offset=i + 1).reshape(height, width)


def _check_size(width: int, height: int, where) -> None:
    """The frame-size rule of every file: each side at least 1, at most MAX_PIXELS pixels."""
    for key, v in (("width", width), ("height", height)):
        if v < 1:
            raise SchemaError(f"{where}.{key}: must be at least 1, got {v}")
    if width * height > MAX_PIXELS:
        raise SchemaError(f"{where}.width: {width}x{height} frame exceeds {MAX_PIXELS} pixels")


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
    except (ValueError, RecursionError) as e:   # bad syntax or UTF-8, huge ints, deep nesting
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


def _document(path, key: str) -> tuple[dict, int, int, list]:
    """A JSON document's head: the document, its width and height, and its list ``key``,
    once its ``format_version`` and frame size are checked."""
    doc = _load_json(path)
    version = _get(doc, "format_version", int, path)
    if version != FORMAT_VERSION:
        raise SchemaError(f"{path}.format_version: unsupported version {version}")
    width = _get(doc, "width", int, path)
    height = _get(doc, "height", int, path)
    _check_size(width, height, path)
    return doc, width, height, _get(doc, key, list, path)


def _score(entry, where) -> float:
    score = _get(entry, "score", (int, float), where)
    if not 0 <= score <= 1:   # nan too; an int is compared before float() could overflow
        raise SchemaError(f"{where}: score {score} outside [0, 1]")
    return float(score)


def _masks(rles: list, width, height, counts, prefix, group) -> list[Mask]:
    """Each run list's Mask, all checked in one call.  On a fault the lists are checked one
    at a time, and the first bad one, the m-th of the k-th group of ``counts`` lists, is
    named ``{prefix}[k].{group}[m]``."""
    try:
        masks = _split_runs(rles, width, height)
        if min(map(len, rles), default=2) > 1:   # a valid list of one run has no foreground
            return masks
    except MalformedMaskError:
        pass
    masks = []
    wheres = (f"{prefix}[{k}].{group}[{m}]" for k, n in enumerate(counts) for m in range(n))
    for rle, where in zip(rles, wheres):
        try:
            masks += _split_runs([rle], width, height)
        except MalformedMaskError as e:
            raise SchemaError(f"{where}.rle: {e}") from None
        if len(rle) == 1:
            raise SchemaError(f"{where}: detection mask must be non-empty")
    return masks


# ---------------------------------------------------------------- manifests

def read_manifest(path) -> Manifest:
    doc, width, height, raw_frames = _document(path, "frames")
    name = _get(doc, "sequence", str, str(path))
    ignore = _get(doc, "ignore_value", int, str(path), allow_none=True)
    if fault := _ignore_fault(ignore):
        raise SchemaError(f"{path}.ignore_value: {fault}")
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
    if not manifest.frames:
        raise SchemaError(f"{manifest_path}.frames: no labelled frames")
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
    if not gt.eval_frames():
        raise ValueError("a sequence without frames has no manifest")
    if fault := _ignore_fault(gt.ignore_value):
        raise ValueError(f"ignore_value {fault}")
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
    _, width, height, items = _document(path, "frames")
    counts, frames, scores, kinds, rles = {}, [], [], [], []
    last = -math.inf
    # one test passes each valid frame and entry; a failing one is checked field by field
    for k, item in enumerate(items):
        if not (type(item) is dict and type(idx := item.get("index")) is int and idx > last
                and type(group := item.get("detections")) is list):
            where = f"{path}.frames[{k}]"
            idx = _get(item, "index", int, where)
            if idx <= last:
                raise SchemaError(f"{where}.index: frame indices must be strictly increasing")
            group = _get(item, "detections", list, where)
        last = idx
        counts[idx] = len(group)
        for m, e in enumerate(group):
            if not (type(e) is dict and type(score := e.get("score")) in (int, float)
                    and 0 <= score <= 1 and (kind := e.get("kind")) in ("moving", "static")
                    and type(rle := e.get("rle")) is list):
                where = f"{path}.frames[{k}].detections[{m}]"
                score = _score(e, where)
                kind = _get(e, "kind", str, where)
                if kind not in ("moving", "static"):
                    raise SchemaError(f"{where}.kind: expected 'moving' or 'static'")
                rle = _get(e, "rle", list, where)
            frames.append(idx)
            scores.append(score)
            kinds.append(kind)
            rles.append(rle)
    masks = _masks(rles, width, height, counts.values(), f"{path}.frames", "detections")
    dets = map(_detection, frames, map(float, scores), masks, kinds)
    return width, height, {idx: list(islice(dets, n)) for idx, n in counts.items()}


_NEWLINE = ["\n" + "  " * depth for depth in range(7)]


def _run_texts(masks) -> list[str]:
    """Each mask's run list, encoded at the fixed layouts' depth 6."""
    # one %-format per list converts its ints in C, where str() is a call per run
    return [("," + _NEWLINE[6]).join(["%d"] * len(runs)) % tuple(runs)
            for runs in _run_lists(masks)]


def _write_groups(path, width: int, height: int, name: str, group_key: str, list_key: str,
                  entry_key: str, groups) -> None:
    """Write a detections or tracks file in its fixed layout: list ``name`` holds an object
    per ``(value, entries)`` of ``groups``, ``value`` under ``group_key`` and an entry per
    ``(value, detection)`` under ``list_key``, ``value`` under ``entry_key``."""
    # an entry is an object at depth 4, each "%s" one of its values in sorted key order,
    # and its runs lie at depth 6
    entry = _object({entry_key: "%s", "rle": _array(["%s"], _NEWLINE[5]), "score": "%s"},
                    _NEWLINE[4])
    runs = iter(_run_texts([d.mask for _, entries in groups for _, d in entries]))
    items = _array([
        _object({
            list_key: _array([entry % (_scalar(v), next(runs), _scalar(d.score))
                              for v, d in entries], _NEWLINE[3]),
            group_key: _scalar(value),
        }, _NEWLINE[2])
        for value, entries in groups
    ], _NEWLINE[1])
    _write_json(_object({"format_version": _scalar(FORMAT_VERSION), name: items,
                         "height": _scalar(height), "width": _scalar(width)}, "\n"),
                path)


def write_detections(path, width: int, height: int, dets_by_frame) -> None:
    _write_groups(path, width, height, "frames", "index", "detections", "kind",
                  [(idx, [(d.kind, d) for d in dets_by_frame[idx]])
                   for idx in sorted(dets_by_frame)])


# ---------------------------------------------------------------- tracks

def read_tracks(path) -> tuple[int, int, list[Track]]:
    _, width, height, items = _document(path, "tracks")
    counts, frames, scores, rles = {}, [], [], []
    # one test passes each valid track and entry; a failing one is checked field by field
    for k, item in enumerate(items):
        if not (type(item) is dict and type(tid := item.get("id")) is int
                and tid not in counts and type(group := item.get("frames")) is list and group):
            where = f"{path}.tracks[{k}]"
            tid = _get(item, "id", int, where)
            if tid in counts:
                raise SchemaError(f"{where}.id: duplicate track id {tid}")
            group = _get(item, "frames", list, where)
            if not group:
                raise SchemaError(f"{where}: track has no frames")
        counts[tid] = len(group)
        last = -math.inf
        for m, e in enumerate(group):
            if not (type(e) is dict and type(idx := e.get("index")) is int and idx > last
                    and type(score := e.get("score")) in (int, float) and 0 <= score <= 1
                    and type(rle := e.get("rle")) is list):
                where = f"{path}.tracks[{k}].frames[{m}]"
                idx = _get(e, "index", int, where)
                if idx <= last:
                    raise SchemaError(f"{where}.index: track frames must be strictly increasing")
                score = _score(e, where)
                rle = _get(e, "rle", list, where)
            last = idx
            frames.append(idx)
            scores.append(score)
            rles.append(rle)
    masks = _masks(rles, width, height, counts.values(), f"{path}.tracks", "frames")
    dets = map(_detection, frames, map(float, scores), masks)
    return width, height, [_track(tid, tuple(islice(dets, n))) for tid, n in counts.items()]


def write_tracks(path, width: int, height: int, tracks) -> None:
    ids = [t.id for t in tracks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate track ids")
    _write_groups(path, width, height, "tracks", "id", "frames", "index",
                  [(t.id, [(d.frame, d) for d in t.entries]) for t in tracks])


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

"""Dense reference checks that share no code with movingseg's mask or metrics.

Label maps are parsed from the PGM bytes, masks are decoded from their runs
into pixel grids, intersections are counted with numpy over those grids, and
the one-to-one matching uses scipy's ``linear_sum_assignment`` on the F
matrix.  The benchmark uses these to check the inputs it generates and the
reference ``proposed`` and ``official`` reports.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

REL_TOL = 1e-9


class CheckError(Exception):
    """A generated input or a reference output is wrong."""


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if header is None:
        raise CheckError(f"{path}: not a binary PGM")
    width, height, maxval = (int(f) for f in header.groups())
    dtype = ">u1" if maxval < 256 else ">u2"
    payload = data[header.end():]
    if len(payload) != width * height * np.dtype(dtype).itemsize:
        raise CheckError(f"{path}: payload is {len(payload)} bytes")
    return np.frombuffer(payload, dtype=dtype).reshape(height, width)


def decode(runs, width: int, height: int) -> np.ndarray:
    """Row-major boolean grid from alternating background/foreground run lengths."""
    runs = np.asarray(runs, dtype=np.int64)
    if runs.sum() != width * height:
        raise CheckError(f"runs sum {runs.sum()} != {width}x{height}")
    values = (np.arange(len(runs)) % 2).astype(bool)
    return np.repeat(values, runs).reshape(height, width)


def load_manifest(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    base = Path(path).parent
    frames = {item["index"]: base / item["labelmap"] for item in doc["frames"]}
    return doc, frames


def check_synth_tree(seq_dir) -> int:
    """Ground-truth tracks and detections agree with the label maps; returns frame count."""
    seq_dir = Path(seq_dir)
    doc, frames = load_manifest(seq_dir / "manifest.json")
    width, height = doc["width"], doc["height"]
    gt = json.loads((seq_dir / "gt_tracks.json").read_text(encoding="utf-8"))
    by_frame: dict[int, dict[int, list]] = {}
    for track in gt["tracks"]:
        for entry in track["frames"]:
            by_frame.setdefault(entry["index"], {})[track["id"]] = entry["rle"]
    dets = json.loads((seq_dir / "detections.json").read_text(encoding="utf-8"))
    det_frames = {item["index"]: item["detections"] for item in dets["frames"]}
    if sorted(det_frames) != sorted(frames):
        raise CheckError(f"{seq_dir}: detection frames differ from labelled frames")
    for index, path in frames.items():
        labels = read_pgm(path)
        if labels.shape != (height, width):
            raise CheckError(f"{path}: shape {labels.shape} != ({height}, {width})")
        present = {int(v) for v in np.unique(labels) if v != 0}
        entries = by_frame.get(index, {})
        if present != set(entries):
            raise CheckError(f"{path}: labels {sorted(present)} but tracks {sorted(entries)}")
        for tid, rle in entries.items():
            if not np.array_equal(decode(rle, width, height), labels == tid):
                raise CheckError(f"{seq_dir}: gt track {tid} differs from frame {index}")
        for det in det_frames[index]:
            if not decode(det["rle"], width, height).any() or not 0.0 <= det["score"] <= 1.0:
                raise CheckError(f"{seq_dir}: bad detection in frame {index}")
    return len(frames)


def sequence_tally(manifest, tracks_path, official: bool) -> dict:
    """Matched intersection and pooled pixel counts of one sequence, densely."""
    doc, frames = load_manifest(manifest)
    width, height, ignore = doc["width"], doc["height"], doc["ignore_value"]
    tracks = json.loads(Path(tracks_path).read_text(encoding="utf-8"))["tracks"]
    entries: dict[int, list] = {}
    for i, track in enumerate(tracks):
        for entry in track["frames"]:
            entries.setdefault(entry["index"], []).append((i, entry["rle"]))
    gt_area: dict[int, int] = {}
    inter: dict[tuple[int, int], int] = {}
    pred_area = np.zeros(len(tracks), dtype=np.int64)
    # one frame at a time keeps the check's memory below the program's
    for index, path in frames.items():
        labels = read_pgm(path).ravel()
        for gid, n in enumerate(np.bincount(labels)):
            if n and gid != 0 and gid != ignore:
                gt_area[gid] = gt_area.get(gid, 0) + int(n)
        for i, rle in entries.get(index, ()):
            hit = labels[decode(rle, width, height).ravel()]
            if official and ignore is not None:
                hit = hit[hit != ignore]
            pred_area[i] += hit.size
            for gid, n in enumerate(np.bincount(hit)):
                if n and gid != 0 and gid != ignore:
                    inter[i, gid] = inter.get((i, gid), 0) + int(n)
    gt_ids = sorted(gt_area)
    areas = np.array([gt_area[g] for g in gt_ids], dtype=np.int64)
    counts = np.array([[inter.get((i, g), 0) for g in gt_ids] for i in range(len(tracks))],
                      dtype=np.int64).reshape(len(tracks), len(gt_ids))
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(pred_area[:, None] > 0, counts / pred_area[:, None], 0.0)
        r = np.where(areas[None, :] > 0, counts / areas[None, :], 0.0)
        f = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
    rows, cols = linear_sum_assignment(f, maximize=True)
    matched = [(i, j) for i, j in zip(rows, cols) if f[i, j] > 0.0]
    return {
        "inter": int(sum(counts[i, j] for i, j in matched)),
        "pred": int(sum(pred_area[i] for i, _ in matched) if official else pred_area.sum()),
        "gt": int(areas.sum()),
        "n_over_075": sum(1 for i, j in matched if f[i, j] > 0.75),
    }


def _prf(tallies) -> tuple[float, float, float]:
    inter = sum(t["inter"] for t in tallies)
    pred = sum(t["pred"] for t in tallies)
    gt = sum(t["gt"] for t in tallies)
    p = inter / pred if pred else 0.0
    r = inter / gt if gt else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def _expect(where: str, got, want) -> None:
    if got is None or not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12):
        raise CheckError(f"{where}: report has {got}, dense recomputation gives {want}")


def check_report(report_path, pairs, metric: str) -> None:
    """Compare a proposed/official report with the dense tally of (manifest, tracks) pairs."""
    official = metric == "official"
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    tallies = {}
    for manifest, tracks in pairs:
        name = json.loads(Path(manifest).read_text(encoding="utf-8"))["sequence"]
        tallies[name] = sequence_tally(manifest, tracks, official)
    if sorted(report["per_sequence"]) != sorted(tallies):
        raise CheckError(f"{report_path}: sequences {sorted(report['per_sequence'])}")
    parts = [(f"{report_path} aggregate", report["aggregate"], list(tallies.values()))]
    parts += [(f"{report_path} {name}", report["per_sequence"][name], [t])
              for name, t in tallies.items()]
    for where, values, group in parts:
        if values["flags"]:
            raise CheckError(f"{where}: unexpected flags {values['flags']}")
        for field, want in zip(("precision", "recall", "f_measure"), _prf(group)):
            _expect(f"{where} {field}", values[field], want)
        if official and values["n_over_075"] != sum(t["n_over_075"] for t in group):
            raise CheckError(f"{where}: n_over_075 {values['n_over_075']}")

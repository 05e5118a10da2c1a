"""Acceptance criteria, one test each, with a printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines on success.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from dense_reference import brute_force_assignment
from helpers import det, rect_labels, rect_mask, region, single_frame_gt
from movingseg import io as fileio
from movingseg.assign import solve_max_assignment
from movingseg.cli import main
from movingseg.mask import rle_decode, rle_encode
from movingseg.metrics import average_precision, evaluate
from movingseg.synth import NoiseConfig, SynthConfig, corrupt, generate
from movingseg.tracker import (Detection, Track, TrackerConfig,
                               bidirectional_track, gate, step, track_sequence)


def _verdict(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_assignment_optimality():
    rng = np.random.default_rng(20240001)
    started = time.perf_counter()
    worst = 0.0
    for k in range(1000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        mat = rng.random((rows, cols))
        if k % 5 == 0:
            mat = (mat * 4).round() / 4.0      # exercise tie handling
        diff = abs(solve_max_assignment(mat).total_score
                   - brute_force_assignment(mat).total_score)
        worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    assert _verdict(1, ok,
                    f"1000 matrices <=7x7, worst |solve-brute| = {worst:.2e}, "
                    f"{elapsed:.2f}s (< 5s)")


def test_criterion_2_metric_contrast():
    width, height = 32, 24
    started = time.perf_counter()
    checked_decrease = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        n_obj = int(rng.integers(1, 3))
        rects = []
        for i in range(n_obj):
            rects.append((i + 1, int(rng.integers(0, 6)), int(rng.integers(0, 14)),
                          int(rng.integers(4, 8)), int(rng.integers(4, 8))))
        gt = single_frame_gt(width, height, rects)
        preds = []
        for i, (_, x, y, w, h) in enumerate(rects):
            dx, dy = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
            preds.append(region(i + 1, width, height,
                                {0: (max(0, x + dx), max(0, min(height - h, y + dy)),
                                     w, h)}))
        extra = region(99, width, height,
                       {0: (int(rng.integers(20, 26)), int(rng.integers(0, 16)), 5, 5)})
        def f_of(metric, tracks):
            return evaluate(metric, [("s", gt, tracks)]).f_measure

        off_before = f_of("official", preds)
        off_after = f_of("official", preds + [extra])
        assert abs(off_after - off_before) < 1e-12, seed
        prop_before = f_of("proposed", preds)
        prop_after = f_of("proposed", preds + [extra])
        if prop_before > 0:
            assert prop_after < prop_before, seed
            checked_decrease += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0 and checked_decrease > 400
    assert _verdict(2, ok,
                    f"500 instances: official F unchanged, proposed F strictly "
                    f"dropped in {checked_decrease} positive-F cases, "
                    f"{elapsed:.2f}s (< 30s)")


def test_criterion_3_golden_hand_cases():
    width, height = 40, 20
    gt = single_frame_gt(width, height, [(1, 0, 0, 10, 10)])
    preds = [region(1, width, height, {0: (0, 0, 10, 10)}),
             region(2, width, height, {0: (20, 0, 5, 10)})]
    rep = evaluate("proposed", [("s", gt, preds)])
    ok = (abs(rep.precision - 2 / 3) < 1e-9 and abs(rep.recall - 1.0) < 1e-9
          and abs(rep.f_measure - 0.8) < 1e-9)

    gt2 = single_frame_gt(width, height, [(1, 0, 0, 10, 5)])
    pred = region(1, width, height, {0: (0, 0, 10, 10)})
    one = evaluate("proposed", [("s", gt2, [pred])])
    p, r, f = one.precision, one.recall, one.f_measure
    ok = ok and abs(p - 0.5) < 1e-9 and abs(r - 1.0) < 1e-9 and abs(f - 2 / 3) < 1e-9

    ap_gt = {0: [rect_mask(width, height, 0, 0, 6, 6),
                 rect_mask(width, height, 20, 0, 6, 6)]}
    ap_dets = {0: [det(0, 0.9, width, height, 0, 0, 6, 6),
                   det(0, 0.8, width, height, 10, 12, 4, 4),
                   det(0, 0.7, width, height, 20, 0, 6, 6)]}
    ap = average_precision(ap_gt, ap_dets)
    ok = ok and abs(ap - 5 / 6) < 1e-9
    assert _verdict(3, ok,
                    f"proposed=({rep.precision:.6f},{rep.recall:.6f},{rep.f_measure:.6f}) "
                    f"pairwise=({p:.6f},{r:.6f},{f:.6f}) AP={ap:.6f}")


def test_criterion_4_tracker_lifecycle():
    width, height = 64, 48
    cfg = TrackerConfig()

    def static_dets(frames, score=0.95):
        return {f: [det(f, score, width, height, 8, 8, 10, 10)] for f in frames}

    keep = track_sequence(static_dets(list(range(8)) +
                                      list(range(8 + cfg.t_inactive, 30))), cfg)
    split = track_sequence(static_dets(list(range(8)) +
                                       list(range(8 + cfg.t_inactive + 1, 30))), cfg)
    ok = len(keep) == 1 and len(split) == 2

    gated = gate([det(0, 0.65, width, height, 0, 0, 4, 4),
                  det(0, 0.7, width, height, 8, 0, 4, 4)], cfg)
    ok = ok and [d.score for d in gated] == [0.7]
    no_track = step([], [det(0, 0.8, width, height, 0, 0, 4, 4)], cfg)
    one_track = step([], [det(0, 0.9, width, height, 0, 0, 4, 4)], cfg)
    ok = ok and no_track == [] and len(one_track) == 1

    synth_cfg = SynthConfig(seed=77, frames=25, width=96, height=64, objects=2)
    gt, _ = generate(synth_cfg)
    dets = corrupt(gt, NoiseConfig(), seed=77)
    tracks = track_sequence(dets, cfg)
    f_value = evaluate("proposed", [("s", gt, tracks)]).f_measure
    ok = ok and f_value == 1.0
    assert _verdict(4, ok,
                    f"gap<=t_inactive: {len(keep)} track(s); gap>t_inactive: "
                    f"{len(split)}; gating 0.65/0.7/0.8/0.9 ok; pipeline F={f_value}")


def test_criterion_5_bidirectional():
    width, height = 64, 48
    moving = {f: [det(f, 0.95, width, height, 10, 10, 12, 12)] for f in range(10, 30)}
    static = {f: [det(f, 0.85, width, height, 10, 10, 12, 12, kind="static")]
              for f in range(10)}
    cfg = TrackerConfig()
    bi = bidirectional_track(moving, static, cfg)
    from movingseg.tracker import merge_moving_static
    fwd = track_sequence(merge_moving_static(moving, static, cfg), cfg)
    ok = (len(bi) == 1 and bi[0].first_frame == 0 and bi[0].last_active_frame == 29
          and len(bi[0].entries) == 30 and fwd[0].first_frame == 10)
    assert _verdict(5, ok,
                    f"bidirectional spans {bi[0].first_frame}..{bi[0].last_active_frame} "
                    f"({len(bi[0].entries)} entries); forward-only starts at "
                    f"{fwd[0].first_frame}")


def test_criterion_6_roundtrips_and_rejection(tmp_path):
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(10000):
        w, h = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        dense = rng.integers(0, 2, size=(h, w)).astype(np.uint8)
        m = rle_encode(dense, w, h)
        if rle_encode(rle_decode(m), w, h) != m or not (rle_decode(m) == dense).all():
            ok = False
            break

    width, height = 32, 16
    dets = {0: [det(0, 0.875, width, height, 1, 1, 5, 5),
                det(0, 1 / 7, width, height, 10, 2, 4, 4)],
            3: [det(3, 0.999999999, width, height, 2, 2, 6, 6)]}
    fileio.write_detections(tmp_path / "d.json", width, height, dets)
    back = fileio.read_detections(tmp_path / "d.json")
    ok = ok and back == (width, height, dets)
    fileio.write_detections(tmp_path / "d2.json", *back[:2], back[2])
    ok = ok and (tmp_path / "d.json").read_bytes() == (tmp_path / "d2.json").read_bytes()

    tracks = [Track(1, (det(0, 0.95, width, height, 1, 1, 5, 5),
                        det(2, 0.8, width, height, 2, 1, 5, 5)))]
    fileio.write_tracks(tmp_path / "t.json", width, height, tracks)
    _, _, tback = fileio.read_tracks(tmp_path / "t.json")
    ok = ok and [(t.id, t.entries) for t in tback] == [(t.id, t.entries) for t in tracks]
    fileio.write_tracks(tmp_path / "t2.json", width, height, tback)
    ok = ok and (tmp_path / "t.json").read_bytes() == (tmp_path / "t2.json").read_bytes()

    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1, "width": 4, "height": 4, '
                   '"frames": [{"index": 0, "detections": '
                   '[{"score": 0.9, "kind": "moving", "rle": [3]}]}]}')
    rc = main(["track", "--detections", str(bad), "--out", str(tmp_path / "o.json")])
    ok = ok and rc == 2
    assert _verdict(6, ok,
                    f"10000 mask round-trips exact; files bit-exact; malformed file "
                    f"exit code {rc}")


def test_criterion_7_determinism(tmp_path):
    args = ["synth", "--seed", "31", "--frames", "10", "--objects", "2",
            "--size", "96x64", "--fp-rate", "0.4", "--jitter", "1"]
    ok = main(args + ["--out", str(tmp_path / "a")]) == 0
    ok = ok and main(args + ["--out", str(tmp_path / "b")]) == 0

    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(Path(root).rglob("*")) if p.is_file()}

    trees_equal = tree(tmp_path / "a") == tree(tmp_path / "b")

    pairs = []
    for seed in (11, 12):
        out = tmp_path / f"s{seed}"
        assert main(["synth", "--seed", str(seed), "--frames", "8", "--objects", "2",
                     "--size", "96x64", "--name", f"seq{seed}",
                     "--out", str(out)]) == 0
        assert main(["track", "--detections", str(out / "detections.json"),
                     "--out", str(out / "tracks.json")]) == 0
        pairs += ["--gt", str(out / "manifest.json"),
                  "--pred", str(out / "tracks.json")]
    blobs = []
    for jobs in ("1", "3"):
        report = tmp_path / f"r{jobs}.json"
        assert main(["evaluate", *pairs, "--metric", "official", "--jobs", jobs,
                     "--out", str(report)]) == 0
        blobs.append(report.read_bytes())
    reports_equal = blobs[0] == blobs[1]
    ok = ok and trees_equal and reports_equal
    assert _verdict(7, ok,
                    f"synth trees identical: {trees_equal}; reports identical "
                    f"across --jobs: {reports_equal}")


def test_criterion_8_runtime_1080p():
    cfg = SynthConfig(seed=3, frames=100, width=1920, height=1080, objects=10,
                      velocity=(2.0, 6.0))
    gt, tracks = generate(cfg)
    started = time.perf_counter()
    rep = evaluate("proposed", [("s", gt, tracks)])
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0 and rep.f_measure == 1.0
    assert _verdict(8, ok,
                    f"proposed measure on 100x1920x1080, 10 regions: {elapsed:.2f}s "
                    f"(< 5s), F={rep.f_measure}")

#!/usr/bin/env python3
"""Show how the two F-measures react to spurious detections.

Generates one synthetic sequence, corrupts it at increasing false-positive
rates, tracks each variant, and prints both measures side by side: the
matched-only measure stays flat while the false-positive-penalizing measure
and the object-count error degrade.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from movingseg.cli import _fields
from movingseg.metrics import evaluate
from movingseg.synth import NoiseConfig, SynthConfig, corrupt, generate
from movingseg.tracker import TrackerConfig, track_sequence


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--frames", type=int, default=40)
    ap.add_argument("--objects", type=int, default=3)
    ap.add_argument("--size", type=_fields(int, "x", "WxH"), default="160x120")
    args = ap.parse_args()
    width, height = args.size

    cfg = SynthConfig(seed=args.seed, frames=args.frames, width=width,
                      height=height, objects=args.objects)
    gt, _ = generate(cfg)
    n_gt = len(gt.region_ids())

    print(f"sequence: {args.frames} frames, {width}x{height}, {n_gt} objects")
    print(f"{'fp_rate':>8} {'official F':>11} {'official N':>11} "
          f"{'proposed F':>11} {'tracks':>7} {'delta_obj':>10}")
    for rate in (0.0, 0.25, 0.5, 0.75, 1.0):
        dets = corrupt(gt, NoiseConfig(fp_rate=rate), seed=args.seed)
        tracks = track_sequence(dets, TrackerConfig())
        official, proposed, delta = (evaluate(metric, [("seq", gt, tracks)])
                                     for metric in ("official", "proposed", "delta-obj"))
        print(f"{rate:>8.2f} {official.f_measure:>11.4f} {official.n_over_075:>11d} "
              f"{proposed.f_measure:>11.4f} {len(tracks):>7d} {delta.delta_obj:>10.2f}")


if __name__ == "__main__":
    main()

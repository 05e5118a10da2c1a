"""Command-line pipeline: synthesize sequences, track detections, evaluate tracks.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 degenerate
evaluation (only with --fail-on-degenerate).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import io as fileio
from .mask import MaskError
from .metrics import MetricReport, evaluate
from .synth import NoiseConfig, OcclusionEvent, SynthConfig, corrupt, generate
from .tracker import (TrackerConfig, _detection, bidirectional_track, merge_moving_static,
                      track_sequence)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for data errors, so replace argparse's
    # default error exit
    def error(self, message):
        raise UsageError(message)


def _positive_int(value: str, name: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise UsageError(f"{name} must be >= 1, got {n}")
    return n


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise UsageError(f"--size expects WxH, got {text!r}")
    return _positive_int(parts[0], "--size width"), _positive_int(parts[1], "--size height")


def _finite(text: str) -> float:
    """The argparse type of every float option: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _velocity(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expects MIN:MAX, got {text!r}")
    return _finite(parts[0]), _finite(parts[1])


def _parse_occlusion(text: str) -> OcclusionEvent:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--occlude expects OBJ:START:DURATION, got {text!r}")
    try:
        obj, start, dur = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--occlude expects integers, got {text!r}") from None
    return OcclusionEvent(obj, start, dur)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="movingseg",
                     description="synthesize, track and evaluate moving-object segmentations")
    sub = parser.add_subparsers(dest="command", metavar="{synth,track,evaluate}")

    p = sub.add_parser("synth", help="generate a synthetic sequence", add_help=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=str, required=True)
    p.add_argument("--objects", type=str, default="1")
    p.add_argument("--size", type=str, default="128x96")
    p.add_argument("--shape", choices=("rectangle", "ellipse"), default="rectangle")
    p.add_argument("--velocity", type=_velocity, default="1:3", metavar="MIN:MAX")
    p.add_argument("--object-size", type=str, default=None, metavar="MIN:MAX")
    p.add_argument("--occlude", action="append", default=[], metavar="OBJ:START:DUR")
    p.add_argument("--jitter", type=int, default=0)
    p.add_argument("--score-mean", type=_finite, default=1.0)
    p.add_argument("--score-spread", type=_finite, default=0.0)
    p.add_argument("--fp-rate", type=_finite, default=0.0)
    p.add_argument("--fn-rate", type=_finite, default=0.0)
    p.add_argument("--name", type=str, default=None)
    p.add_argument("--out", type=str, required=True, metavar="DIR")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("track", help="link detections into tracks")
    p.add_argument("--detections", type=str, required=True, metavar="FILE")
    p.add_argument("--static", type=str, default=None, metavar="FILE")
    p.add_argument("--out", type=str, required=True, metavar="FILE")
    p.add_argument("--alpha-high", type=_finite, default=0.9)
    p.add_argument("--alpha-low", type=_finite, default=0.7)
    p.add_argument("--t-inactive", type=int, default=10)
    p.add_argument("--min-match-iou", type=_finite, default=1e-9)
    p.add_argument("--static-overlap-iou", type=_finite, default=0.5)
    p.add_argument("--bidirectional", action="store_true")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", help="score predicted tracks against ground truth")
    p.add_argument("--gt", action="append", required=True, metavar="MANIFEST")
    p.add_argument("--pred", action="append", required=True, metavar="TRACKS")
    p.add_argument("--metric", required=True,
                   choices=("proposed", "official", "delta-obj", "map", "davis"))
    p.add_argument("--out", type=str, required=True, metavar="REPORT")
    p.add_argument("--csv", type=str, default=None, metavar="FILE")
    p.add_argument("--map-mode", choices=("box", "mask"), default="mask")
    p.add_argument("--binarize-threshold", type=_finite, default=0.7)
    p.add_argument("--boundary-tolerance", type=_finite, default=0.8, metavar="PCT")
    p.add_argument("--jobs", type=int, default=0,
                   help="accepted for compatibility; sequences are evaluated one at a time")
    p.add_argument("--fail-on-degenerate", action="store_true")
    p.set_defaults(func=cmd_evaluate)
    return parser


def cmd_synth(args) -> int:
    frames = _positive_int(args.frames, "--frames")
    objects = _positive_int(args.objects, "--objects")
    width, height = _parse_size(args.size)
    object_size = None
    if args.object_size is not None:
        parts = args.object_size.split(":")
        if len(parts) != 2:
            raise UsageError(f"--object-size expects MIN:MAX, got {args.object_size!r}")
        object_size = (_positive_int(parts[0], "--object-size min"),
                       _positive_int(parts[1], "--object-size max"))
    try:
        noise = NoiseConfig(jitter_px=args.jitter, score_mean=args.score_mean,
                            score_spread=args.score_spread, fp_rate=args.fp_rate,
                            fn_rate=args.fn_rate)
        cfg = SynthConfig(seed=args.seed, frames=frames, width=width, height=height,
                          objects=objects, shape=args.shape,
                          velocity=args.velocity,
                          object_size=object_size,
                          occlusions=tuple(_parse_occlusion(o) for o in args.occlude),
                          noise=noise)
    except ValueError as e:
        raise UsageError(str(e)) from None
    gt, gt_tracks = generate(cfg)
    dets = corrupt(gt, cfg.noise, cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = args.name if args.name is not None else f"seq{cfg.seed:05d}"
    fileio.write_sequence(name, gt, out)
    fileio.write_tracks(out / "gt_tracks.json", gt.width, gt.height, gt_tracks)
    fileio.write_detections(out / "detections.json", gt.width, gt.height, dets)
    print(f"wrote {name}: {frames} frames, {len(gt_tracks)} objects -> {out}")
    return EXIT_OK


def cmd_track(args) -> int:
    try:
        cfg = TrackerConfig(alpha_high=args.alpha_high, alpha_low=args.alpha_low,
                            t_inactive=args.t_inactive,
                            min_match_iou=args.min_match_iou,
                            static_overlap_iou=args.static_overlap_iou)
    except ValueError as e:
        raise UsageError(str(e)) from None
    width, height, dets = fileio.read_detections(args.detections)
    moving = {f: [d for d in ds if d.kind == "moving"] for f, ds in dets.items()}
    static = {f: [d for d in ds if d.kind == "static"] for f, ds in dets.items()}
    if args.static:
        s_width, s_height, s_dets = fileio.read_detections(args.static)
        if (s_width, s_height) != (width, height):
            raise fileio.SchemaError(
                f"{args.static}: dimensions {s_width}x{s_height} do not match "
                f"{args.detections} ({width}x{height})"
            )
        for f, ds in s_dets.items():
            forced = [_detection(d.frame, d.score, d.mask, "static") for d in ds]
            static.setdefault(f, []).extend(forced)
    if args.bidirectional:
        tracks = bidirectional_track(moving, static, cfg)
    else:
        tracks = track_sequence(merge_moving_static(moving, static, cfg), cfg)
    fileio.write_tracks(args.out, width, height, tracks)
    print(f"wrote {len(tracks)} tracks -> {args.out}")
    return EXIT_OK


def _evaluate_pairs(args):
    """``metrics.evaluate``'s (name, ground truth, tracks) triples, one pair loaded at a time."""
    for gt_path, pred_path in zip(args.gt, args.pred):
        name, gt = fileio.load_sequence(gt_path)
        width, height, tracks = fileio.read_tracks(pred_path)
        if (width, height) != (gt.width, gt.height):
            raise fileio.SchemaError(
                f"{pred_path}: dimensions {width}x{height} do not match manifest "
                f"{gt_path} ({gt.width}x{gt.height})"
            )
        yield name, gt, tracks
        del gt, tracks  # scored by now: let it go before the next pair loads


def _format_line(name: str, report: MetricReport) -> str:
    parts = []
    for field, value in report.values().items():
        if value is None:
            continue
        if isinstance(value, float):
            parts.append(f"{field}={value:.6f}")
        else:
            parts.append(f"{field}={value}")
    if report.flags:
        parts.append("flags=" + ",".join(report.flags))
    return f"{name}: " + " ".join(parts)


def cmd_evaluate(args) -> int:
    if args.jobs < 0:
        raise UsageError("--jobs must be >= 0")
    if args.boundary_tolerance < 0:
        raise UsageError("--boundary-tolerance must be >= 0")
    if len(args.gt) != len(args.pred):
        raise fileio.SchemaError(
            f"{len(args.gt)} ground-truth manifests but {len(args.pred)} track files"
        )
    report = evaluate(args.metric, _evaluate_pairs(args), map_mode=args.map_mode,
                      binarize_threshold=args.binarize_threshold,
                      boundary_tolerance=args.boundary_tolerance)
    fileio.write_report(report, args.out)
    if args.csv:
        fileio.write_report_csv(report, args.csv)
    for name in sorted(report.per_sequence):
        print(_format_line(name, report.per_sequence[name]))
    print(_format_line("aggregate", report))
    degenerate = bool(report.flags) or any(
        rep.flags for rep in report.per_sequence.values()
    )
    if degenerate and args.fail_on_degenerate:
        return EXIT_DEGENERATE
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("missing subcommand")
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (fileio.SchemaError, MaskError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    sys.exit(main())

"""Command-line pipeline: synthesize sequences, track detections, evaluate tracks.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 degenerate
evaluation (only with --fail-on-degenerate).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

from . import io as fileio
from .mask import MaskError
from .metrics import (MetricReport, Region, aggregate, average_precision,
                      binarize_detections, boundary_f, combine_tallies, davis_j,
                      default_boundary_tolerance, delta_obj, sequence_tally)
from .synth import NoiseConfig, OcclusionEvent, SynthConfig, corrupt, generate
from .tracker import (Detection, TrackerConfig, bidirectional_track,
                      merge_moving_static, track_sequence)

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


def _parse_velocity(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--velocity expects MIN:MAX, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"--velocity expects numbers, got {text!r}") from None
    return lo, hi


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
    p.add_argument("--velocity", type=str, default="1:3", metavar="MIN:MAX")
    p.add_argument("--object-size", type=str, default=None, metavar="MIN:MAX")
    p.add_argument("--occlude", action="append", default=[], metavar="OBJ:START:DUR")
    p.add_argument("--jitter", type=int, default=0)
    p.add_argument("--score-mean", type=float, default=1.0)
    p.add_argument("--score-spread", type=float, default=0.0)
    p.add_argument("--fp-rate", type=float, default=0.0)
    p.add_argument("--fn-rate", type=float, default=0.0)
    p.add_argument("--name", type=str, default=None)
    p.add_argument("--out", type=str, required=True, metavar="DIR")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("track", help="link detections into tracks")
    p.add_argument("--detections", type=str, required=True, metavar="FILE")
    p.add_argument("--static", type=str, default=None, metavar="FILE")
    p.add_argument("--out", type=str, required=True, metavar="FILE")
    p.add_argument("--alpha-high", type=float, default=0.9)
    p.add_argument("--alpha-low", type=float, default=0.7)
    p.add_argument("--t-inactive", type=int, default=10)
    p.add_argument("--min-match-iou", type=float, default=1e-9)
    p.add_argument("--static-overlap-iou", type=float, default=0.5)
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
    p.add_argument("--binarize-threshold", type=float, default=0.7)
    p.add_argument("--boundary-tolerance", type=float, default=0.8, metavar="PCT")
    p.add_argument("--jobs", type=int, default=0,
                   help="sequence-level parallelism; 0 means all hardware threads")
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
                          velocity=_parse_velocity(args.velocity),
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
                            static_overlap_iou=args.static_overlap_iou,
                            bidirectional=args.bidirectional)
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
            forced = [Detection(d.frame, d.score, d.mask, "static") for d in ds]
            static.setdefault(f, []).extend(forced)
    if cfg.bidirectional:
        tracks = bidirectional_track(moving, static, cfg)
    else:
        tracks = track_sequence(merge_moving_static(moving, static, cfg), cfg)
    fileio.write_tracks(args.out, width, height, tracks)
    print(f"wrote {len(tracks)} tracks -> {args.out}")
    return EXIT_OK


def _parallel(fn, items, jobs):
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# Each metric is a per-sequence score, (gt, tracks, args) -> payload, run in the
# --jobs pool, and a combine, ([(name, payload)], args) -> MetricReport.  The
# aggregate combines every sequence and each sequence's report combines it alone;
# a report over sequences without a single track is flagged no_predictions.

def _tally(gt, tracks, args, official):
    preds = [Region(t.id, {d.frame: d.mask for d in t.entries}) for t in tracks]
    return sequence_tally(gt, preds, official=official)


def _pool_tallies(items, args, official):
    return combine_tallies([tally for _, tally in items], official=official)


def _object_counts(gt, tracks, args):
    return len(gt.region_ids()), len(tracks)


def _count_error(items, args):
    return MetricReport(delta_obj=delta_obj({name: n_gt for name, (n_gt, _) in items},
                                            {name: n_pred for name, (_, n_pred) in items}))


def _detections_by_frame(gt, tracks):
    """Track entries on evaluated frames, keyed by frame in track order."""
    by_frame = {f: [] for f in gt.eval_frames()}
    for t in tracks:
        for d in t.entries:
            if d.frame in by_frame:
                by_frame[d.frame].append(d)
    return by_frame


def _ap_frames(gt, tracks, args):
    return ({f: gt.instance_masks(f) for f in gt.eval_frames()},
            _detections_by_frame(gt, tracks))


def _pooled_ap(items, args):
    # (name, frame) keys sort like frame keys within one sequence
    pooled_gt = {(name, f): ms for name, (gt_frames, _) in items for f, ms in gt_frames.items()}
    pooled_det = {(name, f): ds for name, (_, det_frames) in items
                  for f, ds in det_frames.items()}
    ap = average_precision(pooled_gt, pooled_det, mode=args.map_mode)
    return MetricReport(**{"ap_" + args.map_mode: ap},
                        flags=() if ap is not None else ("degenerate",))


_DAVIS_FIELDS = ("j_mean", "j_recall", "j_decay", "f_boundary")


def _davis_scores(gt, tracks, args):
    gtb = {f: gt.foreground(f) for f in gt.eval_frames()}
    prb = binarize_detections(_detections_by_frame(gt, tracks), args.binarize_threshold,
                              width=gt.width, height=gt.height)
    tol = default_boundary_tolerance(gt.width, gt.height, args.boundary_tolerance)
    return (*davis_j(gtb, prb), boundary_f(gtb, prb, tolerance_px=tol))


def _mean_davis(items, args):
    return MetricReport(**{field: sum(p[k] for _, p in items) / len(items)
                           for k, field in enumerate(_DAVIS_FIELDS)})


_METRICS = {
    "proposed": (partial(_tally, official=False), partial(_pool_tallies, official=False)),
    "official": (partial(_tally, official=True), partial(_pool_tallies, official=True)),
    "delta-obj": (_object_counts, _count_error),
    "map": (_ap_frames, _pooled_ap),
    "davis": (_davis_scores, _mean_davis),
}


def _evaluate_pairs(args, pairs) -> MetricReport:
    score, combine = _METRICS[args.metric]

    def run(pair):
        gt_path, pred_path = pair
        name, gt = fileio.load_sequence(gt_path)
        width, height, tracks = fileio.read_tracks(pred_path)
        if (width, height) != (gt.width, gt.height):
            raise fileio.SchemaError(
                f"{pred_path}: dimensions {width}x{height} do not match manifest "
                f"{gt_path} ({gt.width}x{gt.height})"
            )
        return name, (len(tracks), score(gt, tracks, args))

    def report(items):
        rep = combine([(name, payload) for name, (_, payload) in items], args)
        if not any(n for _, (n, _) in items) and "no_predictions" not in rep.flags:
            rep.flags += ("no_predictions",)
        return rep

    return aggregate(_parallel(run, pairs, args.jobs), report)


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
    if len(args.gt) != len(args.pred):
        raise fileio.SchemaError(
            f"{len(args.gt)} ground-truth manifests but {len(args.pred)} track files"
        )
    report = _evaluate_pairs(args, list(zip(args.gt, args.pred)))
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

#!/usr/bin/env python3
"""Layered benchmark of movingseg: synth -> track -> track bidirectional -> evaluate x5.

Usage (from the repository root):

    python3 bench/run.py --workload fbms --seed 1 --seconds 30 --trace 0

It imports the package from ``src/``, generates the workload's inputs from the
seed, makes reference outputs, checks them against a dense recomputation, and
then drives the public CLI (``movingseg.cli.main``) in-process for
``--seconds`` seconds.  Every timed command's outputs are compared byte for
byte with the references.  Times are reported at a reference speed of the
host: every timed step is bracketed by a fixed gauge kernel (see
``gauge_kernel``).  With ``--trace 1`` a third of the time is measured
untraced, then the pipeline runs with every public function of the package
wrapped in spans, and the per-layer metrics replace the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment stamp, per-command samples, span table) goes to
``.bench_out/`` under the repository root.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

SETUP_REPEATS = 5
# A round figure for the gauge kernel's seconds on a 2-vCPU Xeon VM (run medians
# of 18-27 ms); every time is reported as it would be on a host running the
# kernel at this speed.
REFERENCE_KERNEL_S = 0.025
REPLAY_TIMEOUT_S = 150
MAX_ERRORS = 20           # failures reported in full; all are counted
EVAL_METRICS = ("proposed", "official", "map", "davis", "delta-obj")
# counters that must repeat exactly; mask.intersect_calls, the sixth, is a span count
EXACT_COUNTS = ("tracker.iou_pairs", "assign.cells", "mask.decoded_px",
                "metrics.tally_pairs", "io.bytes_written")


class SetupError(Exception):
    """Inputs or references could not be made or did not check out."""


_GAUGE_DATA = None


def _gauge_data():
    """The gauge kernel's fixed inputs: a binary image and a list of detection-like records."""
    global _GAUGE_DATA
    if _GAUGE_DATA is None:
        import numpy as np

        rng = np.random.default_rng(0)
        image = rng.integers(0, 2, (480, 960), dtype=np.uint8)
        records = [{"index": i, "score": float(rng.random()),
                    "rle": [int(x) for x in rng.integers(0, 500, 12)]} for i in range(600)]
        _GAUGE_DATA = image, records
    return _GAUGE_DATA


def gauge_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, JSON and numpy work: the host's speed.

    On a shared host other tenants slow every process on it in phases that
    can outlast a whole run, so a time measured in a slow phase reads slower
    than the same code in a quiet one.  Each timed step is bracketed by this
    kernel, which shares no code with the package, and its time is scaled by
    REFERENCE_KERNEL_S over the kernel's mean time around it.  The kernel
    mixes, in about equal parts, the kinds of work the package does: integer
    arithmetic in the interpreter, dict and list handling, JSON, and numpy
    run finding.  The garbage collector is off while it runs, so heaps the
    package keeps do not slow it.
    """
    import numpy as np

    image, records = _gauge_data()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        for i in range(60000):
            acc = (acc * 31 + i) % 1000003
        for _ in range(6):
            seen: dict = {}
            for r in records:
                key = (r["index"] % 97, tuple(r["rle"]))
                seen[key] = seen.get(key, 0.0) + r["score"]
            sorted(records, key=lambda r: r["score"])
            [x for r in records for x in r["rle"] if x > 250]
        json.loads(json.dumps(records + records[:300]))
        np.flatnonzero(np.diff(image.ravel())).cumsum()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tree_files(directory: Path) -> dict[str, Path]:
    return {str(p.relative_to(directory)): p for p in sorted(directory.rglob("*")) if p.is_file()}


def _same_files(produced: Path, reference: Path) -> bool:
    if reference.is_dir():
        got, want = _tree_files(produced), _tree_files(reference)
        return got.keys() == want.keys() and all(
            got[k].read_bytes() == want[k].read_bytes() for k in want)
    return produced.is_file() and produced.read_bytes() == reference.read_bytes()


def _clear(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


class Command:
    """One pipeline step: the CLI invocations it makes and the outputs they write."""

    def __init__(self, name: str, metric: str):
        self.name = name
        self.metric = metric
        self.calls: list[tuple[list[str], list[Path]]] = []   # argv, outputs

    def add(self, argv, outputs) -> None:
        self.calls.append(([str(a) for a in argv], [Path(p) for p in outputs]))


class Bench:
    def __init__(self, cli, workload, work: Path, jobs: int):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    # ------------------------------------------------------------ CLI driving

    def run_cli(self, argv) -> tuple[int, str]:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # looked up per call so that an installed tracer sees it
                code = self.cli.main(argv)
        except Exception:
            code, err = -1, io.StringIO(traceback.format_exc())
        return code, err.getvalue()

    def _must(self, argv) -> None:
        code, err = self.run_cli(argv)
        if code != 0:
            raise SetupError(f"movingseg {' '.join(map(str, argv))} exited {code}: "
                             f"{err.strip()}")

    # ------------------------------------------------------------ set-up

    def make_inputs(self, directory: Path) -> None:
        """Synthesize every sequence (and the static stream) and check them densely."""
        import dense
        from movingseg import io as fileio
        from movingseg.synth import NoiseConfig, corrupt

        _clear(directory)
        for seq in self.workload.sequences:
            self._must(["synth", *seq.flags, "--out", directory / seq.name])
            try:
                if dense.check_synth_tree(directory / seq.name) != seq.frames:
                    raise SetupError(f"{seq.name}: wrong frame count")
            except dense.CheckError as e:
                raise SetupError(str(e)) from None
        static = self.workload.static
        if static is not None:
            seq_dir = directory / self.workload.sequences[0].name
            _, gt = fileio.load_sequence(seq_dir / "manifest.json")
            noise = NoiseConfig(jitter_px=static.jitter_px, score_mean=static.score_mean,
                                score_spread=static.score_spread, fp_rate=static.fp_rate,
                                fn_rate=static.fn_rate)
            dets = corrupt(gt, noise, static.seed)
            fileio.write_detections(directory / f"{seq_dir.name}-static.json",
                                    gt.width, gt.height, dets)

    def setup(self) -> list[tuple[float, float]]:
        """Make the inputs several times; returns each repeat's seconds and gauge seconds."""
        times = []
        gauge_kernel()              # the first call pays for numpy's warm-up
        before = gauge_kernel()
        for k in range(SETUP_REPEATS):
            t0 = perf_counter()
            self.make_inputs(self.work / f"setup{k}")
            seconds = perf_counter() - t0
            after = gauge_kernel()
            times.append((seconds, (before + after) / 2))
            before = after
            if k and not _same_files(self.work / f"setup{k}", self.work / "setup0"):
                raise SetupError("repeated set-up produced different inputs")
        for k in range(1, SETUP_REPEATS):
            _clear(self.work / f"setup{k}")
        (self.work / "setup0").rename(self.work / "inputs")
        return times

    def commands(self, out: Path, jobs: int) -> list[Command]:
        """The pipeline in order; outputs go under ``out``, references under work/ref."""
        inputs, ref = self.work / "inputs", self.work / "ref"
        seqs = self.workload.sequences
        synth = Command("synth", "synth_fps")
        track = Command("track", "track_fps")
        bidir = Command("track_bidir", "track_bidir_fps")
        for seq in seqs:
            synth.add(["synth", *seq.flags, "--out", out / "synth" / seq.name],
                      [out / "synth" / seq.name])
            dets = inputs / seq.name / "detections.json"
            track.add(["track", "--detections", dets, "--out", out / "track" / f"{seq.name}.json"],
                      [out / "track" / f"{seq.name}.json"])
            static = []
            if self.workload.static is not None:
                static = ["--static", inputs / f"{seq.name}-static.json"]
            bidir.add(["track", "--bidirectional", "--detections", dets, *static,
                       "--out", out / "track_bidir" / f"{seq.name}.json"],
                      [out / "track_bidir" / f"{seq.name}.json"])
        cmds = [synth, track, bidir]
        for metric in EVAL_METRICS:
            cmd = Command(f"eval_{metric}", f"eval_{metric.replace('-', '_')}_fps")
            pairs = []
            for seq in seqs:
                pairs += ["--gt", inputs / seq.name / "manifest.json",
                          "--pred", ref / "track" / f"{seq.name}.json"]
            report = out / f"report-{metric}.json"
            csv = out / f"report-{metric}.csv"
            cmd.add(["evaluate", *pairs, "--metric", metric, "--jobs", jobs,
                     "--out", report, "--csv", csv], [report, csv])
            cmds.append(cmd)
        return cmds

    def make_references(self) -> float:
        """Run every command once into work/ref in a fresh process; returns its peak RSS in MB.

        What can be checked without the program is then checked: the synth
        tree against the set-up inputs, tracks against the input detections,
        and the proposed/official reports against a dense recomputation.
        """
        import dense

        ref = self.work / "ref"
        argvs = []
        for cmd in self.commands(ref, self.jobs):
            for argv, outputs in cmd.calls:
                for path in outputs:
                    path.parent.mkdir(parents=True, exist_ok=True)
                argvs.append(argv)
        listing = self.work / "ref-commands.json"
        listing.write_text(json.dumps(argvs), encoding="utf-8")
        try:
            done = subprocess.run([sys.executable, str(BENCH / "replay.py"), str(listing)],
                                  capture_output=True, text=True, timeout=REPLAY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SetupError(f"reference pass took over {REPLAY_TIMEOUT_S} s") from None
        if done.returncode != 0:
            raise SetupError(f"reference pass failed: {done.stderr.strip()[-2000:]}")
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        for seq in self.workload.sequences:
            if not _same_files(ref / "synth" / seq.name, self.work / "inputs" / seq.name):
                raise SetupError(f"{seq.name}: CLI synth differs from the set-up inputs")
            self._check_tracks(seq, ref / "track" / f"{seq.name}.json", static=False)
            self._check_tracks(seq, ref / "track_bidir" / f"{seq.name}.json", static=True)
        pairs = [(self.work / "inputs" / s.name / "manifest.json",
                  ref / "track" / f"{s.name}.json") for s in self.workload.sequences]
        for metric in ("proposed", "official"):
            try:
                dense.check_report(ref / f"report-{metric}.json", pairs, metric)
            except dense.CheckError as e:
                raise SetupError(str(e)) from None
        return peak_mb

    def _check_tracks(self, seq, path: Path, static: bool) -> None:
        """Every track entry is an input detection; ids are unique; frames increase."""
        def keys(file):
            doc = json.loads(file.read_text(encoding="utf-8"))
            return {(f["index"], d["score"], tuple(d["rle"]))
                    for f in doc["frames"] for d in f["detections"]}

        seq_dir = self.work / "inputs" / seq.name
        allowed = keys(seq_dir / "detections.json")
        static_file = self.work / "inputs" / f"{seq.name}-static.json"
        if static and static_file.exists():
            allowed |= keys(static_file)
        tracks = json.loads(path.read_text(encoding="utf-8"))["tracks"]
        if not tracks or len({t["id"] for t in tracks}) != len(tracks):
            raise SetupError(f"{path}: no tracks or duplicate ids")
        for t in tracks:
            frames = [e["index"] for e in t["frames"]]
            if frames != sorted(set(frames)):
                raise SetupError(f"{path}: track {t['id']} frames not increasing")
            for e in t["frames"]:
                if (e["index"], e["score"], tuple(e["rle"])) not in allowed:
                    raise SetupError(f"{path}: track {t['id']} frame {e['index']} "
                                     "is not an input detection")

    # ------------------------------------------------------------ measuring

    def run_command(self, cmd: Command, ref_cmd: Command) -> float:
        """Run one command, check its outputs, return its seconds."""
        for _, outputs in cmd.calls:
            for path in outputs:
                _clear(path)
                path.parent.mkdir(parents=True, exist_ok=True)
        codes = []
        t0 = perf_counter()
        for argv, _ in cmd.calls:
            codes.append(self.run_cli(argv))
        seconds = perf_counter() - t0
        for (argv, outputs), (_, refs), (code, err) in zip(cmd.calls, ref_cmd.calls, codes):
            self.attempted += 1
            bad = [str(p) for p, r in zip(outputs, refs) if not _same_files(p, r)]
            if code != 0 or bad:
                self.failed += 1
                if len(self.errors) < MAX_ERRORS:
                    self.errors.append(f"{cmd.name}: exit {code} {err.strip()[-300:]} "
                                       f"differing outputs {bad}")
        return seconds

    def measure(self, budget: float, out: Path, jobs: int | None = None, only=None,
                collect=None):
        """Run passes over the pipeline until ``budget`` seconds would be exceeded.

        At least one pass runs, and each pass runs every command once, so that
        every command gets as many samples as there are passes.  ``only``
        restricts the pass to the named commands.  Returns per-command lists
        of seconds per pass and, per pass, what ``collect()`` returned after
        each command.  A sample is the command's seconds and the mean seconds
        of the gauge kernel run just before and just after it.
        """
        ref_cmds = {c.name: c for c in self.commands(self.work / "ref", self.jobs)}
        samples: dict[str, list[tuple[float, float]]] = {}
        passes: list[dict] = []
        pass_times = []
        start = perf_counter()
        before = gauge_kernel()
        while True:
            t_pass = perf_counter()
            collected = {}
            for cmd in self.commands(out, jobs or self.jobs):
                if only is not None and cmd.name not in only:
                    continue
                seconds = self.run_command(cmd, ref_cmds[cmd.name])
                after = gauge_kernel()
                samples.setdefault(cmd.name, []).append((seconds, (before + after) / 2))
                before = after
                if collect is not None:
                    collected[cmd.name] = collect()
            passes.append(collected)
            pass_times.append(perf_counter() - t_pass)
            if perf_counter() - start + statistics.median(pass_times) > budget:
                return samples, passes


def scaled(seconds: float, gauge: float) -> float:
    """``seconds`` as they would read on a host running the gauge kernel at reference speed."""
    return seconds * REFERENCE_KERNEL_S / gauge


def end_to_end(workload, samples: dict[str, list[tuple[float, float]]], cmds) -> dict[str, float]:
    """Frames per second from each command's median scaled seconds, per command and summed.

    Also the unscaled pipeline throughput and the gauge kernel's median time,
    which show how loaded the host was.
    """
    frames = workload.frames
    medians = {name: statistics.median(scaled(*sample) for sample in s)
               for name, s in samples.items()}
    metrics = {
        "pipeline_fps": frames / sum(medians.values()),
        "evaluate_fps": frames / sum(t for name, t in medians.items() if name.startswith("eval_")),
    }
    for cmd in cmds:
        metrics[cmd.metric] = frames / medians[cmd.name]
    metrics["wall.pipeline_fps"] = frames / sum(statistics.median(seconds for seconds, _ in s)
                                                for s in samples.values())
    metrics["host.gauge_ms"] = 1000 * statistics.median(g for s in samples.values() for _, g in s)
    return metrics


def _span(spans, name, field):
    return spans.get(name, {}).get(field, 0)


def merge_stages(stages: dict[str, tuple[dict, dict]]) -> tuple[dict, dict]:
    """One pass's span table and counts, summed over its commands."""
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for stage_spans, stage_counts in stages.values():
        for name, agg in stage_spans.items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for field, value in agg.items():
                acc[field] += value
        for name, value in stage_counts.items():
            counts[name] = max(counts.get(name, 0), value) if name.endswith("max_cells") \
                else counts.get(name, 0) + value
    return spans, counts


def layer_metrics(stages: dict[str, tuple[dict, dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from each command's spans and counts."""
    spans, counts = merge_stages(stages)

    def cli_self(prefix):
        return sum(agg["self_s"] for stage, (ss, _) in stages.items() if stage.startswith(prefix)
                   for name, agg in ss.items() if name.startswith("cli."))

    cli_total = sum(_span(ss, "cli.main", "total_s") for ss, _ in stages.values())
    self_total = cli_self("")
    t = lambda name: _span(spans, name, "total_s")  # noqa: E731
    return {
        "mask.intersect_calls": _span(spans, "mask.intersect_cuts", "calls"),
        "mask.intersect_s": t("mask.intersect_cuts"),
        "mask.intersect_cut_len": counts.get("mask.intersect_cut_len", 0),
        "mask.iou_calls": _span(spans, "mask.iou", "calls"),
        "mask.iou_s": t("mask.iou"),
        "mask.rle_encode_s": t("mask.rle_encode"),
        "mask.rle_decode_s": t("mask.rle_decode"),
        "mask.decoded_px": counts.get("mask.decoded_px", 0),
        "mask.union_merge_s": t("mask.union_merge"),
        "metrics.sequence_tally_s": t("metrics.sequence_tally"),
        "metrics.tally_pairs": counts.get("metrics.tally_pairs", 0),
        "metrics.average_precision_s": t("metrics.average_precision"),
        "metrics.davis_j_s": t("metrics.davis_j"),
        "metrics.boundary_f_s": t("metrics.boundary_f"),
        "metrics.binarize_s": t("metrics.binarize_detections"),
        "tracker.track_sequence_s": t("tracker.track_sequence"),
        "tracker.bidirectional_s": t("tracker.bidirectional_track"),
        "tracker.merge_static_s": t("tracker.merge_moving_static"),
        "tracker.iou_pairs": counts.get("tracker.iou_pairs", 0),
        "tracker.tracks_opened": counts.get("tracker.tracks_opened", 0),
        "assign.solve_calls": _span(spans, "assign.solve_max_assignment", "calls"),
        "assign.solve_s": t("assign.solve_max_assignment"),
        "assign.cells": counts.get("assign.cells", 0),
        "assign.max_cells": counts.get("assign.max_cells", 0),
        "synth.generate_s": t("synth.generate"),
        "synth.corrupt_s": t("synth.corrupt"),
        "synth.detections": counts.get("synth.detections", 0),
        "io.load_sequence_s": t("io.load_sequence"),
        "io.write_sequence_s": t("io.write_sequence"),
        "io.read_detections_s": t("io.read_detections"),
        "io.write_detections_s": t("io.write_detections"),
        "io.read_tracks_s": t("io.read_tracks"),
        "io.write_tracks_s": t("io.write_tracks"),
        "io.bytes_read": counts.get("io.bytes_read", 0),
        "io.bytes_written": counts.get("io.bytes_written", 0),
        "cli.synth_self_s": cli_self("synth"),
        "cli.track_self_s": cli_self("track"),
        "cli.evaluate_self_s": cli_self("eval_"),
        "cli.unexplained_pct": 100.0 * self_total / cli_total if cli_total else 0.0,
    }


def _source_hash() -> str:
    """Hash of the package and benchmark sources, which together fix the exact counts."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "movingseg").glob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def traced_run(bench: Bench, budget: float, out: Path):
    """Traced passes; returns their per-command spans, exact counts, problems, samples."""
    import spans as tracing

    def exact_counts(stages):
        return {stage: {k: counts.get(k, 0) for k in EXACT_COUNTS}
                | {"mask.intersect_calls": _span(table, "mask.intersect_cuts", "calls")}
                for stage, (table, counts) in stages.items()}

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        samples, passes = bench.measure(budget, out, collect=tracer.collect)
        # the evaluations once more with --jobs 1: the exact counts must not move
        evals = {c.name for c in bench.commands(out, 1) if c.name.startswith("eval_")}
        _, jobs1 = bench.measure(0, out / "jobs1", jobs=1, only=evals,
                                 collect=tracer.collect)
    exact = [exact_counts(stages) for stages in passes]
    problems = [f"traced pass {k} counts differ from pass 0: {counts} vs {exact[0]}"
                for k, counts in enumerate(exact[1:], start=1) if counts != exact[0]]
    for stage, counts in exact_counts(jobs1[0]).items():
        if counts != exact[0][stage]:
            problems.append(f"{stage} with --jobs 1 counts {counts}, "
                            f"with --jobs {bench.jobs} {exact[0][stage]}")
    return passes, exact[0], problems, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("fbms", "hd", "crowded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "movingseg" / "cli.py").is_file():
        print(f"no movingseg sources under {src}", file=sys.stderr)
        return 2
    t0 = perf_counter()
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("movingseg.cli")
    except ImportError as e:
        print(f"cannot import movingseg from {src}: {e}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if Path(cli.__file__).resolve().parent != src / "movingseg":
        print(f"imported movingseg from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads

    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    jobs = min(2, _nproc())
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "frames": workload.frames,
        "nproc": _nproc(), "jobs": jobs, "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "source_sha256": _source_hash(),
    }
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    results = ROOT / ".bench_out"
    bench = Bench(cli, workload, work, jobs)
    try:
        work.mkdir(parents=True, exist_ok=True)
        setup_times = bench.setup()
        peak_rss_mb = bench.make_references()
        record = {"stamp": stamp, "setup_repeats_s": setup_times, "import_s": import_s}
        problems: list[str] = []
        if not args.trace:
            samples, _ = bench.measure(args.seconds, work / "out")
            metrics = end_to_end(workload, samples, bench.commands(work / "ref", jobs))
            # the import is scaled by the gauge taken around the first set-up
            metrics["setup_s"] = (scaled(import_s, setup_times[0][1])
                                  + statistics.median(scaled(*t) for t in setup_times))
            metrics["peak_rss_mb"] = peak_rss_mb
            record["samples_s"] = samples
        else:
            untraced, _ = bench.measure(args.seconds / 3, work / "out")
            passes, exact, problems, traced = traced_run(bench, args.seconds / 3,
                                                         work / "traced")
            timed = [layer_metrics(stages) for stages in passes]
            metrics = {name: statistics.median_low(p[name] for p in timed) for name in timed[0]}
            cmds = bench.commands(work / "ref", jobs)
            metrics.update(end_to_end(workload, untraced, cmds))
            fast = metrics["pipeline_fps"]
            slow = end_to_end(workload, traced, cmds)["pipeline_fps"]
            metrics["trace.untraced_pipeline_fps"] = fast
            metrics["trace.traced_pipeline_fps"] = slow
            metrics["trace.overhead_pct"] = 100.0 * (fast / slow - 1.0)
            problems += _check_counts_across_runs(results, stamp, exact)
            record.update(samples_s=untraced, traced_samples_s=traced, exact_counts=exact,
                          span_table=merge_stages(passes[0])[0])
    except SetupError as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    declared = _declared(bool(args.trace))
    units = _declared(not args.trace) | declared
    for line in bench.errors + problems:
        print(f"error: {line}", file=sys.stderr)
    correct = bench.failed == 0 and not problems
    results.mkdir(exist_ok=True)
    record.update(metrics=metrics, declared=sorted(declared), attempted=bench.attempted,
                  failed=bench.failed, errors=bench.errors + problems)
    out_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print("stamp " + json.dumps(stamp, sort_keys=True))
    # per-command figures not declared for this mode are printed too, marked "info"
    for name, value in metrics.items():
        unit = units.get(name, "")
        tag = "" if name in declared else "  (info)"
        print(f"{args.workload:8s} {name:32s} {value:14.6g} {unit}{tag}")
    print(f"{args.workload:8s} {'error_rate':32s} {bench.failed / max(1, bench.attempted):14.6g} "
          f"ratio ({bench.failed}/{bench.attempted})")
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


def _check_counts_across_runs(results: Path, stamp: dict, exact: dict) -> list[str]:
    """Compare this run's exact counts with an earlier run of the same code and inputs."""
    key = (f"counts-{stamp['workload']}-seed{stamp['seed']}-"
           f"{'smoke' if stamp['smoke'] else 'full'}-{stamp['source_sha256']}.json")
    path = results / key
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != exact:
            return [f"exact counts differ from the earlier run recorded in {path.name}"]
        return []
    results.mkdir(exist_ok=True)
    path.write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return []


if __name__ == "__main__":
    sys.exit(main())

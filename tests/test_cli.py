import argparse
import contextlib
import gc
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import movingseg
from helpers import UNREADABLE_JSON, det, rect_labels
from movingseg import cli
from movingseg import io as fileio
from movingseg.cli import main
from movingseg.mask import MAX_PIXELS
from movingseg.metrics import METRICS, GroundTruthSequence
from movingseg.tracker import Track

ROOT = Path(__file__).resolve().parents[1]


def synth_args(out, seed=5, frames=12, objects=2, extra=()):
    return ["synth", "--seed", str(seed), "--frames", str(frames),
            "--objects", str(objects), "--size", "96x64", "--out", str(out),
            *extra]


def tree_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _env():
    """The environment of a child python that imports this checkout's movingseg."""
    src = str(Path(movingseg.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}


def test_one_parser_per_process_acts_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    def session(root):
        """Exit codes, output lines and written files of one run of in-process calls."""
        pair = ["--gt", root / "a" / "manifest.json", "--pred", root / "a" / "gt_tracks.json"]
        calls = [synth_args(root / "a", seed=3, frames=6),
                 synth_args(root / "b", seed=4, frames=6, extra=["--occlude", "0:1:3"]),
                 ["synth", "--frames", "6", "--bogus"],                 # a parser error
                 synth_args(root / "c", seed=3, frames=6),
                 *(["evaluate", *pair, "--metric", *metric, "--out", root / f"{k}.json",
                    "--csv", root / f"{k}.csv"]
                   for k, metric in enumerate([["proposed"], ["map", "--map-mode", "box"],
                                               ["map"], ["davis"], ["delta-obj"]])),
                 ["evaluate", *pair, "--out", root / "none.json"],    # no --metric
                 ["evaluate", *pair, "--metric", "official", "--out", root / "official.json"]]
        codes = [main([str(a) for a in argv]) for argv in calls]
        out, err = capsys.readouterr()
        return codes, (out + err).replace(str(root), "ROOT"), tree_bytes(root)

    assert cli._parser() is cli._parser()
    once = session(tmp_path / "once")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)   # a new parser for every call
    fresh = session(tmp_path / "fresh")
    assert once[0] == [0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0]
    assert once == fresh


class TestExitCodes:
    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self, tmp_path):
        assert main(synth_args(tmp_path / "o") + ["--bogus"]) == 1

    @pytest.mark.parametrize("command,flag,prefix", [("synth", ["--fp-rate", "0.3"], "--fp-rat"),
                                                     ("evaluate", ["--metric", "davis"], "--met"),
                                                     ("track", ["--bidirectional"], "--bidir")])
    def test_flag_prefix_usage_error(self, tmp_path, capsys, command, flag, prefix):
        # argparse's default read a prefix as the flag it begins, so a misspelling was taken
        seq, out = tmp_path / "s", tmp_path / "out"
        assert main(synth_args(seq)) == 0
        argv = {"synth": synth_args(out),
                "track": ["track", "--detections", str(seq / "detections.json"),
                          "--out", str(out)],
                "evaluate": ["evaluate", "--gt", str(seq / "manifest.json"),
                             "--pred", str(seq / "gt_tracks.json"), "--out", str(out)]}[command]
        capsys.readouterr()
        assert main([*argv, prefix, *flag[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists()
        assert main([*argv, *flag]) == 0

    def test_unknown_metric_usage_error(self, tmp_path, capsys):
        # the parser's choices are the metric table's names, so it refuses what evaluate would
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        metric = next(a for a in sub.choices["evaluate"]._actions if a.dest == "metric")
        assert metric.choices == METRICS
        out = tmp_path / "report.json"
        assert main(["evaluate", "--gt", "m.json", "--pred", "t.json", "--metric", "recall",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "'recall'" in err and err.count("\n") == 1
        assert not out.exists()

    def test_zero_frames_usage_error(self, tmp_path):
        assert main(["synth", "--frames", "0", "--out", str(tmp_path)]) == 1

    def test_alpha_inversion_usage_error(self, tmp_path):
        out = tmp_path / "s"
        assert main(synth_args(out)) == 0
        rc = main(["track", "--detections", str(out / "detections.json"),
                   "--out", str(tmp_path / "t.json"),
                   "--alpha-low", "0.95", "--alpha-high", "0.9"])
        assert rc == 1

    def test_malformed_detections_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "width": 4, "height": 4, "frames": [{"index": 0, "detections": [{"score": 0.9, "kind": "moving", "rle": [3]}]}]}')
        assert main(["track", "--detections", str(bad),
                     "--out", str(tmp_path / "t.json")]) == 2

    def test_non_positive_size_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "width": 0, "height": -5, "frames": [{"index": 0, "detections": []}]}')
        assert main(["track", "--detections", str(bad),
                     "--out", str(tmp_path / "t.json")]) == 2
        assert not (tmp_path / "t.json").exists()

    def test_oversized_frame_data_error(self, tmp_path, capsys):
        # 10^24 pixels: int64 kernels would overflow, so the reader must refuse the size
        bad = tmp_path / "bad.json"
        frames = [{"index": k, "detections": [{"score": 0.9, "kind": "moving",
                                               "rle": [0, 10**24]}]} for k in range(2)]
        bad.write_text(json.dumps({"format_version": 1, "width": 10**12, "height": 10**12,
                                   "frames": frames}))
        assert main(["track", "--detections", str(bad),
                     "--out", str(tmp_path / "t.json")]) == 2
        assert f"{bad}.width" in capsys.readouterr().err

    def test_malformed_rle_error_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        rles = [[0, 16], [0, 2**64]]
        bad.write_text(json.dumps({"format_version": 1, "width": 4, "height": 4, "frames": [
            {"index": k, "detections": [{"score": 0.9, "kind": "moving", "rle": r}]}
            for k, r in enumerate(rles)]}))
        assert main(["track", "--detections", str(bad),
                     "--out", str(tmp_path / "t.json")]) == 2
        assert (f"{bad}.frames[1].detections[0].rle: run length outside the frame"
                in capsys.readouterr().err)

    def test_missing_file_data_error(self, tmp_path):
        assert main(["track", "--detections", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "t.json")]) == 2

    def test_background_as_ignore_label_data_error(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(synth_args(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        bad = out / "bad-manifest.json"
        bad.write_text(json.dumps({**manifest, "ignore_value": 0}))
        capsys.readouterr()
        assert main(["evaluate", "--gt", str(bad), "--pred", str(out / "gt_tracks.json"),
                     "--metric", "official", "--out", str(tmp_path / "r.json")]) == 2
        assert f"{bad}.ignore_value" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_ignore_label_no_pgm_map_holds_data_error(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(synth_args(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        bad = out / "bad-manifest.json"
        bad.write_text(json.dumps({**manifest, "ignore_value": 70000}))
        capsys.readouterr()
        assert main(["evaluate", "--gt", str(bad), "--pred", str(out / "gt_tracks.json"),
                     "--metric", "official", "--out", str(tmp_path / "r.json")]) == 2
        assert f"{bad}.ignore_value: 70000" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("metric", METRICS)
    def test_manifest_without_frames_data_error(self, tmp_path, capsys, metric):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"format_version": 1, "sequence": "s", "width": 4,
                                   "height": 4, "ignore_value": None, "frames": []}))
        fileio.write_tracks(tmp_path / "t.json", 4, 4, [])
        assert main(["evaluate", "--gt", str(bad), "--pred", str(tmp_path / "t.json"),
                     "--metric", metric, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}.frames: no labelled frames" in err and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("event, field", [("99:0:5", "object_index"),
                                              ("0:12:1", "start_frame"), ("0:2:-4", "duration")])
    def test_occlusion_that_occludes_nothing_usage_error(self, tmp_path, capsys, event, field):
        out = tmp_path / "s"
        assert main(synth_args(out, extra=["--occlude", event])) == 1
        err = capsys.readouterr().err
        assert f"occlusions[0].{field}" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("option,value,named", [
        ("--frames", "0", "frames must be >= 1, got 0"), ("--frames", "abc", "--frames"),
        ("--objects", "0", "objects must be >= 1, got 0"),
        ("--size", "4x", "--size"), ("--size", "0x5", "width must be >= 1, got 0"),
        ("--size", "5x-1", "height must be >= 1, got -1"),
        ("--size", "65537x32768", f"65537x32768 frame exceeds {MAX_PIXELS} pixels"),
        ("--object-size", "5", "--object-size"), ("--object-size", "2:5", "object_size"),
        ("--occlude", "1:2", "--occlude"), ("--occlude", "a:b:c", "--occlude"),
        ("--velocity", "1", "--velocity"), ("--velocity", "nan:1", "--velocity")])
    def test_malformed_synth_value_usage_error(self, tmp_path, capsys, monkeypatch,
                                               option, value, named):
        # refused by argparse or by the config, before anything is painted
        monkeypatch.setattr(cli, "generate", None)
        out = tmp_path / "s"
        assert main(["synth", "--frames", "4", "--size", "40x30", "--out", str(out),
                     option, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and named in err and err.count("\n") == 1
        assert not out.exists()

    def test_gt_pred_count_mismatch(self, tmp_path):
        out = tmp_path / "s"
        assert main(synth_args(out)) == 0
        assert main(["track", "--detections", str(out / "detections.json"),
                     "--out", str(out / "t.json")]) == 0
        rc = main(["evaluate", "--gt", str(out / "manifest.json"),
                   "--gt", str(out / "manifest.json"),
                   "--pred", str(out / "t.json"),
                   "--metric", "proposed", "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_duplicate_sequence_names(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(synth_args(out)) == 0
        assert main(["track", "--detections", str(out / "detections.json"),
                     "--out", str(out / "t.json")]) == 0
        pair = ["--gt", str(out / "manifest.json"), "--pred", str(out / "t.json")]
        rc = main(["evaluate", *pair, *pair, "--metric", "proposed",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "duplicate sequence names" in capsys.readouterr().err

    def test_degenerate_opt_in(self, tmp_path):
        # all-background ground truth: no regions to evaluate
        gt = GroundTruthSequence(16, 8, {0: np.zeros((8, 16), dtype=np.int32)})
        fileio.write_sequence("empty", gt, tmp_path / "g")
        fileio.write_tracks(tmp_path / "t.json", 16, 8, [])
        base = ["evaluate", "--gt", str(tmp_path / "g" / "manifest.json"),
                "--pred", str(tmp_path / "t.json"), "--metric", "proposed",
                "--out", str(tmp_path / "r.json")]
        assert main(base) == 0
        assert main(base + ["--fail-on-degenerate"]) == 3


    @pytest.mark.parametrize("metric", METRICS)
    def test_empty_track_file_flags_no_predictions(self, tmp_path, metric):
        labels = {f: rect_labels(32, 24, [(1, 4 + f, 6, 8, 8)]) for f in range(3)}
        pairs = []
        for name, tracks in (("bare", []),
                             ("found", [Track(1, tuple(det(f, 0.9, 32, 24, 4 + f, 6, 8, 8)
                                                  for f in range(3)))])):
            fileio.write_sequence(name, GroundTruthSequence(32, 24, labels), tmp_path / name)
            fileio.write_tracks(tmp_path / f"{name}.json", 32, 24, tracks)
            pairs.append(["--gt", str(tmp_path / name / "manifest.json"),
                          "--pred", str(tmp_path / f"{name}.json")])

        def evaluate(*pair_args):
            out = tmp_path / "r.json"
            rc = main(["evaluate", *pair_args, "--metric", metric, "--out", str(out),
                       "--fail-on-degenerate"])
            return rc, json.loads(out.read_text())

        rc, report = evaluate(*pairs[0])
        assert rc == 3
        assert "no_predictions" in report["aggregate"]["flags"]
        assert "no_predictions" in report["per_sequence"]["bare"]["flags"]
        # a track in any sequence clears the aggregate's flag, not the bare entry's
        _, report = evaluate(*pairs[0], *pairs[1])
        assert "no_predictions" not in report["aggregate"]["flags"]
        assert "no_predictions" in report["per_sequence"]["bare"]["flags"]
        assert "no_predictions" not in report["per_sequence"]["found"]["flags"]


    # the values a report over sequences without a ground-truth object keeps, without a
    # track and with one; the flags are the same for every metric
    @pytest.mark.parametrize("metric,values", [
        ("proposed", {"precision": (None, None), "f_measure": (None, None)}),
        ("official", {"f_measure": (None, None), "n_over_075": (0, 0)}),
        ("delta-obj", {"delta_obj": (0.0, 1.0)}),
        ("map", {"ap_mask": (None, None)}),
        ("davis", {"j_mean": (1.0, 0.0), "f_boundary": (1.0, 0.0)})])
    @pytest.mark.parametrize("n_tracks", [0, 1])
    def test_no_ground_truth_flags_degenerate(self, tmp_path, metric, values, n_tracks):
        gt = GroundTruthSequence(16, 8, {0: np.zeros((8, 16), dtype=np.int32)})
        fileio.write_sequence("empty", gt, tmp_path / "g")
        tracks = [Track(1, (det(0, 0.9, 16, 8, 2, 2, 4, 4),))][:n_tracks]
        fileio.write_tracks(tmp_path / "t.json", 16, 8, tracks)
        out = tmp_path / "r.json"
        argv = ["evaluate", "--gt", str(tmp_path / "g" / "manifest.json"),
                "--pred", str(tmp_path / "t.json"), "--metric", metric, "--out", str(out)]
        assert main(argv) == 0
        assert main(argv + ["--fail-on-degenerate"]) == 3
        report = json.loads(out.read_text())
        flags = ["degenerate"] + ["no_predictions"] * (not n_tracks)
        for rep in (report["aggregate"], report["per_sequence"]["empty"]):
            assert rep["flags"] == flags
            assert {field: rep[field] for field in values} == \
                {field: pair[n_tracks] for field, pair in values.items()}


_FLOAT_OPTIONS = {"synth": ["--score-mean", "--score-spread", "--fp-rate", "--fn-rate"],
                  "track": ["--alpha-high", "--alpha-low", "--min-match-iou",
                            "--static-overlap-iou"],
                  "evaluate": ["--binarize-threshold", "--boundary-tolerance"]}
_BASE_ARGS = {"synth": ["--frames", "2", "--size", "40x30"],
              "track": ["--detections", "d.json"],
              "evaluate": ["--gt", "m.json", "--pred", "t.json", "--metric", "davis"]}


class TestFloatOptions:
    @pytest.mark.parametrize("command,option,value", [
        *((c, o, v) for c, opts in _FLOAT_OPTIONS.items() for o in opts
          for v in ("nan", "inf", "-inf", "x")),
        ("synth", "--velocity", "nan:1"), ("synth", "--velocity", "1:inf"),
        ("synth", "--velocity", "1"), ("evaluate", "--boundary-tolerance", "-5"),
    ])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, command, option, value):
        out = tmp_path / "out"
        argv = [command, *_BASE_ARGS[command], "--out", str(out), f"{option}={value}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and option in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--seed", "-1", "seed must"), ("--score-spread", "1e308", "score_spread must"),
        ("--jitter", "1000000000000000000000", "jitter_px must"),
        ("--objects", "65536", "objects must be at most 65535"),
        ("--object-size", "31:31", "canvas 40x30 cannot hold a 31px object")],
        ids=["seed", "score_spread", "jitter_px", "objects", "object_size-past-the-canvas"])
    def test_synth_value_the_generators_cannot_draw_with_is_a_usage_error(
            self, tmp_path, capsys, option, value, message):
        out = tmp_path / "out"
        assert main(["synth", *_BASE_ARGS["synth"], "--out", str(out), f"{option}={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_boundary_tolerance_past_the_diagonal_acts_as_100(self, tmp_path):
        tree = tmp_path / "s"
        assert main(synth_args(tree, frames=4, extra=["--jitter", "2"])) == 0
        assert main(["track", "--detections", str(tree / "detections.json"),
                     "--out", str(tree / "tracks.json")]) == 0
        reports = {}
        for pct in ("1e308", "1000", "100", "0.8"):
            reports[pct] = tmp_path / f"{pct}.json"
            assert main(["evaluate", "--gt", str(tree / "manifest.json"),
                         "--pred", str(tree / "tracks.json"), "--metric", "davis",
                         "--boundary-tolerance", pct, "--out", str(reports[pct])]) == 0
        report = reports.pop("0.8").read_bytes()
        assert len({r.read_bytes() for r in reports.values()} - {report}) == 1

    def test_huge_velocity_finishes(self, tmp_path):
        done = subprocess.run([sys.executable, "-m", "movingseg", "synth", "--frames", "5",
                               "--velocity", "1e12:1e12", "--size", "40x30",
                               "--out", str(tmp_path / "s")],
                              env=_env(), capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr


class TestSynthCommand:
    def test_outputs_present(self, tmp_path):
        out = tmp_path / "o"
        assert main(synth_args(out)) == 0
        assert (out / "manifest.json").is_file()
        assert (out / "gt_tracks.json").is_file()
        assert (out / "detections.json").is_file()
        assert any((out / "labelmaps").iterdir())

    def test_same_seed_identical_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a)) == 0
        assert main(synth_args(b)) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a, seed=1)) == 0
        assert main(synth_args(b, seed=2)) == 0
        assert tree_bytes(a) != tree_bytes(b)


class TestTrackCommand:
    def test_pipeline_perfect_f(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(synth_args(out)) == 0
        assert main(["track", "--detections", str(out / "detections.json"),
                     "--out", str(out / "tracks.json")]) == 0
        rc = main(["evaluate", "--gt", str(out / "manifest.json"),
                   "--pred", str(out / "tracks.json"), "--metric", "proposed",
                   "--out", str(out / "r.json")])
        assert rc == 0
        assert "f_measure=1.000000" in capsys.readouterr().out

    def test_bidirectional_via_files(self, tmp_path):
        W, H = 64, 48
        moving = {f: [det(f, 0.95, W, H, 10, 10, 12, 12)] for f in range(10, 30)}
        static = {f: [det(f, 0.85, W, H, 10, 10, 12, 12)] for f in range(10)}
        fileio.write_detections(tmp_path / "m.json", W, H, moving)
        fileio.write_detections(tmp_path / "s.json", W, H, static)
        fwd_out = tmp_path / "fwd.json"
        bi_out = tmp_path / "bi.json"
        assert main(["track", "--detections", str(tmp_path / "m.json"),
                     "--static", str(tmp_path / "s.json"),
                     "--out", str(fwd_out)]) == 0
        assert main(["track", "--detections", str(tmp_path / "m.json"),
                     "--static", str(tmp_path / "s.json"), "--bidirectional",
                     "--out", str(bi_out)]) == 0
        _, _, fwd = fileio.read_tracks(fwd_out)
        _, _, bi = fileio.read_tracks(bi_out)
        assert fwd[0].first_frame == 10
        assert bi[0].first_frame == 0
        assert len(bi[0].entries) == 30


class TestEvaluateCommand:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        out = tmp_path / "s"
        assert main(synth_args(out, seed=9, frames=15, objects=2)) == 0
        tracks = out / "tracks.json"
        assert main(["track", "--detections", str(out / "detections.json"),
                     "--out", str(tracks)]) == 0
        return out / "manifest.json", tracks, tmp_path

    def test_fp_track_contrast(self, pipeline):
        manifest, tracks_path, tmp = pipeline
        width, height, tracks = fileio.read_tracks(tracks_path)
        spoiled = list(tracks) + [
            Track(99, tuple(det(f, 0.95, width, height, 80, 50, 8, 8)
                            for f in range(15)))
        ]
        spoiled_path = tmp / "spoiled.json"
        fileio.write_tracks(spoiled_path, width, height, spoiled)

        def f_of(metric, pred):
            report = tmp / f"r-{metric}-{pred.stem}.json"
            assert main(["evaluate", "--gt", str(manifest), "--pred", str(pred),
                         "--metric", metric, "--out", str(report)]) == 0
            return json.loads(report.read_text())["aggregate"]["f_measure"]

        assert f_of("official", spoiled_path) == f_of("official", tracks_path)
        assert f_of("proposed", spoiled_path) < f_of("proposed", tracks_path)

    def test_delta_obj(self, pipeline):
        manifest, tracks_path, tmp = pipeline
        report = tmp / "delta.json"
        assert main(["evaluate", "--gt", str(manifest), "--pred", str(tracks_path),
                     "--metric", "delta-obj", "--out", str(report)]) == 0
        assert json.loads(report.read_text())["aggregate"]["delta_obj"] == 0.0

    def test_map_golden_case(self, tmp_path):
        W, H = 40, 20
        labels = rect_labels(W, H, [(1, 0, 0, 6, 6), (2, 20, 0, 6, 6)])
        gt = GroundTruthSequence(W, H, {0: labels})
        fileio.write_sequence("hand", gt, tmp_path / "g")
        tracks = [Track(1, (det(0, 0.9, W, H, 0, 0, 6, 6),)),
                  Track(2, (det(0, 0.8, W, H, 10, 12, 4, 4),)),
                  Track(3, (det(0, 0.7, W, H, 20, 0, 6, 6),))]
        fileio.write_tracks(tmp_path / "t.json", W, H, tracks)
        report = tmp_path / "r.json"
        assert main(["evaluate", "--gt", str(tmp_path / "g" / "manifest.json"),
                     "--pred", str(tmp_path / "t.json"), "--metric", "map",
                     "--out", str(report)]) == 0
        assert json.loads(report.read_text())["aggregate"]["ap_mask"] == \
            pytest.approx(5 / 6, abs=1e-12)

    def test_davis_metric(self, pipeline):
        manifest, tracks_path, tmp = pipeline
        report = tmp / "davis.json"
        assert main(["evaluate", "--gt", str(manifest), "--pred", str(tracks_path),
                     "--metric", "davis", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())["aggregate"]
        assert doc["j_mean"] == 1.0
        assert doc["j_recall"] == 1.0
        assert doc["f_boundary"] == 1.0

    def test_csv_written(self, pipeline):
        manifest, tracks_path, tmp = pipeline
        assert main(["evaluate", "--gt", str(manifest), "--pred", str(tracks_path),
                     "--metric", "proposed", "--out", str(tmp / "r.json"),
                     "--csv", str(tmp / "r.csv")]) == 0
        lines = (tmp / "r.csv").read_text().splitlines()
        assert len(lines) == 3      # header, one sequence, aggregate

    def test_jobs_do_not_change_bytes(self, tmp_path):
        pairs = []
        for seed in (1, 2, 3):
            out = tmp_path / f"s{seed}"
            assert main(synth_args(out, seed=seed, frames=8, objects=2,
                                   extra=["--name", f"seq{seed}"])) == 0
            tracks = out / "tracks.json"
            assert main(["track", "--detections", str(out / "detections.json"),
                         "--out", str(tracks)]) == 0
            pairs += ["--gt", str(out / "manifest.json"), "--pred", str(tracks)]
        outputs = set()
        for jobs in ("0", "1", "4"):
            report, csv = tmp_path / f"r{jobs}.json", tmp_path / f"r{jobs}.csv"
            assert main(["evaluate", *pairs, "--metric", "proposed", "--jobs", jobs,
                         "--out", str(report), "--csv", str(csv)]) == 0
            outputs.add((report.read_bytes(), csv.read_bytes()))
        assert len(outputs) == 1

    def test_negative_jobs_usage_error(self, pipeline, capsys):
        manifest, tracks_path, tmp = pipeline
        assert main(["evaluate", "--gt", str(manifest), "--pred", str(tracks_path),
                     "--metric", "proposed", "--jobs", "-1",
                     "--out", str(tmp / "r.json")]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp / "r.json").exists()

    def test_second_pair_of_wrong_size_names_its_file(self, tmp_path, capsys):
        pairs = []
        for seed, size in ((1, "64x48"), (2, "48x64")):
            out = tmp_path / f"s{seed}"
            assert main(synth_args(out, seed=seed, frames=4,
                                   extra=["--size", size, "--name", f"seq{seed}"])) == 0
            pairs.append(out)
        tracks = pairs[1] / "gt_tracks.json"
        fileio.write_tracks(tracks, 64, 48, [])
        rc = main(["evaluate", "--gt", str(pairs[0] / "manifest.json"),
                   "--pred", str(pairs[0] / "gt_tracks.json"),
                   "--gt", str(pairs[1] / "manifest.json"), "--pred", str(tracks),
                   "--metric", "proposed", "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert f"{tracks}: dimensions 64x48 do not match" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_one_sequence_loaded_at_a_time(self, tmp_path, monkeypatch):
        pairs = []
        for seed in (1, 2, 3):
            out = tmp_path / f"s{seed}"
            assert main(synth_args(out, seed=seed, frames=4,
                                   extra=["--name", f"seq{seed}"])) == 0
            pairs += ["--gt", str(out / "manifest.json"),
                      "--pred", str(out / "gt_tracks.json")]
        loaded = []
        load_sequence = fileio.load_sequence

        def load_alone(path):
            gc.collect()
            assert not any(ref() for ref in loaded), "an earlier sequence is still held"
            name, gt = load_sequence(path)
            loaded.append(weakref.ref(gt))
            return name, gt

        monkeypatch.setattr(fileio, "load_sequence", load_alone)
        for metric in METRICS:
            loaded.clear()
            assert main(["evaluate", *pairs, "--metric", metric,
                         "--out", str(tmp_path / f"{metric}.json")]) == 0
            assert len(loaded) == 3

    def test_summary_lines_printed(self, pipeline, capsys):
        manifest, tracks_path, tmp = pipeline
        assert main(["evaluate", "--gt", str(manifest), "--pred", str(tracks_path),
                     "--metric", "proposed", "--out", str(tmp / "r.json")]) == 0
        out = capsys.readouterr().out
        assert out.count("precision=") == 2     # sequence line + aggregate line
        assert "aggregate:" in out


@pytest.fixture(scope="module")
def two_sequences(tmp_path_factory):
    """Two noisy synthesized sequences, tracked: their root and each one's CLI pair flags."""
    root = tmp_path_factory.mktemp("pair")
    pairs = {}
    for seed in (4, 7):
        out = root / f"s{seed}"
        noise = ["--jitter", "2", "--fp-rate", "0.5", "--fn-rate", "0.1",
                 "--score-mean", "0.85", "--score-spread", "0.15",
                 "--name", f"seq{seed}"]
        assert main(synth_args(out, seed=seed, frames=10, objects=3, extra=noise)) == 0
        assert main(["track", "--detections", str(out / "detections.json"),
                     "--out", str(out / "t.json")]) == 0
        pairs[f"seq{seed}"] = ["--gt", str(out / "manifest.json"),
                               "--pred", str(out / "t.json")]
    return root, pairs


class TestPerSequenceRule:
    """A sequence's per_sequence entry is what evaluating it alone reports."""

    @pytest.mark.parametrize("metric", [
        ["proposed"], ["official"], ["delta-obj"], ["map", "--map-mode", "box"],
        ["map", "--map-mode", "mask"], ["davis"]])
    def test_entry_equals_lone_aggregate(self, two_sequences, metric):
        root, pairs = two_sequences

        def evaluate(name, *pair_args):
            report = root / f"{name}-{'-'.join(metric)}.json"
            assert main(["evaluate", *pair_args, "--metric", *metric,
                         "--out", str(report)]) == 0
            return json.loads(report.read_text())

        both = evaluate("both", *pairs["seq4"], *pairs["seq7"])
        assert sorted(both["per_sequence"]) == ["seq4", "seq7"]
        for name, pair in pairs.items():
            assert both["per_sequence"][name] == evaluate(name, *pair)["aggregate"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("metric,options", [
    ("proposed", {}), ("official", {}), ("delta-obj", {}), ("map", {}),
    ("map", {"map_mode": "box"}), ("davis", {}), ("davis", {"boundary_tolerance": 3.0})])
def test_library_report_equals_cli(two_sequences, metric, options, jobs):
    root, pairs = two_sequences
    flags = [x for key, value in options.items() for x in ("--" + key.replace("_", "-"),
                                                           str(value))]
    report = root / f"cli-{metric}-{'-'.join(flags)}-{jobs}.json"
    assert main(["evaluate", *pairs["seq4"], *pairs["seq7"], "--metric", metric, *flags,
                 "--jobs", jobs, "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    sequences = []
    for pair in pairs.values():
        name, gt = fileio.load_sequence(pair[1])
        sequences.append((name, gt, fileio.read_tracks(pair[3])[2]))
    want = {**doc["aggregate"], "per_sequence": doc["per_sequence"]}
    assert movingseg.evaluate(metric, sequences, **options).to_dict() == want
    # any iterable, read once: a one-shot generator gives the same report
    assert movingseg.evaluate(metric, (s for s in sequences), **options).to_dict() == want


# A malformed file is rejected before anything of its declared size exists: the
# parsed document and a few small arrays stay far below this many traced bytes.
_PEAK_BOUND = 4 << 20
_FUZZ_W, _FUZZ_H = 8, 6


def _run_traced(argv):
    """main(argv)'s exit code, its stderr and the tracemalloc peak during it."""
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rc, err.getvalue(), peak


def _fuzz_files(root, detections=None, tracks=None):
    """A valid 8x6 sequence and tracks file under root; documents override either file.

    Returns the evaluate and track argument lists over them.
    """
    labels = {0: rect_labels(_FUZZ_W, _FUZZ_H, [(1, 2, 1, 3, 3)])}
    manifest = fileio.write_sequence("s", GroundTruthSequence(_FUZZ_W, _FUZZ_H, labels),
                                     root / "g")
    fileio.write_tracks(root / "t.json", _FUZZ_W, _FUZZ_H, [])
    fileio.write_detections(root / "d.json", _FUZZ_W, _FUZZ_H, {})
    for name, doc in (("d.json", detections), ("t.json", tracks)):
        if doc is not None:
            (root / name).write_text(json.dumps({"format_version": 1, "width": _FUZZ_W,
                                                 "height": _FUZZ_H, **doc}))
    evaluate = ["evaluate", "--gt", str(manifest), "--pred", str(root / "t.json"),
                "--metric", "proposed", "--jobs", "1", "--out", str(root / "r.json")]
    track = ["track", "--detections", str(root / "d.json"), "--out", str(root / "o.json")]
    return evaluate, track


def _assert_rejected(argv, field=None):
    rc, err, peak = _run_traced(argv)
    assert rc == 2, err
    assert "Traceback" not in err
    if field is not None:
        assert field in err
    assert peak < _PEAK_BOUND


_VALID_PGM = b"P5\n%d %d\n255\n" % (_FUZZ_W, _FUZZ_H) + bytes(_FUZZ_W * _FUZZ_H)
_PGMS = st.one_of(
    st.integers(0, len(_VALID_PGM) - 1).map(lambda k: _VALID_PGM[:k]),   # truncated
    # declared sizes up to 10^24 pixels over a payload of at most 16 bytes
    st.builds(lambda w, h, maxval, payload: b"P5\n%d %d\n%d\n" % (w, h, maxval) + bytes(payload),
              st.integers(1, 10**12), st.integers(1, 10**12),
              st.sampled_from([255, 65535]), st.integers(0, 16)))
_ABSURD_RUNS = st.one_of(
    st.lists(st.integers(-2**65, 2**70), min_size=1, max_size=6).filter(
        lambda runs: sum(runs) != _FUZZ_W * _FUZZ_H),
    # one run above 2^63 among plausible ones
    st.builds(lambda head, big, tail: [*head, big, *tail],
              st.lists(st.integers(0, _FUZZ_W * _FUZZ_H), max_size=3),
              st.integers(2**63, 2**80), st.lists(st.integers(0, _FUZZ_W * _FUZZ_H), max_size=3)))


class TestReaderFuzz:
    """Malformed inputs exit 2 without a traceback or a declared-size allocation."""

    @pytest.mark.parametrize("doc", ["manifest", "tracks", "detections"])
    @pytest.mark.parametrize("content", sorted(UNREADABLE_JSON))
    def test_unreadable_json(self, tmp_path, doc, content):
        evaluate, track = _fuzz_files(tmp_path)
        path, argv = {"manifest": (tmp_path / "g" / "manifest.json", evaluate),
                      "tracks": (tmp_path / "t.json", evaluate),
                      "detections": (tmp_path / "d.json", track)}[doc]
        path.write_bytes(UNREADABLE_JSON[content])
        _assert_rejected(argv, f"{path}: invalid JSON (")

    @given(_PGMS)
    @settings(max_examples=60, deadline=None)
    def test_pgm_headers(self, pgm):
        with tempfile.TemporaryDirectory() as tmp:   # hypothesis reruns outlive tmp_path
            evaluate, _ = _fuzz_files(Path(tmp))
            (Path(tmp) / "g" / "labelmaps" / "000000.pgm").write_bytes(pgm)
            _assert_rejected(evaluate)

    @given(st.booleans(), _ABSURD_RUNS)
    @settings(max_examples=60, deadline=None)
    def test_absurd_runs(self, tracks, runs):
        with tempfile.TemporaryDirectory() as tmp:
            if tracks:
                evaluate, _ = _fuzz_files(Path(tmp), tracks={"tracks": [
                    {"id": 1, "frames": [{"index": 0, "score": 0.9, "rle": runs}]}]})
                _assert_rejected(evaluate, f"{Path(tmp) / 't.json'}.tracks[0].frames[0].rle")
            else:
                _, track = _fuzz_files(Path(tmp), detections={"frames": [
                    {"index": 0, "detections": [{"score": 0.9, "kind": "moving", "rle": runs}]}]})
                _assert_rejected(track, f"{Path(tmp) / 'd.json'}.frames[0].detections[0].rle")

    @given(st.sampled_from(["manifest", "tracks", "detections"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_huge_declared_size(self, doc, data):
        width = data.draw(st.integers(1, 10**12))
        height = data.draw(st.integers(MAX_PIXELS // width + 1, 10**12))
        size = {"width": width, "height": height}
        full = [0, width * height]   # one run over the whole declared frame
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            evaluate, track = _fuzz_files(root)
            if doc == "manifest":
                path = root / "g" / "manifest.json"
                path.write_text(json.dumps({**json.loads(path.read_text()), **size}))
                argv = evaluate
            elif doc == "tracks":
                path = root / "t.json"
                path.write_text(json.dumps({"format_version": 1, **size, "tracks": [
                    {"id": 1, "frames": [{"index": 0, "score": 0.9, "rle": full}]}]}))
                argv = evaluate
            else:
                path = root / "d.json"
                path.write_text(json.dumps({"format_version": 1, **size, "frames": [
                    {"index": 0, "detections": [
                        {"score": 0.9, "kind": "moving", "rle": full}]}]}))
                argv = track
            _assert_rejected(argv, f"{path}.width")


def test_pipeline_runs_on_numpy_alone(tmp_path):
    """synth, track (both passes, with a static stream) and every metric never import
    scipy, a test-only dependency."""
    script = textwrap.dedent(f"""
        import sys
        from movingseg.cli import main
        out, static = {str(tmp_path / "seq")!r}, {str(tmp_path / "static")!r}
        assert main({synth_args(tmp_path / "seq", extra=("--fp-rate", "0.3"))!r}) == 0
        # the same objects under other noise, as the static stream
        assert main({synth_args(tmp_path / "static", extra=("--jitter", "1"))!r}) == 0
        assert main(["track", "--detections", out + "/detections.json",
                     "--out", out + "/tracks.json"]) == 0
        assert main(["track", "--bidirectional", "--detections", out + "/detections.json",
                     "--static", static + "/detections.json", "--out", out + "/bidir.json"]) == 0
        for k, (pred, metric) in enumerate([
                ("tracks", ["proposed"]), ("tracks", ["official"]), ("tracks", ["delta-obj"]),
                ("tracks", ["map"]), ("tracks", ["map", "--map-mode", "box"]),
                ("tracks", ["davis"]),
                # every detection kept, so overlapping masks go through the one union sweep
                ("tracks", ["davis", "--binarize-threshold", "0"]),
                ("bidir", ["official"])]):
            assert main(["evaluate", "--metric", *metric, "--gt", out + "/manifest.json",
                         "--pred", out + "/" + pred + ".json",
                         "--out", out + "/report" + str(k) + ".json",
                         "--csv", out + "/report" + str(k) + ".csv"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    done = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _readme_block(heading: str, lang: str) -> str:
    """The README's first ```<lang> block under ``## <heading>``: from that heading on,
    the lines after the first ```<lang> fence, up to the first bare fence."""
    lines, on, inside = [], False, False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        on = on or line.startswith(f"## {heading}")
        if on and line == "```":
            break
        if on and inside:
            lines.append(line)
        inside = inside or on and line == f"```{lang}"
    return "\n".join(lines) + "\n"


def test_readme_library_use_runs(tmp_path):
    snippet = _readme_block("Library use", "python")
    assert "evaluate(" in snippet
    done = subprocess.run([sys.executable, "-c", snippet], env=_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) > 0   # the snippet prints the f_measure


def test_readme_quick_start_runs(tmp_path):
    """Each command of the README's quick start, run as ``python -m movingseg``, exits 0."""
    block = _readme_block("Quick start", "sh").replace("\\\n", " ")   # join continuations
    commands = [argv for line in block.splitlines() if (argv := shlex.split(line, comments=True))]
    assert [argv[:2] for argv in commands] == [
        ["movingseg", "synth"], ["movingseg", "track"], ["movingseg", "evaluate"]]
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", *argv], env=_env(), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (argv, done.stderr)


def test_fp_penalty_demo_refuses_a_malformed_size():
    # the demo split --size itself, and ended "160x120x5" in a traceback
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "fp_penalty_demo.py"),
                           "--size", "160x120x5"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "argument --size: expects WxH, got '160x120x5'" in done.stderr


def _fp_penalty_demo_rows(*argv):
    """The demo's table, one column per tuple: fp_rate, official F and N, proposed F,
    tracks and delta_obj."""
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "fp_penalty_demo.py"), *argv],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()[1:]
    assert header.split() == ["fp_rate", "official", "F", "official", "N", "proposed", "F",
                              "tracks", "delta_obj"]
    return tuple(zip(*(map(float, r.split()) for r in rows)))


def test_fp_penalty_demo_shows_the_contrast():
    """The demo's claim: as the false-positive rate rises, the matched-only F stays the
    same while spurious tracks stay unmatched, as at the defaults, and the penalizing F
    falls and the track count and object-count error rise."""
    rate, official, _, proposed, tracks, delta = _fp_penalty_demo_rows()
    assert len(rate) >= 3 and list(rate) == sorted(set(rate))
    assert len(set(official)) == 1
    assert all(a > b for a, b in zip(proposed, proposed[1:]))
    for rising in (tracks, delta):
        assert all(a < b for a, b in zip(rising, rising[1:]))
    assert all(p <= o for p, o in zip(proposed, official))
    # on small frames spurious tracks win matches and the matched-only F falls too; with
    # no ignore label both measures share one matching, so the penalizing F is never above
    _, official, _, proposed, _, _ = _fp_penalty_demo_rows("--size", "40x30", "--frames", "5")
    assert min(official) < max(official)
    assert all(p <= o for p, o in zip(proposed, official))

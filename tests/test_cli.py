import json
from pathlib import Path

import numpy as np
import pytest

from helpers import det, rect_labels
from movingseg import io as fileio
from movingseg.cli import main
from movingseg.metrics import GroundTruthSequence
from movingseg.tracker import Track


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


class TestExitCodes:
    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self, tmp_path):
        assert main(synth_args(tmp_path / "o") + ["--bogus"]) == 1

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
        reports = []
        for jobs in ("1", "4"):
            report = tmp_path / f"r{jobs}.json"
            assert main(["evaluate", *pairs, "--metric", "proposed",
                         "--jobs", jobs, "--out", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_summary_lines_printed(self, pipeline, capsys):
        manifest, tracks_path, tmp = pipeline
        assert main(["evaluate", "--gt", str(manifest), "--pred", str(tracks_path),
                     "--metric", "proposed", "--out", str(tmp / "r.json")]) == 0
        out = capsys.readouterr().out
        assert out.count("precision=") == 2     # sequence line + aggregate line
        assert "aggregate:" in out


class TestPerSequenceRule:
    """A sequence's per_sequence entry is what evaluating it alone reports."""

    @pytest.fixture(scope="class")
    def two_sequences(self, tmp_path_factory):
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

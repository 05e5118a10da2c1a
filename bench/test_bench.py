"""The benchmark's own tests, at smoke size.

    python3 -m pytest bench/test_bench.py -q

They run the benchmark as a subprocess, as it is run from a shell, so the
tracer's patching never touches the test process's copy of the package.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, *args):
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_declared_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    stamp = json.loads(next(line[len("stamp "):] for line in done.stdout.splitlines()
                            if line.startswith("stamp ")))
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "seed"):
        assert key in stamp


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tracer_wraps_every_binding_and_restores_it():
    import movingseg.metrics as metrics
    import movingseg.tracker as tracker
    from movingseg.mask import Mask, iou

    import spans

    original = tracker.iou
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert tracker.iou is not original and metrics.mask_iou is not original
        m = Mask(4, 1, (1, 2, 1))
        tracker.iou(m, m)
        tracker.iou(m, m)
        metrics.mask_iou(m, m)
    assert tracker.iou is original and metrics.mask_iou is iou
    table, counts = tracer.collect()
    assert table["mask.iou"]["calls"] == 3
    assert table["mask.intersect_cuts"]["calls"] == 3
    assert counts["tracker.iou_pairs"] == 2
    assert counts["mask.intersect_cut_len"] == 3 * 4
    iou_span = table["mask.iou"]
    assert 0 <= iou_span["self_s"] <= iou_span["total_s"]


def test_dense_check_rejects_a_wrong_report(tmp_path):
    import dense
    from movingseg.cli import main

    seq = tmp_path / "seq"
    assert main(["synth", "--seed", "5", "--frames", "4", "--objects", "3", "--size", "40x30",
                 "--fp-rate", "1", "--jitter", "1", "--out", str(seq)]) == 0
    assert dense.check_synth_tree(seq) == 4
    report = tmp_path / "report.json"
    tracks = seq / "tracks.json"
    assert main(["track", "--detections", str(seq / "detections.json"),
                 "--out", str(tracks)]) == 0
    pairs = [(seq / "manifest.json", tracks)]
    for metric in ("proposed", "official"):
        assert main(["evaluate", "--gt", str(pairs[0][0]), "--pred", str(tracks),
                     "--metric", metric, "--out", str(report)]) == 0
        dense.check_report(report, pairs, metric)
        doc = json.loads(report.read_text())
        doc["aggregate"]["precision"] *= 1.0 + 1e-6
        report.write_text(json.dumps(doc))
        with pytest.raises(dense.CheckError):
            dense.check_report(report, pairs, metric)


def test_times_are_scaled_by_the_gauge():
    import run
    import workloads

    workload = workloads.build("hd", 1, smoke=True)
    cmds = [run.Command("synth", "synth_fps"), run.Command("eval_davis", "eval_davis_fps")]
    ref = run.REFERENCE_KERNEL_S
    quiet = {"synth": [(1.0, ref)], "eval_davis": [(2.0, ref)]}
    # a host twice as slow doubles both the commands and the gauge around them
    loaded = {"synth": [(2.0, 2 * ref)], "eval_davis": [(4.0, 2 * ref)]}
    a, b = run.end_to_end(workload, quiet, cmds), run.end_to_end(workload, loaded, cmds)
    for name in ("pipeline_fps", "synth_fps", "evaluate_fps"):
        assert math.isclose(a[name], b[name])
    assert math.isclose(a["pipeline_fps"], workload.frames / 3.0)
    assert math.isclose(b["wall.pipeline_fps"], a["wall.pipeline_fps"] / 2)
    assert run.gauge_kernel() > 0

#!/usr/bin/env python3
"""Run a fixed small pipeline and list the sha256 of everything it outputs.

    python scripts/identity.py DIR

runs ``synth``, ``track`` and ``evaluate`` in-process through ``cli.main``
with DIR, new or empty, as the working directory, and writes every output
file under DIR.
The pipeline is two 96x72 sequences (rectangles with an occlusion and
fp/fn noise, ellipses), one sequence with labels above 255, a static
stream from ``corrupt``, forward tracking at two ``--t-inactive`` values and
bidirectional tracking with the static stream, both again on a detections file
that holds the static stream as kind ``static`` before each frame's moving
detections, every metric
and its options with CSVs (davis at the default tolerance, at 3 %, at 0, where
no window reaches past the pixel's own row and column, and at 150 %, where
every window covers the whole frame), one ``--fail-on-degenerate`` run on an empty
tracks file, and two malformed inputs.  Each command's stdout, stderr and
exit code are kept as files too.  The sorted list ``<sha256>  <path>`` of
all of them is written to DIR/identity.sha256 and printed;
``tests/golden/identity.sha256`` holds the expected list, so a change that
alters any output on purpose rewrites that file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from movingseg import cli
from movingseg import io as fileio
from movingseg.synth import NoiseConfig, corrupt

LIST = "identity.sha256"

# (name, synth options): two small sequences, and one whose 300 objects need labels
# above 255, so its maps are 16-bit
_SEQUENCES = [
    ("a", "--seed 3 --frames 12 --objects 4 --size 96x72 --shape rectangle --jitter 1 "
          "--fp-rate 0.5 --fn-rate 0.1 --score-mean 0.85 --score-spread 0.15 "
          "--occlude 1:3:4"),
    ("b", "--seed 5 --frames 10 --objects 3 --size 96x72 --shape ellipse --fp-rate 0.3"),
    ("c", "--seed 16 --frames 2 --objects 300 --object-size 3:6 --size 160x120"),
]
_METRICS = ["proposed", "official", "delta-obj", "map", "map --map-mode box", "davis",
            "davis --boundary-tolerance 3.0", "davis --boundary-tolerance 0",
            "davis --boundary-tolerance 150"]


def _commands():
    """Each command's name and argv, in the order they run."""
    for name, options in _SEQUENCES:
        yield f"synth-{name}", ["synth", *options.split(), "--name", name, "--out", name]
    for name, _ in _SEQUENCES:
        yield f"track-{name}", ["track", "--detections", f"{name}/detections.json",
                                "--out", f"{name}/tracks.json"]
    # a's detections miss objects for one frame at most: a track idle that long survives
    # only while t_inactive >= 1
    yield "track-a-t-inactive-1", ["track", "--t-inactive", "1", "--detections",
                                   "a/detections.json", "--out", "a/tracks-t1.json"]
    yield "track-a-bidir", ["track", "--bidirectional", "--detections", "a/detections.json",
                            "--static", "a/static-dets.json", "--out", "a/bidir.json"]
    # a's detections and the static stream in one file, each frame's static ones first
    yield "track-a-mixed", ["track", "--detections", "a/mixed-dets.json",
                            "--out", "a/mixed-tracks.json"]
    yield "track-a-mixed-bidir", ["track", "--bidirectional", "--detections",
                                  "a/mixed-dets.json", "--static", "a/static-dets.json",
                                  "--out", "a/mixed-bidir.json"]
    pairs = [arg for name, _ in _SEQUENCES
             for arg in ("--gt", f"{name}/manifest.json", "--pred", f"{name}/tracks.json")]
    for run in _METRICS:
        slug = run.replace(" --", "-").replace(" ", "-")
        yield f"evaluate-{slug}", ["evaluate", "--metric", *run.split(), *pairs,
                                   "--out", f"{slug}.json", "--csv", f"{slug}.csv"]
    for metric in ("proposed", "official"):
        yield f"evaluate-bidir-{metric}", [
            "evaluate", "--metric", metric, "--gt", "a/manifest.json", "--pred", "a/bidir.json",
            "--out", f"bidir-{metric}.json", "--csv", f"bidir-{metric}.csv"]
    yield "evaluate-degenerate", ["evaluate", "--metric", "proposed", "--fail-on-degenerate",
                                  "--gt", "b/manifest.json", "--pred", "b/empty-tracks.json",
                                  "--out", "degenerate.json"]
    yield "evaluate-bad-score", ["evaluate", "--metric", "proposed", "--gt", "a/manifest.json",
                                 "--pred", "a/bad-score-tracks.json", "--out", "bad.json"]
    yield "track-bad-kind", ["track", "--detections", "a/bad-kind-dets.json",
                             "--out", "a/bad-kind-tracks.json"]


def _prepare(name: str) -> None:
    """The inputs a command needs that no earlier command writes, made before it runs."""
    if name == "track-a-bidir":
        _, gt = fileio.load_sequence("a/manifest.json")
        noise = NoiseConfig(jitter_px=1, score_mean=0.9, score_spread=0.1, fp_rate=0.2,
                            fn_rate=0.3)
        fileio.write_detections("a/static-dets.json", gt.width, gt.height,
                                corrupt(gt, noise, seed=20))
    elif name == "track-a-mixed":
        width, height, moving = fileio.read_detections("a/detections.json")
        _, _, static = fileio.read_detections("a/static-dets.json")
        fileio.write_detections("a/mixed-dets.json", width, height, {
            f: [*(replace(d, kind="static") for d in static.get(f, ())), *moving.get(f, ())]
            for f in sorted({*moving, *static})})
    elif name == "evaluate-degenerate":
        fileio.write_tracks("b/empty-tracks.json", 96, 72, [])
    elif name == "evaluate-bad-score":
        doc = json.loads(Path("a/tracks.json").read_text())
        doc["tracks"][0]["frames"][0]["score"] = "0.5"
        Path("a/bad-score-tracks.json").write_text(json.dumps(doc))
    elif name == "track-bad-kind":
        doc = json.loads(Path("a/detections.json").read_text())
        doc["frames"][0]["detections"][0]["kind"] = "wobbling"
        Path("a/bad-kind-dets.json").write_text(json.dumps(doc))


def run(out_dir) -> dict[str, str]:
    """Run the pipeline in ``out_dir`` and return each output's sha256 by its path there."""
    out = Path(out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    (out / "commands").mkdir(exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, argv in _commands():
            _prepare(name)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            for suffix, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue()),
                                 ("exit", f"{code}\n")):
                Path(f"commands/{name}.{suffix}").write_text(text, encoding="utf-8")
    finally:
        os.chdir(cwd)
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*") if path.is_file() and path.name != LIST}


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} DIR")
    digests = run(sys.argv[1])
    # the lines of sha256sum's own output, sorted by path
    text = "".join(f"{digests[path]}  {path}\n" for path in sorted(digests))
    (Path(sys.argv[1]) / LIST).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


if __name__ == "__main__":
    main()

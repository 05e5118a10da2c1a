"""The benchmark's workloads: what `movingseg synth` is asked to make from a seed.

Each workload is one or more synthetic sequences plus, for ``crowded``, a
static detection stream.  Everything is derived from the benchmark seed, so
the same seed gives byte-identical inputs.  ``smoke`` shrinks every workload
to a few tiny frames for the benchmark's own tests; the workloads keep their
character (sequence count, object count, noise) at that size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (sequences, width, height, frames) at full and smoke size
SIZES = {
    "fbms": {"full": (4, 640, 480, 15), "smoke": (4, 96, 72, 5)},
    "hd": {"full": (1, 1920, 1080, 5), "smoke": (1, 192, 108, 3)},
    "crowded": {"full": (1, 320, 240, 30), "smoke": (1, 96, 72, 8)},
}


@dataclass(frozen=True)
class Sequence:
    name: str
    frames: int
    flags: tuple[str, ...]          # `movingseg synth` flags except --out


@dataclass(frozen=True)
class StaticStream:
    """A second corrupt pass over the first sequence, read with `track --static`."""

    seed: int
    jitter_px: int = 1
    score_mean: float = 0.9
    score_spread: float = 0.1
    fp_rate: float = 0.2
    fn_rate: float = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    sequences: tuple[Sequence, ...]
    static: StaticStream | None

    @property
    def frames(self) -> int:
        return sum(s.frames for s in self.sequences)


def _sides(lo: int, hi: int, height: int) -> str:
    """Object side range, scaled down with the canvas at smoke size."""
    scale = min(1.0, height / 3 / hi)
    return f"{max(3, int(lo * scale))}:{max(3, int(hi * scale))}"


def _fbms(seed: int, count: int, width: int, height: int, frames: int) -> Workload:
    seqs = []
    for k in range(count):
        s = seed * 16 + k
        seqs.append(Sequence(f"fbms{k}", frames, (
            "--seed", str(s), "--frames", str(frames), "--objects", "6",
            "--size", f"{width}x{height}", "--object-size", _sides(88, 104, height),
            "--jitter", "2", "--fp-rate", "0.5", "--fn-rate", "0.05",
            "--score-mean", "0.9", "--score-spread", "0.15", "--name", f"fbms{k}")))
    return Workload("fbms", tuple(seqs), None)


def _hd(seed: int, count: int, width: int, height: int, frames: int) -> Workload:
    s = seed * 16
    return Workload("hd", (Sequence("hd0", frames, (
        "--seed", str(s), "--frames", str(frames), "--objects", "10",
        "--size", f"{width}x{height}", "--object-size", _sides(240, 280, height),
        "--jitter", "2", "--fp-rate", "0.5", "--name", "hd0")),), None)


def _crowded(seed: int, count: int, width: int, height: int, frames: int) -> Workload:
    s = seed * 16
    objects = 30
    rng = random.Random(s)
    occlusions = []
    for _ in range(3):
        occlusions += ["--occlude", f"{rng.randrange(objects)}:{rng.randrange(frames // 2)}:"
                                    f"{rng.randint(2, max(2, frames // 6))}"]
    return Workload("crowded", (Sequence("crowded0", frames, (
        "--seed", str(s), "--frames", str(frames), "--objects", str(objects),
        "--object-size", _sides(8, 28, height), "--size", f"{width}x{height}",
        *occlusions, "--jitter", "2", "--fp-rate", "1.0", "--fn-rate", "0.1",
        "--score-mean", "0.85", "--score-spread", "0.15", "--name", "crowded0")),),
        StaticStream(seed=s + 7))


_BUILDERS = {"fbms": _fbms, "hd": _hd, "crowded": _crowded}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` for benchmark seed ``seed``."""
    return _BUILDERS[name](seed, *SIZES[name]["smoke" if smoke else "full"])

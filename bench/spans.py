"""Span tracer for movingseg, installed from outside the package.

``installed(tracer)`` replaces every public function and public method of the
package's layer modules with a wrapper that records a span (name, start, end,
parent) and, at the same boundary, the counts the benchmark reports.  Because
the package imports functions by name (``tracker.iou``, ``metrics.mask_iou``,
``cli.track_sequence``), every module attribute that binds a wrapped function
is replaced, not only the defining one.  Leaving the context restores the
originals, so untraced runs execute the unmodified package.

Spans live in flat arrays while one CLI command runs; ``collect()`` turns them
into per-name call counts, total time and self time (a span's duration minus
the part of its interval its child spans cover) and clears them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy

LAYERS = ("mask", "assign", "metrics", "tracker", "synth", "io", "cli")


class Tracer:
    """Span and count recorder shared by the main thread and pool workers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        # spans opened by pool workers have an empty stack of their own; their
        # parent is the innermost span open in the thread that made the tracer
        self._main_stack = self._stack()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._clear()

    def _clear(self) -> None:
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._counts: dict[str, int] = defaultdict(int)
        self._maxima: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def enter(self, name_id: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        start = perf_counter()
        with self._lock:
            sid = len(self._span_name)
            self._span_name.append(name_id)
            self._span_parent.append(parent)
            self._span_start.append(start)
            self._span_end.append(start)
        stack.append(sid)
        return sid

    def exit(self, sid: int) -> None:
        self._span_end[sid] = perf_counter()
        self._stack().pop()

    def add(self, counter: str, value: int) -> None:
        with self._lock:
            self._counts[counter] += int(value)

    def maximum(self, counter: str, value: int) -> None:
        with self._lock:
            if value > self._maxima[counter]:
                self._maxima[counter] = int(value)

    def collect(self) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
        """Per-name {calls, total_s, self_s} and the counts since the last collect."""
        n = len(self._span_name)
        starts, ends, parents = self._span_start, self._span_end, self._span_parent
        children: dict[int, list[int]] = defaultdict(list)
        for sid in range(n):
            if parents[sid] >= 0:
                children[parents[sid]].append(sid)
        covered = [0.0] * n
        for parent, kids in children.items():
            # children of one parent overlap only when pool workers run them
            kids.sort(key=starts.__getitem__)
            reach = starts[parent]
            total = 0.0
            for k in kids:
                lo, hi = max(starts[k], reach), min(ends[k], ends[parent])
                if hi > lo:
                    total += hi - lo
                    reach = hi
            covered[parent] = total
        spans: dict[str, dict[str, float]] = {}
        for sid in range(n):
            name = self._names[self._span_name[sid]]
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = ends[sid] - starts[sid]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - covered[sid]
        counts = dict(self._counts)
        counts.update(self._maxima)
        self._clear()
        return spans, counts


def _path_arg(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments["path"]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _bytes_read(tracer, fn, args, kwargs, result):
    tracer.add("io.bytes_read", _file_size(_path_arg(fn, args, kwargs)))


def _bytes_written(tracer, fn, args, kwargs, result):
    tracer.add("io.bytes_written", _file_size(_path_arg(fn, args, kwargs)))


def _cut_len(tracer, fn, args, kwargs, result):
    tracer.add("mask.intersect_cut_len", len(args[0]) + len(args[1]))


def _decoded_px(tracer, fn, args, kwargs, result):
    tracer.add("mask.decoded_px", result.size)


def _tally_pairs(tracer, fn, args, kwargs, result):
    tracer.add("metrics.tally_pairs", result.n_predictions * result.n_gt_regions)


def _tracks_opened(tracer, fn, args, kwargs, result):
    tracer.add("tracker.tracks_opened", len(result))


def _assign_cells(tracer, fn, args, kwargs, result):
    rows, cols = numpy.shape(args[0])
    cells = rows * cols
    tracer.add("assign.cells", cells)
    tracer.maximum("assign.max_cells", cells)


def _detections(tracer, fn, args, kwargs, result):
    tracer.add("synth.detections", sum(len(ds) for ds in result.values()))


def _tracker_iou(tracer, fn, args, kwargs, result):
    tracer.add("tracker.iou_pairs", 1)


# counts recorded wherever the function is called, keyed by qualified name
FUNCTION_HOOKS = {
    "mask.intersect_cuts": (_cut_len,),
    "mask.rle_decode": (_decoded_px,),
    "metrics.sequence_tally": (_tally_pairs,),
    "tracker.track_sequence": (_tracks_opened,),
    "assign.solve_max_assignment": (_assign_cells,),
    "synth.corrupt": (_detections,),
    "io.read_labelmap": (_bytes_read,),
    "io.read_manifest": (_bytes_read,),
    "io.read_detections": (_bytes_read,),
    "io.read_tracks": (_bytes_read,),
    "io.write_labelmap": (_bytes_written,),
    "io.write_manifest": (_bytes_written,),
    "io.write_detections": (_bytes_written,),
    "io.write_tracks": (_bytes_written,),
    "io.write_report": (_bytes_written,),
    "io.write_report_csv": (_bytes_written,),
}

# counts recorded only at one module's binding: (binding module, qualified name)
BINDING_HOOKS = {
    ("tracker", "mask.iou"): (_tracker_iou,),
}


def _wrap(tracer: Tracer, fn, name: str, hooks):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.enter(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(sid)
        for hook in hooks:
            hook(tracer, fn, args, kwargs, result)
        return result

    return wrapper


def _targets(package: str):
    """Qualified name -> function for public functions and methods of each layer."""
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                targets[f"{layer}.{attr}"] = value
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for meth, fn in vars(value).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        targets[f"{layer}.{attr}.{meth}"] = fn
    return targets


@contextmanager
def installed(tracer: Tracer, package: str = "movingseg"):
    """Wrap every binding of the package's public functions for the duration."""
    targets = _targets(package)
    by_identity = {id(fn): name for name, fn in targets.items()}
    restore = []
    try:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module in modules:
            binding = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                name = by_identity.get(id(value))
                if name is None:
                    continue
                hooks = FUNCTION_HOOKS.get(name, ()) + BINDING_HOOKS.get((binding, name), ())
                setattr(module, attr, _wrap(tracer, value, name, hooks))
                restore.append((module, attr, value))
        for name, fn in targets.items():
            layer, *rest = name.split(".")
            if len(rest) == 2:
                cls = getattr(sys.modules[f"{package}.{layer}"], rest[0])
                setattr(cls, rest[1], _wrap(tracer, fn, name, FUNCTION_HOOKS.get(name, ())))
                restore.append((cls, rest[1], fn))
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)

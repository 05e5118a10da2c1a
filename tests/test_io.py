import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import grid_runs
from helpers import det
from movingseg import io as fileio
from movingseg import mask as mask_module
from movingseg.mask import MAX_PIXELS, Mask, rle_encode
from movingseg.metrics import MetricReport
from movingseg.synth import NoiseConfig, SynthConfig, corrupt, generate
from movingseg.tracker import Detection, Track, TrackerConfig, track_sequence

W, H = 16, 8


class TestLabelmapPgm:
    def test_roundtrip_8bit(self, tmp_path):
        arr = np.arange(W * H, dtype=np.int32).reshape(H, W) % 200
        path = tmp_path / "a.pgm"
        fileio.write_labelmap(arr, path)
        assert (fileio.read_labelmap(path) == arr).all()

    def test_roundtrip_16bit(self, tmp_path):
        arr = (np.arange(W * H, dtype=np.int32).reshape(H, W) * 37) % 60000
        path = tmp_path / "a.pgm"
        fileio.write_labelmap(arr, path)
        assert (fileio.read_labelmap(path) == arr).all()

    def test_hand_parse(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 0, 0, 0]))
        assert (fileio.read_labelmap(path) == 0).all()
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 1, 2]))
        arr = fileio.read_labelmap(path)
        assert (arr == [[0, 1], [1, 2]]).all()

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1 # inline\n255\n" + bytes([7, 9]))
        assert fileio.read_labelmap(path).tolist() == [[7, 9]]

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 0, 0]))
        with pytest.raises(fileio.SchemaError):
            fileio.read_labelmap(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 0, 0, 0, 0]))
        with pytest.raises(fileio.SchemaError):
            fileio.read_labelmap(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(fileio.SchemaError):
            fileio.read_labelmap(path)

    @pytest.mark.parametrize("value,dtype", [(200, np.uint8), (60000, ">u2")])
    def test_keeps_file_sample_type(self, tmp_path, value, dtype):
        path = tmp_path / "a.pgm"
        fileio.write_labelmap(np.full((H, W), value, dtype=np.int32), path)
        arr = fileio.read_labelmap(path)
        assert arr.dtype == np.dtype(dtype)
        assert not arr.flags.writeable
        assert (arr == value).all()

    def test_unsupported_maxval_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 0, 0, 0]))
        with pytest.raises(fileio.SchemaError):
            fileio.read_labelmap(path)

    @pytest.mark.parametrize("maxval,sample", [(255, 1), (65535, 2)])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_payload_one_byte_off_rejected(self, tmp_path, maxval, sample, extra):
        path = tmp_path / "t.pgm"
        path.write_bytes(f"P5\n3 2\n{maxval}\n".encode() + bytes(6 * sample + extra))
        with pytest.raises(fileio.SchemaError, match="payload"):
            fileio.read_labelmap(path)


def _reference_pgm(arr):
    """The writer's bytes as first implemented: header plus ``astype().tobytes()``."""
    maxval = 255 if (arr.size == 0 or arr.max() <= 255) else 65535
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    return header + arr.astype(">u1" if maxval == 255 else ">u2").tobytes()


_GRID = np.arange(6 * 10, dtype=np.int32).reshape(6, 10)


class TestLabelmapWriterBytes:
    @pytest.mark.parametrize("arr", [
        (_GRID % 200).astype(np.uint8),
        _GRID % 200,
        _GRID * 1000,                    # above 255: the >u2 path
        _GRID % 3 == 0,                  # bool
        (_GRID * 1000)[:, ::2],          # non-contiguous views
        (_GRID % 200).T,
        np.zeros((0, 4), dtype=np.int32),
    ], ids=["uint8", "int32", "u2", "bool", "strided", "transposed", "empty"])
    def test_same_bytes_as_reference(self, tmp_path, arr):
        path = tmp_path / "a.pgm"
        fileio.write_labelmap(arr, path)
        assert path.read_bytes() == _reference_pgm(arr)

    @pytest.mark.parametrize("value", [-1, 65536])
    def test_out_of_range_rejected(self, tmp_path, value):
        arr = _GRID.copy()
        arr[2, 3] = value
        with pytest.raises(ValueError, match="65535"):
            fileio.write_labelmap(arr, tmp_path / "a.pgm")
        assert not (tmp_path / "a.pgm").exists()


_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té\u2028\U0001f600'),
                          st.characters()), max_size=6)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**63 - 2, 2**80),
    st.integers(-(2**80), -(2**63)), st.floats(), st.sampled_from([-0.0, float("inf"),
                                                                   float("-inf"), float("nan")]),
    _text,
)
_documents = st.recursive(
    st.one_of(_scalars, st.lists(st.one_of(st.integers(), st.booleans()))),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(_text, children, max_size=4)),
    max_leaves=25,
)


class TestCanonicalJson:
    @given(_documents)
    @settings(max_examples=200, deadline=None)
    def test_equals_stdlib_indented_encoder(self, doc):
        assert fileio._canonical(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 1}}, [{"a": 1, 2.5: 0}],
                                     {True: []}])
    def test_non_str_keys_rejected(self, doc):
        with pytest.raises(TypeError):
            fileio._canonical(doc)

    def test_written_files_are_canonical(self, tmp_path):
        gt, gt_tracks = generate(SynthConfig(seed=4, frames=6, width=48, height=32,
                                             objects=3))
        dets = corrupt(gt, NoiseConfig(fp_rate=0.5, score_spread=0.2), seed=4)
        report = MetricReport(precision=1 / 3, recall=0.0, f_measure=None, flags=("x",))
        report.per_sequence = {"s\u00e9q": MetricReport(n_over_075=2, flags=("x",))}
        fileio.write_tracks(tmp_path / "t.json", 48, 32, track_sequence(dets, TrackerConfig()))
        fileio.write_tracks(tmp_path / "gt.json", 48, 32, gt_tracks)
        fileio.write_detections(tmp_path / "d.json", 48, 32, dets)
        fileio.write_sequence("seq", gt, tmp_path)
        fileio.write_report(report, tmp_path / "r.json")
        for name in ("t.json", "gt.json", "d.json", "manifest.json", "r.json"):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


_SIZED_DOCS = {
    "read_detections": {"frames": []},
    "read_tracks": {"tracks": []},
    "read_manifest": {"sequence": "x", "ignore_value": None, "frames": []},
}


@pytest.mark.parametrize("reader", sorted(_SIZED_DOCS))
@pytest.mark.parametrize("field,value", [("width", 0), ("height", -5)])
def test_non_positive_frame_size_rejected(tmp_path, reader, field, value):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"format_version": 1, "width": W, "height": H,
                                **_SIZED_DOCS[reader], field: value}))
    with pytest.raises(fileio.SchemaError, match=re.escape(f"{path}.{field}:")):
        getattr(fileio, reader)(path)


@pytest.mark.parametrize("reader", sorted(_SIZED_DOCS))
def test_frame_size_bound(tmp_path, reader):
    # a full-frame mask at the bound is two cuts: nothing of the declared size is allocated
    doc = dict(_SIZED_DOCS[reader])
    full = {"index": 0, "score": 0.5, "kind": "moving", "rle": [0, MAX_PIXELS]}
    if reader == "read_detections":
        doc["frames"] = [{"index": 0, "detections": [full]}]
    elif reader == "read_tracks":
        doc["tracks"] = [{"id": 1, "frames": [full]}]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"format_version": 1, "width": MAX_PIXELS // 2, "height": 2,
                                **doc}))
    getattr(fileio, reader)(path)
    path.write_text(json.dumps({"format_version": 1, "width": MAX_PIXELS + 1, "height": 1,
                                **_SIZED_DOCS[reader]}))
    with pytest.raises(fileio.SchemaError, match=re.escape(f"{path}.width:")):
        getattr(fileio, reader)(path)


def test_labelmap_size_bound(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n65536 32768\n255\n" + bytes(1))
    with pytest.raises(fileio.SchemaError, match="payload is 1 bytes"):
        fileio.read_labelmap(path)
    path.write_bytes(b"P5\n%d 1\n255\n" % (MAX_PIXELS + 1) + bytes(1))
    with pytest.raises(fileio.SchemaError, match=re.escape(f"{path}.width:")):
        fileio.read_labelmap(path)


def _masks_doc(reader, rles):
    """A document whose masks, in file order, have the run lists ``rles``.

    Detections go two to a frame and track entries two to a track, so the
    k-th mask sits at ``frames[k // 2].detections[k % 2]`` or
    ``tracks[k // 2].frames[k % 2]``.
    """
    pairs = [rles[i:i + 2] for i in range(0, len(rles), 2)]
    if reader == "read_detections":
        body = {"frames": [{"index": k, "detections": [
            {"score": 0.5, "kind": "moving", "rle": r} for r in pair]}
            for k, pair in enumerate(pairs)]}
    else:
        body = {"tracks": [{"id": k, "frames": [
            {"index": m, "score": 0.5, "rle": r} for m, r in enumerate(pair)]}
            for k, pair in enumerate(pairs)]}
    return {"format_version": 1, "width": W, "height": H, **body}


def _read_masks(reader, path):
    _, _, got = getattr(fileio, reader)(path)
    dets = [d for ds in got.values() for d in ds] if reader == "read_detections" \
        else [d for t in got for d in t.entries]
    return [d.mask for d in dets]


@pytest.mark.parametrize("reader", ["read_detections", "read_tracks"])
@pytest.mark.parametrize("bad,message", [
    ([True, W * H - 1], "runs must be integers"),
    ([1.5, W * H - 1.5], "runs must be integers"),
    (["4", W * H - 4], "runs must be integers"),
    ([-1, W * H + 1], "negative run length"),
    ([], "empty runs list"),
    ([1, 0, W * H - 1], "zero-length interior run"),
    ([1, 2], f"runs sum 3 != width*height {W * H}"),
    ([0, W * H + 1], "run length outside the frame"),
    ([0, 2**64], "run length outside the frame"),
])
@pytest.mark.parametrize("position", [0, 3])
def test_bad_rle_names_its_field(tmp_path, reader, bad, message, position):
    rles = [[0, W * H], [1, W * H - 1], [2, 3, W * H - 5], [0, 5, 1, W * H - 6]]
    rles[position] = bad
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_masks_doc(reader, rles)))
    k, m = divmod(position, 2)
    field = f"frames[{k}].detections[{m}]" if reader == "read_detections" \
        else f"tracks[{k}].frames[{m}]"
    with pytest.raises(fileio.SchemaError, match=re.escape(f"{path}.{field}.rle: {message}")):
        getattr(fileio, reader)(path)


@st.composite
def _run_lists(draw):
    """Run lists of 1-7 random non-empty masks sharing one frame size."""
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    grids = draw(st.lists(st.lists(st.integers(0, 1), min_size=w * h, max_size=w * h)
                          .filter(any), min_size=1, max_size=7))
    return w, h, [list(rle_encode(np.array(g), w, h).runs) for g in grids]


@given(_run_lists())
@settings(max_examples=100, deadline=None)
def test_file_masks_equal_masks_built_alone(data):
    w, h, rles = data
    with tempfile.TemporaryDirectory() as tmp:   # hypothesis reruns outlive tmp_path
        for reader in ("read_detections", "read_tracks"):
            path = Path(tmp) / f"{reader}.json"
            path.write_text(json.dumps({**_masks_doc(reader, rles), "width": w, "height": h}))
            masks = _read_masks(reader, path)
            assert masks == [Mask(w, h, r) for r in rles]
            assert [list(m.runs) for m in masks] == rles
            assert all(not m.foreground_cuts.flags.writeable for m in masks)


def _grid(size, seed, density):
    w, h = size
    return (np.random.default_rng(seed).random((h, w)) < density).astype(np.uint8)


_GRIDS = st.builds(_grid, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                   st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))


@given(st.lists(_GRIDS, max_size=8))
@settings(max_examples=150, deadline=None)
def test_run_lists_match_per_mask_runs(grids):
    masks = [rle_encode(g, g.shape[1], g.shape[0]) for g in grids]   # sizes may differ
    expected = [grid_runs(g) for g in grids]
    assert mask_module._run_lists(masks) == expected
    assert [list(m.runs) for m in masks] == expected


@given(st.integers(1, 9), st.integers(1, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_writers_match_per_mask_runs(w, h, data):
    """Both writers give json.dumps's bytes for the documents built from each mask's runs."""
    frames = data.draw(st.lists(st.lists(st.integers(0, 2**32 - 1), max_size=4), max_size=4))
    masks = [[rle_encode(g, w, h) for s in seeds if (g := _grid((w, h), s, 0.5)).any()]
             for seeds in frames]
    dets = {f: [Detection(f, 1 / (k + 3), m, ("moving", "static")[k % 2])
                for k, m in enumerate(ms)] for f, ms in enumerate(masks)}
    tracks = [Track(k + 1, tuple(Detection(j, 0.5, m) for j, m in enumerate(ms)))
              for k, ms in enumerate(masks) if ms]
    detections_doc = {"format_version": 1, "width": w, "height": h, "frames": [
        {"index": f, "detections": [{"score": d.score, "kind": d.kind, "rle": list(d.mask.runs)}
                                    for d in ds]} for f, ds in dets.items()]}
    tracks_doc = {"format_version": 1, "width": w, "height": h, "tracks": [
        {"id": t.id, "frames": [{"index": d.frame, "score": d.score, "rle": list(d.mask.runs)}
                                for d in t.entries]} for t in tracks]}
    with tempfile.TemporaryDirectory() as tmp:   # hypothesis reruns outlive tmp_path
        for write, arg, doc in ((fileio.write_detections, dets, detections_doc),
                                (fileio.write_tracks, tracks, tracks_doc)):
            path = Path(tmp) / "out.json"
            write(path, w, h, arg)
            assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestDetectionsFile:
    def test_empty_frames_valid(self, tmp_path):
        path = tmp_path / "d.json"
        fileio.write_detections(path, W, H, {})
        width, height, dets = fileio.read_detections(path)
        assert (width, height, dets) == (W, H, {})

    def test_roundtrip_exact(self, tmp_path):
        d0 = det(0, 0.123456789123456789, W, H, 1, 1, 3, 3)
        d1 = det(0, 1 / 3, W, H, 5, 2, 4, 4, kind="static")
        d2 = det(2, 0.5, W, H, 0, 0, 2, 2)
        dets = {0: [d0, d1], 2: [d2]}
        path = tmp_path / "d.json"
        fileio.write_detections(path, W, H, dets)
        _, _, back = fileio.read_detections(path)
        assert back == dets

    def test_write_read_write_bytes_stable(self, tmp_path):
        dets = {0: [det(0, 0.987654321, W, H, 1, 1, 3, 3)]}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        fileio.write_detections(a, W, H, dets)
        _, _, back = fileio.read_detections(a)
        fileio.write_detections(b, W, H, back)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_rle_sum_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"format_version": 1, "width": W, "height": H,
               "frames": [{"index": 0, "detections": [
                   {"score": 0.9, "kind": "moving", "rle": [1, 2]}]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match="rle"):
            fileio.read_detections(path)

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"format_version": 1, "width": W, "height": H,
               "frames": [{"index": 0, "detections": [
                   {"score": 1.5, "kind": "moving", "rle": [0, W * H]}]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match="score"):
            fileio.read_detections(path)

    def test_unsorted_frames_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"format_version": 1, "width": W, "height": H,
               "frames": [{"index": 3, "detections": []},
                          {"index": 1, "detections": []}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match="increasing"):
            fileio.read_detections(path)

    def test_error_paths_name_the_field(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"format_version": 1, "width": W, "height": H,
               "frames": [{"index": 0, "detections": [
                   {"score": 0.5, "kind": "wobbling", "rle": [0, W * H]}]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=r"frames\[0\].detections\[0\]"):
            fileio.read_detections(path)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"format_version": 2, "width": W, "height": H,
                                    "frames": []}))
        with pytest.raises(fileio.SchemaError, match="version"):
            fileio.read_detections(path)


@pytest.mark.parametrize("bad", [1.5, True, "4", -1])
class TestRleElements:
    """Every run must be a JSON integer; Mask's int() would accept 1.5, true or "4"."""

    def test_detections_reject(self, tmp_path, bad):
        path = tmp_path / "d.json"
        doc = {"format_version": 1, "width": W, "height": H,
               "frames": [{"index": 0, "detections": [
                   {"score": 0.9, "kind": "moving", "rle": [bad, W * H - 1]}]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=r"frames\[0\]\.detections\[0\]\.rle"):
            fileio.read_detections(path)

    def test_tracks_reject(self, tmp_path, bad):
        path = tmp_path / "t.json"
        doc = {"format_version": 1, "width": W, "height": H,
               "tracks": [{"id": 1, "frames": [
                   {"index": 0, "score": 0.9, "rle": [bad, W * H - 1]}]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=r"tracks\[0\]\.frames\[0\]\.rle"):
            fileio.read_tracks(path)


class TestTracksFile:
    def _track(self, tid=1):
        return Track(tid, (det(0, 0.95, W, H, 1, 1, 3, 3),
                           det(1, 0.9, W, H, 2, 1, 3, 3)))

    def test_empty_valid(self, tmp_path):
        path = tmp_path / "t.json"
        fileio.write_tracks(path, W, H, [])
        assert fileio.read_tracks(path) == (W, H, [])

    def test_roundtrip(self, tmp_path):
        tracks = [self._track(1), self._track(7)]
        path = tmp_path / "t.json"
        fileio.write_tracks(path, W, H, tracks)
        _, _, back = fileio.read_tracks(path)
        assert [(t.id, [(d.frame, d.score, d.mask) for d in t.entries]) for t in back] \
            == [(t.id, [(d.frame, d.score, d.mask) for d in t.entries]) for t in tracks]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        doc = {"format_version": 1, "width": W, "height": H,
               "tracks": [{"id": 1, "frames": [{"index": 0, "score": 0.9,
                                                "rle": [0, W * H]}]},
                          {"id": 1, "frames": [{"index": 0, "score": 0.9,
                                                "rle": [0, W * H]}]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match="duplicate"):
            fileio.read_tracks(path)

    def test_unsorted_track_frames_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        doc = {"format_version": 1, "width": W, "height": H,
               "tracks": [{"id": 1, "frames": [
                   {"index": 5, "score": 0.9, "rle": [0, W * H]},
                   {"index": 2, "score": 0.9, "rle": [0, W * H]}]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match="increasing"):
            fileio.read_tracks(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{not json")
        with pytest.raises(fileio.SchemaError):
            fileio.read_tracks(path)


class TestManifest:
    def test_sequence_roundtrip(self, tmp_path):
        gt, _ = generate(SynthConfig(seed=2, frames=4, width=32, height=24, objects=2))
        fileio.write_sequence("seq-a", gt, tmp_path)
        name, back = fileio.load_sequence(tmp_path / "manifest.json")
        assert name == "seq-a"
        assert back.width == gt.width and back.height == gt.height
        for f in gt.eval_frames():
            assert (back.labeled_frames[f] == gt.labeled_frames[f]).all()

    def test_missing_labelmap_rejected(self, tmp_path):
        gt, _ = generate(SynthConfig(seed=2, frames=2, width=32, height=24))
        fileio.write_sequence("seq-a", gt, tmp_path)
        (tmp_path / "labelmaps" / "000001.pgm").unlink()
        with pytest.raises(fileio.SchemaError, match="does not exist"):
            fileio.load_sequence(tmp_path / "manifest.json")

    def test_unsorted_frames_rejected(self, tmp_path):
        doc = {"format_version": 1, "sequence": "x", "width": 4, "height": 4,
               "ignore_value": None,
               "frames": [{"index": 2, "labelmap": "a.pgm"},
                          {"index": 1, "labelmap": "b.pgm"}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match="increasing"):
            fileio.read_manifest(path)


class TestReport:
    def test_report_files_written(self, tmp_path):
        rep = MetricReport(precision=0.5, recall=1.0, f_measure=2 / 3)
        rep.per_sequence = {"s1": MetricReport(precision=0.5, recall=1.0,
                                               f_measure=2 / 3)}
        fileio.write_report(rep, tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["format_version"] == 1
        assert doc["aggregate"]["f_measure"] == pytest.approx(2 / 3)
        assert "s1" in doc["per_sequence"]
        fileio.write_report_csv(rep, tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0].startswith("sequence,precision,recall,f_measure")
        assert lines[1].split(",")[0] == "s1"
        assert lines[-1].split(",")[0] == "aggregate"

    def test_float_cells_roundtrip_exactly(self, tmp_path):
        value = 0.12345678901234567
        rep = MetricReport(precision=value)
        fileio.write_report_csv(rep, tmp_path / "r.csv")
        cell = (tmp_path / "r.csv").read_text().splitlines()[1].split(",")[1]
        assert float(cell) == value

import inspect
import json
import os
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import grid_runs
from helpers import UNREADABLE_JSON, det
from movingseg import io as fileio
from movingseg import mask as mask_module
from movingseg import metrics
from movingseg.mask import MAX_PIXELS, Mask, mask_from_cuts, rle_encode
from movingseg.metrics import GroundTruthSequence, MetricReport
from movingseg.synth import NoiseConfig, OcclusionEvent, SynthConfig, corrupt, generate
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

    @pytest.mark.parametrize("header", [b"+2 2 255", b"2 +2 255", b"2 2 +255", b"0_2 2 255",
                                        b"2 2 2_55", b"-2 2 255", b"2 2 0x10",
                                        "2 \u0662 255".encode(), b"2 2 " + b"9" * 5000],
                             ids=["plus-width", "plus-height", "plus-maxval", "underscore-width",
                                  "underscore-maxval", "minus", "hex", "arabic-indic", "huge"])
    def test_header_field_not_ascii_digits_rejected(self, tmp_path, header):
        # int() took the first five as a 2x2 map of maxval 255
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n" + header + b"\n" + bytes(4))
        with pytest.raises(fileio.SchemaError,
                           match=re.escape(f"{path}: non-numeric PGM header field")):
            fileio.read_labelmap(path)


def _reference_read_labelmap(data: bytes, path):
    """The PGM reader as it first tokenized its header, byte by byte: the map it read, or
    the message it refused ``data`` with."""
    tokens = []
    i, n = 0, len(data)
    whitespace = (0x20, 0x09, 0x0A, 0x0D, 0x0B, 0x0C)
    while len(tokens) < 4 and i < n:
        c = data[i]
        if c in whitespace:
            i += 1
            continue
        if c == 0x23:  # '#' comment runs to end of line
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        j = i
        while j < n and data[j] not in whitespace and data[j] != 0x23:
            j += 1
        tokens.append(data[i:j])
        i = j
    if len(tokens) < 4:
        return f"{path}: truncated PGM header"
    if tokens[0] != b"P5":
        return f"{path}: not a binary PGM (P5) file"
    if not all(t.isdigit() for t in tokens[1:4]):
        return f"{path}: non-numeric PGM header field"
    width, height, maxval = map(int, tokens[1:4])
    if width <= 0 or height <= 0:
        return f"{path}: non-positive PGM dimensions {width}x{height}"
    if width * height > MAX_PIXELS:
        return f"{path}.width: {width}x{height} frame exceeds {MAX_PIXELS} pixels"
    if maxval not in (255, 65535):
        return f"{path}: unsupported maxval {maxval} (need 255 or 65535)"
    if i >= n or data[i] not in whitespace:
        return f"{path}: missing whitespace after maxval"
    size = len(data) - (i + 1)
    expected = width * height * (1 if maxval == 255 else 2)
    if size != expected:
        return f"{path}: payload is {size} bytes, expected {expected}"
    dtype = ">u1" if maxval == 255 else ">u2"
    return np.frombuffer(data, dtype=dtype, offset=i + 1).reshape(height, width)


_HEADER_TOKENS = st.sampled_from([b"P5", b"P2", b"0", b"1", b"2", b"3", b"255", b"65535",
                                  b"99999", b"256", b"+2", b"2x", b"\x1c", b"\x85", b"\xa0"])
_COMMENT_TEXT = st.binary(max_size=6).map(lambda text: b"#" + text.translate(None, b"\n\r"))
# whitespace bytes, and comments that end at a line break; a comment that runs to the
# end of the file is drawn as the file's tail
_HEADER_GAPS = st.one_of(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
                         st.builds(bytes.__add__, _COMMENT_TEXT, st.sampled_from([b"\n", b"\r"])))
_VALID_HEADER = st.tuples(st.just(b"P5"), st.sampled_from([b"1", b"2", b"3"]),
                          st.sampled_from([b"1", b"2", b"3"]),
                          st.sampled_from([b"255", b"65535"])).map(list)


def _read_or_message(path):
    try:
        return fileio.read_labelmap(path)
    except fileio.SchemaError as e:
        return str(e)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_header_pattern_reads_what_the_byte_loop_read(data):
    tokens = data.draw(st.one_of(st.lists(_HEADER_TOKENS, min_size=3, max_size=5),
                                 _VALID_HEADER))
    # two tokens with no gap between them are one token, which the token list already draws
    gaps = [b"".join(data.draw(st.lists(_HEADER_GAPS, min_size=int(0 < k < len(tokens)),
                                        max_size=3)))
            for k in range(len(tokens) + 1)]
    content = (b"".join(g + t for g, t in zip(gaps, tokens)) + gaps[-1]
               + data.draw(st.one_of(st.binary(max_size=12), _COMMENT_TEXT)))
    with tempfile.TemporaryDirectory() as tmp:   # hypothesis reruns outlive tmp_path
        path = Path(tmp) / "t.pgm"
        for _ in range(2):   # a payload of the wrong size is tried again at the right size
            path.write_bytes(content)
            want, got = _reference_read_labelmap(content, path), _read_or_message(path)
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray) and got.dtype == want.dtype
                assert np.array_equal(got, want)
                break
            # the one changed message: a side of 0 is named as in JSON documents
            if m := re.fullmatch(r".*: non-positive PGM dimensions (\d+)x(\d+)", want):
                key, v = ("width", m[1]) if int(m[1]) < 1 else ("height", m[2])
                want = f"{path}.{key}: must be at least 1, got {v}"
            assert got == want
            m = re.fullmatch(r".*: payload is (\d+) bytes, expected (\d+)", want)
            if m is None or int(m[2]) > 1000:
                break
            have, need = int(m[1]), int(m[2])
            content = content + bytes(need - have) if need > have else content[:need - have]


def test_a_run_of_hashes_is_refused_in_linear_time(tmp_path):
    # were a comment free to end before its line does, the pattern would try each of the
    # 2**29 ways to split the run into comments before refusing the header
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5 " + b"#" * 30)
    start = time.perf_counter()
    with pytest.raises(fileio.SchemaError, match=re.escape(f"{path}: truncated PGM header")):
        fileio.read_labelmap(path)
    assert time.perf_counter() - start < 1


def test_pgm_side_of_zero_is_named_as_in_json_documents(tmp_path):
    path = tmp_path / "t.pgm"
    for header, message in ((b"P5 0 2 255\n", ".width: must be at least 1, got 0"),
                            (b"P5 2 0 255\n", ".height: must be at least 1, got 0")):
        path.write_bytes(header)
        with pytest.raises(fileio.SchemaError, match=re.escape(f"{path}{message}")):
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


class TestCanonicalJson:
    # each case maps sequence names to the names of their own reports' sequences
    @pytest.mark.parametrize("doc", [{1: {}}, {"a": {None: {}}}, {"a": {}, 2.5: {}},
                                     {True: {}}])
    def test_non_str_keys_rejected(self, tmp_path, doc):
        def report(names):
            return MetricReport(per_sequence={k: report(v) for k, v in names.items()})

        with pytest.raises(TypeError):
            fileio.write_report(report(doc), tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

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


@pytest.mark.parametrize("reader", sorted(_SIZED_DOCS))
@pytest.mark.parametrize("content", sorted(UNREADABLE_JSON))
def test_unreadable_json_is_a_schema_error(tmp_path, reader, content):
    path = tmp_path / "doc.json"
    path.write_bytes(UNREADABLE_JSON[content])
    with pytest.raises(fileio.SchemaError, match=re.escape(f"{path}: invalid JSON (")):
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


@pytest.mark.parametrize("reader", ["read_detections", "read_tracks"])
@pytest.mark.parametrize("bad", [True, False, 1.0, "4", None, [], {}], ids=repr)
@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("beside", [(), (2**64, 0), (2**64, 1), (-2**64, 0), (-2**64, 1)],
                         ids=["alone", "huge-after", "huge-before", "-huge-after", "-huge-before"])
@pytest.mark.parametrize("position", [0, 3])
def test_non_integer_run_names_its_field(tmp_path, reader, bad, at, beside, position):
    """A run that is no integer, first, in the middle or last of its list, alone or beside
    a run beyond int64 in either order, is refused with the message of a lone one."""
    runs = [2, 3, W * H - 5]
    if beside:
        huge, before = beside
        runs[at:at + 1] = [huge, bad] if before else [bad, huge]
    else:
        runs[at] = bad
    rles = [[0, W * H], [1, W * H - 1], [2, 3, W * H - 5], [0, 5, 1, W * H - 6]]
    rles[position] = runs
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_masks_doc(reader, rles)))
    k, m = divmod(position, 2)
    field = f"frames[{k}].detections[{m}]" if reader == "read_detections" \
        else f"tracks[{k}].frames[{m}]"
    with pytest.raises(fileio.SchemaError,
                       match=re.escape(f"{path}.{field}.rle: runs must be integers")):
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


def _detections_doc(dets_by_frame, w=W, h=H):
    return {"format_version": 1, "width": w, "height": h, "frames": [
        {"index": f, "detections": [{"score": d.score, "kind": d.kind, "rle": list(d.mask.runs)}
                                    for d in dets_by_frame[f]]} for f in sorted(dets_by_frame)]}


def _tracks_doc(tracks, w=W, h=H):
    return {"format_version": 1, "width": w, "height": h, "tracks": [
        {"id": t.id, "frames": [{"index": d.frame, "score": d.score, "rle": list(d.mask.runs)}
                                for d in t.entries]} for t in tracks]}


# a bool score is refused by Detection, as by the readers; a numpy score is written as
# the Python number Detection turns it into
@pytest.mark.parametrize("score", [0, 1, np.int64(1), np.float32(0.5), np.float64(0.25), 1 / 3],
                         ids=["int-0", "int-1", "int64", "float32", "float64", "float"])
def test_fixed_layouts_equal_stdlib_encoder(tmp_path, score):
    dets = {4: [det(4, score, W, H, 1, 1, 3, 3), det(4, 0.5, W, H, 5, 2, 4, 4, kind="static")],
            0: [], 9: [det(9, score, W, H, 0, 0, W, H)], 11: []}
    tracks = [Track(7, (det(0, score, W, H, 1, 1, 3, 3), det(3, 0.75, W, H, 0, 0, W, H))),
              Track(-2, (det(5, score, W, H, 15, 7, 1, 1),))]
    path = tmp_path / "out.json"
    for write, arg, doc in ((fileio.write_detections, dets, _detections_doc(dets)),
                            (fileio.write_detections, {}, _detections_doc({})),
                            (fileio.write_tracks, tracks, _tracks_doc(tracks)),
                            (fileio.write_tracks, [], _tracks_doc([]))):
        write(path, W, H, arg)
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_fixed_layouts_reject_numpy_ints(tmp_path):
    # Detection and Track turn a numpy frame or id into the int it holds, so only a
    # detections mapping's own key reaches a writer as one, which refuses it as json does
    d = det(0, 0.5, W, H, 1, 1, 3, 3)
    with pytest.raises(TypeError):
        fileio.write_detections(tmp_path / "out.json", W, H, {np.int64(0): [d]})
    fileio.write_tracks(tmp_path / "int.json", W, H, [Track(1, (d,))])
    fileio.write_tracks(tmp_path / "int64.json", W, H,
                        [Track(np.int64(1), (det(np.int64(0), 0.5, W, H, 1, 1, 3, 3),))])
    assert (tmp_path / "int64.json").read_bytes() == (tmp_path / "int.json").read_bytes()


@given(st.lists(st.tuples(
    # the frames and scores a caller may pass: ints, floats, bools and numpy scalars
    st.one_of(st.integers(-3, 40), st.integers(-3, 40).map(np.int64), st.booleans(),
              st.floats(-3, 40), st.just(np.True_)),
    st.one_of(st.floats(), st.integers(), st.booleans(), st.integers(-1, 2).map(np.int64),
              st.floats(width=32).map(np.float32), st.floats().map(np.float64)),
    st.sampled_from(["moving", "static"]), st.integers(0, W * H - 1)), max_size=12))
@settings(max_examples=150, deadline=None)
def test_every_detection_the_constructor_takes_round_trips(entries):
    """What Detection and Track accept, the writers write and the readers read back; what
    the readers refuse, Detection refuses."""
    dets = {}
    for frame, score, kind, pixel in entries:
        readable = (isinstance(frame, (int, np.integer)) and not isinstance(frame, bool)
                    and isinstance(score, (int, float, np.integer, np.floating))
                    and not isinstance(score, bool) and 0 <= score <= 1)
        try:
            d = Detection(frame, score, rle_encode(np.arange(W * H) == pixel, W, H), kind)
        except ValueError:
            assert not readable
            continue
        assert readable
        dets.setdefault(d.frame, []).append(d)
    # a tracks file keeps no kind: its entries read back as moving
    moving = [Detection(d.frame, d.score, d.mask) for f in sorted(dets) for d in dets[f]]
    tracks = [Track(np.int64(k) if k % 2 else k, (d,)) for k, d in enumerate(moving)]
    if dets:   # and one track through every frame
        tracks.append(Track(-1, tuple(Detection(f, ds[0].score, ds[0].mask)
                                      for f, ds in sorted(dets.items()))))
    with tempfile.TemporaryDirectory() as tmp:   # hypothesis reruns outlive tmp_path
        path = Path(tmp) / "out.json"
        fileio.write_detections(path, W, H, dets)
        assert fileio.read_detections(path) == (W, H, dets)
        fileio.write_tracks(path, W, H, tracks)
        assert fileio.read_tracks(path) == (W, H, tracks)


_M = Mask(2, 2, (0, 1, 3))
# each public constructor's int fields, with an int it takes: (n, build(value))
_INT_FIELDS = {
    "Mask-width": (2, lambda v: Mask(v, 2, (4,))),
    "Mask-height": (2, lambda v: Mask(2, v, (4,))),
    "rle_encode": (2, lambda v: rle_encode(np.zeros((2, 2), np.uint8), v, 2)),
    "mask_from_cuts": (2, lambda v: mask_from_cuts([0, 1], 2, v)),
    "binarize_detections": (2, lambda v: metrics.binarize_detections({}, width=v, height=2)),
    "GroundTruthSequence-width": (2, lambda v: GroundTruthSequence(
        v, 2, {0: np.zeros((2, 2), np.uint8)})),
    "GroundTruthSequence-frame": (2, lambda v: GroundTruthSequence(
        2, 2, {v: np.zeros((2, 2), np.uint8)})),
    **{f"SynthConfig-{name}": (32, lambda v, name=name: SynthConfig(
        **{"seed": 32, "frames": 32, "width": 32, "height": 32, "objects": 32, name: v}))
       for name in ("seed", "frames", "width", "height", "objects")},
    "Detection-frame": (2, lambda v: Detection(v, 0.5, _M)),
    "Track-id": (2, lambda v: Track(v, (Detection(0, 0.5, _M),))),
    # before, an event of 0.5 occluded nothing and one of duration 1.5 failed in generate
    "OcclusionEvent-object_index": (1, lambda v: OcclusionEvent(v, 1, 2)),
    "OcclusionEvent-start_frame": (1, lambda v: OcclusionEvent(1, v, 2)),
    "OcclusionEvent-duration": (1, lambda v: OcclusionEvent(1, 1, v)),
    "SynthConfig-object_size": (5, lambda v: SynthConfig(0, 1, 32, 32, object_size=(v, v))),
    "NoiseConfig-jitter_px": (2, lambda v: NoiseConfig(jitter_px=v)),
    "TrackerConfig-t_inactive": (10, lambda v: TrackerConfig(t_inactive=v)),
    "corrupt-seed": (2, lambda v: corrupt(GroundTruthSequence(2, 2, {0: np.ones((2, 2), int)}),
                                          NoiseConfig(), v)),
}


@pytest.mark.parametrize("n,build", _INT_FIELDS.values(), ids=_INT_FIELDS)
def test_constructors_refuse_sizes_indices_and_ids_that_are_not_ints(n, build):
    # each was rounded, taken as 1 or crashed on with numpy's or Python's TypeError
    for value in (float(n), n + 0.5, str(n), np.float64(n), True, np.True_, None):
        with pytest.raises(ValueError, match="integer"):
            build(value)
    for value in (n, np.int64(n), np.int32(n)):   # numpy's ints pass
        build(value)


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
        assert back.eval_frames() == gt.eval_frames()
        for label, again in zip(gt.labeled_frames.values(), back.labeled_frames.values()):
            assert (again == label).all()

    @pytest.mark.parametrize("instead", [None, "directory", "broken symlink"])
    def test_missing_labelmap_rejected(self, tmp_path, instead):
        gt, _ = generate(SynthConfig(seed=2, frames=2, width=32, height=24))
        fileio.write_sequence("seq-a", gt, tmp_path)
        pgm = tmp_path / "labelmaps" / "000001.pgm"
        pgm.unlink()
        if instead == "directory":
            pgm.mkdir()
        elif instead == "broken symlink":
            pgm.symlink_to(tmp_path / "nowhere.pgm")
        with pytest.raises(fileio.SchemaError, match="does not exist"):
            fileio.load_sequence(tmp_path / "manifest.json")

    def test_load_reads_each_labelmap_once_by_path(self, tmp_path, monkeypatch):
        gt, _ = generate(SynthConfig(seed=2, frames=3, width=32, height=24))
        manifest = fileio.write_sequence("seq-a", gt, tmp_path)
        real, paths = fileio.read_labelmap, []

        def spy(*args, **kwargs):
            paths.append(inspect.signature(real).bind(*args, **kwargs).arguments["path"])
            return real(*args, **kwargs)

        monkeypatch.setattr(fileio, "read_labelmap", spy)
        fileio.load_sequence(manifest)
        assert list(map(os.path.normpath, paths)) == \
            [str(tmp_path / f"labelmaps/{idx:06d}.pgm") for idx in gt.eval_frames()]

    def test_labelmap_path_is_no_file_descriptor(self, tmp_path):
        fileio.write_labelmap(np.zeros((2, 3), dtype=np.uint8), tmp_path / "a.pgm")
        read, write = os.pipe()
        with open(write, "wb") as fh:
            fh.write((tmp_path / "a.pgm").read_bytes())
        try:
            with pytest.raises(TypeError):
                fileio.read_labelmap(read)
        finally:
            os.close(read)

    def test_background_as_ignore_label_rejected(self, tmp_path):
        doc = {"format_version": 1, "sequence": "x", "width": 4, "height": 4,
               "ignore_value": 0, "frames": []}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=re.escape(f"{path}.ignore_value")):
            fileio.read_manifest(path)

    @pytest.mark.parametrize("ignore", [-1, 65536, 70000])
    def test_ignore_label_outside_pgm_range_rejected(self, tmp_path, ignore):
        # no PGM map holds the label, so it would silently ignore nothing
        doc = {"format_version": 1, "sequence": "x", "width": 4, "height": 4,
               "ignore_value": ignore, "frames": []}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match=re.escape(f"{path}.ignore_value: {ignore}")):
            fileio.read_manifest(path)

    def test_largest_pgm_label_accepted_as_ignore_label(self, tmp_path):
        labels = np.array([[0, 1], [65535, 65535]], dtype=np.int32)
        gt = GroundTruthSequence(2, 2, {0: labels}, ignore_value=65535)
        _, back = fileio.load_sequence(fileio.write_sequence("s", gt, tmp_path))
        assert back.ignore_value == 65535 and back.region_ids() == [1]

    @pytest.mark.parametrize("ignore", [-1, 0, 65536, 70000])
    def test_writer_refuses_an_ignore_label_it_could_not_read_back(self, tmp_path, ignore):
        gt = GroundTruthSequence(2, 2, {0: np.array([[0, 1], [1, 1]])})
        gt = GroundTruthSequence._from_runs(2, 2, gt._runs, ignore_value=ignore)
        fault = "is not a PGM label (1 to 65535)" if ignore else "is the background label"
        with pytest.raises(ValueError, match=re.escape(f"ignore_value {ignore} {fault}")):
            fileio.write_sequence("s", gt, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_writer_refuses_a_sequence_without_frames(self, tmp_path):
        # the loader refuses a manifest that lists no frame, so none is written
        with pytest.raises(ValueError, match="without frames"):
            fileio.write_sequence("s", GroundTruthSequence(4, 4, {}), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_loader_refuses_a_manifest_without_frames(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format_version": 1, "sequence": "x", "width": 4,
                                    "height": 4, "ignore_value": None, "frames": []}))
        assert fileio.read_manifest(path).frames == ()
        with pytest.raises(fileio.SchemaError, match=re.escape(f"{path}.frames: no labelled")):
            fileio.load_sequence(path)

    def test_unsorted_frames_rejected(self, tmp_path):
        doc = {"format_version": 1, "sequence": "x", "width": 4, "height": 4,
               "ignore_value": None,
               "frames": [{"index": 2, "labelmap": "a.pgm"},
                          {"index": 1, "labelmap": "b.pgm"}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError, match="increasing"):
            fileio.read_manifest(path)


_PALETTES = {np.dtype(np.uint8): [0, 1, 2, 255], np.dtype(">u2"): [0, 1, 255, 256, 65535],
             np.dtype(np.int32): [0, 3, 255, 256, 65535]}


@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3), st.sampled_from(list(_PALETTES)),
       st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_sequence_runs_match_dense_maps(w, h, n_frames, dtype, with_ignore, seed):
    """A sequence built from dense maps and its write/load round trip agree on every
    run-derived view, and a second write reproduces the first's bytes."""
    rng = np.random.default_rng(seed)
    palette = _PALETTES[dtype]
    maps = {2 * k + 1: rng.choice(palette, size=(h, w)).astype(dtype) for k in range(n_frames)}
    ignore = int(rng.choice(palette[1:])) if with_ignore else None
    gt = GroundTruthSequence(w, h, maps, ignore_value=ignore)
    with tempfile.TemporaryDirectory() as tmp:   # hypothesis reruns outlive tmp_path
        first = fileio.write_sequence("s", gt, Path(tmp) / "a")
        _, back = fileio.load_sequence(first)
        second = fileio.write_sequence("s", back, Path(tmp) / "b")
        written = sorted(p.relative_to(first.parent) for p in first.parent.rglob("*.*"))
        assert written == sorted(p.relative_to(second.parent)
                                 for p in second.parent.rglob("*.*"))
        for rel in written:
            assert (first.parent / rel).read_bytes() == (second.parent / rel).read_bytes()
    assert back.eval_frames() == gt.eval_frames() == sorted(maps)
    assert back.region_ids() == gt.region_ids()
    assert back.ignore_value == ignore
    decoded = back.labeled_frames
    for f in gt.eval_frames():
        a, b = gt.frame_value_cuts(f), back.frame_value_cuts(f)
        assert list(a) == list(b)
        assert all(np.array_equal(a[v], b[v]) for v in a)
        assert np.array_equal(decoded[f], maps[f])
    columns = {v: j for j, v in enumerate([*gt.region_ids(), ignore])}
    for x, y in zip(gt._tagged_runs(columns), back._tagged_runs(columns)):
        assert np.array_equal(x, y)


@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 3), st.sampled_from(list(_PALETTES)),
       st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_label_values_equal_per_label_cuts(w, h, n_frames, dtype, with_ignore, seed):
    """region_ids and _tagged_runs, from the label values taken once, equal their forms
    over every frame's per-label cuts, also for a sequence with no frames."""
    rng = np.random.default_rng(seed)
    palette = _PALETTES[dtype]
    maps = {2 * k + 1: rng.choice(palette, size=(h, w)).astype(dtype) for k in range(n_frames)}
    ignore = int(rng.choice(palette[1:])) if with_ignore else None
    gt = GroundTruthSequence(w, h, maps, ignore_value=ignore)
    tables = {f: mask_module._value_cuts(*runs) for f, runs in gt._runs.items()}
    assert gt.region_ids() == sorted(set().union(*tables.values()) - {0, ignore})
    # a label that occurs nowhere, too, takes a column
    columns = {v: j for j, v in enumerate([*gt.region_ids(), ignore, 70000])}
    runs = sorted((int(s) + k * w * h, int(e) + k * w * h, columns[v])
                  for k, f in enumerate(sorted(tables)) for v, cuts in tables[f].items()
                  if v in columns for s, e in zip(cuts[0::2], cuts[1::2]))
    assert [x.tolist() for x in gt._tagged_runs(columns)] == \
        [[r[i] for r in runs] for i in range(3)]


def test_per_label_cuts_only_where_a_metric_reads_them(tmp_path, monkeypatch):
    """Loading a sequence groups no frame's runs by label; of the metrics only map does,
    once per frame."""
    gt, tracks = generate(SynthConfig(seed=4, frames=4, width=48, height=32, objects=3))
    manifest = fileio.write_sequence(
        "s", GroundTruthSequence._from_runs(gt.width, gt.height, gt._runs, ignore_value=2),
        tmp_path)
    real, calls = metrics._value_cuts, []
    monkeypatch.setattr(metrics, "_value_cuts", lambda *runs: calls.append(runs) or real(*runs))
    for metric, options, expected in [
            ("proposed", {}, 0), ("official", {}, 0), ("davis", {}, 0), ("delta-obj", {}, 0),
            ("map", {}, 4), ("map", {"map_mode": "box"}, 4)]:
        calls.clear()
        _, loaded = fileio.load_sequence(manifest)
        metrics.evaluate(metric, [("s", loaded, tracks)], **options)
        assert len(calls) == expected, (metric, options)


@pytest.mark.parametrize("value", [-1, 65536])
def test_sequence_out_of_range_rejected(tmp_path, value):
    labels = np.zeros((H, W), dtype=np.int32)
    labels[2, 3] = value
    # the constructor refuses the label, so only the unchecked one reaches the writer
    gt = GroundTruthSequence._from_runs(W, H, {0: mask_module._label_runs(labels.ravel())})
    with pytest.raises(ValueError, match=re.escape("label values must lie in [0, 65535]")):
        fileio.write_sequence("s", gt, tmp_path)
    assert not list((tmp_path / "labelmaps").iterdir())


def test_sequence_writes_each_map_through_write_labelmap(tmp_path, monkeypatch):
    # every label map leaves through the public writer, one-byte maps without a range scan
    labels = {0: np.zeros((H, W), dtype=np.int32), 2: np.full((H, W), 300, dtype=np.int32)}
    labels[0][1, 2] = 7
    written = []
    real = fileio.write_labelmap
    monkeypatch.setattr(fileio, "write_labelmap",
                        lambda arr, path: (written.append(arr.dtype.str), real(arr, path)))
    fileio.write_sequence("s", GroundTruthSequence(W, H, labels), tmp_path)
    assert written == ["|u1", ">u2"]
    for idx, want in labels.items():
        assert np.array_equal(fileio.read_labelmap(tmp_path / f"labelmaps/{idx:06d}.pgm"), want)


def test_load_sequence_keeps_no_dense_map(tmp_path):
    # five 1920x1080 maxval-255 maps: 10 MiB of samples, held as label runs instead
    gt, _ = generate(SynthConfig(seed=3, frames=5, width=1920, height=1080, objects=10,
                                 object_size=(240, 280)))
    manifest = fileio.write_sequence("hd", gt, tmp_path)
    del gt
    tracemalloc.start()
    try:
        _, back = fileio.load_sequence(manifest)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.eval_frames() == [0, 1, 2, 3, 4]
    assert retained < 2**20


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


# ---------------------------------------------------------------- reader walks
#
# Each reader walks a parsed document once and builds its objects unchecked.  It
# must build what the public, checked constructors build from the same fields, and
# refuse every malformed document with the message that names its first bad field.

_READER_KEYS = {"read_detections": ("frames", "detections"),   # items key, entries key
                "read_tracks": ("tracks", "frames")}


@st.composite
def _reader_documents(draw, reader, min_items=0, min_entries=0):
    """A valid detections or tracks document of small masks; some objects carry an extra key.

    It has at least ``min_items`` frames or tracks, each with at least
    ``min_entries`` detections or entries.
    """
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def entry(**fields):
        grid = draw(st.lists(st.integers(0, 1), min_size=w * h, max_size=w * h).filter(any))
        score = draw(st.one_of(st.sampled_from([0, 1, 0.0, -0.0, 1.0]), st.floats(0, 1)))
        extra = {"note": None} if draw(st.booleans()) else {}
        return {**fields, "score": score, "rle": list(rle_encode(np.array(grid), w, h).runs),
                **extra}

    def frames(least):
        return sorted(draw(st.sets(st.integers(-3, 2**40), min_size=least, max_size=least + 3)))

    if reader == "read_tracks":
        ids = draw(st.lists(st.integers(-(2**70), 2**70), unique=True, min_size=min_items,
                            max_size=min_items + 3))
        items = [{"id": tid, "frames": [entry(index=f) for f in frames(max(min_entries, 1))]}
                 for tid in ids]
    else:
        kinds = st.sampled_from(["moving", "static"])
        items = [{"index": f, "detections": [
            entry(kind=draw(kinds)) for _ in range(draw(st.integers(min_entries, 3)))]}
            for f in frames(min_items)]
    return {"format_version": 1, "width": w, "height": h,
            _READER_KEYS[reader][0]: items}


def _checked(reader, doc):
    """What ``reader`` must return for a valid ``doc``, built by the checked constructors."""
    w, h = doc["width"], doc["height"]

    def detection(frame, entry, kind="moving"):
        return Detection(frame, float(entry["score"]), Mask(w, h, entry["rle"]), kind)

    if reader == "read_tracks":
        return w, h, [Track(item["id"], tuple(detection(e["index"], e) for e in item["frames"]))
                      for item in doc["tracks"]]
    return w, h, {item["index"]: [detection(item["index"], e, e["kind"])
                                  for e in item["detections"]] for item in doc["frames"]}


def _entries(result):
    return [d for ds in result.values() for d in ds] if isinstance(result, dict) \
        else [d for t in result for d in t.entries]


# the test keeps its name, and so its ids, from when each reader had a batch pass
@pytest.mark.parametrize("reader", sorted(_READER_KEYS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_batch_reader_builds_what_the_entry_checker_builds(reader, data):
    doc = data.draw(_reader_documents(reader))
    with tempfile.TemporaryDirectory() as tmp:   # hypothesis reruns outlive tmp_path
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        got = getattr(fileio, reader)(path)
    want = _checked(reader, doc)
    assert got == want
    # equal objects could still differ in a score's type (1 and 1.0) or sign (0.0 and -0.0)
    assert [repr(d.score) for d in _entries(got[2])] == [repr(d.score) for d in _entries(want[2])]
    assert all(not d.mask.foreground_cuts.flags.writeable for d in _entries(got[2]))


@pytest.mark.parametrize("reader", sorted(_READER_KEYS))
def test_frames_beyond_int64_are_read_entry_by_entry(tmp_path, reader):
    doc = _masks_doc(reader, [[0, W * H], [1, W * H - 1]])
    key, group = _READER_KEYS[reader]
    first = doc[key][0]
    if reader == "read_tracks":
        first[group][1]["index"] = 2**70
    else:
        first["index"] = -(2**70)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert getattr(fileio, reader)(path) == _checked(reader, doc)


_DELETE = object()


def _bad_runs(n):
    """The run-list errors of ``test_bad_rle_names_its_field`` for a frame of n pixels, and
    the valid runs of an empty mask, which no detection may have."""
    return [[True, n - 1], [1.5, n - 1.5], ["4", n - 4], [-1, n + 1], [], [1, 0, n - 1],
            [1, n], [0, n + 1], [0, 2**64], [n]]


# what each of _bad_runs' lists is refused with, after the location of its entry
_BAD_RUNS_MESSAGES = [".rle: runs must be integers"] * 3 + [
    ".rle: negative run length", ".rle: empty runs list", ".rle: zero-length interior run",
    ".rle: runs sum {n_plus_1} != width*height {n}", ".rle: run length outside the frame",
    ".rle: run length outside the frame", ": detection mask must be non-empty"]


class _Earlier(str):
    """A key whose value in the item or entry before the corrupted one is the new value."""

    def __repr__(self):
        return f"earlier {str(self)}"


class _BadRuns(int):
    """An index into ``_bad_runs`` of the document's frame."""

    def __repr__(self):
        return f"bad runs {int(self)}"


class _AfterBadRuns(float):
    """A new value written where the entry before the corrupted one gets bad runs too."""

    def __repr__(self):
        return f"{float(self)} after bad runs"


_NUMBER = "(<class 'int'>, <class 'float'>)"
_INT, _LIST, _STR = "<class 'int'>", "<class 'list'>", "<class 'str'>"

# (reader, or None for both; "item" or "entry"; key, or None for the whole object; the
# new value, _DELETE, _BadRuns, _Earlier or _AfterBadRuns; what the reader's error says
# after the corrupted object's location, formatted with the new value, n, the frame's
# pixels, and n_plus_1)
_CORRUPTIONS = [
    (None, "entry", "score", _DELETE, ".score: missing"),
    (None, "entry", "score", True, f".score: expected {_NUMBER}, got bool"),
    (None, "entry", "score", "0.5", f".score: expected {_NUMBER}, got str"),
    *[(None, "entry", "score", v, ": score {value} outside [0, 1]")
      for v in (float("nan"), 1.5, -0.25, 10**400)],
    # a structure fault is named before any run list is checked, as the first bad
    # field of the document in order
    (None, "entry", "score", _AfterBadRuns(1.5), ": score {value} outside [0, 1]"),
    (None, "entry", "rle", _DELETE, ".rle: missing"),
    (None, "entry", "rle", "x", f".rle: expected {_LIST}, got str"),
    (None, "entry", "rle", {"a": 1}, f".rle: expected {_LIST}, got dict"),
    *[(None, "entry", "rle", _BadRuns(k), message)
      for k, message in enumerate(_BAD_RUNS_MESSAGES)],
    (None, "entry", None, [1], ": expected an object"),
    (None, "item", None, "x", ": expected an object"),
    ("read_tracks", "entry", "index", _DELETE, ".index: missing"),
    ("read_tracks", "entry", "index", True, f".index: expected {_INT}, got bool"),
    ("read_tracks", "entry", "index", "3", f".index: expected {_INT}, got str"),
    ("read_tracks", "entry", "index", 1.5, f".index: expected {_INT}, got float"),
    ("read_tracks", "entry", "index", _Earlier("index"),
     ".index: track frames must be strictly increasing"),
    ("read_tracks", "item", "id", _DELETE, ".id: missing"),
    ("read_tracks", "item", "id", True, f".id: expected {_INT}, got bool"),
    ("read_tracks", "item", "id", "1", f".id: expected {_INT}, got str"),
    ("read_tracks", "item", "id", 1.5, f".id: expected {_INT}, got float"),
    ("read_tracks", "item", "id", _Earlier("id"), ".id: duplicate track id {value}"),
    ("read_tracks", "item", "frames", _DELETE, ".frames: missing"),
    ("read_tracks", "item", "frames", "x", f".frames: expected {_LIST}, got str"),
    ("read_tracks", "item", "frames", {}, f".frames: expected {_LIST}, got dict"),
    ("read_tracks", "item", "frames", [], ": track has no frames"),
    ("read_detections", "entry", "kind", _DELETE, ".kind: missing"),
    ("read_detections", "entry", "kind", "wobbling", ".kind: expected 'moving' or 'static'"),
    ("read_detections", "entry", "kind", 3, f".kind: expected {_STR}, got int"),
    ("read_detections", "entry", "kind", ["moving"], f".kind: expected {_STR}, got list"),
    ("read_detections", "item", "index", _DELETE, ".index: missing"),
    ("read_detections", "item", "index", True, f".index: expected {_INT}, got bool"),
    ("read_detections", "item", "index", "3", f".index: expected {_INT}, got str"),
    ("read_detections", "item", "index", 1.5, f".index: expected {_INT}, got float"),
    ("read_detections", "item", "index", _Earlier("index"),
     ".index: frame indices must be strictly increasing"),
    ("read_detections", "item", "detections", _DELETE, ".detections: missing"),
    ("read_detections", "item", "detections", "x", f".detections: expected {_LIST}, got str"),
    ("read_detections", "item", "detections", {}, f".detections: expected {_LIST}, got dict"),
]


# the test keeps its name, and so its ids, from when each reader had a batch pass
@pytest.mark.parametrize("reader,corruption", [
    (reader, c) for reader in sorted(_READER_KEYS) for c in _CORRUPTIONS if c[0] in (None, reader)
], ids=lambda c: c if isinstance(c, str) else
    f"{c[1]}.{c[2]}={'missing' if c[3] is _DELETE else repr(c[3])[:20]}")
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_batch_reader_rejects_every_single_field_corruption(reader, corruption, data):
    """The reader's error names the corrupted field with the message of its table row."""
    _, level, field, value, message = corruption
    earlier = isinstance(value, (_Earlier, _AfterBadRuns))
    doc = data.draw(_reader_documents(
        reader, min_items=1 + (earlier and level == "item"),
        min_entries=(level == "entry") + (earlier and level == "entry")))
    key, group = _READER_KEYS[reader]
    w, h, items = doc["width"], doc["height"], doc[key]
    i = data.draw(st.integers(int(earlier and level == "item"), len(items) - 1))
    if level == "item":
        container, k = items, i
    else:
        container = items[i][group]
        k = data.draw(st.integers(int(earlier), len(container) - 1))
    where = f"{key}[{i}]" if level == "item" else f"{key}[{i}].{group}[{k}]"
    if isinstance(value, _Earlier):
        value = container[k - 1][value]
    elif isinstance(value, _BadRuns):
        value = _bad_runs(w * h)[value]
    elif isinstance(value, _AfterBadRuns):
        container[k - 1]["rle"] = _bad_runs(w * h)[0]
        value = float(value)
    if field is None:
        container[k] = value
    elif value is _DELETE:
        del container[k][field]
    else:
        container[k][field] = value
    with tempfile.TemporaryDirectory() as tmp:   # hypothesis reruns outlive tmp_path
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.SchemaError) as error:
            getattr(fileio, reader)(path)
    assert str(error.value) == f"{path}.{where}" + message.format(
        value=value, n=w * h, n_plus_1=w * h + 1)

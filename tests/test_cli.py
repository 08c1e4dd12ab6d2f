"""Command-line surface: exit codes, determinism, letterbox geometry, files."""

import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from firedet import synth
from firedet.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from firedet.fileio import (format_detection, image_to_input, letterbox, letterbox_box,
                            load_config, read_ppm, unletterbox_box, write_ground_truth, write_ppm)
from firedet.metrics import DetRecord, GtRecord
from firedet.model import ModelConfig, build
from firedet.rng import Rng
from firedet.tensor import Tensor
from firedet.train import load_dataset, train_toy
from firedet.weights import (MAGIC, VERSION, load_records, load_weights, model_records,
                             save_records, save_weights)

from oracles import (format_detection_ref, format_ground_truth_ref, image_to_input_ref,
                     letterbox_box_ref, letterbox_ref, unletterbox_box_ref)

REPO = Path(__file__).resolve().parent.parent
PROFILE_GOLDEN = Path(__file__).resolve().parent / "data" / "profile"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(
        {"num_classes": 1, "input_size": 64, "width_mult": 0.125}))
    return str(path)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    assert main(["synth", "--n", "2", "--out", str(out)]) == EXIT_OK
    return out


# -- letterbox geometry ---------------------------------------------------------------


def test_letterbox_tall_image_pads_width_with_gray():
    rng = Rng(0)
    image = (np.asarray(rng.uniform64(640 * 320 * 3)) * 255) \
        .astype(np.uint8).reshape(640, 320, 3)
    boxed, info = letterbox(image, 640)
    assert boxed.shape == (640, 640, 3)
    assert (info.scale, info.pad_x, info.pad_y) == (1.0, 160, 0)
    assert np.array_equal(boxed[:, 160:480], image)  # content is untouched
    assert (boxed[:, :160] == 114).all() and (boxed[:, 480:] == 114).all()


def test_letterbox_downscales_wide_image():
    image = np.zeros((100, 400, 3), dtype=np.uint8)
    boxed, info = letterbox(image, 64)
    assert boxed.shape == (64, 64, 3)
    assert info.scale == 64 / 400
    assert info.pad_x == 0 and info.pad_y == (64 - 16) // 2


@pytest.mark.parametrize("src_h, src_w", [(1, 1), (90, 700), (517, 333), (480, 640)])
@pytest.mark.parametrize("dst_size", [32, 64, 256, 640])
def test_letterbox_pixels_match_nested_loop_reference(src_h, src_w, dst_size):
    # Up-, down- and unit scales, both orientations, odd and rounding extents.
    image = (np.asarray(Rng(src_h * 1000 + src_w).uniform64(src_h * src_w * 3)) * 256) \
        .astype(np.uint8).reshape(src_h, src_w, 3)
    boxed, _ = letterbox(image, dst_size)
    assert boxed.dtype == np.uint8 and boxed.tobytes() == letterbox_ref(image, dst_size).tobytes()


def test_letterbox_box_round_trip():
    image = np.zeros((480, 320, 3), dtype=np.uint8)
    _, info = letterbox(image, 64)
    for box in [(0.5, 0.5, 0.25, 0.3), (0.3, 0.7, 0.1, 0.15)]:
        mapped = letterbox_box(box, info)
        assert all(0.0 <= v <= 1.0 for v in mapped)
        back = unletterbox_box(mapped, info)
        assert np.allclose(back, box, atol=1e-12)


_SOURCE_SIZES = st.integers(1, 800)
_DST_SIZES = st.integers(8, 320)


@st.composite
def _source_box(draw):
    """A (cx, cy, w, h) box whose corners lie in [0, 1]."""
    x1, x2 = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    y1, y2 = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    return ((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(src_w=_SOURCE_SIZES, src_h=_SOURCE_SIZES, dst_size=_DST_SIZES, box=_source_box())
def test_letterbox_round_trip_on_generated_geometry(src_w, src_h, dst_size, box):
    _, info = letterbox(np.zeros((src_h, src_w, 3), dtype=np.uint8), dst_size)
    mapped = letterbox_box(box, info)
    assert all(0.0 <= v <= 1.0 for v in mapped)
    # A 1-px side of an 800-px source becomes 0.01 px, so the way back
    # divides rounding error by up to 1e-2.
    assert np.allclose(unletterbox_box(mapped, info), box, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("dst_size", [64, 100, 128, 256, 640])
def test_letterbox_box_stays_in_frame_on_every_source_width(dst_size):
    # src * scale rounds one ulp past dst_size on the long side for some
    # widths (183 px into 100 px, among others); a source corner must still
    # land inside the frame, and a mapping already inside keeps its bits.
    boxes = [(1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0), (0.5, 0.5, 1.0, 1.0), (0.3, 0.7, 0.1, 0.9)]
    for src in range(1, 200):
        for shape in ((1, src), (src, 1), (src // 2 + 1, src)):
            _, info = letterbox(np.zeros((*shape, 3), dtype=np.uint8), dst_size)
            for box in boxes:
                got, unclamped = letterbox_box(box, info), letterbox_box_ref(box, info)
                assert all(0.0 <= v <= 1.0 for v in got), (shape, box, got)
                assert all(g == u for g, u in zip(got, unclamped) if u <= 1.0), (shape, box)


# Corners beyond the frame are clamped, a NaN one to 0, and -0.0 becomes 0.0.
_COORDS = st.floats(-0.5, 1.5) | st.sampled_from((math.nan, -0.0, 0.0, 1.0))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(src_w=_SOURCE_SIZES, src_h=_SOURCE_SIZES, dst_size=_DST_SIZES,
       boxes=st.lists(st.tuples(_COORDS, _COORDS, _COORDS, _COORDS), max_size=12))
def test_unletterbox_box_matches_scalar_reference_bits(src_w, src_h, dst_size, boxes):
    _, info = letterbox(np.zeros((src_h, src_w, 3), dtype=np.uint8), dst_size)
    got = unletterbox_box(np.array(boxes, dtype=np.float64).reshape(-1, 4), info)
    want = np.array([unletterbox_box_ref(b, info) for b in boxes], dtype=np.float64)
    assert got.tobytes() == want.reshape(-1, 4).tobytes()


def test_unletterbox_clamps_corners_not_centre_and_size():
    _, info = letterbox(np.zeros((32, 64, 3), dtype=np.uint8), 64)  # pad_y = 16
    cx, cy, w, h = unletterbox_box((0.5, 0.3, 0.2, 0.2), info)
    # letterbox rows 12.8..25.6 px -> source rows 0 (clamped from -3.2)..9.6 of 32
    assert (cx, w) == pytest.approx((0.5, 0.2), abs=1e-12)
    assert (cy, h) == pytest.approx((0.15, 0.3), abs=1e-12)
    assert cy - h / 2 >= 0.0
    # wholly inside the top padding (letterbox rows 3.2..9.6 px)
    assert unletterbox_box((0.5, 0.1, 0.2, 0.1), info)[3] == 0.0


def test_image_to_input_layout_and_range():
    image = np.zeros((4, 6, 3), dtype=np.uint8)
    image[1, 2] = (255, 0, 128)
    x = image_to_input(image)
    assert x.shape == (1, 3, 4, 6) and x.dtype == np.float32
    assert x[0, 0, 1, 2] == 1.0
    assert x[0, 2, 1, 2] == np.float32(128) / np.float32(255)


def test_image_to_input_equals_the_float64_quotient_cast_to_float32():
    image = np.arange(256, dtype=np.uint8).repeat(3).reshape(16, 16, 3)
    want = image_to_input_ref(image).astype(np.float32)
    assert image_to_input(image).tobytes() == want.tobytes()


def test_ppm_round_trip_is_exact(tmp_path):
    rng = Rng(4)
    image = (np.asarray(rng.uniform64(5 * 7 * 3)) * 255) \
        .astype(np.uint8).reshape(5, 7, 3)
    path = tmp_path / "img.ppm"
    write_ppm(path, image)
    assert np.array_equal(read_ppm(path), image)


# -- synth ----------------------------------------------------------------------------


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--n", "2", "--out", str(a)]) == EXIT_OK
    assert main(["synth", "--n", "2", "--out", str(b)]) == EXIT_OK
    names = sorted(p.name for p in a.iterdir())
    assert names == ["000.ppm", "001.ppm", "gts.jsonl"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_rejects_bad_arguments(tmp_path):
    assert main(["synth", "--n", "0", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert main(["synth", "--n", "2", "--image-size", "8",
                 "--out", str(tmp_path / "y")]) == EXIT_CONFIG


@pytest.mark.parametrize("size", [16, 19])
def test_synth_image_size_must_fit_the_largest_blob(tmp_path, capsys, size):
    # A blob of MAX_RADIUS with its EDGE_MARGIN on both sides needs 20 px.
    assert main(["synth", "--n", "2", "--image-size", str(size),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "--image-size" in capsys.readouterr().err
    with pytest.raises(ValueError, match="image_size"):
        synth.generate_dataset(1, 0, tmp_path / "y", image_size=size)
    assert main(["synth", "--n", "4", "--image-size", str(synth.MIN_IMAGE_SIZE),
                 "--out", str(tmp_path / "z")]) == EXIT_OK


def test_synth_refuses_a_directory_holding_a_set(tmp_path, capsys):
    # A smaller second set would leave the first set's extra images beside a
    # gts.jsonl that does not label them, and train-toy would train on them.
    out = tmp_path / "d"
    assert main(["synth", "--n", "10", "--out", str(out), "--seed", "1"]) == EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["synth", "--n", "8", "--out", str(out), "--seed", "2"]) == EXIT_IO
    assert str(out) in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    for leftover in ("gts.jsonl", "000.ppm"):
        lone = tmp_path / f"only-{leftover}"
        lone.mkdir()
        (lone / leftover).write_text("")
        with pytest.raises(FileExistsError, match=str(lone)):
            synth.generate_dataset(1, 0, lone)
        assert [p.name for p in lone.iterdir()] == [leftover]
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "notes.txt").write_text("")
    assert main(["synth", "--n", "1", "--out", str(tmp_path / "other")]) == EXIT_OK


# -- gradcheck ------------------------------------------------------------------------


def test_gradcheck_cli_passes_primitives(capsys):
    assert main(["gradcheck", "--scope", "primitives"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_gradcheck_cli_detects_corrupted_gradients(capsys, monkeypatch):
    # scale every accumulated gradient by 1.001: analytic and numeric now
    # disagree by ~5e-4 relative, far above the 1e-5 unit tolerance
    orig = Tensor.accumulate_grad
    monkeypatch.setattr(Tensor, "accumulate_grad",
                        lambda self, g: orig(self, np.asarray(g) * 1.001))
    assert main(["gradcheck", "--scope", "primitives"]) == EXIT_CHECK
    assert "FAIL" in capsys.readouterr().out


# -- infer ----------------------------------------------------------------------------


def test_infer_is_deterministic_and_thread_invariant(tmp_path, config_path,
                                                     dataset_dir, capsys):
    images = [str(dataset_dir / "000.ppm"), str(dataset_dir / "001.ppm")]
    outs = [tmp_path / f"dets{i}.jsonl" for i in range(3)]
    base = ["infer", *images, "--config", config_path,
            "--score-threshold", "0.001"]
    assert main(base + ["--out", str(outs[0])]) == EXIT_OK
    assert main(base + ["--out", str(outs[1])]) == EXIT_OK
    assert main(base + ["--threads", "2", "--out", str(outs[2])]) == EXIT_OK
    first = outs[0].read_bytes()
    assert first == outs[1].read_bytes() == outs[2].read_bytes()
    assert len(first.splitlines()) > 0
    capsys.readouterr()
    assert main(base) == EXIT_OK  # no --out: detections go to stdout
    assert capsys.readouterr().out.encode() == first


_SPECIAL_NAMES = ['a"b', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "feu-\u00e9\u706b\U0001f525"]
_SPECIAL_NUMBERS = [0.0, -0.0, 1.0, 5e-07, 4.9999995e-07, 1e-05, 0.1 + 0.2, 5e-324, -1e-310,
                    2.2250738585072014e-308, math.nan, math.inf, -math.inf]
_NAMES = st.text(max_size=8) | st.sampled_from(_SPECIAL_NAMES)
_NUMBERS = st.floats() | st.sampled_from(_SPECIAL_NUMBERS)


@st.composite
def _detection_lists(draw):
    """Records over a few images, their order interleaved, possibly none."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=3))
    return draw(st.lists(st.builds(
        DetRecord, st.sampled_from(names), st.integers(0, 3), _NUMBERS,
        st.tuples(_NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS)), max_size=12))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(records=_detection_lists())
@example(records=[])
@example(records=[DetRecord(name, 1, v, (v, 0.5, -v, v))
                  for name in _SPECIAL_NAMES for v in _SPECIAL_NUMBERS])
def test_format_detection_equals_per_record_json_dumps(records):
    assert format_detection(records) == "".join(format_detection_ref(r) + "\n" for r in records)


@st.composite
def _ground_truth_lists(draw):
    names = draw(st.lists(_NAMES, min_size=1, max_size=3))
    coords = _NUMBERS | st.integers(0, 1)
    return draw(st.lists(st.builds(
        GtRecord, st.sampled_from(names), st.integers(0, 3),
        st.tuples(coords, coords, coords, coords)), max_size=12))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(records=_ground_truth_lists())
def test_format_detection_of_ground_truth_equals_per_record_json_dumps(records):
    assert format_detection(records) == "".join(format_ground_truth_ref(r) + "\n" for r in records)


@pytest.mark.parametrize("records", [
    [],
    [GtRecord(name, 0, (1, 0.1 + 0.2, 4.9999995e-07, 0.123456789)) for name in _SPECIAL_NAMES],
], ids=["empty", "awkward"])
def test_write_ground_truth_equals_per_record_json_dumps(tmp_path, records):
    write_ground_truth(tmp_path / "gts.jsonl", records)
    want = "".join(format_ground_truth_ref(r) + "\n" for r in records)
    assert (tmp_path / "gts.jsonl").read_bytes() == want.encode()


def test_infer_exit_codes(tmp_path, config_path, dataset_dir):
    image = str(dataset_dir / "000.ppm")
    missing = str(tmp_path / "nope.ppm")
    assert main(["infer", missing, "--config", config_path]) == EXIT_IO
    assert main(["infer", image, "--config", str(tmp_path / "no.json")]) == EXIT_IO

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"num_classes": 1, "depth_mult": 2.0}))
    assert main(["infer", image, "--config", str(bad_cfg)]) == EXIT_CONFIG

    not_ppm = tmp_path / "text.ppm"
    not_ppm.write_text("not an image")
    assert main(["infer", str(not_ppm), "--config", config_path]) == EXIT_IO

    bad_weights = tmp_path / "weights.bin"
    bad_weights.write_bytes(b"garbage")
    assert main(["infer", image, "--config", config_path,
                 "--weights", str(bad_weights)]) == EXIT_IO

    nan_weights = tmp_path / "nan.bin"
    blob = bytearray(save_weights(build(
        ModelConfig(num_classes=1, input_size=64, width_mult=0.125), Rng(0))))
    blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    nan_weights.write_bytes(bytes(blob))
    assert main(["infer", image, "--config", config_path,
                 "--weights", str(nan_weights)]) == EXIT_IO

    # The last record is a BatchNorm running variance; a negative one would
    # turn every output of its layer into NaN and silently yield no records.
    negative_var = tmp_path / "negative_var.bin"
    blob[-4:] = np.array([-1.0], dtype="<f4").tobytes()
    negative_var.write_bytes(bytes(blob))
    assert main(["infer", image, "--config", config_path, "--score-threshold", "0",
                 "--weights", str(negative_var)]) == EXIT_IO

    # Four extents of 65,536 hold 2**64 elements, a product that wraps to 0 in int64.
    huge = tmp_path / "huge.bin"
    huge.write_bytes(save_records([("w", np.zeros((1, 1, 1, 1)))])[:-20]
                     + struct.pack("<4I", *[65536] * 4))
    assert main(["infer", image, "--config", config_path, "--weights", str(huge)]) == EXIT_IO


@pytest.mark.parametrize("threads", ["1", "2"])
def test_infer_whose_forward_overflows_exits_check_with_one_error_line(
        tmp_path, dataset_dir, capsys, threads):
    # Every parameter times 1e18 is still a finite archive, so load_weights
    # takes it, but the forward overflows.  That is one error line and exit 4,
    # with no --out file, not NumPy warnings and an empty detection list.
    config = str(REPO / "configs" / "toy.json")
    model = build(load_config(config), Rng(0))
    for p in model.parameters():
        p.data *= 1e18
    weights = tmp_path / "big.bin"
    weights.write_bytes(save_weights(model))
    out = tmp_path / "dets.jsonl"
    code = main(["infer", str(dataset_dir / "000.ppm"), str(dataset_dir / "001.ppm"),
                 "--config", config, "--weights", str(weights), "--score-threshold", "0.001",
                 "--threads", threads, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CHECK
    assert captured.err.startswith("error: detection arithmetic failed: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_infer_whose_batchnorm_fold_overflows_exits_check_with_one_error_line(
        tmp_path, dataset_dir):
    # The stem's BatchNorm scale 1e30 / sqrt(0 + BN_EPS) times its conv weight
    # 1e7 overflows float32, in the fold as in an unfolded forward.  In a real
    # process a NumPy warning would print its own lines, where this suite's
    # warning filter would turn it into an exception instead.
    config = str(REPO / "configs" / "toy.json")
    model = build(load_config(config), Rng(0))
    stem = model.backbone.stem
    stem.bn.gamma.data[...] = 1e30
    stem.bn.running_var[...] = 0.0
    stem.conv.weight.data[...] = 1e7
    weights = tmp_path / "stem.bin"
    weights.write_bytes(save_weights(model))
    out = tmp_path / "dets.jsonl"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "firedet", "infer", str(dataset_dir / "000.ppm"),
                           "--config", config, "--weights", str(weights), "--out", str(out)],
                          cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CHECK
    assert proc.stderr.startswith("error: detection arithmetic failed: ")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""
    assert not out.exists()


def test_infer_with_weights_draws_nothing_and_ignores_the_seed(
        tmp_path, config_path, dataset_dir, monkeypatch):
    weights = tmp_path / "weights.bin"
    weights.write_bytes(save_weights(build(load_config(config_path), Rng(3))))

    def no_draws(*args):
        raise AssertionError("an init draw was made")

    monkeypatch.setattr(Rng, "uniform64", no_draws)
    outs = []
    for seed in ("0", "7"):
        out = tmp_path / f"dets{seed}.jsonl"
        assert main(["infer", str(dataset_dir / "000.ppm"), "--config", config_path,
                     "--weights", str(weights), "--score-threshold", "0.001",
                     "--seed", seed, "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] != b""


def test_threads_flag_is_infer_only_and_positive(config_path, dataset_dir, capsys):
    image = str(dataset_dir / "000.ppm")
    assert main(["infer", image, "--config", config_path, "--threads", "0"]) == EXIT_CONFIG
    assert "--threads" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--config", config_path, "--threads", "2"])
    assert exc.value.code == EXIT_CONFIG


def test_infer_refuses_two_images_with_one_file_name(tmp_path, config_path, dataset_dir, capsys):
    # Records are keyed by file name, so eval would merge the two frames.
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        shutil.copy(dataset_dir / "000.ppm", tmp_path / d / "x.ppm")
    a, b = str(tmp_path / "a" / "x.ppm"), str(tmp_path / "b" / "x.ppm")
    missing_config = str(tmp_path / "no.json")  # refused before anything is loaded
    for images in ([a, b], [a, a], [a, str(dataset_dir / "001.ppm"), b]):
        assert main(["infer", *images, "--config", missing_config]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: images must have distinct file names, repeated: x.ppm\n")
    assert main(["infer", a, str(dataset_dir / "001.ppm"), "--config", config_path,
                 "--out", str(tmp_path / "d.jsonl")]) == EXIT_OK


# -- eval -----------------------------------------------------------------------------


def test_eval_perfect_match_and_zero_gt_warning(tmp_path, capsys):
    det_line = {"image": "a.ppm", "class_id": 0, "score": 0.9,
                "box": [0.5, 0.5, 0.2, 0.2]}
    gt_line = {"image": "a.ppm", "class_id": 0, "box": [0.5, 0.5, 0.2, 0.2]}
    dets = tmp_path / "dets.jsonl"
    gts = tmp_path / "gts.jsonl"
    dets.write_text(json.dumps(det_line) + "\n")
    gts.write_text(json.dumps(gt_line) + "\n")
    assert main(["eval", "--dets", str(dets), "--gts", str(gts)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "precision=1.0000 recall=1.0000" in captured.out
    assert "mAP50=1.0000" in captured.out
    assert captured.err == ""

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["eval", "--dets", str(dets), "--gts", str(empty)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "mAP50=0.0000" in captured.out


GOOD_DET = '{"image": "a.ppm", "class_id": 0, "score": 0.9, "box": [0.5, 0.5, 0.2, 0.2]}'
GOOD_GT = '{"image": "a.ppm", "class_id": 0, "box": [0.5, 0.5, 0.2, 0.2]}'


@pytest.mark.parametrize("which", ["dets", "gts"])
@pytest.mark.parametrize("bad", [
    '"box": [0.5, 0.5, Infinity, -0.1]',
    '"box": [0.5, NaN, 0.2, 0.2]',
    '"box": [0.5, 0.5, 1e400, 0.2]',
    '"box": [1.2, 0.5, 0.2, 0.2]',
    '"box": [0.5, 0.5, 0.0, 0.2]',
    '"box": [0.5, 0.5, 0.2, -0.2]',
    '"box": [true, 0.5, 0.5, 0.5]',  # JSON true is not the number 1
    '"box": [0.5, 0.5, 0.2, 0.2], "class_id": -1',  # the later key wins: a negative class
])
def test_eval_rejects_non_finite_and_out_of_range_boxes(tmp_path, which, bad):
    files = {"dets": GOOD_DET, "gts": GOOD_GT}
    files[which] = files[which].replace('"box": [0.5, 0.5, 0.2, 0.2]', bad)
    for name, line in files.items():
        (tmp_path / f"{name}.jsonl").write_text(line + "\n")
    assert main(["eval", "--dets", str(tmp_path / "dets.jsonl"),
                 "--gts", str(tmp_path / "gts.jsonl")]) == EXIT_IO


@pytest.mark.parametrize("score", ["NaN", "Infinity", "-Infinity"])
def test_eval_rejects_non_finite_scores(tmp_path, score):
    (tmp_path / "dets.jsonl").write_text(GOOD_DET.replace("0.9", score) + "\n")
    (tmp_path / "gts.jsonl").write_text(GOOD_GT + "\n")
    assert main(["eval", "--dets", str(tmp_path / "dets.jsonl"),
                 "--gts", str(tmp_path / "gts.jsonl")]) == EXIT_IO


def test_infer_output_on_non_square_image_is_accepted_by_eval(tmp_path, config_path):
    image = tmp_path / "wide.ppm"
    write_ppm(image, (np.arange(32 * 64 * 3) % 251).astype(np.uint8).reshape(32, 64, 3))
    dets, gts = tmp_path / "dets.jsonl", tmp_path / "gts.jsonl"
    assert main(["infer", str(image), "--config", config_path,
                 "--score-threshold", "0.001", "--out", str(dets)]) == EXIT_OK
    records = [json.loads(line) for line in dets.read_text().splitlines()]
    assert records
    for rec in records:
        cx, cy, w, h = rec["box"]
        assert w > 0 and h > 0
        assert -1e-6 <= cy - h / 2 and cy + h / 2 <= 1 + 1e-6
    gts.write_text(GOOD_GT.replace("a.ppm", "wide.ppm") + "\n")
    assert main(["eval", "--dets", str(dets), "--gts", str(gts)]) == EXIT_OK


@pytest.mark.parametrize("verb, flag, value", [
    ("eval", "--iou-threshold", "nan"),
    ("eval", "--iou-threshold", "1.5"),
    ("eval", "--conf-threshold", "nan"),
    ("eval", "--conf-threshold", "-0.1"),
    ("infer", "--score-threshold", "nan"),
    ("infer", "--score-threshold", "1.5"),
    ("train-toy", "--score-threshold", "inf"),
])
def test_threshold_flags_require_a_finite_value_in_unit_interval(
        tmp_path, config_path, dataset_dir, capsys, verb, flag, value):
    (tmp_path / "dets.jsonl").write_text(GOOD_DET + "\n")
    (tmp_path / "gts.jsonl").write_text(GOOD_GT + "\n")
    args = {
        "eval": ["eval", "--dets", str(tmp_path / "dets.jsonl"),
                 "--gts", str(tmp_path / "gts.jsonl")],
        "infer": ["infer", str(dataset_dir / "000.ppm"), "--config", config_path],
        "train-toy": ["train-toy", "--config", config_path, "--data", str(dataset_dir),
                      "--steps", "1", "--out", str(tmp_path / "out")],
    }[verb]
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, value])
    assert exc.value.code == EXIT_CONFIG
    assert flag in capsys.readouterr().err


def test_threshold_flags_accept_the_interval_ends(tmp_path, capsys):
    (tmp_path / "dets.jsonl").write_text(GOOD_DET + "\n")
    (tmp_path / "gts.jsonl").write_text(GOOD_GT + "\n")
    assert main(["eval", "--dets", str(tmp_path / "dets.jsonl"),
                 "--gts", str(tmp_path / "gts.jsonl"),
                 "--conf-threshold", "0", "--iou-threshold", "1"]) == EXIT_OK
    assert "mAP50=1.0000" in capsys.readouterr().out


def test_eval_missing_file_exits_io(tmp_path):
    assert main(["eval", "--dets", str(tmp_path / "a.jsonl"),
                 "--gts", str(tmp_path / "b.jsonl")]) == EXIT_IO


@pytest.mark.parametrize("seed", ["-1", str(2**63), str(2**64)])
@pytest.mark.parametrize("verb", ["infer", "train-toy", "synth", "gradcheck"])
def test_seed_outside_zero_to_two_to_the_63_is_a_config_error(
        tmp_path, config_path, dataset_dir, capsys, verb, seed):
    args = {
        "infer": ["infer", str(dataset_dir / "000.ppm"), "--config", config_path],
        "train-toy": ["train-toy", "--config", config_path, "--data", str(dataset_dir),
                      "--steps", "1", "--out", str(tmp_path / "out")],
        "synth": ["synth", "--n", "1", "--out", str(tmp_path / "out")],
        "gradcheck": ["gradcheck"],
    }[verb]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed", seed])
    assert exc.value.code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_largest_seed_is_accepted(tmp_path):
    assert main(["synth", "--n", "1", "--out", str(tmp_path), "--seed", str(2**63 - 1)]) == EXIT_OK


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"num_classes": 1, "input_size": 64, "width_mult": 0.125, "\xff": 1}')
    assert main(["profile", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {path}: not UTF-8 text\n"


@pytest.mark.parametrize("which", ["dets", "gts"])
def test_non_utf8_jsonl_is_an_io_error_naming_the_file(tmp_path, capsys, which):
    (tmp_path / "dets.jsonl").write_text(GOOD_DET + "\n")
    (tmp_path / "gts.jsonl").write_text(GOOD_GT + "\n")
    bad = tmp_path / f"{which}.jsonl"
    bad.write_bytes(bad.read_bytes() + b'{"image": "\xff.ppm"}\n')
    assert main(["eval", "--dets", str(tmp_path / "dets.jsonl"),
                 "--gts", str(tmp_path / "gts.jsonl")]) == EXIT_IO
    assert capsys.readouterr().err == f"I/O error: {bad}: not UTF-8 text\n"


def test_archive_record_name_not_utf8_is_an_io_error_naming_the_record(
        tmp_path, config_path, dataset_dir, capsys):
    blob = bytearray(save_weights(build(load_config(config_path), Rng(0))))
    blob[14] = 0xFF  # first byte of record 0's name, after the 12-byte header and its length
    weights = tmp_path / "weights.bin"
    weights.write_bytes(bytes(blob))
    assert main(["infer", str(dataset_dir / "000.ppm"), "--config", config_path,
                 "--weights", str(weights)]) == EXIT_IO
    assert capsys.readouterr().err == "I/O error: record 0: name is not UTF-8\n"


# -- profile --------------------------------------------------------------------------


def test_profile_and_ablation_smoke(config_path, capsys):
    assert main(["profile", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "GFLOPs" in out and "total" in out
    assert main(["profile", "--config", config_path, "--ablation"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "full/baseline parameter ratio" in out


@pytest.mark.parametrize("flags", [[], ["--ablation"]], ids=["table", "ablation"])
@pytest.mark.parametrize("config", ["baseline", "air", "dpdf", "full", "toy"])
def test_profile_output_matches_golden(config, flags, capsys):
    # The golden files are the stdout of `firedet profile --config
    # configs/<config>.json [--ablation]`, byte for byte.
    args = ["profile", "--config", str(REPO / "configs" / f"{config}.json"), *flags]
    assert main(args) == EXIT_OK
    golden = PROFILE_GOLDEN / f"{config}{'-ablation' if flags else ''}.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("flags", [[], ["--ablation"]], ids=["table", "ablation"])
def test_profile_draws_no_initial_values(monkeypatch, config_path, flags):
    # The report reads names, shapes, MACs and archive lengths only.
    def refuse(*args):
        raise AssertionError("profile drew initial values")

    monkeypatch.setattr(Rng, "uniform64", refuse)
    assert main(["profile", "--config", config_path, *flags]) == EXIT_OK


@pytest.mark.parametrize("verb", ["profile", "eval"])
def test_verbs_that_draw_nothing_take_no_seed(config_path, tmp_path, verb, capsys):
    args = {"profile": ["profile", "--config", config_path],
            "eval": ["eval", "--dets", str(tmp_path / "d.jsonl"),
                     "--gts", str(tmp_path / "g.jsonl")]}
    with pytest.raises(SystemExit) as exc:
        main([*args[verb], "--seed", "1"])
    assert exc.value.code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "100", "-32"])
def test_profile_input_must_be_a_positive_multiple_of_32(config_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--config", config_path, "--input", value])
    assert exc.value.code == EXIT_CONFIG
    assert "--input" in capsys.readouterr().err


def test_profile_ablation_and_variant_exclude_each_other(config_path, capsys):
    # --ablation prints all four variants, so a --variant beside it was dropped.
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--config", config_path, "--ablation", "--variant", "air"])
    assert exc.value.code == EXIT_CONFIG
    assert "not allowed with argument" in capsys.readouterr().err


def test_profile_variant_overrides_the_config_flags(capsys):
    assert main(["profile", "--config", str(REPO / "configs" / "baseline.json"),
                 "--variant", "full"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (PROFILE_GOLDEN / "full.txt").read_bytes()


# -- train-toy ------------------------------------------------------------------------


def test_train_toy_zero_learning_rate_keeps_parameters(tmp_path, config_path,
                                                       dataset_dir, capsys):
    out_dir = tmp_path / "run"
    code = main(["train-toy", "--config", config_path, "--data", str(dataset_dir),
                 "--steps", "2", "--lr", "0.0", "--out", str(out_dir)])
    assert code == EXIT_OK
    curve = (out_dir / "loss_curve.jsonl").read_text().splitlines()
    assert len(curve) == 2
    assert {json.loads(line)["step"] for line in curve} == {1, 2}

    # lr = 0 must leave every learnable parameter bit-identical to the
    # seeded init; only the normalization running statistics may move
    reference = dict(load_records(save_weights(
        build(ModelConfig(num_classes=1, input_size=64, width_mult=0.125),
              Rng(0)))))
    trained = dict(load_records((out_dir / "weights.bin").read_bytes()))
    assert reference.keys() == trained.keys()
    changed = []
    for name in reference:
        if not np.array_equal(reference[name], trained[name]):
            changed.append(name)
    assert changed != []  # running statistics did update in training mode
    assert all(name.rsplit(".", 1)[-1] in ("running_mean", "running_var")
               for name in changed)


def test_train_toy_with_weights_trains_like_a_seeded_build_loaded_from_them(
        tmp_path, config_path, dataset_dir):
    config = load_config(config_path)
    blob = save_weights(build(config, Rng(3)))
    weights = tmp_path / "weights.bin"
    weights.write_bytes(blob)
    model = build(config, Rng(0))
    load_weights(blob, model)
    losses = train_toy(model, config, load_dataset(dataset_dir, config), steps=3).losses
    for seed in ("0", "7"):
        out_dir = tmp_path / f"run{seed}"
        assert main(["train-toy", "--config", config_path, "--data", str(dataset_dir),
                     "--steps", "3", "--weights", str(weights), "--seed", seed,
                     "--out", str(out_dir)]) == EXIT_OK
        curve = (out_dir / "loss_curve.jsonl").read_text().splitlines()
        assert [json.loads(line)["loss"] for line in curve] == [round(v, 6) for v in losses]
        assert (out_dir / "weights.bin").read_bytes() == save_weights(model)


@pytest.mark.parametrize("flag, value", [
    ("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf"),
    ("--weight-decay", "-0.5"), ("--weight-decay", "nan"),
])
def test_optimizer_flags_require_a_finite_non_negative_value(
        tmp_path, config_path, dataset_dir, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["train-toy", "--config", config_path, "--data", str(dataset_dir),
              "--steps", "1", "--out", str(tmp_path / "out"), flag, value])
    assert exc.value.code == EXIT_CONFIG
    assert flag in capsys.readouterr().err


def test_diverging_train_toy_prints_one_error_line(tmp_path, dataset_dir, capsys):
    # lr 1e30 makes step 2's forward overflow.  The step stops at the first
    # overflow and reports it as divergence: one stderr line, no NumPy
    # warnings (under this suite's warning filter they would be errors).
    code = main(["train-toy", "--config", str(REPO / "configs" / "toy.json"),
                 "--data", str(dataset_dir), "--steps", "3", "--lr", "1e30",
                 "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == EXIT_CHECK
    assert captured.err == "error: loss became non-finite at step 2\n"
    assert captured.out.splitlines()[0].startswith("step    1  loss ")


def test_train_toy_rejects_a_class_id_outside_the_config(tmp_path, dataset_dir, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    gts = data / "gts.jsonl"
    gts.write_text(gts.read_text().replace('"class_id": 0', '"class_id": 5', 1))
    code = main(["train-toy", "--config", str(REPO / "configs" / "toy.json"),  # 1 class
                 "--data", str(data), "--steps", "1", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("I/O error: ") and err.count("\n") == 1
    assert str(gts) in err and "class_id 5" in err


def test_train_toy_rejects_bad_steps(tmp_path, config_path, dataset_dir, capsys):
    assert main(["train-toy", "--config", config_path, "--data", str(dataset_dir),
                 "--steps", "0", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert main(["train-toy", "--config", config_path,
                 "--data", str(tmp_path / "missing"),
                 "--steps", "1", "--out", str(tmp_path / "y")]) == EXIT_IO


@pytest.mark.parametrize("key, value", [("dropout_p", 0.3), ("include_sppf", False)])
def test_config_keys_without_a_variable_path_are_config_errors(tmp_path, dataset_dir, capsys,
                                                              key, value):
    cfg = tmp_path / f"{key}.json"
    cfg.write_text(json.dumps({"num_classes": 1, "input_size": 64, "width_mult": 0.125,
                               "use_air": True, key: value}))
    image = str(dataset_dir / "000.ppm")
    assert main(["infer", image, "--config", str(cfg)]) == EXIT_CONFIG
    assert main(["train-toy", "--config", str(cfg), "--data", str(dataset_dir),
                 "--steps", "1", "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert capsys.readouterr().err.count(key) == 2


@pytest.mark.parametrize("verb", ["infer", "train-toy"])
@pytest.mark.parametrize("key, value", [
    ("input_size", 64.0),
    ("num_classes", True),
    ("use_air", "false"),
    ("use_dpdf", 0),
    ("include_sppf", None),
    ("width_mult", True),
    ("width_mult", float("nan")),  # json.dumps writes NaN, which json.loads reads back
    ("score_threshold", False),
    ("head_channels", 8.0),
    ("blocks_per_stage", [1, True, 1, 1]),
])
def test_config_values_of_the_wrong_json_type_are_config_errors(tmp_path, dataset_dir, capsys,
                                                                verb, key, value):
    raw = {"num_classes": 1, "input_size": 64, "width_mult": 0.125, key: value}
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(raw))
    argv = {"infer": ["infer", str(dataset_dir / "000.ppm"), "--config", str(cfg)],
            "train-toy": ["train-toy", "--config", str(cfg), "--data", str(dataset_dir),
                          "--steps", "1", "--out", str(tmp_path / "run")]}[verb]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key} must be ")


@pytest.mark.parametrize("config", sorted(str(p) for p in (REPO / "configs").glob("*.json"))
                         + [str(REPO / "perfbench" / "configs" / "full-256.json")])
def test_committed_configs_load(config):
    assert isinstance(load_config(config), ModelConfig)


TINY_PPM = b"P6 2 2 255\n" + bytes(12)
TOY_RECORDS = model_records(build(ModelConfig(num_classes=1, input_size=64, width_mult=0.125)))
ARCHIVE_HEAD = MAGIC + struct.pack("<II", VERSION, 1)  # one record follows
INFER = ["infer", "{tmp}/f.ppm", "--config", "{config}"]
EVAL = ["eval", "--dets", "{tmp}/d.jsonl", "--gts", "{tmp}/g.jsonl"]
WEIGHTS = ["infer", "{image}", "--config", "{config}", "--weights", "{tmp}/w.bin"]
TRAIN = ["train-toy", "--config", "{config}", "--data", "{tmp}", "--steps", "1", "--out", "{out}"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("files, argv, code, line", [
    ({}, ["infer", "{image}", "--config", "{config}", "--threads", "0"],
     EXIT_CONFIG, "config error: --threads must be at least 1"),
    ({}, ["train-toy", "--config", "{config}", "--data", "{data}", "--steps", "0", "--out", "{out}"],
     EXIT_CONFIG, "config error: --steps must be at least 1"),
    ({}, ["synth", "--n", "0", "--out", "{out}"],
     EXIT_CONFIG, f"config error: --n must be positive and --image-size at least {synth.MIN_IMAGE_SIZE}"),
    ({}, ["train-toy", "--config", "{config}", "--data", "{data}", "--steps", "3", "--lr", "1e30",
          "--out", "{out}"],
     EXIT_CHECK, "error: loss became non-finite at step 2"),
    # The comment swallows the extents, so the header ends after the magic.
    ({"f.ppm": b"P6\n# 2 2 255\n"}, INFER,
     EXIT_IO, "I/O error: {tmp}/f.ppm: unexpected end of PPM header"),
    ({"f.ppm": b"P6 2 2"}, INFER, EXIT_IO, "I/O error: {tmp}/f.ppm: unexpected end of PPM header"),
    ({"f.ppm": b"P6 2 two 255\n" + bytes(12)}, INFER,
     EXIT_IO, "I/O error: {tmp}/f.ppm: non-numeric PPM header fields"),
    ({"f.ppm": b"P6 2 2 65535\n" + bytes(24)}, INFER,
     EXIT_IO, "I/O error: {tmp}/f.ppm: only maxval 255 supported, got 65535"),
    ({"f.ppm": b"P6 0 2 255\n"}, INFER, EXIT_IO, "I/O error: {tmp}/f.ppm: invalid dimensions 0x2"),
    ({"f.ppm": b"P6 2 2 255\n" + bytes(5)}, INFER,
     EXIT_IO, "I/O error: {tmp}/f.ppm: expected 12 raster bytes, got 5"),
    # Blank lines are skipped but counted, so the bad line is line 3.
    ({"d.jsonl": "\n  \nnot json\n", "g.jsonl": GOOD_GT}, EVAL,
     EXIT_IO, "I/O error: {tmp}/d.jsonl:3: invalid JSON (Expecting value)"),
    ({"d.jsonl": GOOD_DET + "\n{\n", "g.jsonl": GOOD_GT}, EVAL, EXIT_IO,
     "I/O error: {tmp}/d.jsonl:2: invalid JSON (Expecting property name enclosed in double quotes)"),
    ({"d.jsonl": GOOD_DET, "g.jsonl": "[1, 2]\n"}, EVAL,
     EXIT_IO, "I/O error: {tmp}/g.jsonl:1: expected a JSON object"),
    ({"c.json": "{"}, ["profile", "--config", "{tmp}/c.json"], EXIT_CONFIG,
     "config error: {tmp}/c.json: invalid JSON (Expecting property name enclosed in double quotes)"),
    ({"c.json": "[]"}, ["profile", "--config", "{tmp}/c.json"],
     EXIT_CONFIG, "config error: {tmp}/c.json: config must be a JSON object"),
    ({"w.bin": ARCHIVE_HEAD + struct.pack("<H", 5) + b"ab"}, WEIGHTS,
     EXIT_IO, "I/O error: truncated archive in record 0 header: name overruns buffer"),
    ({"w.bin": ARCHIVE_HEAD + struct.pack("<H", 1) + b"w" + struct.pack("<BB", 99, 0)}, WEIGHTS,
     EXIT_IO, "I/O error: record 0 ('w'): unknown dtype code 99"),
    ({"w.bin": save_records(TOY_RECORDS[:-1])}, WEIGHTS, EXIT_IO,
     f"I/O error: record count mismatch: archive has {len(TOY_RECORDS) - 1}, "
     f"model has {len(TOY_RECORDS)}"),
    ({"w.bin": save_records([("renamed", TOY_RECORDS[0][1]), *TOY_RECORDS[1:]])}, WEIGHTS,
     EXIT_IO, f"I/O error: record 0: archive has 'renamed', model expects {TOY_RECORDS[0][0]!r}"),
    ({}, WEIGHTS, EXIT_IO, "I/O error: cannot read weights {tmp}/w.bin: "
                           "[Errno 2] No such file or directory: '{tmp}/w.bin'"),
    ({"000.ppm": TINY_PPM}, TRAIN, EXIT_IO, "I/O error: missing ground-truth file {tmp}/gts.jsonl"),
    ({"000.ppm": TINY_PPM, "gts.jsonl": GOOD_GT.replace("a.ppm", "zzz.ppm")}, TRAIN,
     EXIT_IO, "I/O error: ground truth references unknown image 'zzz.ppm'"),
], ids=["threads", "steps", "synth-n", "diverged", "ppm-comment", "ppm-header-ends",
        "ppm-non-numeric", "ppm-maxval", "ppm-dimensions", "ppm-short-raster",
        "jsonl-blank-lines", "jsonl-invalid", "jsonl-not-object", "config-invalid-json",
        "config-not-object", "archive-truncated-header", "archive-dtype-code",
        "archive-record-count", "archive-record-name", "weights-unreadable", "data-no-gts",
        "data-unknown-image"])
def test_main_maps_each_error_to_its_exit_code_and_stderr_line(tmp_path, config_path, dataset_dir,
                                                               capsys, files, argv, code, line):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content.encode() if isinstance(content, str) else content)
    fields = {"image": str(dataset_dir / "000.ppm"), "config": config_path, "tmp": str(tmp_path),
              "data": str(dataset_dir), "out": str(tmp_path / "out")}
    assert main([a.format(**fields) for a in argv]) == code
    assert capsys.readouterr().err == line.format(**fields) + "\n"

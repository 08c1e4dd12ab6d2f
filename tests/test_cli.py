"""Command-line surface: exit codes, determinism, letterbox geometry, files."""

import json

import numpy as np
import pytest

from firedet.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from firedet.fileio import (image_to_input, letterbox, letterbox_box, read_ppm,
                            unletterbox_box, write_ppm)
from firedet.model import ModelConfig, build
from firedet.rng import Rng
from firedet.tensor import Tensor
from firedet.weights import load_records, save_weights


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


def test_letterbox_box_round_trip():
    image = np.zeros((480, 320, 3), dtype=np.uint8)
    _, info = letterbox(image, 64)
    for box in [(0.5, 0.5, 0.25, 0.3), (0.3, 0.7, 0.1, 0.15)]:
        mapped = letterbox_box(box, info)
        assert all(0.0 <= v <= 1.0 for v in mapped)
        back = unletterbox_box(mapped, info)
        assert np.allclose(back, box, atol=1e-12)


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
    assert x.shape == (1, 3, 4, 6)
    assert x[0, 0, 1, 2] == 1.0
    assert x[0, 2, 1, 2] == 128 / 255


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


def test_eval_missing_file_exits_io(tmp_path):
    assert main(["eval", "--dets", str(tmp_path / "a.jsonl"),
                 "--gts", str(tmp_path / "b.jsonl")]) == EXIT_IO


# -- profile --------------------------------------------------------------------------


def test_profile_and_ablation_smoke(config_path, capsys):
    assert main(["profile", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "GFLOPs" in out and "total" in out
    assert main(["profile", "--config", config_path, "--ablation"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "full/baseline parameter ratio" in out


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


def test_train_toy_rejects_bad_steps(tmp_path, config_path, dataset_dir, capsys):
    assert main(["train-toy", "--config", config_path, "--data", str(dataset_dir),
                 "--steps", "0", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert main(["train-toy", "--config", config_path,
                 "--data", str(tmp_path / "missing"),
                 "--steps", "1", "--out", str(tmp_path / "y")]) == EXIT_IO

"""The nine release criteria, one test and one printed pass/fail line each.

Each test re-derives its evidence from scratch (no cached numbers) and prints
``criterion N: PASS/FAIL`` on the real stdout so the line survives pytest's
capture.  Criteria 7 and 8 drive the installed CLI in-process.
"""

import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from firedet import checks
from firedet.blocks import AirBlock, DpdfBlock
from firedet.cli import EXIT_OK, main
from firedet.metrics import average_precision, pr_f1
from firedet.model import ModelConfig, build, nms
from firedet.profiler import VARIANTS, count_macs, count_params, variant_config
from firedet.rng import Rng
from firedet.tensor import from_array
from firedet.weights import load_weights, save_weights

from oracles import ap_ref, ciou_value, nms_ref, pr_ref, row_bits
from test_metrics import random_case
from test_model import random_dets
import test_primitives

ROOT = Path(__file__).resolve().parent.parent
TABLE_CFG = ModelConfig()  # num_classes=1 at 640x640; the committed search result
TOY_CFG = ModelConfig(num_classes=1, input_size=64, width_mult=0.125)
TOY_CFG_PATH = str(ROOT / "configs" / "toy.json")


def _criterion(n: int, body):
    """Run one criterion body; print its verdict on the uncaptured stdout."""
    try:
        detail = body()
    except BaseException as exc:
        note = str(exc).splitlines()[0][:120] if str(exc) else type(exc).__name__
        print(f"criterion {n}: FAIL — {note}", file=sys.__stdout__)
        raise
    print(f"criterion {n}: PASS — {detail}", file=sys.__stdout__)


def test_criterion_1_gradient_suite_under_tolerance_and_budget():
    def body():
        t0 = time.perf_counter()
        unit, model = [], []
        for scope in ("primitives", "blocks"):
            unit += checks.run_scope(scope, seed=0)
        model += checks.run_scope("model", seed=0)
        elapsed = time.perf_counter() - t0
        assert [r.name for r in model] == ["model_sum_forward", "detection_loss_pipeline"]
        for r in unit:
            assert r.passed and r.error < 1e-5, f"{r.name}: {r.error:.3e}"
        for r in model:
            assert r.passed and r.error < 1e-4, f"{r.name}: {r.error:.3e}"
        names = [r.name for r in unit]
        assert any("air" in n for n in names) and any("dpdf" in n for n in names)
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
        return (f"{len(unit)} unit checks < 1e-5 "
                f"(worst {max(r.error for r in unit):.2e}), "
                f"{len(model)} model checks < 1e-4 "
                f"(worst {max(r.error for r in model):.2e}), {elapsed:.1f}s")

    _criterion(1, body)


def test_criterion_2_kernels_match_naive_oracles():
    def body():
        test_primitives.test_conv2d_matches_naive_loops_fuzz()
        test_primitives.test_pool2d_matches_naive_loops_fuzz()
        test_primitives.test_linear_matches_naive_loops_fuzz()
        test_primitives.test_partial_conv_matches_naive_fuzz()
        return ("conv2d/pool2d/linear/partial_conv each match nested-loop "
                "oracles within 1e-6 on >=100 fuzzed shapes")

    _criterion(2, body)


def test_criterion_3_efficiency_table_reproduction():
    def body():
        bands = {  # variant -> (params target, params rel tol, GFLOPs target, rel tol)
            "baseline": (3.01e6, 0.05, 8.1, 0.10),
            "air": (1.84e6, 0.10, 5.4, 0.10),
            "dpdf": (2.52e6, 0.10, 6.9, 0.10),
            "full": (1.45e6, 0.10, 4.6, 0.10),
        }
        params, gflops = {}, {}
        for variant, (pt, ptol, gt, gtol) in bands.items():
            m = build(variant_config(TABLE_CFG, variant), Rng(0))
            params[variant] = count_params(m)[1]
            gflops[variant] = 2.0 * count_macs(m, 640)[1] / 1e9
            assert abs(params[variant] - pt) <= ptol * pt, \
                f"{variant} params {params[variant]:,} outside ±{ptol:.0%} of {pt:,.0f}"
            assert abs(gflops[variant] - gt) <= gtol * gt, \
                f"{variant} GFLOPs {gflops[variant]:.3f} outside ±{gtol:.0%} of {gt}"
        ratio = params["full"] / params["baseline"]
        cut = 1.0 - params["air"] / params["baseline"]
        assert 0.44 <= ratio <= 0.53, f"full/baseline ratio {ratio:.4f}"
        assert 0.34 <= cut <= 0.44, f"attention-variant cut {cut:.4f}"
        assert (ROOT / "scripts" / "config_search.py").is_file()
        for variant in VARIANTS:  # the searched configs are committed verbatim
            on_disk = ModelConfig.from_dict(
                json.loads((ROOT / "configs" / f"{variant}.json").read_text()))
            assert on_disk == variant_config(TABLE_CFG, variant)
        return (f"params/GFLOPs baseline {params['baseline']:,}/"
                f"{gflops['baseline']:.2f}, full {params['full']:,}/"
                f"{gflops['full']:.2f}; ratio {ratio:.3f}, cut {cut:.1%}")

    _criterion(3, body)


def test_criterion_4_structural_invariants():
    def body():
        rng = Rng(0)
        for shape in ((1, 8, 9, 11), (2, 12, 6, 6)):
            block = AirBlock(shape[1], Rng(1))
            x = from_array(np.asarray(rng.uniform64(int(np.prod(shape))))
                           .reshape(shape).astype(np.float32))
            assert block(x).shape == shape

        dpdf = DpdfBlock(8, 16, Rng(2))
        x = from_array(np.asarray(rng.uniform64(8 * 12 * 10))
                       .reshape(1, 8, 12, 10).astype(np.float32))
        fused, path_max, path_avg = dpdf.fuse_paths(x)
        assert fused.shape == (1, 8, 6, 5)
        assert dpdf(x).shape == (1, 16, 6, 5)
        lo = np.minimum(path_max.data, path_avg.data)
        hi = np.maximum(path_max.data, path_avg.data)
        assert (fused.data >= lo - 1e-6).all() and (fused.data <= hi + 1e-6).all()

        counts = {v: count_params(build(variant_config(TABLE_CFG, v), Rng(0)))[1]
                  for v in VARIANTS}
        assert counts["full"] < counts["air"] < counts["baseline"]
        assert counts["full"] < counts["dpdf"] < counts["baseline"]
        return ("shape preservation, exact spatial halving, convex fusion "
                "bounds, and variant parameter monotonicity all hold")

    _criterion(4, body)


def test_criterion_5_metric_oracle_equivalence():
    def body():
        cases = 0
        for seed in range(4):
            rng = Rng(1000 + seed)
            for _ in range(250):
                dets, gts = random_case(rng)
                cases += 1
                for iou_t in (0.5, 0.75):
                    assert average_precision(dets, gts, iou_t) \
                        == ap_ref(dets, gts, iou_t)
                for conf_t in (0.0, 0.25, 0.55):
                    assert pr_f1(dets, gts, 0.5, conf_t) \
                        == pr_ref(dets, gts, 0.5, conf_t)
        assert cases >= 1000
        nms_cases = 0
        for seed in range(5):
            dets = random_dets(Rng(seed), 200)
            for thr in (0.3, 0.45, 0.6):
                assert row_bits(nms(dets, thr)) == row_bits(nms_ref(dets, thr))
                nms_cases += 1
        return (f"AP and precision/recall/F1 exactly equal oracles on {cases} "
                f"random cases; NMS keep sets identical on {nms_cases} "
                f"200-box fuzz cases")

    _criterion(5, body)


def test_criterion_6_ciou_hand_cases():
    def body():
        box = (0.3, 0.7, 0.25, 0.4)
        assert 1.0 - ciou_value(box, box) == 0.0
        loss = 1.0 - ciou_value((1, 1, 2, 2), (2, 2, 2, 2))
        assert abs(loss - 0.968254) <= 1e-6
        assert loss == pytest.approx(61 / 63, abs=1e-12)
        return f"identical boxes -> loss 0 exactly; offset squares -> {loss:.6f}"

    _criterion(6, body)


def test_criterion_7_toy_training_end_to_end(tmp_path, capsys):
    def body():
        data = tmp_path / "synth8"
        assert main(["synth", "--n", "8", "--out", str(data)]) == EXIT_OK
        t0 = time.perf_counter()
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train-toy", "--config", TOY_CFG_PATH, "--data", str(data),
                     "--steps", "150", "--out", str(out)])
        elapsed = time.perf_counter() - t0
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        losses = [json.loads(line)["loss"] for line in
                  (out / "loss_curve.jsonl").read_text().splitlines()]
        assert len(losses) == 150
        assert losses[-1] <= 0.5 * losses[0], \
            f"loss {losses[0]:.4f} -> {losses[-1]:.4f} is not a 50% reduction"
        map50 = float(re.search(r"mAP50=([0-9]+\.[0-9]+)", stdout).group(1))
        assert map50 >= 0.8, f"train-set mAP50 {map50}"
        assert elapsed < 600.0, f"training took {elapsed:.0f}s"
        return (f"loss {losses[0]:.4f} -> {losses[-1]:.4f} "
                f"({losses[-1] / losses[0]:.1%}) in 150 steps, "
                f"train-set mAP50 {map50:.4f}, {elapsed:.0f}s")

    _criterion(7, body)


def test_criterion_8_bit_exact_archive_and_cli(tmp_path, capsys):
    def body():
        src, dst = build(TOY_CFG, Rng(0)), build(TOY_CFG, Rng(99))
        blob = save_weights(src)
        load_weights(blob, dst)
        assert save_weights(dst) == blob
        blob16 = save_weights(src, precision="f16")
        load_weights(blob16, dst)
        assert save_weights(dst, precision="f16") == blob16

        def run_stdout(argv):
            capsys.readouterr()
            assert main(argv) == EXIT_OK
            return capsys.readouterr().out

        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--n", "2", "--out", str(a)]) == EXIT_OK
        assert main(["synth", "--n", "2", "--out", str(b)]) == EXIT_OK
        for name in ("000.ppm", "001.ppm", "gts.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

        images = [str(a / "000.ppm"), str(a / "001.ppm")]
        infer = ["infer", *images, "--config", TOY_CFG_PATH,
                 "--score-threshold", "0.001"]
        d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
        assert main(infer + ["--out", str(d1)]) == EXIT_OK
        assert main(infer + ["--out", str(d2)]) == EXIT_OK
        assert d1.read_bytes() == d2.read_bytes() and d1.stat().st_size > 0

        eval_cmd = ["eval", "--dets", str(d1), "--gts", str(a / "gts.jsonl")]
        assert run_stdout(eval_cmd) == run_stdout(eval_cmd)
        profile_cmd = ["profile", "--config", TOY_CFG_PATH]
        assert run_stdout(profile_cmd) == run_stdout(profile_cmd)
        grad_cmd = ["gradcheck", "--scope", "primitives"]
        assert run_stdout(grad_cmd) == run_stdout(grad_cmd)

        t1, t2 = tmp_path / "t1", tmp_path / "t2"
        train = ["train-toy", "--config", TOY_CFG_PATH, "--data", str(a),
                 "--steps", "10"]
        assert main(train + ["--out", str(t1)]) == EXIT_OK
        assert main(train + ["--out", str(t2)]) == EXIT_OK
        assert (t1 / "weights.bin").read_bytes() == (t2 / "weights.bin").read_bytes()
        assert (t1 / "loss_curve.jsonl").read_bytes() \
            == (t2 / "loss_curve.jsonl").read_bytes()
        return ("archive save->load->save byte-identical (f32 and f16); synth/"
                "infer/eval/profile/gradcheck/train-toy reruns byte-identical")

    _criterion(8, body)


def test_criterion_9_non_reproducibility_statement():
    def body():
        readme = ROOT / "README.md"
        assert readme.is_file(), "README.md missing"
        text = readme.read_text(encoding="utf-8")
        assert re.search(r"(?i)not\s+reproducible", text), \
            "README lacks the dataset-accuracy non-reproducibility statement"
        # the suite asserts computational properties only; dataset accuracy
        # figures appear nowhere as test expectations
        return "README states dataset accuracy figures are not reproducible here"

    _criterion(9, body)

"""Profiler: parameter counts, MAC tallies, serialized sizes, ablation grid."""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from firedet.blocks import fold_batchnorm
from firedet.cli import main
from firedet.fileio import load_config
from firedet.model import ModelConfig, build
from firedet.nn import Conv2dSpec, conv2d, linear, mac_counting
from firedet.profiler import (VARIANTS, ablation_report, count_macs,
                              count_params, profile, variant_config)
from firedet.rng import Rng
from firedet.tensor import from_array, no_grad, zeros
from firedet.weights import load_records, model_records, save_weights

CFG = ModelConfig(num_classes=1, input_size=64, width_mult=0.125)
REPO = Path(__file__).resolve().parent.parent


def test_count_params_matches_archive_parameter_records():
    model = build(CFG, Rng(0))
    groups, total = count_params(model)
    records = load_records(save_weights(model))
    running = {"running_mean", "running_var"}
    param_elems = sum(arr.size for name, arr in records
                      if name.rsplit(".", 1)[-1] not in running)
    assert total == param_elems
    assert total == sum(groups.values())
    assert total < sum(arr.size for _, arr in records)  # running stats excluded


def test_profile_sizes_are_exact_archive_lengths():
    model = build(CFG, Rng(0))
    report = profile(model)
    assert report.size_f32 == len(save_weights(model, precision="f32"))
    assert report.size_f16 == len(save_weights(model, precision="f16"))


def test_single_convolution_mac_formula():
    # 3x3 conv, 4 -> 6 channels, on 10x12 with padding 1: every output element
    # costs k*k*Cin multiplies -> 9 * 4 * 6 * 10 * 12
    spec = Conv2dSpec(in_channels=4, out_channels=6, kernel=3, padding=1,
                      has_bias=False)
    w = from_array(np.zeros((6, 4, 3, 3), dtype=np.float32))
    x = from_array(np.zeros((1, 4, 10, 12), dtype=np.float32))
    with mac_counting() as tally:
        out = conv2d(x, spec, w)
    assert out.shape == (1, 6, 10, 12)
    assert tally == {w: 9 * 4 * 6 * 10 * 12}


def test_mac_tally_counts_one_image_per_call_and_changes_no_output():
    # A 3x3 4->6 conv on 8x8 and a 4->6 linear: every call costs one image,
    # whatever its batch, and the armed outputs equal the unarmed ones bit for bit.
    spec = Conv2dSpec(in_channels=4, out_channels=6, kernel=3, padding=1, has_bias=False)
    rng = np.random.default_rng(0)
    wc = from_array(rng.standard_normal((6, 4, 3, 3)).astype(np.float32))
    wl = from_array(rng.standard_normal((6, 4, 1, 1)).astype(np.float32))
    by_batch = {}
    for n in (0, 1, 2):
        xc = from_array(rng.standard_normal((n, 4, 8, 8)).astype(np.float32))
        xl = from_array(rng.standard_normal((n, 4, 1, 1)).astype(np.float32))
        with mac_counting() as tally:
            armed = conv2d(xc, spec, wc), linear(xl, wl)
        plain = conv2d(xc, spec, wc), linear(xl, wl)
        for a, b in zip(armed, plain):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.data.tobytes() == b.data.tobytes()
        assert [a.shape for a in armed] == [(n, 6, 8, 8), (n, 6, 1, 1)]
        by_batch[n] = tally
    assert by_batch[1] == {wc: 9 * 4 * 6 * 8 * 8, wl: 4 * 6}
    assert by_batch[0] == by_batch[1] == by_batch[2]
    assert sum(by_batch[1].values()) == 9 * 4 * 6 * 8 * 8 + 4 * 6


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name, size", [("toy", 64), ("full", 640)])
def test_empty_batch_forward_returns_empty_maps_quietly(name, size, variant):
    # count_macs runs the model on an empty batch, so every op must take one
    # without a warning and keep the map shapes.
    config = variant_config(load_config(REPO / "configs" / f"{name}.json"), variant)
    model = build(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with no_grad():
            maps = model(zeros((0, 3, size, size)))
    assert [m.shape for m in maps] == [(0, 4 + config.num_classes, size // s, size // s)
                                       for s in (8, 16, 32)]


def test_traced_forward_macs_match_count_macs_and_batch_tally(tmp_path):
    # perfbench/tracer.py wraps firedet functions by name and reads the
    # length of decode's and nms's results, and perfbench/inputs.py reads
    # decode's rows, so a rename or a change of those results in src/ breaks
    # `perfbench/run.py` or its `--trace 1`.  The tracer's wrappers patch
    # modules globally, so this runs in a process of its own.
    script = textwrap.dedent("""
        import sys
        from pathlib import Path

        import numpy as np

        import inputs
        import tracer
        from firedet import cli
        from firedet.fileio import image_to_input, letterbox, load_config, write_ppm
        from firedet.model import build, decode
        from firedet.nn import mac_counting
        from firedet.profiler import count_macs, variant_config
        from firedet.rng import Rng
        from firedet.tensor import from_array, no_grad, zeros
        from firedet.train import detect_batch
        from firedet.weights import save_weights

        tr = tracer.Tracer()
        tracer.install(tr)
        config = load_config("configs/toy.json")
        x = zeros((2, 3, 64, 64))
        # toy.json is the baseline; only the full variant's ChannelGates call nn.linear.
        for variant in ("baseline", "full"):
            model = build(variant_config(config, variant), Rng(0))
            tr.spans.clear()
            tr.on = True
            with no_grad():
                model(x)
            tr.on = False
            with no_grad(), mac_counting() as tally:
                model(x)
            [(info, traced)] = tracer.forward_macs(tr)
            linear_spans = sum(span[0] == "nn.linear" for span in tr.spans)
            print(info["shape"][0], traced, count_macs(model, 64)[1], sum(tally.values()), linear_spans)

        model = build(config, Rng(0))
        tr.spans.clear()
        images = np.asarray(Rng(1).uniform64(2 * 3 * 64 * 64)).reshape(2, 3, 64, 64)
        infos = [letterbox(np.zeros((48, 64, 3), np.uint8), 64)[1]] * 2
        tr.on = True
        root = tr.open("op.frame")
        records = detect_batch(model, config, images, ["a", "b"], infos, 0.001)
        tr.close(root)
        tr.on = False
        stats = tracer.aggregate(tr)["stats"]
        print(stats["model.decode"]["info"]["candidates"],
              stats["model.nms"]["info"]["candidates"], stats["model.nms"]["info"]["kept"],
              stats["fileio.unletterbox_box"]["calls"], len(records))

        work = Path(sys.argv[1])
        weights, frame = work / "weights.bin", work / "frame.ppm"
        weights.write_bytes(save_weights(model))
        image = (np.asarray(Rng(2).uniform64(48 * 80 * 3)) * 255).astype(np.uint8)
        write_ppm(frame, image.reshape(48, 80, 3))
        threshold = inputs.top_tail_threshold(config, weights, frame, 5)
        boxed, _ = letterbox(image.reshape(48, 80, 3), 64)
        with no_grad():
            maps = model(from_array(image_to_input(boxed)))
        scores = np.sort(decode(maps, config, score_threshold=0.0).score)[::-1]
        print(threshold == (scores[4] + scores[5]) / 2, np.count_nonzero(scores >= threshold))

        second = work / "second.ppm"
        write_ppm(second, image.reshape(48, 80, 3)[::-1].copy())
        tr.spans.clear()
        tr.on = True
        assert cli.main(["infer", str(frame), str(second), "--config", "configs/toy.json",
                         "--weights", str(weights), "--score-threshold", "0.001",
                         "--out", str(work / "traced.jsonl")]) == 0
        tr.on = False
        print(sum(span[0] == "fileio.format_detection" for span in tr.spans))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    baseline, full, detect, top_tail, format_spans = (line.split() for line in proc.stdout.splitlines())
    for macs in (baseline, full):
        # The tally counts one image per call; the tracer counts the batch of two.
        batch, traced, counted, tallied, _ = map(int, macs)
        assert batch == 2 and traced > 0
        assert traced == 2 * counted and tallied == counted
    assert int(baseline[-1]) == 0 and int(full[-1]) > 0
    decoded, nms_in, kept, unletterbox_calls, records = map(int, detect)
    assert decoded == nms_in == 2 * (64 + 16 + 4)  # every cell of both images
    assert records <= kept <= nms_in
    assert unletterbox_calls == 2  # one vector pass per image
    assert top_tail == ["True", "5"]
    # The whole output is formatted in one call, and tracing changes no byte of it.
    assert format_spans == ["1"]
    untraced = tmp_path / "untraced.jsonl"
    assert main(["infer", str(tmp_path / "frame.ppm"), str(tmp_path / "second.ppm"),
                 "--config", str(REPO / "configs" / "toy.json"),
                 "--weights", str(tmp_path / "weights.bin"), "--score-threshold", "0.001",
                 "--out", str(untraced)]) == 0
    traced_bytes = (tmp_path / "traced.jsonl").read_bytes()
    assert traced_bytes == untraced.read_bytes() and len(traced_bytes.splitlines()) > 2


def test_traced_node_count_matches_the_taped_graph(tmp_path):
    # perfbench's tensor.make_node.calls counts the calls of the tracer's
    # stand-in for the module-level make_node, so it is right only if every
    # op that tapes a node calls that name.  One toy detection loss: the
    # count must equal the taped nodes reachable from the loss.
    script = textwrap.dedent("""
        import sys

        import tracer
        from firedet import cli
        from firedet.fileio import load_config
        from firedet.losses import detection_loss
        from firedet.model import build
        from firedet.nn import train_mode
        from firedet.rng import Rng
        from firedet.tensor import from_array
        from firedet.train import load_dataset

        tr = tracer.Tracer()
        tracer.install(tr)
        assert cli.main(["synth", "--n", "8", "--seed", "3", "--out", sys.argv[1]]) == 0
        config = load_config("configs/toy.json")
        data = load_dataset(sys.argv[1], config)
        model = build(config, Rng(0))
        tr.on = True
        with train_mode():
            maps = model(from_array(data.batch))
        total, _, _ = detection_loss(maps, data.gts, config)
        tr.on = False
        seen, stack, taped = set(), [total], 0
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                taped += node._bwd is not None
                stack.extend(node._parents)
        print(tr.nodes, taped)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "data")], cwd=REPO,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced, taped = map(int, proc.stdout.split()[-2:])
    assert traced == taped > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_folded_model_counts_the_macs_of_the_unfolded_one(variant):
    # perfbench's trace mode checks the MACs of `infer`'s folded forwards against
    # count_macs of an unfolded build: the fold adds and drops no conv.
    config = variant_config(CFG, variant)
    folded = build(config, Rng(0))
    fold_batchnorm(folded)
    assert count_macs(folded) == count_macs(build(config, Rng(0)))
    assert all(p.data.dtype == np.float32 for p in folded.parameters())  # the model dtype


def test_grouped_convolution_divides_mac_cost():
    spec = Conv2dSpec(in_channels=8, out_channels=8, kernel=3, padding=1,
                      groups=8, has_bias=False)
    w = from_array(np.zeros((8, 1, 3, 3), dtype=np.float32))
    x = from_array(np.zeros((1, 8, 5, 5), dtype=np.float32))
    with mac_counting() as tally:
        conv2d(x, spec, w)
    assert tally == {w: 9 * 1 * 8 * 5 * 5}


def test_conv_macs_scale_quadratically_with_input_size():
    model = build(variant_config(CFG, "baseline"), Rng(0))
    _, macs64 = count_macs(model, 64)
    _, macs128 = count_macs(model, 128)
    assert macs128 == 4 * macs64  # all-conv cost: exact quadratic scaling
    full = build(variant_config(CFG, "full"), Rng(0))
    _, f64_macs = count_macs(full, 64)
    _, f128_macs = count_macs(full, 128)
    ratio = f128_macs / f64_macs
    # channel-gate affine maps cost the same at every resolution, so the
    # ratio dips just below 4
    assert 3.9 < ratio <= 4.0


def test_count_macs_rejects_unaligned_input():
    model = build(CFG, Rng(0))
    with pytest.raises(ValueError, match="divisible by 32"):
        count_macs(model, 100)


@pytest.mark.parametrize("size", [0, -32])
def test_only_none_means_the_config_input_size(size):
    model = build(CFG, Rng(0))
    assert profile(model, None).input_size == CFG.input_size
    for call in (count_macs, profile):
        with pytest.raises(ValueError, match="input_size must be positive"):
            call(model, size)
    with pytest.raises(ValueError, match="input_size must be positive"):
        ablation_report(CFG, size)


def test_profile_report_consistency():
    model = build(CFG, Rng(0))
    report = profile(model)
    assert report.total_params == count_params(model)[1]
    assert report.total_macs == count_macs(model, 64)[1]
    assert report.total_params == sum(r.params for r in report.rows)
    assert report.total_macs == sum(r.macs for r in report.rows)
    # MACs land in the groups that hold the parameters: no container row
    # (ModuleList children are called, the list itself never is) and no "(unscoped)".
    assert set(count_macs(model, 64)[0]) <= set(count_params(model)[0])
    assert report.gflops == 2.0 * report.total_macs / 1e9
    assert report.size_f32 == len(save_weights(model, "f32"))
    text = report.format_text()
    assert "total" in text and "GFLOPs" in text


def test_variant_config_flags_and_validation():
    assert VARIANTS == ("baseline", "air", "dpdf", "full")
    flags = {v: (variant_config(CFG, v).use_air, variant_config(CFG, v).use_dpdf)
             for v in VARIANTS}
    assert flags == {"baseline": (False, False), "air": (True, False),
                     "dpdf": (False, True), "full": (True, True)}
    with pytest.raises(ValueError, match="variant"):
        variant_config(CFG, "tiny")


def test_variant_parameter_ordering():
    counts = {v: count_params(build(variant_config(CFG, v), Rng(0)))[1]
              for v in VARIANTS}
    assert counts["full"] < counts["air"] < counts["baseline"]
    assert counts["full"] < counts["dpdf"] < counts["baseline"]


def test_ablation_report_lists_all_variants():
    text = ablation_report(CFG)
    for variant in VARIANTS:
        assert variant in text
    assert "full/baseline parameter ratio" in text

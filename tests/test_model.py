"""Model graph: build determinism, forward shapes, decode, NMS, archive."""

import dataclasses
import hashlib
import json
import math
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from firedet import model as model_module
from firedet.blocks import ConvBn, fold_batchnorm
from firedet.fileio import load_config
from firedet.losses import POSITIVE
from firedet.model import (ConfigError, Model, ModelConfig, STRIDES, build, cell_box, decode,
                           nms)
from firedet.nn import BatchNorm
from firedet.profiler import VARIANTS, variant_config
from firedet.rng import Rng
from firedet.tensor import _sigmoid_np, from_array, no_grad, using_dtype
from firedet.weights import (ArchiveError, load_records, load_weights, model_records,
                             save_records, save_weights)

from oracles import candidates, nms_passes, nms_ref, row_bits

TOY = ModelConfig(num_classes=1, input_size=64, width_mult=0.125)
REPO = Path(__file__).resolve().parent.parent
ARCHIVE_GOLDEN = REPO / "tests" / "data" / "archives.json"


def toy_maps(num_classes=1, batch=1, fill=0.0, dtype=np.float32):
    """Raw head maps for a 64px input: grids 8/4/2, channels 4 + num_classes."""
    return [from_array(np.full((batch, 4 + num_classes, 64 // s, 64 // s), fill,
                               dtype=dtype))
            for s in STRIDES]


# -- build -----------------------------------------------------------------------------


def test_build_is_deterministic_per_seed():
    a = dict(build(TOY, Rng(0)).named_parameters())
    b = dict(build(TOY, Rng(0)).named_parameters())
    c = dict(build(TOY, Rng(1)).named_parameters())
    assert a.keys() == b.keys() == c.keys()
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


@pytest.mark.parametrize("config", ["toy", "full"])
def test_build_without_rng_allocates_the_seeded_layout_undrawn(config):
    cfg = load_config(REPO / "configs" / f"{config}.json")
    undrawn, seeded, other = build(cfg, None), build(cfg, Rng(0)), build(cfg, Rng(1))

    def layout(model):
        return [(name, arr.shape, arr.dtype) for name, arr in model_records(model)]

    assert layout(undrawn) == layout(seeded)
    drawn = 0
    for (name, got), (_, zero_seed), (_, one_seed) in zip(
            model_records(undrawn), model_records(seeded), model_records(other)):
        if np.array_equal(zero_seed, one_seed):  # a constant init: BN scale, bias, ...
            assert np.array_equal(got, zero_seed), name
        else:  # drawn from the Rng by a seeded build
            assert not got.any(), name
            drawn += got.size
    assert drawn > 0.9 * sum(p.size for p in undrawn.parameters())


def test_forward_map_shapes_and_input_validation():
    model = build(TOY, Rng(0))
    x = from_array(np.zeros((2, 3, 64, 64), dtype=np.float32))
    maps = model(x)
    assert [m.shape for m in maps] == [(2, 5, 8, 8), (2, 5, 4, 4), (2, 5, 2, 2)]
    with pytest.raises(ConfigError):
        model(from_array(np.zeros((1, 4, 64, 64), dtype=np.float32)))
    with pytest.raises(ConfigError):
        model(from_array(np.zeros((1, 3, 48, 64), dtype=np.float32)))


def test_forward_batch_matches_single_image_forward():
    model = build(TOY, Rng(0))
    rng = Rng(5)
    x_np = np.asarray(rng.uniform64(2 * 3 * 64 * 64)).reshape(2, 3, 64, 64) \
        .astype(np.float32)
    batched = model(from_array(x_np))
    for b in range(2):
        single = model(from_array(x_np[b:b + 1]))
        for mb, ms in zip(batched, single):
            assert np.abs(mb.data[b] - ms.data[0]).max() < 1e-6


@pytest.mark.parametrize("variant", VARIANTS)
def test_batchnorm_fold_is_exact_algebra_in_float64(variant):
    # Folding turns gamma * (conv - mean) / sqrt(var + eps) + beta into
    # (weight * scale) conv + (beta - mean * scale), the same function, so in
    # float64 the maps move by rounding alone: under 1e-14 of max|map| here.
    # The bound, 1e-12, is ~4,500 float64 ulps; a wrong scale, sign or mean moves
    # the maps by order one, and folding in float32 moves them by ~1e-6.
    with using_dtype(np.float64):
        model = build(variant_config(TOY, variant), Rng(3))
        rng = Rng(11)
        for _, bn in model.named_modules():
            if isinstance(bn, BatchNorm):
                for arr, lo, hi in ((bn.gamma.data, 0.5, 1.5), (bn.beta.data, -0.5, 0.5),
                                    (bn.running_mean, -0.5, 0.5), (bn.running_var, 0.5, 2.0)):
                    arr[...] = rng.uniform64(bn.channels, lo, hi).reshape(arr.shape)
        x = from_array(rng.uniform64(2 * 3 * 64 * 64).reshape(2, 3, 64, 64))
        with no_grad():
            want = [m.data.copy() for m in model(x)]
            fold_batchnorm(model)
            got = [m.data for m in model(x)]
    units = [m for _, m in model.named_modules() if isinstance(m, ConvBn)]
    assert units and all(u.bn is None and u.conv.spec.has_bias for u in units)
    assert not any(isinstance(m, BatchNorm) for _, m in model.named_modules())
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


# -- decode ----------------------------------------------------------------------------


def test_decode_zero_logits_distance_is_stride_times_ln2():
    maps = toy_maps(fill=0.0)
    dets = decode(maps, TOY, score_threshold=0.4)
    assert len(dets) == 64 + 16 + 4  # every cell of every scale at score 0.5
    d = dets[0]  # stride-8 cell (0, 0): center (4, 4) px of a 64 px frame
    dist = 8.0 * math.log(2.0)
    x1 = max(0.0, (4.0 - dist) / 64.0)
    x2 = (4.0 + dist) / 64.0
    assert d.score == pytest.approx(0.5, abs=1e-7)
    assert d.box[0] == pytest.approx((x1 + x2) / 2, abs=1e-6)
    assert d.box[1] == pytest.approx((x1 + x2) / 2, abs=1e-6)
    assert d.box[2] == pytest.approx(x2 - x1, abs=1e-6)
    assert d.box[3] == pytest.approx(x2 - x1, abs=1e-6)


def test_decode_keeps_only_cells_above_threshold():
    maps = toy_maps(fill=0.0)
    for m in maps:
        m.data[:, 4] = -20.0  # scores ~ 2e-9
    maps[1].data[0, 4, 1, 2] = 10.0  # one confident cell on the stride-16 grid
    dets = decode(maps, TOY, score_threshold=0.5)
    assert len(dets) == 1
    d = dets[0]
    assert d.class_id == 0
    assert d.score == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-7)
    # cell (row 1, col 2) at stride 16: center ((2+0.5)*16, (1+0.5)*16) = (40, 24)
    assert d.box[0] == pytest.approx(40.0 / 64.0, abs=1e-6)
    assert d.box[1] == pytest.approx(24.0 / 64.0, abs=1e-6)


def test_decode_boxes_are_clamped_to_unit_square():
    maps = toy_maps(fill=0.0)
    maps[0].data[0, :4] = 8.0  # huge distances spill past every border
    dets = decode(maps, TOY, score_threshold=0.4)
    for d in dets:
        cx, cy, w, h = d.box
        assert 0.0 <= cx - w / 2 and cx + w / 2 <= 1.0
        assert 0.0 <= cy - h / 2 and cy + h / 2 <= 1.0


def test_decode_batch_keeps_images_independent():
    maps = toy_maps(batch=2, fill=0.0)
    for m in maps:
        m.data[:, 4] = -20.0
    maps[0].data[0, 4, 3, 3] = 12.0  # only image 0 fires
    per_image = [decode(maps, TOY, score_threshold=0.5, batch_index=b) for b in range(2)]
    assert [len(d) for d in per_image] == [1, 0]


def every_cell(maps) -> np.recarray:
    """:data:`losses.POSITIVE` rows for every cell of image 0, scale-major
    then row-major: :func:`decode`'s cell order."""
    rows = [(0, s, i, j, 0, (0.0, 0.0, 0.0, 0.0))
            for s, m in enumerate(maps) for i in range(m.shape[2]) for j in range(m.shape[3])]
    return np.array(rows, dtype=POSITIVE).view(np.recarray)


def clipped(boxes: np.ndarray) -> np.ndarray:
    """(P, 4) center-format boxes with their corners clipped to [0, 1]."""
    cx, cy, w, h = boxes.T
    x1, y1, x2, y2 = np.clip([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], 0.0, 1.0)
    return np.stack([(x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1], axis=-1)


def test_cell_box_matches_decode_for_interior_cells():
    """Every cell of every scale: ``cell_box`` is decode's box before the clip.

    Raws in [-3, 3] give side distances from 0.05 to 3.05 strides, so cells
    near the border spill past it and are clipped by decode, while the rest
    stay inside the frame.
    """
    with using_dtype(np.float64):
        rng = Rng(6)
        maps = [from_array(np.asarray(
            rng.uniform64(5 * (64 // s) * (64 // s), -3.0, 3.0))
            .reshape(1, 5, 64 // s, 64 // s)) for s in STRIDES]
        dets = decode(maps, TOY, score_threshold=0.0)  # scale-major, row-major
        boxes = cell_box(maps, every_cell(maps)).data[0, :, :, 0].T
    cx, cy, w, h = boxes.T
    corners = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)
    inside = ((corners >= 0.0) & (corners <= 1.0)).all(axis=1)
    assert len(dets) == len(boxes) == 84
    assert np.allclose(dets.box[inside], boxes[inside], rtol=0.0, atol=1e-12)
    assert np.allclose(dets.box[~inside], clipped(boxes[~inside]), rtol=0.0, atol=1e-12)
    assert (~inside).sum() > 10 and inside.sum() > 10


@st.composite
def _head_maps(draw):
    """Raw maps of one image of 32·cols x 32·rows px with 1-2 classes.

    Raws in [-6, 6] give side distances from 0.0025 to 6 strides, so both
    cells inside the frame and border cells whose corners decode clips occur.
    """
    cols, rows, nc = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return [draw(arrays(np.float64, (1, 4 + nc, 32 * rows // s, 32 * cols // s),
                        elements=st.floats(-6.0, 6.0)))
            for s in STRIDES]


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(raws=_head_maps(), threshold=st.sampled_from((0.0, 0.25, 0.5, 0.75)))
def test_decode_matches_cell_box_on_generated_raws(raws, threshold):
    """Each decoded row is ``cell_box``'s box with its corners clipped to the
    frame, in scale, class, row-major cell order, for exactly the (cell,
    class) pairs whose score reaches the threshold."""
    with using_dtype(np.float64):
        maps = [from_array(r) for r in raws]
        dets = decode(maps, TOY, score_threshold=threshold)
        boxes = clipped(cell_box(maps, every_cell(maps)).data[0, :, :, 0].T)
    want_cls, want_score, want_box = [], [], []
    first = 0
    for raw in raws:
        scores = _sigmoid_np(raw[0, 4:]).reshape(raw.shape[1] - 4, -1)  # class, row-major cell
        for cls, row in enumerate(scores):
            hit = row >= threshold
            want_cls += [cls] * int(hit.sum())
            want_score.append(row[hit])
            want_box.append(boxes[first: first + row.size][hit])
        first += scores.shape[1]
    assert first == len(boxes)
    assert dets.class_id.tolist() == want_cls
    assert np.array_equal(dets.score, np.concatenate(want_score))
    assert np.allclose(dets.box, np.concatenate(want_box).reshape(-1, 4), rtol=0.0, atol=1e-12)


# -- non-maximum suppression --------------------------------------------------------------


def random_dets(rng, n, num_classes=2):
    rows = []
    for _ in range(n):
        w, h = rng.uniform64(2, 0.05, 0.4)
        cx, cy = rng.uniform64(2, 0.2, 0.8)
        score = round(float(rng.uniform64(1)[0]), 2)  # coarse scores force ties
        cls = int(rng.integers(1, 0, num_classes)[0])
        rows.append((cls, score, (float(cx), float(cy), float(w), float(h))))
    return candidates(rows)


def clustered_dets(rng, n, centres=4, num_classes=2):
    """Boxes jittered around a few centres, so that most are suppressed."""
    hubs = rng.uniform64(2 * centres, 0.3, 0.7).reshape(centres, 2)
    rows = []
    for k in range(n):
        cx, cy = hubs[k % centres] + rng.uniform64(2, -0.03, 0.03)
        w, h = rng.uniform64(2, 0.15, 0.25)
        score = round(float(rng.uniform64(1)[0]), 2)  # coarse scores force ties
        cls = int(rng.integers(1, 0, num_classes)[0])
        rows.append((cls, score, (float(cx), float(cy), float(w), float(h))))
    return candidates(rows)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_nms_matches_quadratic_reference_on_fuzz(seed):
    rng = Rng(seed)
    scattered, clustered = random_dets(rng, 200), clustered_dets(rng, 500)
    assert len(nms(clustered, 0.45)) < len(clustered) // 4
    for dets in (scattered, clustered):
        for thr in (0.0, 0.3, 0.45, 0.6, 1.0):
            assert row_bits(nms(dets, thr)) == row_bits(nms_ref(dets, thr))


def test_nms_keeps_identical_boxes_of_different_classes():
    box = (0.5, 0.5, 0.2, 0.2)
    dets = candidates([(0, 0.9, box), (1, 0.8, box)])
    assert row_bits(nms(dets, 0.45)) == row_bits(dets)


def test_nms_drops_exactly_at_threshold():
    a = (0, 0.9, (0.50, 0.5, 0.2, 0.2))
    # identical box: IoU 1.0 >= any threshold -> dropped even at threshold 1.0
    b = (0, 0.8, (0.50, 0.5, 0.2, 0.2))
    assert row_bits(nms(candidates([a, b]), 1.0)) == row_bits(candidates([a]))
    # disjoint boxes: IoU 0.0 -> kept at threshold 0 only if strictly below
    c = (0, 0.7, (0.05, 0.05, 0.05, 0.05))
    assert row_bits(nms(candidates([a, c]), 0.0)) == row_bits(candidates([a]))


def test_nms_tie_break_by_class_then_input_order():
    d0 = (1, 0.5, (0.2, 0.2, 0.1, 0.1))
    d1 = (0, 0.5, (0.8, 0.8, 0.1, 0.1))
    d2 = (0, 0.5, (0.5, 0.5, 0.1, 0.1))
    kept = nms(candidates([d0, d1, d2]), 0.45)
    # same score: lower class first, then input order
    assert row_bits(kept) == row_bits(candidates([d1, d2, d0]))


@pytest.mark.parametrize("size, cells", [(256, 1344), (640, 8400)])
def test_nms_matches_per_pass_reference_on_dense_decoded_frames(size, cells):
    """The mAP protocol's worst case: every cell a candidate, none suppressed."""
    cfg = dataclasses.replace(load_config(REPO / "configs" / "full.json"), input_size=size)
    image = np.asarray(Rng(3).uniform64(3 * size * size)).reshape(1, 3, size, size)
    with no_grad():
        dets = decode(build(cfg, Rng(0))(from_array(image)), cfg, score_threshold=0.001)
    assert len(dets) == cells
    kept = nms(dets, cfg.nms_iou_threshold)
    assert row_bits(kept) == row_bits(nms_passes(dets, cfg.nms_iou_threshold))
    assert len(kept) == cells


def _grid_of_disjoint_boxes(n, columns):
    rows = -(-n // columns)
    return candidates((0, (i % 97) / 97, ((i % columns + 0.5) / columns,
                                          (i // columns + 0.5) / rows,
                                          0.5 / columns, 0.5 / rows))
                      for i in range(n))


@pytest.mark.parametrize("case", ["identical", "disjoint"])
def test_nms_on_8400_identical_or_disjoint_boxes_is_exact_in_bounded_memory(case):
    if case == "identical":
        dets, expect = candidates([(0, 0.5, (0.5, 0.5, 0.2, 0.2))] * 8400), 1
    else:
        dets, expect = _grid_of_disjoint_boxes(8400, 105), 8400
    tracemalloc.start()
    try:
        kept = nms(dets, 0.45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept) == expect
    assert row_bits(kept) == row_bits(nms_passes(dets, 0.45))
    assert peak < 64 * 2 ** 20


# Coarse grids make duplicate boxes, exact-threshold IoUs and score ties
# common; zero sizes give zero-area boxes.  Small blocks make the greedy walk
# cross block boundaries, where kept boxes are found through the x-index.
_NMS_CENTERS = (0.2, 0.3, 0.4, 0.5)
_NMS_SIZES = (0.0, 0.1, 0.2, 0.4)
_NMS_DETS = st.lists(st.tuples(
    st.integers(0, 1), st.sampled_from((0.1, 0.5, 0.9)),
    st.tuples(st.sampled_from(_NMS_CENTERS), st.sampled_from(_NMS_CENTERS),
              st.sampled_from(_NMS_SIZES), st.sampled_from(_NMS_SIZES))),
    max_size=40).map(candidates)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(dets=_NMS_DETS, iou_threshold=st.sampled_from((0.0, 0.25, 0.45, 0.5, 1.0)),
       block=st.sampled_from((1, 3, 8, model_module.NMS_BLOCK)))
def test_nms_matches_quadratic_reference_on_generated_detections(dets, iou_threshold, block):
    with mock.patch.object(model_module, "NMS_BLOCK", block):
        assert row_bits(nms(dets, iou_threshold)) == row_bits(nms_ref(dets, iou_threshold))


# -- weight archive ------------------------------------------------------------------------


def test_archive_save_load_save_is_byte_identical():
    src = build(TOY, Rng(0))
    dst = build(TOY, Rng(99))
    blob = save_weights(src)
    load_weights(blob, dst)
    assert save_weights(dst) == blob
    for (_, a), (_, b) in zip(src.named_parameters(), dst.named_parameters()):
        assert np.array_equal(a.data, b.data)


def test_archive_f16_round_trip_is_idempotent():
    src = build(TOY, Rng(0))
    dst = build(TOY, Rng(99))
    blob16 = save_weights(src, precision="f16")
    load_weights(blob16, dst)
    assert save_weights(dst, precision="f16") == blob16


def test_archive_rejects_corrupted_streams():
    blob = save_weights(build(TOY, Rng(0)))
    with pytest.raises(ArchiveError, match="magic"):
        load_records(b"XXXX" + blob[4:])
    with pytest.raises(ArchiveError, match="version"):
        load_records(blob[:4] + b"\x07\x00\x00\x00" + blob[8:])
    with pytest.raises(ArchiveError, match="truncated"):
        load_records(blob[:len(blob) - 10])
    with pytest.raises(ArchiveError, match="trailing"):
        load_records(blob + b"\x00\x00\x00")
    with pytest.raises(ArchiveError, match="truncated"):
        load_records(blob[:8])
    # Four extents of 65,536 hold 2**64 elements, a product that wraps to 0 in int64.
    huge = save_records([("w", np.zeros((1, 1, 1, 1)))])[:-20] + struct.pack("<4I", *[65536] * 4)
    with pytest.raises(ArchiveError, match="truncated"):
        load_records(huge)


def test_archive_mismatch_leaves_model_untouched():
    wide = build(ModelConfig(num_classes=1, input_size=64, width_mult=0.25), Rng(0))
    target = build(TOY, Rng(1))
    before = [p.data.copy() for _, p in target.named_parameters()]
    with pytest.raises(ArchiveError):
        load_weights(save_weights(wide), target)
    after = [p.data for _, p in target.named_parameters()]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_archive_records_include_running_statistics():
    model = build(TOY, Rng(0))
    names = [name for name, _ in load_records(save_weights(model))]
    assert any(name.endswith("running_mean") for name in names)
    assert any(name.endswith("running_var") for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_records_before_mutation(bad):
    blob = bytearray(save_weights(build(TOY, Rng(0))))
    blob[-4:] = np.array([bad], dtype="<f4").tobytes()  # last element of the last record
    target = build(TOY, Rng(1))
    before = save_weights(target)
    with pytest.raises(ArchiveError, match="non-finite"):
        load_weights(bytes(blob), target)
    assert save_weights(target) == before


def test_load_rejects_a_negative_running_variance_before_mutation():
    records = model_records(build(TOY, Rng(0)))
    name, var = records[-1]
    assert name.endswith(".running_var")
    var[0, -1, 0, 0] = -1.0  # a zero variance stays valid: BatchNorm adds eps
    target = build(TOY, Rng(1))
    before = save_weights(target)
    with pytest.raises(ArchiveError, match="negative running variance"):
        load_weights(save_records(records), target)
    assert save_weights(target) == before


def test_save_rejects_non_finite_and_f16_overflowing_values():
    model = build(TOY, Rng(0))
    name, p = next(model.named_parameters())
    for value in (1e6, -65505.0, np.nan):
        p.data.flat[0] = value
        with pytest.raises(ArchiveError, match="finite and within"):
            save_weights(model, precision="f16")
    p.data.flat[0] = -65504.0  # the largest float16 magnitude still fits
    assert dict(load_records(save_weights(model, precision="f16")))[name].flat[0] == -65504.0
    p.data.flat[0] = 1e6
    load_records(save_weights(model, precision="f32"))


def test_save_records_rejects_unknown_precision():
    with pytest.raises(ArchiveError):
        save_records([("w", np.zeros((2, 2), dtype=np.float32))], precision="f64")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("config", ["baseline", "air", "dpdf", "full", "toy"])
def test_seeded_archive_matches_golden(config, variant):
    # Length and SHA-256 of the seeded archives of configs/full.json and
    # configs/toy.json.  The other 640-px configs differ from full.json only in
    # the two flags variant_config sets.  A renamed, reordered or differently
    # drawn parameter changes the hash.
    golden = json.loads(ARCHIVE_GOLDEN.read_text())["toy" if config == "toy" else "full"]
    cfg = variant_config(load_config(REPO / "configs" / f"{config}.json"), variant)
    data = save_weights(build(cfg, Rng(0)))
    assert (len(data), hashlib.sha256(data).hexdigest()) == \
        (golden[variant]["bytes"], golden[variant]["sha256"])


# -- configuration validation ------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"num_classes": 0},
    {"input_size": 100},
    {"width_mult": 0.001},
    {"blocks_per_stage": (1, 2, 2)},
    {"blocks_per_stage": (1, 0, 2, 1)},
    {"base_widths": (64, 128, 256, 512)},
    {"score_threshold": 1.5},
    {"nms_iou_threshold": -0.1},
    {"dropout_p": 1.0},
    {"dropout_p": 0.3},  # no layer drops out, so only 0 is accepted
    {"use_dpdf": True, "width_mult": 0.1},  # widths not divisible by 4
    {"head_channels": 0},
    {"input_size": 0},
    {"input_size": -32},
])
def test_config_rejects_contract_violations(kwargs):
    base = dict(num_classes=1, input_size=64, width_mult=0.125)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        ModelConfig(**base)


def test_config_from_dict_round_trip_and_unknown_keys():
    cfg = ModelConfig(num_classes=2, input_size=64, width_mult=0.125,
                      blocks_per_stage=(1, 1, 1, 1))
    assert ModelConfig.from_dict({"num_classes": 2, "input_size": 64, "width_mult": 0.125,
                                  "blocks_per_stage": [1, 1, 1, 1]}) == cfg
    with pytest.raises(ConfigError, match="unknown config keys"):
        ModelConfig.from_dict({"num_classes": 1, "depth_mult": 1.0})
    with pytest.raises(ConfigError):
        ModelConfig.from_dict([1, 2, 3])
    with pytest.raises(ConfigError, match="list of integers"):
        ModelConfig.from_dict({"blocks_per_stage": "1,2,2,1"})

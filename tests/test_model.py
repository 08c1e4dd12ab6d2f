"""Model graph: build determinism, forward shapes, decode, NMS, archive."""

import math

import numpy as np
import pytest

from firedet.model import (ConfigError, Detection, Model, ModelConfig, STRIDES,
                           build, cell_box, decode, decode_batch, nms)
from firedet.rng import Rng
from firedet.tensor import from_array, using_dtype
from firedet.weights import (ArchiveError, load_records, load_weights,
                             save_records, save_weights)

from oracles import nms_ref

TOY = ModelConfig(num_classes=1, input_size=64, width_mult=0.125)


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
    per_image = decode_batch(maps, TOY, score_threshold=0.5)
    assert [len(d) for d in per_image] == [1, 0]


def test_cell_box_matches_decode_for_interior_cells():
    with using_dtype(np.float64):
        rng = Rng(6)
        maps = [from_array(np.asarray(
            rng.uniform64(5 * (64 // s) * (64 // s), -2.0, -0.5))
            .reshape(1, 5, 64 // s, 64 // s)) for s in STRIDES]
        dets = decode(maps, TOY, score_threshold=0.0)
        # detections are scale-major then row-major; raws below -0.5 keep every
        # side distance under 0.475 * stride, so these cells stay unclamped
        offsets = [0, 64, 80]
        for scale, (i, j) in ((0, (3, 4)), (1, (1, 2)), (2, (1, 0))):
            stride = STRIDES[scale]
            g = 64 // stride
            det = dets[offsets[scale] + i * g + j]
            twin = cell_box(maps[scale], 0, i, j, stride, 64, 64).data.reshape(4)
            assert np.allclose(np.asarray(det.box), twin, atol=1e-12)


# -- non-maximum suppression --------------------------------------------------------------


def random_dets(rng, n, num_classes=2):
    dets = []
    for _ in range(n):
        w, h = rng.uniform64(2, 0.05, 0.4)
        cx, cy = rng.uniform64(2, 0.2, 0.8)
        score = round(float(rng.uniform64(1)[0]), 2)  # coarse scores force ties
        cls = int(rng.integers(1, 0, num_classes)[0])
        dets.append(Detection(class_id=cls, score=score,
                              box=(float(cx), float(cy), float(w), float(h))))
    return dets


def clustered_dets(rng, n, centres=4, num_classes=2):
    """Boxes jittered around a few centres, so that most are suppressed."""
    hubs = rng.uniform64(2 * centres, 0.3, 0.7).reshape(centres, 2)
    dets = []
    for k in range(n):
        cx, cy = hubs[k % centres] + rng.uniform64(2, -0.03, 0.03)
        w, h = rng.uniform64(2, 0.15, 0.25)
        score = round(float(rng.uniform64(1)[0]), 2)  # coarse scores force ties
        cls = int(rng.integers(1, 0, num_classes)[0])
        dets.append(Detection(class_id=cls, score=score,
                              box=(float(cx), float(cy), float(w), float(h))))
    return dets


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_nms_matches_quadratic_reference_on_fuzz(seed):
    rng = Rng(seed)
    scattered, clustered = random_dets(rng, 200), clustered_dets(rng, 500)
    assert len(nms(clustered, 0.45)) < len(clustered) // 4
    for dets in (scattered, clustered):
        for thr in (0.0, 0.3, 0.45, 0.6, 1.0):
            assert nms(dets, thr) == nms_ref(dets, thr)


def test_nms_keeps_identical_boxes_of_different_classes():
    box = (0.5, 0.5, 0.2, 0.2)
    dets = [Detection(0, 0.9, box), Detection(1, 0.8, box)]
    assert nms(dets, 0.45) == dets


def test_nms_drops_exactly_at_threshold():
    a = Detection(0, 0.9, (0.50, 0.5, 0.2, 0.2))
    # identical box: IoU 1.0 >= any threshold -> dropped even at threshold 1.0
    b = Detection(0, 0.8, (0.50, 0.5, 0.2, 0.2))
    assert nms([a, b], 1.0) == [a]
    # disjoint boxes: IoU 0.0 -> kept at threshold 0 only if strictly below
    c = Detection(0, 0.7, (0.05, 0.05, 0.05, 0.05))
    assert nms([a, c], 0.0) == [a]


def test_nms_tie_break_by_class_then_input_order():
    d0 = Detection(1, 0.5, (0.2, 0.2, 0.1, 0.1))
    d1 = Detection(0, 0.5, (0.8, 0.8, 0.1, 0.1))
    d2 = Detection(0, 0.5, (0.5, 0.5, 0.1, 0.1))
    kept = nms([d0, d1, d2], 0.45)
    assert kept == [d1, d2, d0]  # same score: lower class first, then input order


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


def test_save_records_rejects_unknown_precision():
    with pytest.raises(ArchiveError):
        save_records([("w", np.zeros((2, 2), dtype=np.float32))], precision="f64")


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
    {"use_dpdf": True, "width_mult": 0.1},  # widths not divisible by 4
    {"head_channels": 0},
])
def test_config_rejects_contract_violations(kwargs):
    base = dict(num_classes=1, input_size=64, width_mult=0.125)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        ModelConfig(**base)


def test_config_from_dict_round_trip_and_unknown_keys():
    cfg = ModelConfig(num_classes=2, input_size=64, width_mult=0.125,
                      blocks_per_stage=(1, 1, 1, 1))
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError, match="unknown config keys"):
        ModelConfig.from_dict({"num_classes": 1, "depth_mult": 1.0})
    with pytest.raises(ConfigError):
        ModelConfig.from_dict([1, 2, 3])
    with pytest.raises(ConfigError, match="list of integers"):
        ModelConfig.from_dict({"blocks_per_stage": "1,2,2,1"})

"""Loss functions: cross-entropy, CIoU geometry, target assignment, total loss."""

import math

import numpy as np
import pytest

from oracles import box_term_ref, ciou_alpha_ref, ciou_value

from firedet.losses import (GroundTruth, LAMBDA_BOX, LAMBDA_CLS, POSITIVE,
                            assign, bce, ciou_loss,
                            MIN_EXTENT, detection_loss, scale_bucket)
from firedet.model import ModelConfig, STRIDES
from firedet.rng import Rng
from firedet.tensor import (Parameter, Tensor, from_array, grad_check, tmean,
                            using_dtype)

CFG640 = ModelConfig(num_classes=2, input_size=640, width_mult=0.125)
CFG64 = ModelConfig(num_classes=1, input_size=64, width_mult=0.125)


# -- binary cross-entropy ---------------------------------------------------------------


@pytest.mark.parametrize("target", [0.0, 0.25, 1.0])
def test_bce_zero_logit_is_ln2_for_any_target(target):
    with using_dtype(np.float64):
        logits = from_array(np.zeros((2, 3, 4, 5)))
        t = np.full((2, 3, 4, 5), target)
        assert bce(logits, t).item() == math.log(2.0)


def test_bce_saturated_correct_logit_is_tiny():
    with using_dtype(np.float64):
        logits = from_array(np.full((1, 1, 1, 1), 20.0))
        loss = bce(logits, np.ones((1, 1, 1, 1))).item()
        assert loss == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
        assert loss < 3e-9


def test_bce_rejects_bad_targets():
    logits = from_array(np.zeros((1, 1, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="shape"):
        bce(logits, np.zeros((1, 1, 2, 3), dtype=np.float32))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bce(logits, np.full((1, 1, 2, 2), 1.5, dtype=np.float32))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bce(logits, np.full((1, 1, 2, 2), -0.1, dtype=np.float32))


def test_bce_gradient_closed_form():
    with using_dtype(np.float64):
        rng = Rng(3)
        z = np.asarray(rng.uniform64(24, -4.0, 4.0)).reshape(1, 2, 3, 4)
        t = np.asarray(rng.uniform64(24)).reshape(1, 2, 3, 4)
        logits = Parameter(z.copy())
        bce(logits, t).backward()
        expected = (1.0 / (1.0 + np.exp(-z)) - t) / z.size
        assert np.abs(logits.grad - expected).max() < 1e-15


# -- complete-IoU ----------------------------------------------------------------------


def test_ciou_identical_boxes_loss_is_exactly_zero():
    with using_dtype(np.float64):
        boxes = np.array([[0.5], [0.5], [0.25], [0.4]]).reshape(1, 4, 1, 1)
        loss = ciou_loss(from_array(boxes), from_array(boxes.copy()))
        assert loss.item() == 0.0


def test_ciou_hand_worked_unit_squares():
    # A = (1,1,2,2), B = (2,2,2,2): IoU = 1/7, center gap^2 / diagonal^2 = 2/18,
    # equal aspect ratios -> CIoU = 1/7 - 1/9 = 2/63 and loss = 61/63.
    assert ciou_value((1, 1, 2, 2), (2, 2, 2, 2)) == pytest.approx(2 / 63, abs=1e-12)
    loss = 1.0 - ciou_value((1, 1, 2, 2), (2, 2, 2, 2))
    assert loss == pytest.approx(61 / 63, abs=1e-12)
    assert loss == pytest.approx(0.968254, abs=1e-6)


def test_ciou_loss_shape_and_validation():
    pred = from_array(np.ones((2, 4, 3, 1), dtype=np.float32))
    assert ciou_loss(pred, from_array(np.ones((2, 4, 3, 1), dtype=np.float32))).shape \
        == (2, 1, 3, 1)
    with pytest.raises(ValueError):
        ciou_loss(pred, from_array(np.ones((2, 4, 2, 1), dtype=np.float32)))
    with pytest.raises(ValueError):
        ciou_loss(from_array(np.ones((1, 5, 1, 1), dtype=np.float32)),
                  from_array(np.ones((1, 5, 1, 1), dtype=np.float32)))


def test_ciou_gradient_with_pinned_tradeoff_coefficient():
    with using_dtype(np.float64):
        rng = Rng(11)
        pred_np = np.stack([
            np.asarray(rng.uniform64(3, 0.4, 0.6)),   # cx
            np.asarray(rng.uniform64(3, 0.4, 0.6)),   # cy
            np.asarray(rng.uniform64(3, 0.8, 1.2)),   # w: overlap guaranteed
            np.asarray(rng.uniform64(3, 0.8, 1.2)),   # h
        ], axis=0).reshape(1, 4, 3, 1)
        gt_np = np.stack([
            np.asarray(rng.uniform64(3, 0.4, 0.6)),
            np.asarray(rng.uniform64(3, 0.4, 0.6)),
            np.asarray(rng.uniform64(3, 0.8, 1.2)),
            np.asarray(rng.uniform64(3, 0.8, 1.2)),
        ], axis=0).reshape(1, 4, 3, 1)
        pred = Parameter(pred_np)
        gt = from_array(gt_np)
        cache: list[np.ndarray] = []  # filled at the unperturbed point, then reused
        err = grad_check(lambda: tmean(ciou_loss(pred, gt, cache)), [pred], eps=1e-6)
        assert err < 1e-7
        assert len(cache) == 1 and cache[0].shape == (1, 1, 3, 1)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_ciou_alpha_matches_numpy_reference_bits(dtype):
    # 2 x 1,000 box pairs: random, then zero, tiny and floor-sized extents,
    # and identical boxes.  The cache keeps the first evaluation's own alpha,
    # in the boxes' dtype, and pinning it changes none of that evaluation's bits.
    # In float32 the centre +- half-extent corners of the sub-resolution boxes
    # coincide, so two zero areas give IoU 0/0: NaN, the same bits either way.
    rng = Rng(23)
    pred = np.asarray(rng.uniform64(2 * 4 * 1000, 0.0, 1.0)).reshape(2, 4, 1000, 1)
    gt = np.asarray(rng.uniform64(2 * 4 * 1000, 0.0, 1.0)).reshape(2, 4, 1000, 1)
    for k, extent in enumerate([0.0, 1e-12, MIN_EXTENT, 2e-9, 1e-6]):
        block = slice(700 + 40 * k, 740 + 40 * k)
        pred[:, 2 + k % 2, block] = extent
        gt[:, 2 + (k + 1) % 2, block] = extent
    gt[:, :, 900:] = pred[:, :, 900:]
    pred, gt = pred.astype(dtype), gt.astype(dtype)
    with using_dtype(dtype), np.errstate(invalid="ignore"):
        cache: list[np.ndarray] = []
        pinned = ciou_loss(from_array(pred), from_array(gt), cache)
        unpinned = ciou_loss(from_array(pred), from_array(gt))
    assert pinned.data.tobytes() == unpinned.data.tobytes()
    assert len(cache) == 1
    got = cache[0]
    assert got.dtype == dtype and got.shape == (2, 1, 1000, 1)
    want = ciou_alpha_ref(pred, gt)
    if dtype is np.float64:
        assert np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()
    else:  # float32 rounding only, where the areas are resolved
        finite = np.isfinite(got)
        assert np.abs(got[finite] - want[finite]).max() < 1e-6


# -- scale assignment --------------------------------------------------------------------


def test_scale_bucket_boundaries():
    # thresholds sit at pixel extents 64 and 128 (inclusive below)
    assert scale_bucket((0.5, 0.5, 64 / 640, 0.01), 640) == 0
    assert scale_bucket((0.5, 0.5, 65 / 640, 0.01), 640) == 1
    assert scale_bucket((0.5, 0.5, 128 / 640, 0.01), 640) == 1
    assert scale_bucket((0.5, 0.5, 129 / 640, 0.01), 640) == 2
    # the larger side decides
    assert scale_bucket((0.5, 0.5, 0.01, 200 / 640), 640) == 2


def test_assign_routes_sizes_to_matching_strides():
    gts = [
        GroundTruth(0, 0, (0.31, 0.26, 0.05, 0.05)),   # 32 px  -> stride 8
        GroundTruth(0, 1, (0.51, 0.51, 0.15, 0.10)),   # 96 px  -> stride 16
        GroundTruth(0, 0, (0.76, 0.76, 0.40, 0.40)),   # 256 px -> stride 32
    ]
    targets = assign(gts, CFG640, batch_size=1)
    assert [m.shape for m in targets.cls_maps] == [
        (1, 2, 80, 80), (1, 2, 40, 40), (1, 2, 20, 20)]
    got = targets.positives
    assert got.dtype == POSITIVE
    assert got.image_index.tolist() == [0, 0, 0]
    assert got.scale.tolist() == [0, 1, 2]
    assert got.row.tolist() == [20, 20, 15]
    assert got.col.tolist() == [24, 20, 15]
    assert got.class_id.tolist() == [0, 1, 0]
    assert list(map(tuple, got.box.tolist())) == [g.box for g in gts]
    for scale, pos in enumerate(targets.positives):
        one_hot = targets.cls_maps[scale]
        assert one_hot[0, pos.class_id, pos.row, pos.col] == 1.0
        assert one_hot.sum() == 1.0


def test_assign_cell_collision_keeps_larger_box():
    small = GroundTruth(0, 0, (0.30, 0.30, 0.02, 0.02))
    large = GroundTruth(0, 1, (0.31, 0.31, 0.06, 0.06))  # same stride-8 cell
    for order in ([small, large], [large, small]):
        targets = assign(order, CFG640, batch_size=1)
        assert len(targets.positives) == 1
        assert targets.positives[0].class_id == 1
        assert tuple(targets.positives[0].box.tolist()) == large.box
        assert targets.cls_maps[0].sum() == 1.0


def test_assign_is_order_independent():
    rng = Rng(7)
    gts = [GroundTruth(int(rng.integers(1, 0, 2)[0]), int(rng.integers(1, 0, 2)[0]),
                       (float(rng.uniform64(1, 0.1, 0.9)[0]),
                        float(rng.uniform64(1, 0.1, 0.9)[0]),
                        float(rng.uniform64(1, 0.02, 0.5)[0]),
                        float(rng.uniform64(1, 0.02, 0.5)[0])))
           for _ in range(40)]
    fwd = assign(gts, CFG640, batch_size=2)
    rev = assign(list(reversed(gts)), CFG640, batch_size=2)
    assert fwd.positives.tobytes() == rev.positives.tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(fwd.cls_maps, rev.cls_maps))


def test_assign_validates_indices():
    with pytest.raises(ValueError, match="image_index"):
        assign([GroundTruth(2, 0, (0.5, 0.5, 0.1, 0.1))], CFG640, batch_size=2)
    with pytest.raises(ValueError, match="class_id"):
        assign([GroundTruth(0, 2, (0.5, 0.5, 0.1, 0.1))], CFG640, batch_size=1)


@pytest.mark.parametrize("size", [0, -64])
def test_assign_rejects_a_non_positive_input_size(size):
    # Only None means "the config's size"; 0 used to fall back to it silently.
    with pytest.raises(ValueError, match="input_size"):
        assign([GroundTruth(0, 0, (0.5, 0.5, 0.1, 0.1))], CFG640, batch_size=1, input_size=size)
    assert assign([], CFG640, batch_size=1, input_size=None).cls_maps[0].shape == (1, 2, 80, 80)


@pytest.mark.parametrize("centre", [(0.5, -0.6), (-0.01, 0.5), (1.2, 0.5), (0.5, float("nan"))])
def test_assign_rejects_centres_outside_unit_square(centre):
    # cy = -0.6 maps to row -48 at stride 8, which indexing wraps to row 32.
    with pytest.raises(ValueError, match="centre"):
        assign([GroundTruth(0, 0, (*centre, 0.1, 0.1))], CFG640, batch_size=1)
    edges = [GroundTruth(0, 0, (x, y, 0.1, 0.1)) for x in (0.0, 1.0) for y in (0.0, 1.0)]
    assert len(assign(edges, CFG640, batch_size=1).positives) == 4


# -- combined loss -----------------------------------------------------------------------


def loss_maps(fill, num_classes=1, seed=None):
    maps = []
    for s in STRIDES:
        shape = (1, 4 + num_classes, 64 // s, 64 // s)
        if seed is None:
            arr = np.full(shape, fill, dtype=np.float64)
        else:
            arr = np.asarray(Rng(seed + s).uniform64(
                int(np.prod(shape)), -2.0, 2.0)).reshape(shape)
        maps.append(from_array(arr))
    return maps


def test_detection_loss_with_no_ground_truth():
    with using_dtype(np.float64):
        maps = loss_maps(fill=-20.0)
        total, box, cls = detection_loss(maps, [], CFG64)
        assert box.item() == 0.0
        assert cls.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-9)
        assert total.item() == pytest.approx(LAMBDA_CLS * cls.item(), rel=1e-12)
        assert total.item() < 1e-6  # saturated correct logits: near-zero loss


def test_detection_loss_combines_terms_with_fixed_weights():
    with using_dtype(np.float64):
        maps = loss_maps(fill=0.0, seed=20)
        gts = [GroundTruth(0, 0, (0.42, 0.37, 0.3, 0.25)),
               GroundTruth(0, 0, (0.8, 0.8, 0.1, 0.1))]
        total, box, cls = detection_loss(maps, gts, CFG64)
        assert box.item() > 0.0 and cls.item() > 0.0
        assert total.item() == pytest.approx(
            LAMBDA_BOX * box.item() + LAMBDA_CLS * cls.item(), rel=1e-12)


def test_detection_loss_alpha_cache_is_filled_and_reused():
    with using_dtype(np.float64):
        maps = loss_maps(fill=0.0, seed=21)
        gts = [GroundTruth(0, 0, (0.42, 0.37, 0.3, 0.25)),
               GroundTruth(0, 0, (0.8, 0.8, 0.1, 0.1))]
        cache: list[np.ndarray] = []
        first = detection_loss(maps, gts, CFG64, alpha_cache=cache)[0].item()
        assert len(cache) == 1 and cache[0].shape == (1, 1, 2, 1)  # one array, all positives
        again = detection_loss(maps, gts, CFG64, alpha_cache=cache)[0].item()
        assert again == first


def test_detection_loss_gradient_reaches_all_maps():
    with using_dtype(np.float64):
        maps = loss_maps(fill=0.0, seed=22)
        params = [Parameter(m.data) for m in maps]
        gts = [GroundTruth(0, 0, (0.3, 0.3, 0.2, 0.2)),
               GroundTruth(0, 0, (0.7, 0.7, 0.45, 0.45))]
        total, _, _ = detection_loss(params, gts, CFG64)
        total.backward()
        for p in params:
            assert p.grad is not None and np.abs(p.grad).max() > 0.0


# -- batched box term against the per-positive reference ------------------------------------

CFG256 = ModelConfig(num_classes=2, input_size=256, width_mult=0.125)


def _hand_gts():
    """Two images, every scale, two images on one cell of one scale, and two
    boxes on one stride-8 cell (the larger wins)."""
    return [GroundTruth(0, 0, (0.30, 0.30, 0.10, 0.10)),    # 26 px -> stride 8
            GroundTruth(0, 1, (0.301, 0.302, 0.12, 0.10)),  # same cell, larger
            GroundTruth(0, 1, (0.52, 0.48, 0.40, 0.30)),    # 102 px -> stride 16
            GroundTruth(0, 0, (0.70, 0.60, 0.80, 0.70)),    # 205 px -> stride 32
            GroundTruth(1, 0, (0.52, 0.48, 0.35, 0.45)),    # image 1, same stride-16 cell
            GroundTruth(1, 1, (0.90, 0.10, 0.05, 0.05)),
            GroundTruth(1, 0, (0.15, 0.85, 0.04, 0.20)),
            GroundTruth(1, 1, (0.50, 0.50, 0.90, 0.90))]


def _random_gts(seed, n=40):
    rng = Rng(seed)
    return [GroundTruth(int(rng.integers(1, 0, 2)[0]), int(rng.integers(1, 0, 2)[0]),
                        tuple(float(v) for v in (*rng.uniform64(2, 0.0, 1.0),
                                                 *rng.uniform64(2, 0.01, 0.6))))
            for _ in range(n)]


def _head_params(seed, dtype):
    return [Parameter(np.asarray(Rng(seed + s).uniform64(2 * 6 * (256 // s) ** 2, -2.0, 2.0))
                      .reshape(2, 6, 256 // s, 256 // s).astype(dtype)) for s in STRIDES]


def _bits(term, params):
    """Value bytes and each map's gradient bytes (None where none arrived)."""
    if term.requires_grad:
        term.backward()
    return term.data.tobytes(), [None if p.grad is None else p.grad.tobytes() for p in params]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["hand", "random", "none"])
@pytest.mark.parametrize("pinned", [False, True])
def test_box_term_matches_per_positive_reference_bits(dtype, case, pinned):
    """One gather and one CIoU over all positives give the bits of one scalar
    ``cell_box`` and one CIoU graph per positive: the box term and the total
    loss, by value and by every map's gradient."""
    gts = {"hand": _hand_gts(), "random": _random_gts(31), "none": []}[case]
    positives = assign(gts, CFG256, batch_size=2).positives
    if case != "none":
        assert set(positives.scale.tolist()) == {0, 1, 2}
        assert set(positives.image_index.tolist()) == {0, 1}
        assert len(positives) < len(gts)  # at least one cell collision
    with using_dtype(dtype):
        cache, cache_ref = ([], {}) if pinned else (None, None)
        for _ in range(1 + pinned):  # a pinned cache is filled, then reused
            params = _head_params(40, dtype)
            got = _bits(detection_loss(params, gts, CFG256, alpha_cache=cache)[1], params)
            params = _head_params(40, dtype)
            want = _bits(box_term_ref(params, positives, cache_ref), params)
            assert got == want
            assert (None in got[1]) == (case == "none")

            params = _head_params(40, dtype)
            got = _bits(detection_loss(params, gts, CFG256)[0], params)
            params = _head_params(40, dtype)
            cls_term = detection_loss(params, gts, CFG256)[2]
            want = _bits(box_term_ref(params, positives) * LAMBDA_BOX + cls_term * LAMBDA_CLS,
                         params)
            assert got == want


def _taped_ops(root) -> int:
    """Number of taped operations ``root`` depends on (leaves not counted)."""
    seen, stack, ops = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += node._bwd is not None
            stack.extend(node._parents)
    return ops


def test_loss_graph_does_not_grow_with_positives():
    """1 positive and 16 positives (two images, every scale) tape the same
    number of loss operations; the per-positive reference grows by one CIoU
    graph per positive."""
    many = _hand_gts() + [GroundTruth(k % 2, 0, (0.05 + 0.1 * k, 0.2, 0.05, 0.05))
                          for k in range(9)]
    counts, ref_counts = [], []
    for gts in (many[:1], many):
        params = _head_params(50, np.float32)
        counts.append(_taped_ops(detection_loss(params, gts, CFG256)[0]))
        ref_counts.append(_taped_ops(box_term_ref(params, assign(gts, CFG256, 2).positives)))
    assert len(assign(many, CFG256, 2).positives) == 16
    assert counts[0] == counts[1]
    assert ref_counts[1] > 15 * ref_counts[0]

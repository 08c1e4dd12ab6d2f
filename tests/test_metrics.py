"""Detection metrics against quadratic reference implementations: exact equality."""

import pytest
from hypothesis import given, settings, strategies as st

from firedet.metrics import (DetRecord, GtRecord, IOU_RANGE, average_precision,
                             map_range, pr_f1)
from firedet.rng import Rng

from oracles import ap_ref, pr_ref

# Coarse coordinate/score grids make exact ties, boundary IoUs, and duplicate
# boxes common, which is where matcher implementations usually diverge.
CENTERS = [0.2, 0.3, 0.4, 0.5, 0.6]
SIZES = [0.1, 0.2, 0.3]
IMAGES = ["a", "b"]
IOU_THRESHOLDS = (0.0, 0.5, 0.75, 1.0)


def random_case(rng):
    def box():
        cx = CENTERS[int(rng.integers(1, 0, len(CENTERS))[0])]
        cy = CENTERS[int(rng.integers(1, 0, len(CENTERS))[0])]
        w = SIZES[int(rng.integers(1, 0, len(SIZES))[0])]
        h = SIZES[int(rng.integers(1, 0, len(SIZES))[0])]
        return (cx, cy, w, h)

    n_det = int(rng.integers(1, 0, 6)[0])
    n_gt = int(rng.integers(1, 0, 4)[0])
    dets = [DetRecord(image=IMAGES[int(rng.integers(1, 0, 2)[0])],
                      class_id=int(rng.integers(1, 0, 2)[0]),
                      score=round(float(rng.uniform64(1)[0]), 1),
                      box=box()) for _ in range(n_det)]
    gts = [GtRecord(image=IMAGES[int(rng.integers(1, 0, 2)[0])],
                    class_id=int(rng.integers(1, 0, 2)[0]),
                    box=box()) for _ in range(n_gt)]
    return dets, gts


def clustered_case(rng):
    """Hundreds of detections jittered on a 0.01 grid around a few ground truths.

    Two or three images and two classes; some (image, class) groups, and in
    some cases a whole class, have detections but no ground truth.  Copies of
    ground-truth and earlier detection boxes and scores on a 0.05 grid give
    exact IoU and score ties.  Groups hold long runs of non-matches between
    matches and often run out of ground truths early.
    """
    def draw(low, high):
        return int(rng.integers(1, low, high)[0])

    images = ["a", "b", "c"][:draw(2, 4)]
    gt_classes = (0, 1) if draw(0, 2) else (0,)
    gts = [GtRecord(image=images[draw(0, len(images))],
                    class_id=gt_classes[draw(0, len(gt_classes))],
                    box=(draw(25, 76) / 100, draw(25, 76) / 100,
                         draw(10, 31) / 100, draw(10, 31) / 100))
           for _ in range(draw(2, 7))]
    dets = []
    for _ in range(draw(200, 401)):
        gt = gts[draw(0, len(gts))]
        kind = draw(0, 8)
        if kind == 0 and dets:
            box = dets[draw(0, len(dets))].box
        elif kind == 1:
            box = gt.box
        else:
            cx, cy, w, h = (round(v * 100) for v in gt.box)
            box = ((cx + draw(-6, 7)) / 100, (cy + draw(-6, 7)) / 100,
                   max(1, w + draw(-6, 7)) / 100, max(1, h + draw(-6, 7)) / 100)
        image = images[draw(0, len(images))] if draw(0, 6) == 0 else gt.image
        class_id = draw(0, 2) if draw(0, 6) == 0 else gt.class_id
        dets.append(DetRecord(image=image, class_id=class_id, score=draw(1, 21) / 20,
                              box=box))
    return dets, gts


@pytest.mark.parametrize("seed", range(4))
def test_ap_and_pr_match_reference_on_fuzz(seed):
    rng = Rng(1000 + seed)
    cases = [random_case(rng) for _ in range(300)] + [clustered_case(rng) for _ in range(2)]
    for case, (dets, gts) in enumerate(cases):
        for iou_t in IOU_THRESHOLDS:
            assert average_precision(dets, gts, iou_t) == ap_ref(dets, gts, iou_t), \
                (seed, case, iou_t, dets, gts)
            for conf_t in (0.0, 0.25, 0.55):
                assert pr_f1(dets, gts, iou_t, conf_t) == pr_ref(dets, gts, iou_t, conf_t), \
                    (seed, case, iou_t, conf_t, dets, gts)


def test_map_range_thresholds_match_reference_on_fuzz():
    # pr_iou 0.3 lies outside IOU_RANGE; conf_t 0.55 lies on the clustered
    # cases' 0.05 score grid, so that cut falls inside a run of tied scores.
    rng = Rng(77)
    for dets, gts in [random_case(rng) for _ in range(100)] \
            + [clustered_case(rng) for _ in range(2)]:
        expected_aps = {iou_t: ap_ref(dets, gts, iou_t) for iou_t in IOU_RANGE}
        expected_mean = sum(expected_aps.values()) / len(IOU_RANGE)
        for pr_iou in (0.3, 0.5, 0.75):
            for conf_t in (0.0, 0.25, 0.55):
                result = map_range(dets, gts, conf_t=conf_t, pr_iou=pr_iou)
                assert result.ap_per_threshold == expected_aps
                assert result.map50 == result.ap_per_threshold[0.5]
                assert result.map75 == result.ap_per_threshold[0.75]
                assert result.map50_95 == pytest.approx(expected_mean, rel=1e-12)
                assert (result.precision, result.recall, result.f1) \
                    == pr_ref(dets, gts, pr_iou, conf_t), (pr_iou, conf_t, dets, gts)


_BOXES = st.tuples(st.sampled_from(CENTERS), st.sampled_from(CENTERS),
                   st.sampled_from(SIZES), st.sampled_from(SIZES))
_DETS = st.lists(st.builds(DetRecord, image=st.sampled_from(IMAGES),
                           class_id=st.integers(0, 1),
                           score=st.sampled_from((0.1, 0.25, 0.5, 0.9)), box=_BOXES),
                 max_size=30)
_GTS = st.lists(st.builds(GtRecord, image=st.sampled_from(IMAGES), class_id=st.integers(0, 1),
                          box=_BOXES), max_size=8)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(dets=_DETS, gts=_GTS, iou_t=st.sampled_from(IOU_THRESHOLDS),
       conf_t=st.sampled_from((0.0, 0.25, 0.55)))
def test_ap_and_pr_match_reference_on_generated_records(dets, gts, iou_t, conf_t):
    assert average_precision(dets, gts, iou_t) == ap_ref(dets, gts, iou_t)
    assert pr_f1(dets, gts, iou_t, conf_t) == pr_ref(dets, gts, iou_t, conf_t)
    result = map_range(dets, gts, conf_t=conf_t, pr_iou=iou_t)
    assert result.ap_per_threshold == {t: ap_ref(dets, gts, t) for t in IOU_RANGE}
    assert (result.precision, result.recall, result.f1) == pr_ref(dets, gts, iou_t, conf_t)


def test_perfect_single_detection():
    dets = [DetRecord("a", 0, 0.9, (0.5, 0.5, 0.2, 0.2))]
    gts = [GtRecord("a", 0, (0.5, 0.5, 0.2, 0.2))]
    assert pr_f1(dets, gts, 0.5, 0.25) == (1.0, 1.0, 1.0)
    assert average_precision(dets, gts, 0.5) == 1.0
    assert map_range(dets, gts).map50_95 == 1.0


def test_duplicate_detection_counts_as_false_positive():
    box = (0.5, 0.5, 0.2, 0.2)
    dets = [DetRecord("a", 0, 0.9, box), DetRecord("a", 0, 0.8, box)]
    gts = [GtRecord("a", 0, box)]
    p, r, f1 = pr_f1(dets, gts, 0.5, 0.25)
    assert (p, r) == (0.5, 1.0)
    assert f1 == pytest.approx(2 / 3)


def test_matching_requires_same_image_and_class():
    box = (0.5, 0.5, 0.2, 0.2)
    gts = [GtRecord("a", 0, box)]
    assert pr_f1([DetRecord("b", 0, 0.9, box)], gts, 0.5, 0.0) == (0.0, 0.0, 0.0)
    assert pr_f1([DetRecord("a", 1, 0.9, box)], gts, 0.5, 0.0) == (0.0, 0.0, 0.0)


def test_iou_tie_goes_to_the_lowest_ground_truth_index():
    # The first detection overlaps both ground truths with IoU exactly 1/3
    # (dyadic coordinates).  It claims the first one, so the second detection,
    # a copy of that ground truth, is left without a match.
    gts = [GtRecord("a", 0, (0.375, 0.5, 0.25, 0.25)), GtRecord("a", 0, (0.625, 0.5, 0.25, 0.25))]
    dets = [DetRecord("a", 0, 0.9, (0.5, 0.5, 0.25, 0.25)),
            DetRecord("a", 0, 0.8, (0.375, 0.5, 0.25, 0.25))]
    assert pr_f1(dets, gts, 0.3, 0.0) == pr_ref(dets, gts, 0.3, 0.0) == (0.5, 0.5, 0.5)


def test_map_averages_over_ground_truth_classes():
    box = (0.5, 0.5, 0.2, 0.2)
    dets = [DetRecord("a", 0, 0.9, box)]  # class 0 perfect, class 1 missed
    gts = [GtRecord("a", 0, box), GtRecord("a", 1, (0.9, 0.9, 0.1, 0.1))]
    assert average_precision(dets, gts, 0.5) == 0.5


def test_empty_inputs_and_zero_gt_warning():
    dets = [DetRecord("a", 0, 0.9, (0.5, 0.5, 0.2, 0.2))]
    assert pr_f1([], [], 0.5, 0.25) == (0.0, 0.0, 0.0)
    assert average_precision(dets, [], 0.5) == 0.0
    assert map_range(dets, []).zero_gt_warning is True
    assert map_range(dets, [GtRecord("a", 0, (0.5, 0.5, 0.2, 0.2))]) \
        .zero_gt_warning is False

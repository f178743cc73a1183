"""Loss identities, metric conventions, heatmap export format."""

import math

import numpy as np
import pytest

from lungseg3d import autograd as ag
from lungseg3d.autograd import Var
from lungseg3d.losses import (bce_loss, bce_term, combined_loss,
                              combined_term, dice_loss, dice_term,
                              export_heatmap, seg_metrics)


def _shape5(*vals):
    a = np.asarray(vals, dtype=np.float64)
    return a.reshape(1, 1, 1, 1, -1)


# ---------------------------------------------------------------------------
# scalar losses
# ---------------------------------------------------------------------------

def test_bce_of_half_is_ln2():
    rng = np.random.default_rng(0)
    mask = (rng.random((1, 1, 4, 4, 4)) > 0.5).astype(np.float64)
    p = np.full((1, 1, 4, 4, 4), 0.5)
    # -[m ln 0.5 + (1-m) ln 0.5] = ln 2 regardless of the mask
    assert abs(bce_loss(p, mask) - math.log(2.0)) <= 1e-9


def test_bce_finite_at_saturated_probabilities():
    mask = _shape5(1.0, 0.0, 1.0, 0.0)
    p = _shape5(0.0, 1.0, 1.0, 0.0)
    v = bce_loss(p, mask)
    assert np.isfinite(v)
    # two perfectly wrong voxels clamped at 1e-7, two perfectly right
    want = (2 * -math.log(1e-7) + 2 * -math.log1p(-1e-7)) / 4.0
    assert abs(v - want) <= 1e-6 * want


def test_bce_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        bce_loss(np.zeros((1, 1, 2, 2, 2)), np.zeros((1, 1, 2, 2, 3)))


def test_dice_loss_is_one_minus_dice_score_for_binary():
    rng = np.random.default_rng(1)
    for i in range(5):
        pred = (rng.random((1, 1, 6, 6, 6)) > 0.6).astype(np.float64)
        mask = (rng.random((1, 1, 6, 6, 6)) > 0.6).astype(np.float64)
        if not pred.any() or not mask.any():
            continue
        score = seg_metrics(pred, mask).dice_score
        assert abs(dice_loss(pred, mask) - (1.0 - score)) <= 1e-5


def test_dice_loss_perfect_and_empty_conventions():
    mask = _shape5(1.0, 1.0, 0.0, 0.0)
    assert dice_loss(mask, mask) <= 1e-6          # smoothing only
    zeros = np.zeros_like(mask)
    assert dice_loss(zeros, zeros) == 1.0          # 0/(0+smooth) convention
    assert dice_loss(zeros, mask) == pytest.approx(1.0, abs=1e-5)


def test_combined_total_is_exact_sum():
    rng = np.random.default_rng(2)
    p = rng.random((1, 1, 4, 4, 4))
    mask = (rng.random((1, 1, 4, 4, 4)) > 0.5).astype(np.float64)
    lv = combined_loss(p, mask)
    assert lv.total == lv.bce + lv.dice  # exact float identity


# ---------------------------------------------------------------------------
# tape terms
# ---------------------------------------------------------------------------

def test_tape_terms_match_scalar_api():
    rng = np.random.default_rng(3)
    p = rng.random((1, 1, 3, 3, 3))
    mask = (rng.random((1, 1, 3, 3, 3)) > 0.5).astype(np.float64)
    assert float(bce_term(Var(p), mask).data) == pytest.approx(
        bce_loss(p, mask), abs=1e-12)
    assert float(dice_term(Var(p), mask).data) == pytest.approx(
        dice_loss(p, mask), abs=1e-12)
    both = combined_term(Var(p), mask)
    assert float(both.data) == pytest.approx(combined_loss(p, mask).total,
                                             abs=1e-12)


def _fd_scalar(fn, p, tol=1e-6):
    v = Var(p.copy())
    out = fn(v)
    ag.run_backward(out)
    h = 1e-7
    flat = v.data.reshape(-1)
    gflat = v.grad.reshape(-1)
    for idx in range(0, flat.size, max(1, flat.size // 9)):
        orig = flat[idx]
        flat[idx] = orig + h
        up = float(fn(Var(v.data)).data)
        flat[idx] = orig - h
        dn = float(fn(Var(v.data)).data)
        flat[idx] = orig
        num = (up - dn) / (2 * h)
        assert abs(num - gflat[idx]) <= tol * max(1.0, abs(num))


def test_loss_term_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    p = 0.1 + 0.8 * rng.random((1, 1, 3, 3, 3))  # interior of the clamp
    mask = (rng.random((1, 1, 3, 3, 3)) > 0.5).astype(np.float64)
    _fd_scalar(lambda v: bce_term(v, mask), p)
    _fd_scalar(lambda v: dice_term(v, mask), p)
    _fd_scalar(lambda v: combined_term(v, mask), p)


def test_bce_gradient_vanishes_outside_clamp():
    mask = _shape5(1.0, 0.0)
    p = _shape5(1.0 - 1e-9, 0.3)  # first voxel beyond the clamp edge
    v = Var(p)
    ag.run_backward(bce_term(v, mask))
    assert v.grad[0, 0, 0, 0, 0] == 0.0
    assert v.grad[0, 0, 0, 0, 1] != 0.0


# ---------------------------------------------------------------------------
# seg_metrics
# ---------------------------------------------------------------------------

def test_seg_metrics_hand_counted_example():
    pred = _shape5(1, 1, 1, 0, 0, 0)
    mask = _shape5(1, 1, 0, 1, 0, 0)
    m = seg_metrics(pred, mask)
    # tp=2 fp=1 fn=1
    assert m.dice_score == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))
    assert m.iou == pytest.approx(2 / 4)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.as_dict() == {"dice": m.dice_score, "iou": m.iou,
                           "precision": m.precision, "recall": m.recall}


def test_seg_metrics_empty_conventions():
    zeros = np.zeros((1, 1, 2, 2, 2))
    full = np.ones((1, 1, 2, 2, 2))
    both_empty = seg_metrics(zeros, zeros)
    assert (both_empty.dice_score, both_empty.iou) == (1.0, 1.0)
    one_sided = seg_metrics(zeros, full)
    assert one_sided.dice_score == 0.0
    assert one_sided.precision == 0.0 and one_sided.recall == 0.0


def test_seg_metrics_rejects_non_binary():
    with pytest.raises(ValueError):
        seg_metrics(np.full((1, 1, 1, 1, 2), 0.5), np.zeros((1, 1, 1, 1, 2)))


# ---------------------------------------------------------------------------
# heatmap export
# ---------------------------------------------------------------------------

def test_heatmap_grayscale_pgm_bytes(tmp_path):
    p = np.zeros((1, 1, 2, 2, 3))
    p[0, 0, 1] = [[0.0, 0.5, 1.0], [0.25, 0.75, 0.999]]
    path = tmp_path / "slice.pgm"
    export_heatmap(p, 1, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 2\n255\n")
    pix = np.frombuffer(raw[len(b"P5\n3 2\n255\n"):], dtype=np.uint8)
    want = np.floor(255.0 * p[0, 0, 1].reshape(-1) + 0.5).astype(np.uint8)
    assert np.array_equal(pix, want)


def test_heatmap_color_ppm_endpoints(tmp_path):
    p = np.zeros((1, 1, 1, 1, 3))
    p[0, 0, 0, 0] = [0.0, 0.5, 1.0]
    path = tmp_path / "slice.ppm"
    export_heatmap(p, 0, path, color=True)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n3 1\n255\n")
    pix = np.frombuffer(raw[len(b"P6\n3 1\n255\n"):],
                        dtype=np.uint8).reshape(3, 3)
    assert np.array_equal(pix[0], [0, 0, 255])     # p=0 -> blue
    assert np.array_equal(pix[2], [255, 0, 0])     # p=1 -> red
    assert pix[1, 1] > 200                          # midpoint -> green-heavy


def test_heatmap_rejects_bad_slice_and_rank(tmp_path):
    p = np.zeros((1, 1, 2, 2, 2))
    with pytest.raises(ValueError):
        export_heatmap(p, 2, tmp_path / "x.pgm")
    with pytest.raises(ValueError):
        export_heatmap(p, -1, tmp_path / "x.pgm")
    with pytest.raises(ValueError):
        export_heatmap(np.zeros((2, 2, 2)), 0, tmp_path / "x.pgm")

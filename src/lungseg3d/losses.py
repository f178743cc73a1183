"""Training objective, evaluation metrics, and probability heatmap export.

The objective is voxel-mean binary cross-entropy plus soft Dice loss; both
come with hand-derived gradients registered on the autograd tape. Metrics
operate on binary masks with exact integer counting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Var, from_op, no_grad
from .tensor import Tensor5

CLAMP_EPS = 1e-7
DICE_SMOOTH = 1e-6


@dataclass
class LossValue:
    bce: float
    dice: float
    total: float


@dataclass
class SegMetrics:
    dice_score: float
    iou: float
    precision: float
    recall: float

    def as_dict(self):
        return {"dice": self.dice_score, "iou": self.iou,
                "precision": self.precision, "recall": self.recall}


def _unwrap(x) -> np.ndarray:
    """The ndarray of a Var, a Tensor5 (a predicted or sample mask) or an
    array."""
    return x.data if isinstance(x, (Var, Tensor5)) else np.asarray(x)


def _check_shapes(p, m):
    if p.shape != m.shape:
        raise ValueError(f"prediction shape {p.shape} != mask shape {m.shape}")


# ---------------------------------------------------------------------------
# Tape terms (used in training)
# ---------------------------------------------------------------------------

def bce_term(p: Var, mask) -> Var:
    """Mean binary cross-entropy with probabilities clamped away from {0,1}."""
    m = _unwrap(mask)
    pd = p.data
    _check_shapes(pd, m)
    pc = np.clip(pd, CLAMP_EPS, 1.0 - CLAMP_EPS)
    val = -(m * np.log(pc) + (1.0 - m) * np.log1p(-pc)).mean()

    def bw(g):
        # The clamp makes the loss constant in p outside (eps, 1-eps).
        interior = (pd > CLAMP_EPS) & (pd < 1.0 - CLAMP_EPS)
        gp = (-(m / pc) + (1.0 - m) / (1.0 - pc)) / pd.size
        return g * gp * interior

    return from_op(np.asarray(val), (p,), bw)


def dice_term(p: Var, mask) -> Var:
    """Soft Dice loss with squared-sum denominator and smoothing."""
    m = _unwrap(mask)
    pd = p.data
    _check_shapes(pd, m)
    num = 2.0 * float((m * pd).sum())
    den = float((m * m).sum() + (pd * pd).sum()) + DICE_SMOOTH
    val = 1.0 - num / den

    def bw(g):
        gp = -2.0 * m / den + 2.0 * num * pd / (den * den)
        return g * gp.astype(pd.dtype)

    return from_op(np.asarray(val, dtype=pd.dtype), (p,), bw)


def combined_term(p: Var, mask) -> Var:
    """Sum of the two loss terms as a single tape scalar."""
    b = bce_term(p, mask)
    d = dice_term(p, mask)
    return from_op(b.data + d.data, (b, d), lambda g: (g, g))


# ---------------------------------------------------------------------------
# Plain scalar API (evaluation, logging)
# ---------------------------------------------------------------------------

def _scalar(term, p, mask) -> float:
    """Value of a tape term on f64 copies of its inputs, recording nothing."""
    with no_grad():
        return float(term(Var(_unwrap(p).astype(np.float64)),
                          _unwrap(mask).astype(np.float64)).data)


def bce_loss(p, mask) -> float:
    return _scalar(bce_term, p, mask)


def dice_loss(p, mask) -> float:
    return _scalar(dice_term, p, mask)


def combined_loss(p, mask) -> LossValue:
    b = bce_loss(p, mask)
    d = dice_loss(p, mask)
    return LossValue(bce=b, dice=d, total=b + d)


def seg_metrics(pred, mask) -> SegMetrics:
    """Voxelwise overlap metrics for binary volumes.

    Conventions: two empty masks agree perfectly (all metrics 1); a ratio
    whose denominator is empty on exactly one side reports 0.
    """
    pd = _unwrap(pred).astype(np.float64)
    m = _unwrap(mask).astype(np.float64)
    _check_shapes(pd, m)
    for name, a in (("pred", pd), ("mask", m)):
        if not np.isin(a, (0.0, 1.0)).all():
            raise ValueError(f"{name} is not binary")
    tp = float((pd * m).sum())
    fp = float((pd * (1.0 - m)).sum())
    fn = float(((1.0 - pd) * m).sum())
    if tp == 0.0 and fp == 0.0 and fn == 0.0:
        return SegMetrics(1.0, 1.0, 1.0, 1.0)
    dice = 2.0 * tp / (2.0 * tp + fp + fn)
    iou = tp / (tp + fp + fn)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return SegMetrics(dice, iou, precision, recall)


# ---------------------------------------------------------------------------
# Heatmap export
# ---------------------------------------------------------------------------

def _slice_to_bytes(p_slice: np.ndarray) -> np.ndarray:
    v = np.floor(255.0 * p_slice + 0.5)
    return np.clip(v, 0, 255).astype(np.uint8)


def _blue_red(v: np.ndarray):
    """Map 8-bit intensity to a blue -> red ramp through green."""
    p = v.astype(np.float64) / 255.0
    r = v
    g = np.floor(255.0 * (1.0 - np.abs(2.0 * p - 1.0)) + 0.5).astype(np.uint8)
    b = (255 - v).astype(np.uint8)
    return r, g, b


def export_heatmap(p, slice_index: int, path, color: bool = False) -> None:
    """Write one axial slice of a probability volume as a PGM (grayscale)
    or PPM (blue->red) binary image, pixel = round(255 * probability)."""
    arr = _unwrap(p)
    if arr.ndim != 5:
        raise ValueError(f"expected a rank-5 volume, got rank {arr.ndim}")
    depth = arr.shape[2]
    if not 0 <= slice_index < depth:
        raise ValueError(f"slice index {slice_index} outside [0, {depth})")
    sl = arr[0, 0, slice_index]
    v = _slice_to_bytes(sl)
    h, w = v.shape
    path = str(path)
    if color:
        r, g, b = _blue_red(v)
        pix = np.stack([r, g, b], axis=-1)
        with open(path, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            fh.write(pix.tobytes())
    else:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(v.tobytes())

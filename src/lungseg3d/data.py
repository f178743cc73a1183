"""Volume ingestion, preprocessing, synthetic phantoms, and dataset splits.

MetaImage volumes (.mhd ASCII header + little-endian .raw buffer) are read
into (1, 1, D, H, W) tensors; the header's DimSize is ordered W H D. A
header that asks for compressed data, a skipped header block, a list of
data files or a non-identity orientation is refused rather than misread. The
preprocessing chain mirrors a standard lung-CT setup: median-centered slice
crop, in-plane resize, intensity windowing, and fixed-size nodule blocks.
Phantoms provide deterministic desk-scale stand-ins with masks known in
closed form.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .tensor import (INTEGER, Tensor5, load_array, read_json, read_raw,
                     save_array, write_json)

MET_TYPES = {
    "MET_SHORT": np.dtype("<i2"),
    "MET_FLOAT": np.dtype("<f4"),
    "MET_UCHAR": np.dtype("u1"),
}

HU_WINDOW = (-1000.0, 400.0)
HALF_EXTENT = 11  # a lung sample keeps 2 * 11 + 1 = 23 slices


@dataclass
class Sample:
    """One image/mask pair plus physical metadata."""

    image: Tensor5
    mask: Tensor5
    spacing: tuple = (1.0, 1.0, 1.0)
    origin: tuple = (0.0, 0.0, 0.0)
    id: str = ""

    def __post_init__(self):
        if self.image.shape != self.mask.shape:
            raise ValueError(f"image shape {self.image.shape} != mask shape "
                             f"{self.mask.shape}")
        if not np.isin(self.mask.data, (0.0, 1.0)).all():
            raise ValueError("mask is not binary")


@dataclass
class SplitManifest:
    train: list
    val: list
    test: list
    seed: int


# ---------------------------------------------------------------------------
# MetaImage
# ---------------------------------------------------------------------------

@dataclass
class MhdMeta:
    spacing: tuple
    origin: tuple
    element_type: str


def _is_identity(matrix: str) -> bool:
    try:
        return [float(v) for v in matrix.split()] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    except ValueError:
        return False


def _xyz_fault(vals, positive: bool):
    """What `vals` must be as a volume's spacing (positive) or origin, the
    rule of MetaImage headers and sample metas; None if they are that."""
    if not isinstance(vals, (list, tuple)) or len(vals) != 3 or any(
            type(v) not in (int, float) for v in vals):
        return "3 numbers"
    if not all((0 if positive else -np.inf) < v < np.inf for v in vals):
        return "finite and > 0" if positive else "finite"
    return None


def _three_numbers(fields: dict, key: str, default: str,
                   positive: bool = False) -> tuple:
    try:
        vals = tuple(float(v) for v in fields.get(key, default).split())
    except ValueError:
        vals = ()
    if fault := _xyz_fault(vals, positive):
        raise ValueError(f"{key} = {fields[key]} must be {fault}")
    return vals


def _three_sizes(fields: dict, key: str) -> tuple:
    try:
        vals = tuple(int(v) for v in fields[key].split())
    except ValueError:
        vals = ()
    if len(vals) != 3 or min(vals) < 1:
        raise ValueError(f"{key} = {fields[key]} must be 3 positive ints")
    return vals


def load_mhd(header_path):
    """Read a MetaImage volume; returns ((1,1,D,H,W) Tensor5, MhdMeta)."""
    header_path = str(header_path)
    fields = {}
    with open(header_path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed header line: {line!r}")
            key, val = line.split("=", 1)
            fields[key.strip()] = val.strip()

    for req in ("NDims", "DimSize", "ElementType", "ElementDataFile"):
        if req not in fields:
            raise ValueError(f"header missing required key {req}")
    if fields["NDims"] != "3":
        raise ValueError(f"only 3D volumes supported, NDims = {fields['NDims']}")
    w, h, d = _three_sizes(fields, "DimSize")
    etype = fields["ElementType"]
    if etype not in MET_TYPES:
        raise ValueError(f"unsupported ElementType {etype}")
    if fields.get("ElementByteOrderMSB", "False") == "True" or \
            fields.get("BinaryDataByteOrderMSB", "False") == "True":
        raise ValueError("big-endian buffers not supported")
    # keys that change where or how the voxels are stored, or where they lie
    if fields.get("CompressedData", "False") != "False":
        raise ValueError(f"CompressedData = {fields['CompressedData']} not "
                         f"supported")
    if fields.get("HeaderSize", "0") != "0":
        raise ValueError(f"HeaderSize = {fields['HeaderSize']} not supported")
    if fields["ElementDataFile"] in ("LIST", "LOCAL"):
        raise ValueError(f"ElementDataFile = {fields['ElementDataFile']} not "
                         f"supported")
    if not _is_identity(fields.get("TransformMatrix", "1 0 0 0 1 0 0 0 1")):
        raise ValueError(f"TransformMatrix = {fields['TransformMatrix']} is "
                         f"not the identity")
    spacing = _three_numbers(fields, "ElementSpacing", "1 1 1", positive=True)
    origin = _three_numbers(fields, "Offset", "0 0 0")

    raw_path = os.path.join(os.path.dirname(header_path),
                            fields["ElementDataFile"])
    vol = read_raw(raw_path, MET_TYPES[etype], (d, h, w)).astype(np.float32)
    meta = MhdMeta(spacing=spacing, origin=origin, element_type=etype)
    return Tensor5(vol[None, None]), meta


def write_mhd(header_path, arr: np.ndarray, spacing=(1.0, 1.0, 1.0),
              origin=(0.0, 0.0, 0.0), element_type: str = "MET_FLOAT"):
    """Write a (1,1,D,H,W) array as .mhd header plus .raw buffer."""
    if element_type not in MET_TYPES:
        raise ValueError(f"unsupported ElementType {element_type}")
    if arr.ndim != 5 or arr.shape[0] != 1 or arr.shape[1] != 1:
        raise ValueError(f"expected shape (1,1,D,H,W), got {arr.shape}")
    d, h, w = arr.shape[2:]
    header_path = str(header_path)
    raw_name = os.path.basename(header_path).removesuffix(".mhd") + ".raw"
    raw_path = os.path.join(os.path.dirname(header_path), raw_name)

    arr[0, 0].astype(MET_TYPES[element_type]).tofile(raw_path)
    lines = [
        "ObjectType = Image",
        "NDims = 3",
        "BinaryData = True",
        "BinaryDataByteOrderMSB = False",
        f"DimSize = {w} {h} {d}",
        f"ElementSpacing = {spacing[0]} {spacing[1]} {spacing[2]}",
        f"Offset = {origin[0]} {origin[1]} {origin[2]}",
        f"ElementType = {element_type}",
        f"ElementDataFile = {raw_name}",
    ]
    with open(header_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def _half_pixel_coords(n_in: int, n_out: int) -> np.ndarray:
    return (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5


def resize_inplane(arr: np.ndarray, target, kind: str = "linear"):
    """Resize each axial slice to target (H', W').

    Images use bilinear interpolation with half-pixel centers; masks use
    nearest neighbor so values stay binary.
    """
    th, tw = int(target[0]), int(target[1])
    if th < 1 or tw < 1:
        raise ValueError(f"resize target {(th, tw)} must be positive")
    B, C, D, H, W = arr.shape
    if min(B, C, D, H, W) < 1:
        raise ValueError("cannot resize an empty volume")

    if kind == "nearest":
        ys = np.minimum(((np.arange(th) + 0.5) * (H / th)).astype(np.int64), H - 1)
        xs = np.minimum(((np.arange(tw) + 0.5) * (W / tw)).astype(np.int64), W - 1)
        out = arr[:, :, :, ys[:, None], xs[None, :]]
    elif kind == "linear":
        yc = np.clip(_half_pixel_coords(H, th), 0, H - 1)
        xc = np.clip(_half_pixel_coords(W, tw), 0, W - 1)
        y0 = np.floor(yc).astype(np.int64)
        x0 = np.floor(xc).astype(np.int64)
        y1 = np.minimum(y0 + 1, H - 1)
        x1 = np.minimum(x0 + 1, W - 1)
        wy = (yc - y0).astype(arr.dtype)
        wx = (xc - x0).astype(arr.dtype)
        wy = wy[:, None]
        wx = wx[None, :]
        v00 = arr[:, :, :, y0[:, None], x0[None, :]]
        v01 = arr[:, :, :, y0[:, None], x1[None, :]]
        v10 = arr[:, :, :, y1[:, None], x0[None, :]]
        v11 = arr[:, :, :, y1[:, None], x1[None, :]]
        out = ((1 - wy) * (1 - wx) * v00 + (1 - wy) * wx * v01
               + wy * (1 - wx) * v10 + wy * wx * v11)
    else:
        raise ValueError(f"unknown resize kind {kind!r}")
    return np.ascontiguousarray(out)


def crop_about_median(arr: np.ndarray):
    """Keep HALF_EXTENT slices on each side of the median slice."""
    D = arr.shape[2]
    need = 2 * HALF_EXTENT + 1
    if D < need:
        raise ValueError(f"volume has {D} slices, need at least {need}")
    med = (D - 1) // 2
    lo = med - HALF_EXTENT
    return np.ascontiguousarray(arr[:, :, lo: med + HALF_EXTENT + 1])


def crop_nodule_block(arr: np.ndarray, center_voxel, size: int = 64):
    """Fixed-size block centered on a voxel, zero-padded at volume edges.

    The source center voxel lands at block index size//2 on each axis.
    """
    if size < 1:
        raise ValueError(f"block size {size} must be positive")
    B, C, D, H, W = arr.shape
    cd, ch, cw = (int(c) for c in center_voxel)
    out = np.zeros((B, C, size, size, size), dtype=arr.dtype)
    src = []
    dst = []
    for c, n in ((cd, D), (ch, H), (cw, W)):
        lo = c - size // 2
        hi = lo + size
        s_lo, s_hi = max(lo, 0), min(hi, n)
        if s_lo >= s_hi:
            raise ValueError(f"center {center_voxel} places the block outside "
                             f"the volume")
        src.append((s_lo, s_hi))
        dst.append((s_lo - lo, s_hi - lo))
    out[:, :, dst[0][0]:dst[0][1], dst[1][0]:dst[1][1], dst[2][0]:dst[2][1]] = \
        arr[:, :, src[0][0]:src[0][1], src[1][0]:src[1][1], src[2][0]:src[2][1]]
    return out


def window_intensity(arr: np.ndarray):
    """Clip to HU_WINDOW = [lo, hi] and rescale linearly to [0, 1]."""
    lo, hi = HU_WINDOW
    return (np.clip(arr, lo, hi) - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# Phantoms
# ---------------------------------------------------------------------------

_BACKGROUND = 0.1
_FOREGROUND = 0.9
_NOISE_STD = 0.05


def _coord_grids(dims):
    return np.meshgrid(*(np.arange(n) for n in dims), indexing="ij")


def _draw_sphere(rng, dims):
    radius = int(rng.integers(3, 9))
    lo = radius + 1
    if any(n - radius - 1 <= lo for n in dims):
        raise ValueError(f"dims {dims} too small for a radius-{radius} sphere")
    center = tuple(int(rng.integers(lo, n - radius - 1)) for n in dims)
    return center, radius


def phantom_sphere_geometry(dims, seed: int):
    """(center, radius) that make_phantom('nodule', dims, seed) will use."""
    if isinstance(dims, (int, np.integer)):
        dims = (int(dims),) * 3
    rng = np.random.default_rng([int(seed), 0x9A17, 0])
    return _draw_sphere(rng, tuple(int(v) for v in dims))


def make_phantom(kind: str, dims, seed: int) -> Sample:
    """Deterministic synthetic sample with an exactly-known mask.

    nodule-like: one sphere, radius drawn from 3..8 voxels, placed so it fits
    entirely inside the volume. lung-like: two disjoint ellipsoids side by
    side. Both ride on a noisy low-intensity background.
    """
    if isinstance(dims, (int, np.integer)):
        dims = (int(dims),) * 3
    dims = tuple(int(v) for v in dims)
    if len(dims) != 3:
        raise ValueError(f"dims must be 3 ints, got {dims}")
    rng = np.random.default_rng([int(seed), 0x9A17, 0 if kind == "nodule" else 1])

    zz, yy, xx = _coord_grids(dims)
    if kind == "nodule":
        center, radius = _draw_sphere(rng, dims)
        dist2 = ((zz - center[0]) ** 2 + (yy - center[1]) ** 2
                 + (xx - center[2]) ** 2)
        mask = (dist2 <= radius * radius).astype(np.float32)
    elif kind == "lung":
        if min(dims) < 8:
            raise ValueError(f"dims {dims} too small for two ellipsoids")
        d, h, w = dims
        mask = np.zeros(dims, dtype=np.float32)
        for cx in (0.28, 0.72):
            jitter = rng.uniform(-0.03, 0.03, size=3)
            cz, cy, cxx = ((0.5 + jitter[0]) * d, (0.5 + jitter[1]) * h,
                           (cx + jitter[2]) * w)
            az, ay, ax = 0.32 * d, 0.30 * h, 0.18 * w
            inside = (((zz - cz) / az) ** 2 + ((yy - cy) / ay) ** 2
                      + ((xx - cxx) / ax) ** 2) <= 1.0
            mask[inside] = 1.0
    else:
        raise ValueError(f"unknown phantom kind {kind!r}")

    noise = rng.normal(0.0, _NOISE_STD, size=dims).astype(np.float32)
    image = _BACKGROUND + (_FOREGROUND - _BACKGROUND) * mask + noise
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return Sample(image=Tensor5(image[None, None]),
                  mask=Tensor5(mask[None, None]),
                  id=f"{kind}-{int(seed):04d}")


# ---------------------------------------------------------------------------
# Sample storage
# ---------------------------------------------------------------------------

def _sample_base(sample_dir, sample_id: str) -> str:
    """The path of sample `sample_id`'s files in `sample_dir`, less their
    suffix; an id that could name a path outside it is refused."""
    if sample_id in ("", ".", "..") or os.path.dirname(sample_id):
        raise ValueError(f"sample id {sample_id!r} is not a file name")
    return os.path.join(str(sample_dir), sample_id)


def save_sample(sample: Sample, out_dir) -> None:
    base = _sample_base(out_dir, sample.id)
    os.makedirs(out_dir, exist_ok=True)
    save_array(sample.image.data, base + ".image")
    save_array(sample.mask.data, base + ".mask")
    write_json(base + ".meta.json", {"spacing": list(sample.spacing),
                                     "origin": list(sample.origin)})


def load_sample(sample_dir, sample_id: str) -> Sample:
    base = _sample_base(sample_dir, sample_id)
    meta = read_json(base + ".meta.json", "sample meta", {
        "spacing": (lambda v: not _xyz_fault(v, True), "3 finite numbers > 0"),
        "origin": (lambda v: not _xyz_fault(v, False), "3 finite numbers")})
    image = Tensor5(load_array(base + ".image"))
    mask = Tensor5(load_array(base + ".mask"))
    return Sample(image=image, mask=mask, spacing=tuple(meta["spacing"]),
                  origin=tuple(meta["origin"]), id=sample_id)


def list_sample_ids(sample_dir) -> list:
    ids = []
    for name in sorted(os.listdir(sample_dir)):
        if name.endswith(".meta.json"):
            ids.append(name[: -len(".meta.json")])
    return ids


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def _reject_repeats(ids, where: str) -> None:
    """Raise ValueError naming the first id that `ids` holds twice."""
    seen = set()
    for sid in ids:
        if sid in seen:
            raise ValueError(f"{where} names sample {sid!r} twice")
        seen.add(sid)


def split_dataset(ids, seed: int) -> SplitManifest:
    """Shuffle deterministically, then cut 60/20/20 with floor rule; the
    remainder after flooring the val/test shares goes to train."""
    ids = list(ids)
    if not ids:
        raise ValueError("cannot split an empty id list")
    _reject_repeats(ids, "the id list")
    rng = np.random.default_rng([int(seed), 0x5B17])
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n = len(ids)
    n_val = n_test = int(n * 0.2)
    n_train = n - n_val - n_test
    return SplitManifest(train=shuffled[:n_train],
                         val=shuffled[n_train: n_train + n_val],
                         test=shuffled[n_train + n_val:],
                         seed=int(seed))


def save_manifest(manifest: SplitManifest, path) -> None:
    payload = {"train": manifest.train, "val": manifest.val,
               "test": manifest.test, "seed": manifest.seed}
    write_json(path, payload, indent=1)


def load_manifest(path) -> SplitManifest:
    ids = (lambda v: isinstance(v, list) and all(
        isinstance(i, str) for i in v), "a list of strings")
    payload = read_json(str(path), "split manifest", {
        "train": ids, "val": ids, "test": ids, "seed": INTEGER})
    _reject_repeats(payload["train"] + payload["val"] + payload["test"],
                    f"split manifest {path}")
    return SplitManifest(train=payload["train"], val=payload["val"],
                         test=payload["test"], seed=payload["seed"])


# ---------------------------------------------------------------------------
# End-to-end preprocessing chains
# ---------------------------------------------------------------------------

def _preprocess_pair(image_mhd, mask_mhd, out_dir, sample_id: str,
                     crop) -> Sample:
    """Load a MetaImage pair, cut both volumes with crop(image, mask) ->
    (img, msk), binarize the mask (`> 0` commutes with every crop, so no
    full-volume copy is made), window the image, save the sample."""
    image, meta = load_mhd(image_mhd)
    image, mask = image.data, load_mhd(mask_mhd)[0].data
    if image.shape != mask.shape:
        raise ValueError(f"image shape {image.shape} != mask shape {mask.shape}")
    img, msk = crop(image, mask)
    img = window_intensity(img).astype(np.float32)
    msk = (msk > 0).astype(np.float32)
    sample = Sample(image=Tensor5(img), mask=Tensor5(msk),
                    spacing=meta.spacing, origin=meta.origin, id=sample_id)
    save_sample(sample, out_dir)
    return sample


def preprocess_lung(image_mhd, mask_mhd, out_dir, sample_id: str,
                    target=(300, 300)) -> Sample:
    """MetaImage pair -> median-cropped, resized, windowed sample. The
    resize treats each slice on its own, so cropping first keeps its bytes."""
    def crop(image, mask):
        return (resize_inplane(crop_about_median(image), target, "linear"),
                resize_inplane(crop_about_median(mask), target, "nearest"))

    return _preprocess_pair(image_mhd, mask_mhd, out_dir, sample_id, crop)


def mask_centroid(mask: np.ndarray) -> tuple:
    """Rounded centroid (d, h, w) of the foreground voxels. Per axis, the
    sum of index * count is an exact integer below 2**53, so dividing it by
    n gives the mean of the voxel indices bit for bit, with no index array."""
    fg = mask[0, 0] > 0
    n = int(np.count_nonzero(fg))
    if n == 0:
        raise ValueError("mask has no foreground voxels")
    counts = (fg.sum(axis=(1, 2)), fg.sum(axis=(0, 2)), fg.sum(axis=(0, 1)))
    return tuple(int(round(float(np.arange(c.size) @ c) / n)) for c in counts)


def preprocess_nodule(image_mhd, mask_mhd, out_dir, sample_id: str,
                      center=None, size: int = 64) -> Sample:
    """MetaImage pair -> windowed fixed-size block around the nodule."""
    def crop(image, mask):
        at = mask_centroid(mask) if center is None else center
        return (crop_nodule_block(image, at, size),
                crop_nodule_block(mask, at, size))

    return _preprocess_pair(image_mhd, mask_mhd, out_dir, sample_id, crop)

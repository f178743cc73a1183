"""Data pipeline: MetaImage IO, preprocessing, phantoms, splits, storage."""

import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lungseg3d.data import (HU_WINDOW, MhdMeta, Sample, SplitManifest,
                            crop_about_median, crop_nodule_block,
                            list_sample_ids, load_manifest, load_mhd,
                            load_sample, make_phantom, mask_centroid,
                            phantom_sphere_geometry, preprocess_lung,
                            preprocess_nodule, resize_inplane, save_manifest,
                            save_sample, split_dataset, window_intensity,
                            write_mhd)
from lungseg3d.networks import NetworkConfig, build_network, predict_volume
from lungseg3d.tensor import Tensor5


# ---------------------------------------------------------------------------
# MetaImage
# ---------------------------------------------------------------------------

def test_mhd_round_trip_short_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vol = rng.integers(-1000, 400, size=(1, 1, 5, 6, 7)).astype(np.float32)
    path = tmp_path / "ct.mhd"
    write_mhd(path, vol, spacing=(0.7, 0.7, 1.25), origin=(-100.0, -100.0, 50.0),
              element_type="MET_SHORT")
    back, meta = load_mhd(path)
    assert np.array_equal(back.data, vol)
    assert meta.spacing == (0.7, 0.7, 1.25)
    assert meta.origin == (-100.0, -100.0, 50.0)
    assert meta.element_type == "MET_SHORT"


def test_mhd_round_trip_float_and_uchar(tmp_path):
    rng = np.random.default_rng(1)
    volf = rng.standard_normal((1, 1, 3, 4, 5)).astype(np.float32)
    write_mhd(tmp_path / "f.mhd", volf, element_type="MET_FLOAT")
    backf, metaf = load_mhd(tmp_path / "f.mhd")
    assert np.array_equal(backf.data, volf)
    assert metaf.element_type == "MET_FLOAT"

    volu = rng.integers(0, 2, size=(1, 1, 3, 4, 5)).astype(np.float32)
    write_mhd(tmp_path / "u.mhd", volu, element_type="MET_UCHAR")
    backu, _ = load_mhd(tmp_path / "u.mhd")
    assert np.array_equal(backu.data, volu)


def test_mhd_dimsize_is_w_h_d_with_x_fastest_buffer(tmp_path):
    # hand-written header: DimSize lists W H D, raw buffer runs x fastest
    (tmp_path / "vol.raw").write_bytes(bytes(range(24)))
    (tmp_path / "vol.mhd").write_text(
        "ObjectType = Image\nNDims = 3\nDimSize = 4 3 2\n"
        "ElementType = MET_UCHAR\nElementDataFile = vol.raw\n",
        encoding="ascii")
    vol, meta = load_mhd(tmp_path / "vol.mhd")
    assert vol.shape == (1, 1, 2, 3, 4)
    assert np.array_equal(vol.data[0, 0],
                          np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    assert meta.spacing == (1.0, 1.0, 1.0)   # defaults when absent
    assert meta.origin == (0.0, 0.0, 0.0)

    hdr = (tmp_path / "made.mhd")
    write_mhd(hdr, vol.data, element_type="MET_UCHAR")
    assert "DimSize = 4 3 2" in hdr.read_text(encoding="ascii")


def _write_header(tmp_path, text, raw=b"\x00\x00"):
    (tmp_path / "x.raw").write_bytes(raw)
    (tmp_path / "x.mhd").write_text(text, encoding="ascii")
    return tmp_path / "x.mhd"


def test_mhd_load_rejects_malformed_headers(tmp_path):
    base = ("NDims = 3\nDimSize = 1 1 2\nElementType = MET_UCHAR\n"
            "ElementDataFile = x.raw\n")
    with pytest.raises(ValueError):   # missing ElementType
        load_mhd(_write_header(tmp_path, "NDims = 3\nDimSize = 1 1 2\n"
                                         "ElementDataFile = x.raw\n"))
    with pytest.raises(ValueError):   # not 3D
        load_mhd(_write_header(tmp_path, base.replace("NDims = 3", "NDims = 2")))
    with pytest.raises(ValueError):   # unsupported element type
        load_mhd(_write_header(tmp_path,
                               base.replace("MET_UCHAR", "MET_DOUBLE")))
    with pytest.raises(ValueError):   # big-endian refused
        load_mhd(_write_header(tmp_path,
                               "BinaryDataByteOrderMSB = True\n" + base))
    with pytest.raises(ValueError):   # header line without '='
        load_mhd(_write_header(tmp_path, "garbage line\n" + base))
    with pytest.raises(ValueError):   # raw size mismatch
        load_mhd(_write_header(tmp_path, base, raw=b"\x00" * 5))


@pytest.mark.parametrize("line, message", [
    ("CompressedData = True", "CompressedData = True not supported"),
    ("HeaderSize = 16", "HeaderSize = 16 not supported"),
    ("HeaderSize = -1", "HeaderSize = -1 not supported"),
    ("TransformMatrix = 0 1 0 1 0 0 0 0 1", "is not the identity"),
    ("TransformMatrix = 1 0 0 0 1 0 0 0 -1", "is not the identity"),
    ("TransformMatrix = 1 0 0 0 1 0", "is not the identity"),
    ("ElementDataFile = LIST", "ElementDataFile = LIST not supported"),
    ("ElementDataFile = LOCAL", "ElementDataFile = LOCAL not supported"),
    ("ElementSpacing = 0.7 0.7", "ElementSpacing = 0.7 0.7 must be 3 numbers"),
    ("ElementSpacing = 1 1 x", "ElementSpacing = 1 1 x must be 3 numbers"),
    ("Offset = 0 0 0 0", "Offset = 0 0 0 0 must be 3 numbers"),
    ("ElementSpacing = nan 1 1",
     "ElementSpacing = nan 1 1 must be finite and > 0"),
    ("ElementSpacing = 1 0 1",
     "ElementSpacing = 1 0 1 must be finite and > 0"),
    ("ElementSpacing = 1 -1 1",
     "ElementSpacing = 1 -1 1 must be finite and > 0"),
    ("Offset = inf 0 0", "Offset = inf 0 0 must be finite"),
    ("DimSize = -44 -40 30", "DimSize = -44 -40 30 must be 3 positive ints"),
    ("DimSize = 44 -40 30", "DimSize = 44 -40 30 must be 3 positive ints"),
    ("DimSize = 0 40 30", "DimSize = 0 40 30 must be 3 positive ints"),
    ("DimSize = 44 40 x", "DimSize = 44 40 x must be 3 positive ints"),
    ("DimSize = 44 40", "DimSize = 44 40 must be 3 positive ints"),
    ("NDims = x", "only 3D volumes supported, NDims = x"),
])
def test_mhd_load_rejects_keys_it_cannot_honour(tmp_path, line, message):
    base = ("NDims = 3\nDimSize = 1 1 2\nElementType = MET_UCHAR\n"
            "ElementDataFile = x.raw\n")
    key = line.split(" = ")[0]
    text = "".join(ln + "\n" for ln in base.splitlines()
                   if not ln.startswith(key)) + line + "\n"
    with pytest.raises(ValueError, match=message) as info:
        load_mhd(_write_header(tmp_path, text))
    assert "\n" not in str(info.value)


def test_mhd_load_accepts_luna16_defaults(tmp_path):
    header = ("ObjectType = Image\nNDims = 3\nBinaryData = True\n"
              "BinaryDataByteOrderMSB = False\nCompressedData = False\n"
              "TransformMatrix = 1 0 0 0 1 0 0 0 1\nOffset = -1.5 2 3\n"
              "CenterOfRotation = 0 0 0\nAnatomicalOrientation = RAI\n"
              "ElementSpacing = 0.7 0.7 2.5\nDimSize = 1 1 2\n"
              "ElementType = MET_UCHAR\nElementDataFile = x.raw\n")
    vol, meta = load_mhd(_write_header(tmp_path, header, raw=b"\x03\x05"))
    assert vol.data.ravel().tolist() == [3.0, 5.0]
    assert meta.spacing == (0.7, 0.7, 2.5) and meta.origin == (-1.5, 2.0, 3.0)


def test_write_mhd_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        write_mhd(tmp_path / "x.mhd", np.zeros((1, 1, 2, 2, 2)),
                  element_type="MET_DOUBLE")
    with pytest.raises(ValueError):
        write_mhd(tmp_path / "x.mhd", np.zeros((2, 1, 2, 2, 2)))


# ---------------------------------------------------------------------------
# preprocessing primitives
# ---------------------------------------------------------------------------

def test_resize_identity_when_target_matches():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((1, 1, 2, 8, 9))
    assert np.allclose(resize_inplane(v, (8, 9), "linear"), v)
    b = (rng.random((1, 1, 2, 8, 9)) > 0.5).astype(np.float64)
    assert np.array_equal(resize_inplane(b, (8, 9), "nearest"), b)


def test_resize_constant_volume_stays_constant():
    v = np.full((1, 1, 3, 10, 10), 2.5)
    out = resize_inplane(v, (7, 13), "linear")
    assert out.shape == (1, 1, 3, 7, 13)
    assert np.allclose(out, 2.5)


def test_resize_nearest_keeps_masks_binary():
    rng = np.random.default_rng(3)
    m = (rng.random((1, 1, 2, 11, 13)) > 0.7).astype(np.float32)
    out = resize_inplane(m, (300, 300), "nearest")
    assert out.shape == (1, 1, 2, 300, 300)
    assert np.isin(out, (0.0, 1.0)).all()


def test_resize_rejects_bad_arguments():
    v = np.zeros((1, 1, 1, 4, 4))
    with pytest.raises(ValueError):
        resize_inplane(v, (0, 4))
    with pytest.raises(ValueError):
        resize_inplane(v, (4, 4), "cubic")


def test_crop_about_median_always_23_slices():
    for depth in (23, 24, 40, 301):
        v = np.arange(depth, dtype=np.float64).reshape(1, 1, depth, 1, 1)
        out = crop_about_median(v)
        assert out.shape[2] == 23
        med = (depth - 1) // 2
        assert out[0, 0, 0, 0, 0] == med - 11
        assert out[0, 0, -1, 0, 0] == med + 11


def test_crop_about_median_rejects_thin_volumes():
    with pytest.raises(ValueError):
        crop_about_median(np.zeros((1, 1, 22, 2, 2)))


def test_crop_nodule_block_centers_and_pads():
    v = np.arange(6 * 6 * 6, dtype=np.float64).reshape(1, 1, 6, 6, 6)
    block = crop_nodule_block(v, (3, 3, 3), size=4)
    assert block.shape == (1, 1, 4, 4, 4)
    # source center voxel sits at block index size//2; an interior block
    # is a plain copy, with no zero margin
    assert np.array_equal(block, v[:, :, 1:5, 1:5, 1:5])

    # at the corner, the first two planes of each axis are zero padding and
    # the rest is the volume's 2x2x2 corner
    edge = crop_nodule_block(v, (0, 0, 0), size=4)
    assert edge[0, 0, 2, 2, 2] == v[0, 0, 0, 0, 0]
    for axis in (2, 3, 4):
        margin = [slice(None)] * 5
        margin[axis] = slice(0, 2)
        assert not edge[tuple(margin)].any()
    assert np.array_equal(edge[:, :, 2:, 2:, 2:], v[:, :, :2, :2, :2])

    # at the far corner the padding is the last plane of each axis
    far = crop_nodule_block(v, (5, 5, 5), size=4)
    assert np.array_equal(far[:, :, :3, :3, :3], v[:, :, 3:, 3:, 3:])
    for axis in (2, 3, 4):
        margin = [slice(None)] * 5
        margin[axis] = slice(3, 4)
        assert not far[tuple(margin)].any()

    with pytest.raises(ValueError):
        crop_nodule_block(v, (50, 3, 3), size=4)
    with pytest.raises(ValueError):
        crop_nodule_block(v, (3, 3, 3), size=0)


def test_window_intensity_maps_hu_range_to_unit():
    v = np.array([-2000.0, -1000.0, -300.0, 400.0, 3000.0]).reshape(
        1, 1, 1, 1, 5)
    out = window_intensity(v)
    assert HU_WINDOW == (-1000.0, 400.0)
    assert out[0, 0, 0, 0, 0] == 0.0     # clipped below
    assert out[0, 0, 0, 0, 1] == 0.0
    assert out[0, 0, 0, 0, 3] == 1.0
    assert out[0, 0, 0, 0, 4] == 1.0     # clipped above
    assert 0.0 < out[0, 0, 0, 0, 2] < 1.0
    assert out[0, 0, 0, 0, 2] == pytest.approx(700.0 / 1400.0)


def test_mask_centroid():
    m = np.zeros((1, 1, 5, 5, 5))
    m[0, 0, 1, 2, 3] = 1.0
    m[0, 0, 3, 2, 3] = 1.0
    assert mask_centroid(m) == (2, 2, 3)
    with pytest.raises(ValueError):
        mask_centroid(np.zeros((1, 1, 2, 2, 2)))
    # the rounded mean of the voxel indices, on random masks
    rng = np.random.default_rng(16)
    for _ in range(50):
        dims = tuple(int(n) for n in rng.integers(1, 24, size=3))
        m = (rng.random((1, 1) + dims) < rng.random()).astype(np.float32)
        m[(0, 0) + tuple(int(rng.integers(n)) for n in dims)] = 1.0
        want = np.argwhere(m[0, 0] > 0).mean(axis=0)
        assert mask_centroid(m) == tuple(int(round(float(c))) for c in want)


# ---------------------------------------------------------------------------
# phantoms
# ---------------------------------------------------------------------------

def test_nodule_phantom_mask_matches_enumeration_oracle():
    # brute-force voxel enumeration against the published sphere geometry;
    # 24^3 is the smallest cube where every radius in 3..8 fits
    dims = (24, 24, 24)
    for seed in range(4):
        sample = make_phantom("nodule", dims, seed)
        center, radius = phantom_sphere_geometry(dims, seed)
        assert 3 <= radius <= 8
        want = np.zeros(dims)
        for z in range(dims[0]):
            for y in range(dims[1]):
                for x in range(dims[2]):
                    d2 = ((z - center[0]) ** 2 + (y - center[1]) ** 2
                          + (x - center[2]) ** 2)
                    if d2 <= radius * radius:
                        want[z, y, x] = 1.0
        assert np.array_equal(sample.mask.data[0, 0], want)
        # sphere fully interior: no foreground touches the boundary
        assert not want[0].any() and not want[-1].any()
        assert not want[:, 0].any() and not want[:, -1].any()
        assert not want[:, :, 0].any() and not want[:, :, -1].any()


def test_phantom_determinism_and_kinds():
    a = make_phantom("nodule", 24, 0)
    b = make_phantom("nodule", (24, 24, 24), 0)
    assert np.array_equal(a.image.data, b.image.data)
    assert np.array_equal(a.mask.data, b.mask.data)
    c = make_phantom("nodule", 24, 1)
    assert not np.array_equal(a.image.data, c.image.data)
    with pytest.raises(ValueError):
        make_phantom("brain", 24, 0)
    with pytest.raises(ValueError):
        make_phantom("nodule", (24, 24), 0)
    with pytest.raises(ValueError):
        make_phantom("nodule", 8, 0)  # no radius 3..8 sphere can fit


def test_phantom_image_statistics():
    for kind, dims in (("nodule", (24, 24, 24)), ("lung", (16, 48, 48))):
        s = make_phantom(kind, dims, 3)
        img = s.image.data
        msk = s.mask.data
        assert s.image.shape == (1, 1) + dims
        assert np.isin(msk, (0.0, 1.0)).all()
        assert msk.any() and not msk.all()
        assert img.min() >= 0.0 and img.max() <= 1.0
        # foreground rides ~0.8 above background through the noise
        assert img[msk == 1.0].mean() - img[msk == 0.0].mean() > 0.5


def test_lung_phantom_has_two_separated_regions():
    s = make_phantom("lung", (16, 48, 48), 0)
    m = s.mask.data[0, 0]
    w = m.shape[2]
    left, right = m[:, :, : w // 2], m[:, :, w // 2:]
    assert left.any() and right.any()
    # the two ellipsoids never reach the midline band
    mid = m[:, :, w // 2 - 1: w // 2 + 1]
    assert not mid.any()


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_split_dataset_floor_rule_888():
    ids = [f"ct{i:04d}" for i in range(888)]
    man = split_dataset(ids, seed=0)
    assert (len(man.train), len(man.val), len(man.test)) == (534, 177, 177)


def test_split_dataset_disjoint_and_complete():
    ids = [f"s{i}" for i in range(17)]
    man = split_dataset(ids, seed=5)
    parts = [set(man.train), set(man.val), set(man.test)]
    assert not (parts[0] & parts[1] or parts[0] & parts[2]
                or parts[1] & parts[2])
    assert parts[0] | parts[1] | parts[2] == set(ids)
    # floor rule: 17 -> val/test floor(3.4) = 3 each, remainder to train
    assert (len(man.train), len(man.val), len(man.test)) == (11, 3, 3)


def test_split_dataset_deterministic_and_seed_sensitive():
    ids = [f"s{i}" for i in range(30)]
    a = split_dataset(ids, seed=1)
    b = split_dataset(ids, seed=1)
    c = split_dataset(ids, seed=2)
    assert a.train == b.train and a.val == b.val and a.test == b.test
    assert a.train != c.train
    with pytest.raises(ValueError):
        split_dataset([], seed=0)


def test_split_of_8_for_smoke_runs():
    man = split_dataset([f"p{i}" for i in range(8)], seed=0)
    assert (len(man.train), len(man.val), len(man.test)) == (6, 1, 1)


def test_manifest_round_trip(tmp_path):
    man = SplitManifest(train=["a", "b"], val=["c"], test=["d"], seed=9)
    save_manifest(man, tmp_path / "split.json")
    back = load_manifest(tmp_path / "split.json")
    assert back == man


# ---------------------------------------------------------------------------
# sample storage and validation
# ---------------------------------------------------------------------------

def test_sample_validation():
    img = Tensor5(np.zeros((1, 1, 2, 2, 2), dtype=np.float32))
    bad_mask = Tensor5(np.full((1, 1, 2, 2, 2), 0.5, dtype=np.float32))
    with pytest.raises(ValueError):
        Sample(image=img, mask=bad_mask)
    small = Tensor5(np.zeros((1, 1, 2, 2, 1), dtype=np.float32))
    with pytest.raises(ValueError):
        Sample(image=img, mask=small)


def test_sample_id_is_its_file_name(tmp_path):
    """A sample's .meta.json holds no id, and load_sample returns the id it
    was asked for, also from an older meta whose id differs."""
    save_sample(replace(make_phantom("nodule", 24, 7), id="a"), tmp_path)
    path = tmp_path / "a.meta.json"
    meta = json.loads(path.read_text())
    assert sorted(meta) == ["origin", "spacing"]
    path.write_text(json.dumps({**meta, "id": "other"}))
    assert load_sample(tmp_path, "a").id == "a"


def test_sample_save_load_round_trip(tmp_path):
    s = make_phantom("nodule", 24, 7)
    save_sample(s, tmp_path)
    assert list_sample_ids(tmp_path) == [s.id]
    back = load_sample(tmp_path, s.id)
    assert back.id == s.id
    assert np.array_equal(back.image.data, s.image.data)
    assert np.array_equal(back.mask.data, s.mask.data)
    assert back.spacing == s.spacing and back.origin == s.origin


@pytest.mark.parametrize("sid", ["", ".", "..", "../outside/a", "a/b", "a/"])
def test_a_sample_id_that_is_not_a_file_name_is_refused(tmp_path, sid):
    """save_sample and load_sample refuse an id that could name a path
    outside the sample directory, naming the id, before touching a file."""
    out = tmp_path / "samples"
    message = re.escape(f"sample id {sid!r} is not a file name")
    with pytest.raises(ValueError, match=message):
        save_sample(replace(make_phantom("nodule", 24, 7), id=sid), out)
    with pytest.raises(ValueError, match=message):
        load_sample(out, sid)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# end-to-end preprocessing
# ---------------------------------------------------------------------------

def test_preprocess_lung_chain(tmp_path):
    rng = np.random.default_rng(8)
    d, h, w = 25, 40, 30
    img = rng.integers(-1200, 600, size=(1, 1, d, h, w)).astype(np.float32)
    msk = np.zeros((1, 1, d, h, w), dtype=np.float32)
    msk[0, 0, 10:16, 10:30, 8:22] = 1.0
    write_mhd(tmp_path / "img.mhd", img, element_type="MET_SHORT")
    write_mhd(tmp_path / "msk.mhd", msk, element_type="MET_UCHAR")

    sample = preprocess_lung(tmp_path / "img.mhd", tmp_path / "msk.mhd",
                             tmp_path / "out", "case0", target=(20, 20))
    assert sample.image.shape == (1, 1, 23, 20, 20)
    assert sample.mask.shape == (1, 1, 23, 20, 20)
    assert sample.image.data.min() >= 0.0 and sample.image.data.max() <= 1.0
    assert np.isin(sample.mask.data, (0.0, 1.0)).all()
    assert load_sample(tmp_path / "out", "case0").id == "case0"


def test_lung_chain_gives_the_bytes_of_resizing_before_the_crop(tmp_path):
    """The chain cuts the 23 slices before the in-plane resize; since the
    resize treats each slice on its own, image and mask keep the bytes of
    resizing every slice first, here on an odd-depth volume whose in-plane
    size grows along one axis and shrinks along the other."""
    rng = np.random.default_rng(13)
    shape, target = (1, 1, 31, 41, 37), (50, 23)
    img = rng.integers(-1200, 600, size=shape).astype(np.float32)
    msk = (rng.random(shape) < 0.3).astype(np.float32)
    write_mhd(tmp_path / "img.mhd", img, element_type="MET_SHORT")
    write_mhd(tmp_path / "msk.mhd", msk, element_type="MET_UCHAR")

    sample = preprocess_lung(tmp_path / "img.mhd", tmp_path / "msk.mhd",
                             tmp_path / "out", "case0", target=target)
    image = load_mhd(tmp_path / "img.mhd")[0].data
    mask = (load_mhd(tmp_path / "msk.mhd")[0].data > 0).astype(np.float32)
    want_image = window_intensity(crop_about_median(
        resize_inplane(image, target, "linear"))).astype(np.float32)
    want_mask = crop_about_median(resize_inplane(mask, target, "nearest"))
    assert sample.image.shape == want_image.shape == (1, 1, 23, 50, 23)
    assert sample.image.data.tobytes() == want_image.tobytes()
    assert sample.mask.data.tobytes() == want_mask.tobytes()


def test_preprocess_nodule_chain(tmp_path):
    rng = np.random.default_rng(9)
    img = rng.integers(-1200, 600, size=(1, 1, 24, 24, 24)).astype(np.float32)
    msk = np.zeros((1, 1, 24, 24, 24), dtype=np.float32)
    msk[0, 0, 10:14, 9:13, 11:15] = 1.0
    write_mhd(tmp_path / "img.mhd", img, element_type="MET_SHORT")
    write_mhd(tmp_path / "msk.mhd", msk, element_type="MET_UCHAR")

    sample = preprocess_nodule(tmp_path / "img.mhd", tmp_path / "msk.mhd",
                               tmp_path / "out", "nod0", size=16)
    assert sample.image.shape == (1, 1, 16, 16, 16)
    # centroid of the blob lands at the block center
    assert sample.mask.data[0, 0, 8, 8, 8] == 1.0
    assert sample.image.data.min() >= 0.0 and sample.image.data.max() <= 1.0


@pytest.mark.parametrize("chain,kw", [(preprocess_lung, {"target": (64, 64)}),
                                      (preprocess_nodule, {"size": 32})],
                         ids=["lung", "nodule"])
def test_preprocess_binarizes_only_the_cut_mask(tmp_path, chain, kw):
    """The mask is binarized after the crop, so no full-volume binary copy
    sits beside the loaded f32 image and mask: at most 12 traced bytes per
    input voxel (13 when the whole mask was binarized first)."""
    rng = np.random.default_rng(14)
    shape = (1, 1, 60, 128, 128)
    img = rng.integers(-1200, 600, size=shape).astype(np.float32)
    msk = np.zeros(shape, dtype=np.float32)
    msk[0, 0, 25:35, 50:70, 60:80] = 1.0
    write_mhd(tmp_path / "img.mhd", img, element_type="MET_SHORT")
    write_mhd(tmp_path / "msk.mhd", msk, element_type="MET_UCHAR")
    del img, msk
    tracemalloc.start()
    try:
        chain(tmp_path / "img.mhd", tmp_path / "msk.mhd", tmp_path / "out",
              "case0", **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / np.prod(shape) <= 12.0


def test_nodule_centroid_of_a_dense_mask_makes_no_index_arrays(tmp_path):
    """mask_centroid counts the foreground per axis instead of listing the
    voxel indices: at most 12 traced bytes per input voxel with every voxel
    foreground (57 with an (n, 3) index array and its float64 mean)."""
    rng = np.random.default_rng(15)
    shape = (1, 1, 60, 128, 128)
    img = rng.integers(-1200, 600, size=shape).astype(np.float32)
    write_mhd(tmp_path / "img.mhd", img, element_type="MET_SHORT")
    write_mhd(tmp_path / "msk.mhd", np.ones(shape, dtype=np.float32),
              element_type="MET_UCHAR")
    del img
    tracemalloc.start()
    try:
        sample = preprocess_nodule(tmp_path / "img.mhd", tmp_path / "msk.mhd",
                                   tmp_path / "out", "case0", size=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / np.prod(shape) <= 12.0
    assert sample.mask.data.all()


def test_returned_volumes_have_the_data_and_shape_the_benchmark_reads(
        tmp_path):
    """perfbench reads `.data` and `.shape` off samples, predictions and
    MetaImage volumes; each must be a C-contiguous rank-5 f32/f64 ndarray
    with the shape it reports."""
    rng = np.random.default_rng(12)
    img = rng.integers(-1200, 600, size=(1, 1, 24, 24, 24)).astype(np.float32)
    msk = np.zeros((1, 1, 24, 24, 24), dtype=np.float32)
    msk[0, 0, 10:14, 9:13, 11:15] = 1.0
    write_mhd(tmp_path / "img.mhd", img, element_type="MET_SHORT")
    write_mhd(tmp_path / "msk.mhd", msk, element_type="MET_UCHAR")
    pair = (tmp_path / "img.mhd", tmp_path / "msk.mhd", tmp_path / "out")
    phantom = make_phantom("nodule", 32, 0)
    save_sample(phantom, tmp_path / "out")
    lung = preprocess_lung(*pair, "lung0", target=(20, 20))
    nodule = preprocess_nodule(*pair, "nod0", size=16)
    loaded = load_sample(tmp_path / "out", phantom.id)
    config = NetworkConfig(stage_channels=[2, 4, 8, 16],
                           input_geometry=(1, 32, 32, 32))
    net = build_network("nodule", config, 0)
    volumes = {"load_mhd": load_mhd(tmp_path / "img.mhd")[0],
               "predict_volume": predict_volume(net, phantom.image)}
    for name, s in (("make_phantom", phantom), ("load_sample", loaded),
                    ("preprocess_lung", lung), ("preprocess_nodule", nodule)):
        volumes[f"{name}.image"], volumes[f"{name}.mask"] = s.image, s.mask
    for name, v in volumes.items():
        arr = v.data
        assert isinstance(arr, np.ndarray) and arr.ndim == 5, name
        assert arr.dtype in (np.float32, np.float64), name
        assert arr.flags.c_contiguous and v.shape == arr.shape, name

"""Rank-5 volume record and raw/json array persistence."""

import numpy as np
import pytest

from lungseg3d.tensor import Tensor5, load_array, save_array


def test_tensor5_validates_rank_and_dtype():
    t = Tensor5(np.zeros((1, 2, 3, 4, 5), dtype=np.float32))
    assert t.shape == (1, 2, 3, 4, 5) and t.data.dtype == np.float32
    # a strided view is stored as a contiguous copy
    view = np.zeros((1, 1, 4, 4, 4))[:, :, ::2]
    assert Tensor5(view).data.flags.c_contiguous
    with pytest.raises(ValueError):
        Tensor5(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        Tensor5(np.zeros((1, 1, 1, 1, 1), dtype=np.int32))


def test_save_load_array_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for arr in (rng.standard_normal((3, 4)).astype(np.float32),
                rng.standard_normal((2, 2, 2)),
                np.asarray(2.5)):
        base = str(tmp_path / "buf")
        save_array(arr, base)
        back = load_array(base)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
    with pytest.raises(ValueError):
        save_array(np.zeros(2, dtype=np.int32), str(tmp_path / "bad"))


def test_load_array_rejects_truncated_raw(tmp_path):
    base = str(tmp_path / "buf")
    save_array(np.zeros((2, 2)), base)
    with open(base + ".raw", "wb") as fh:
        fh.write(b"\x00" * 8)  # one f64 instead of four
    with pytest.raises(ValueError):
        load_array(base)


def test_load_array_rejects_unknown_dtype(tmp_path):
    base = str(tmp_path / "buf")
    save_array(np.zeros((2, 2)), base)
    with open(base + ".json", "w") as fh:
        fh.write('{"shape": [2, 2], "dtype": "f16"}')
    with pytest.raises(ValueError, match="unknown dtype 'f16'") as exc:
        load_array(base)
    assert base + ".json" in str(exc.value)

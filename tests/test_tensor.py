"""Rank-5 volume record, raw/json array persistence and JSON records."""

import numpy as np
import pytest

from lungseg3d.tensor import (NUMBER, Tensor5, load_array, read_json,
                              save_array, write_json)


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


@pytest.mark.parametrize("indent,text", [
    (None, '{"a": [1, 2], "b": "\\u00e9"}\n'),
    (1, '{\n "a": [\n  1,\n  2\n ],\n "b": "\\u00e9"\n}\n'),
])
def test_write_json_is_ascii_with_sorted_keys_and_a_final_newline(
        tmp_path, indent, text):
    write_json(tmp_path / "r.json", {"b": "\u00e9", "a": [1, 2]}, indent)
    assert (tmp_path / "r.json").read_bytes() == text.encode("ascii")


@pytest.mark.parametrize("value", [float("nan"), [1.0, float("-inf")]],
                         ids=["nan", "-inf-in-a-list"])
def test_write_json_refuses_a_number_that_is_not_json(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "r.json", {"a": value})
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_nan_and_infinity_under_their_key(tmp_path, text):
    """A non-JSON constant fails its key's number test, so the error names
    the file and the key."""
    (tmp_path / "r.json").write_text('{"a": %s}' % text)
    with pytest.raises(ValueError, match=r"r\.json has 'a' -?(nan|inf), "
                                         r"expected a number$"):
        read_json(tmp_path / "r.json", "record", {"a": NUMBER})


def test_sidecar_is_written_by_write_json(tmp_path):
    save_array(np.zeros((2, 3), dtype=np.float32), str(tmp_path / "buf"))
    assert (tmp_path / "buf.json").read_bytes() == \
        b'{"dtype": "f32", "shape": [2, 3]}\n'


def test_raw_of_another_size_is_refused_before_it_is_read(tmp_path,
                                                         monkeypatch):
    """A sidecar that implies fewer bytes than its .raw holds is refused on
    the file's size: the buffer is never read."""
    base = str(tmp_path / "buf")
    save_array(np.zeros((2, 2)), base)
    write_json(base + ".json", {"shape": [2], "dtype": "f64"})

    def no_read(*args, **kwargs):
        pytest.fail("np.fromfile read a raw file of the wrong size")

    monkeypatch.setattr(np, "fromfile", no_read)
    with pytest.raises(ValueError, match="holds 32 bytes, expected 16"):
        load_array(base)

"""The rank-5 volume record, raw+JSON array persistence, JSON read and write.

`Tensor5` is what samples, `load_mhd` and `predict_volume` hand out: a
checked (batch, channel, depth, height, width) ndarray, row-major with the
width index fastest. Everything below them works on plain ndarrays.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class Tensor5:
    """A contiguous (B, C, D, H, W) array of f32 or f64 scalars."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data)
        if arr.ndim != 5:
            raise ValueError(f"Tensor5 requires rank 5, got rank {arr.ndim}")
        if arr.dtype not in _DTYPE_NAMES:
            raise ValueError(f"Tensor5 supports f32/f64, got {arr.dtype}")
        self.data = arr

    @property
    def shape(self) -> tuple[int, int, int, int, int]:
        return self.data.shape


def save_array(arr: np.ndarray, base_path: str) -> None:
    """Write `arr` as `<base>.raw` (little-endian) plus a `<base>.json` sidecar.

    The raw file holds the buffer in row-major order; the sidecar records
    shape and dtype so the pair round-trips bit-exactly.
    """
    arr = np.asarray(arr)  # not ascontiguousarray: that would upgrade 0-d to 1-d
    name = _DTYPE_NAMES.get(arr.dtype)
    if name is None:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    arr.astype(arr.dtype.newbyteorder("<"), copy=False).tofile(
        base_path + ".raw")  # tofile always writes row-major order
    write_json(base_path + ".json",
               {"shape": [int(s) for s in arr.shape], "dtype": name})


class _NonFinite(float):
    """NaN or Infinity as read_json reads them: no type-exact test passes."""


# (test, expected) value checks for check_keys and read_json
STRING = (lambda v: isinstance(v, str), "a string")
INTEGER = (lambda v: type(v) is int, "an integer")
NUMBER = (lambda v: type(v) in (int, float), "a number")
INTEGERS = (lambda v: isinstance(v, list) and all(type(i) is int for i in v),
            "a list of integers")
SIZES = (lambda v: INTEGERS[0](v) and all(i >= 0 for i in v),
         "a list of non-negative integers")
OBJECT = (lambda v: isinstance(v, dict), "a JSON object")


def check_keys(obj, what: str, keys) -> dict:
    """`obj`, which must be a JSON object holding every key of `keys`, each
    value passing the key's (test, expected) pair. Anything else raises
    ValueError naming `what` and the key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} holds {json.dumps(obj)[:40]}, "
                         f"expected a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no key {key!r}")
    for key, (test, expected) in keys.items():
        if not test(obj[key]):
            raise ValueError(f"{what} has {key!r} {obj[key]!r}, "
                             f"expected {expected}")
    return obj


def read_json(path, what: str, keys) -> dict:
    """The JSON object in file `path`, described as `what` in errors and
    checked against `keys` by check_keys, which no NaN or Infinity passes."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh, parse_constant=_NonFinite)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path}: {exc}") from None
    return check_keys(obj, f"{what} {path}", keys)


def write_json(path, obj, indent=None) -> None:
    """Write `obj` to file `path` as ASCII JSON with sorted keys and a final
    newline: the one format of every JSON record, so never NaN or Infinity."""
    text = json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def load_array(base_path: str) -> np.ndarray:
    """Read an array written by save_array."""
    path = base_path + ".json"
    sidecar = read_json(path, "array sidecar",
                        {"shape": SIZES, "dtype": STRING})
    shape, name = tuple(sidecar["shape"]), sidecar["dtype"]
    if name not in DTYPES:
        raise ValueError(f"array sidecar {path} has unknown dtype {name!r}")
    dtype = np.dtype(DTYPES[name])  # native order: a big-endian host swaps
    return read_raw(base_path + ".raw", dtype.newbyteorder("<"),
                    shape).astype(dtype, copy=False)


def read_raw(path, dtype, shape) -> np.ndarray:
    """The `shape` array of `dtype` elements stored row-major in file `path`,
    which is refused unless it holds exactly that many bytes."""
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    size = os.path.getsize(path)
    if size != expected:
        raise ValueError(f"{path} holds {size} bytes, expected {expected}")
    return np.fromfile(path, dtype=dtype).reshape(shape)

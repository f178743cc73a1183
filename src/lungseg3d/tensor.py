"""The rank-5 volume record, raw+JSON array persistence and the JSON reader.

`Tensor5` is what samples, `load_mhd` and `predict_volume` hand out: a
checked (batch, channel, depth, height, width) ndarray, row-major with the
width index fastest. Everything below them works on plain ndarrays.
"""
from __future__ import annotations

import json

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
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    with open(base_path + ".raw", "wb") as f:
        f.write(le.tobytes())  # tobytes always emits row-major order
    sidecar = {"shape": [int(s) for s in arr.shape], "dtype": name}
    with open(base_path + ".json", "w") as f:
        json.dump(sidecar, f)


# (test, expected) value checks for check_keys and read_json
STRING = (lambda v: isinstance(v, str), "a string")
INTEGER = (lambda v: type(v) is int, "an integer")
NUMBER = (lambda v: type(v) in (int, float), "a number")
INTEGERS = (lambda v: isinstance(v, list) and all(type(i) is int for i in v),
            "a list of integers")
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
    checked against `keys` by check_keys."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path}: {exc}") from None
    return check_keys(obj, f"{what} {path}", keys)


def load_array(base_path: str) -> np.ndarray:
    """Read an array written by save_array."""
    path = base_path + ".json"
    is_shape = lambda v: isinstance(v, list) and all(
        type(s) is int and s >= 0 for s in v)
    sidecar = read_json(path, "array sidecar", {
        "shape": (is_shape, "a list of non-negative ints"),
        "dtype": STRING})
    shape, name = tuple(sidecar["shape"]), sidecar["dtype"]
    if name not in DTYPES:
        raise ValueError(f"array sidecar {path} has unknown dtype {name!r}")
    np_dtype = DTYPES[name]
    raw = np.fromfile(base_path + ".raw", dtype=np.dtype(np_dtype).newbyteorder("<"))
    expected = int(np.prod(shape)) if shape else 1
    if raw.size != expected:
        raise ValueError(
            f"{base_path}.raw holds {raw.size} elements, sidecar shape {shape} "
            f"needs {expected}"
        )
    return raw.astype(np_dtype).reshape(shape)

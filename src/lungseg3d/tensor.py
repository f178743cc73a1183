"""Dense rank-5 tensor container used throughout the package.

Layout is fixed: (batch, channel, depth, height, width), row-major with the
width index fastest. Binary ops require exact shape equality -- there is no
broadcasting at this level, which keeps shape bugs loud.
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

    @property
    def dtype(self) -> str:
        return _DTYPE_NAMES[self.data.dtype]

    @property
    def size(self) -> int:
        return self.data.size

    def __getitem__(self, idx):
        return self.data[idx]

    def __setitem__(self, idx, value):
        self.data[idx] = value

    def __repr__(self):
        return f"Tensor5(shape={self.shape}, dtype={self.dtype})"

    def copy(self) -> "Tensor5":
        return Tensor5(self.data.copy())

    def astype(self, dtype: str) -> "Tensor5":
        return Tensor5(self.data.astype(DTYPES[dtype]))


def as_nd(x) -> np.ndarray:
    """Accept a Tensor5 or ndarray and return the underlying ndarray."""
    if isinstance(x, Tensor5):
        return x.data
    return np.asarray(x)


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


# (test, expected) value checks for read_json
STRING = (lambda v: isinstance(v, str), "a string")
INTEGER = (lambda v: type(v) is int, "an integer")


def read_json(path, what: str, keys) -> dict:
    """The JSON object in file `path`, described as `what` in errors. `keys`
    maps each required key to a (test, expected) pair its value must pass.
    Anything else raises ValueError naming the path and the key."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{what} {path} holds {json.dumps(obj)[:40]}, "
                         f"expected a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} {path} has no key {key!r}")
    for key, (test, expected) in keys.items():
        if not test(obj[key]):
            raise ValueError(f"{what} {path} has {key!r} {obj[key]!r}, "
                             f"expected {expected}")
    return obj


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

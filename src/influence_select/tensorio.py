"""Named-tensor container: a minimal deterministic binary format.

Used for curvature-factor checkpoints. Layout (all integers little-endian):

    magic   4 bytes  b"NTC1"
    count   uint64   number of tensors
    then per tensor, in write order:
        name_len  uint32
        name      name_len bytes, UTF-8
        dtype     uint8    1=float64, 2=uint32, 3=int64, 4=uint8
        ndim      uint32
        dims      ndim * uint64
        payload   raw row-major little-endian data

The encoding is byte-deterministic for a given ordered mapping, so
re-running a command with identical inputs reproduces identical files.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError

MAGIC = b"NTC1"

_DTYPE_CODES = {
    np.dtype("<f8"): 1,
    np.dtype("<u4"): 2,
    np.dtype("<i8"): 3,
    np.dtype("uint8"): 4,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def encode_tensors(tensors: dict[str, np.ndarray]) -> bytes:
    """The container bytes of an ordered name->array mapping."""
    parts = [MAGIC, struct.pack("<Q", len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        dt = np.dtype(arr.dtype).newbyteorder("<")
        if np.dtype(dt) not in _DTYPE_CODES:
            raise DataError(f"unsupported dtype {arr.dtype!r} for tensor {name!r}")
        raw = name.encode("utf-8")
        parts.append(struct.pack(f"<I{len(raw)}sBI{arr.ndim}Q", len(raw), raw,
                                 _DTYPE_CODES[np.dtype(dt)], arr.ndim, *arr.shape))
        parts.append(arr.astype(dt, copy=False).tobytes())
    return b"".join(parts)


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a container encoded by :func:`encode_tensors`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise DataError(f"{path}: not a named-tensor container (bad magic)")
    off = 4
    (count,) = struct.unpack_from("<Q", data, off)
    off += 8
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<I", data, off)
            off += 4
            name = data[off : off + name_len].decode("utf-8")
            off += name_len
            (code,) = struct.unpack_from("<B", data, off)
            off += 1
            (ndim,) = struct.unpack_from("<I", data, off)
            off += 4
            dims = struct.unpack_from(f"<{ndim}Q", data, off)
            off += 8 * ndim
        except struct.error as exc:
            raise DataError(f"{path}: truncated tensor header") from exc
        if code not in _CODE_DTYPES:
            raise DataError(f"{path}: unknown dtype code {code} for tensor {name!r}")
        dt = _CODE_DTYPES[code]
        nbytes = int(np.prod(dims, dtype=np.int64)) * dt.itemsize
        if off + nbytes > len(data):
            raise DataError(f"{path}: truncated payload for tensor {name!r}")
        arr = np.frombuffer(data[off : off + nbytes], dtype=dt).reshape(dims).copy()
        off += nbytes
        out[name] = arr
    return out

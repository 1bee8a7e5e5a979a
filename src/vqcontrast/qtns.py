"""QTNS binary tensor files and the named-parameter container.

Record layout, all integers little-endian:

    magic "QTNS" | version u32 = 1 | dtype u8 = 1 (float32)
    | ndim u32 | ndim x dim u32 | payload float32 row-major

Compute happens in double precision; files always store float32.  Parse
errors raise ``TensorFormatError`` carrying the byte offset at which the
file stopped making sense.

A parameter set is persisted as one container file of concatenated QTNS
records plus a JSON index file mapping parameter names to byte offsets
inside the container.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import TensorFormatError

MAGIC = b"QTNS"
VERSION = 1
DTYPE_FLOAT32 = 1
_MAX_NDIM = 8

# Suffix of the record container that accompanies a parameter index file.
CONTAINER_SUFFIX = ".qtns"


def tensor_record_bytes(array) -> bytes:
    """Serialize one array as a QTNS record (cast to float32)."""
    # not ascontiguousarray: that would promote 0-d arrays to shape (1,)
    a = np.asarray(array, dtype=np.float32, order="C")
    header = MAGIC + struct.pack("<IB", VERSION, DTYPE_FLOAT32)
    header += struct.pack("<I", a.ndim)
    header += struct.pack(f"<{a.ndim}I", *a.shape)
    payload = a.astype("<f4", copy=False).tobytes(order="C")
    return header + payload


def read_tensor_record(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one record starting at ``offset``; return (array, end offset).

    Trailing bytes after the record are the caller's business, which lets
    containers hold several concatenated records.
    """
    if len(buf) < offset + 4 or buf[offset : offset + 4] != MAGIC:
        raise TensorFormatError("bad magic, expected b'QTNS'", offset)
    pos = offset + 4
    if len(buf) < pos + 5:
        raise TensorFormatError("truncated header", pos)
    version, dtype = struct.unpack_from("<IB", buf, pos)
    if version != VERSION:
        raise TensorFormatError(f"unsupported version {version}", pos)
    if dtype != DTYPE_FLOAT32:
        raise TensorFormatError(f"unsupported dtype code {dtype}", pos + 4)
    pos += 5
    if len(buf) < pos + 4:
        raise TensorFormatError("truncated ndim field", pos)
    (ndim,) = struct.unpack_from("<I", buf, pos)
    if ndim > _MAX_NDIM:
        raise TensorFormatError(f"ndim {ndim} exceeds limit {_MAX_NDIM}", pos)
    pos += 4
    if len(buf) < pos + 4 * ndim:
        raise TensorFormatError("truncated dimension list", pos)
    dims = struct.unpack_from(f"<{ndim}I", buf, pos)
    for i, d in enumerate(dims):
        if d == 0:
            raise TensorFormatError("zero-length dimension", pos + 4 * i)
    pos += 4 * ndim
    count = 1
    for d in dims:
        count *= d
    need = 4 * count
    if len(buf) < pos + need:
        raise TensorFormatError(
            f"payload needs {need} bytes, only {len(buf) - pos} present", pos
        )
    array = np.frombuffer(buf, dtype="<f4", count=count, offset=pos).reshape(dims)
    return array.copy(), pos + need


def save_tensor_file(path, array) -> None:
    Path(path).write_bytes(tensor_record_bytes(array))


def load_tensor_file(path) -> np.ndarray:
    """Read a single-tensor file; payload round-trips bit-exactly."""
    buf = Path(path).read_bytes()
    array, end = read_tensor_record(buf, 0)
    if end != len(buf):
        raise TensorFormatError(f"{len(buf) - end} trailing bytes after record", end)
    return array


def _container_path(index_path: Path) -> Path:
    return index_path.with_name(index_path.name + CONTAINER_SUFFIX)


def save_params(path, named: dict[str, np.ndarray]) -> None:
    """Write ``<path>`` (JSON name->offset index) and ``<path>.qtns``."""
    index_path = Path(path)
    container = _container_path(index_path)
    offsets: dict[str, int] = {}
    blob = bytearray()
    for name in sorted(named):
        offsets[name] = len(blob)
        blob += tensor_record_bytes(named[name])
    container.write_bytes(bytes(blob))
    index = {"container": container.name, "tensors": offsets}
    index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")


def load_params(path) -> dict[str, np.ndarray]:
    """Inverse of save_params; arrays come back as float64 for compute."""
    index_path = Path(path)
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TensorFormatError(f"parameter index is not valid UTF-8 JSON: {exc}", 0)
    if not isinstance(index, dict) or "container" not in index or "tensors" not in index:
        raise TensorFormatError("parameter index missing container/tensors keys", 0)
    container = index["container"]
    if (not isinstance(container, str) or "\0" in container
            or not isinstance(index["tensors"], dict)):
        raise TensorFormatError(
            "parameter index needs a container file name and a name->offset object", 0
        )
    buf = (index_path.parent / container).read_bytes()
    out: dict[str, np.ndarray] = {}
    for name, offset in index["tensors"].items():
        if isinstance(offset, bool) or not isinstance(offset, int) or offset < 0:
            raise TensorFormatError(
                f"offset of {name!r} must be a non-negative integer, got {offset!r}", 0
            )
        array, _ = read_tensor_record(buf, offset)
        with np.errstate(invalid="ignore"):  # a signaling NaN widens to NaN, no warning
            out[name] = array.astype(np.float64)
    return out

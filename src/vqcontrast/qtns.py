"""QTNS binary tensor files and the named-parameter container.

Record layout, all integers little-endian:

    magic "QTNS" | version u32 = 1 | dtype u8 = 1 (float32)
    | ndim u32 | ndim x dim u32 | payload float32 row-major

Compute happens in double precision; files always store float32.  Parse
errors raise ``TensorFormatError`` carrying the byte offset at which the
file stopped making sense; the header writer refuses what the parser
rejects.  A tensor file is read as its header, then its payload straight
into the array; ``data.generate_dataset`` writes one in row chunks.

A parameter set is persisted as one container file of concatenated QTNS
records plus a JSON index file mapping parameter names to byte offsets
inside the container.  The index names the container by a bare file name in
its own directory; any other path is refused before the container is read.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import TensorFormatError

MAGIC = b"QTNS"
VERSION = 1
DTYPE_FLOAT32 = 1
_MAX_NDIM = 8
_MAX_HEADER = 13 + 4 * _MAX_NDIM  # magic, version, dtype, ndim, dims

# Suffix of the record container that accompanies a parameter index file.
CONTAINER_SUFFIX = ".qtns"


def _parse_header(head: bytes, offset: int, size: int) -> tuple[tuple[int, ...], int, int]:
    """Check the header at ``offset`` of ``head``, the start of a ``size``-byte
    buffer; return (dims, payload start, end)."""
    if len(head) < offset + 4 or head[offset : offset + 4] != MAGIC:
        raise TensorFormatError("bad magic, expected b'QTNS'", offset)
    pos = offset + 4
    if len(head) < pos + 5:
        raise TensorFormatError("truncated header", pos)
    version, dtype = struct.unpack_from("<IB", head, pos)
    if version != VERSION:
        raise TensorFormatError(f"unsupported version {version}", pos)
    if dtype != DTYPE_FLOAT32:
        raise TensorFormatError(f"unsupported dtype code {dtype}", pos + 4)
    pos += 5
    if len(head) < pos + 4:
        raise TensorFormatError("truncated ndim field", pos)
    (ndim,) = struct.unpack_from("<I", head, pos)
    if ndim > _MAX_NDIM:
        raise TensorFormatError(f"ndim {ndim} exceeds limit {_MAX_NDIM}", pos)
    pos += 4
    if len(head) < pos + 4 * ndim:
        raise TensorFormatError("truncated dimension list", pos)
    dims = struct.unpack_from(f"<{ndim}I", head, pos)
    for i, d in enumerate(dims):
        if d == 0:
            raise TensorFormatError("zero-length dimension", pos + 4 * i)
    pos += 4 * ndim
    need = 4 * math.prod(dims)
    if size < pos + need:
        raise TensorFormatError(f"payload needs {need} bytes, only {size - pos} present", pos)
    return dims, pos, pos + need


def tensor_header_bytes(shape) -> bytes:
    """Header of a float32 record of ``shape``; raises what reading it back would."""
    header = MAGIC + struct.pack(f"<IBI{len(shape)}I", VERSION, DTYPE_FLOAT32, len(shape), *shape)
    _parse_header(header, 0, len(header) + 4 * math.prod(shape))
    return header


def tensor_record_bytes(array) -> bytes:
    """Serialize one array as a QTNS record (cast to float32)."""
    # not ascontiguousarray: that would promote 0-d arrays to shape (1,)
    a = np.asarray(array, dtype=np.float32, order="C")
    return tensor_header_bytes(a.shape) + a.astype("<f4", copy=False).tobytes(order="C")


def read_tensor_record(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one record starting at ``offset``; return (array, end offset).

    Trailing bytes after the record are the caller's business, which lets
    containers hold several concatenated records.
    """
    dims, pos, end = _parse_header(buf, offset, len(buf))
    array = np.frombuffer(buf, dtype="<f4", count=(end - pos) // 4, offset=pos)
    return array.reshape(dims).copy(), end


def save_tensor_file(path, array) -> None:
    Path(path).write_bytes(tensor_record_bytes(array))


def load_tensor_file(path) -> np.ndarray:
    """Read a single-tensor file; payload round-trips bit-exactly.

    Errors are ``read_tensor_record``'s on the file's bytes, or trailing bytes.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        dims, pos, end = _parse_header(f.read(_MAX_HEADER), 0, size)
        if end != size:
            raise TensorFormatError(f"{size - end} trailing bytes after record", end)
        f.seek(pos)
        array = np.fromfile(f, dtype="<f4", count=(end - pos) // 4)
    if (got := 4 * array.size) != end - pos:  # the file shrank after fstat
        raise TensorFormatError(f"payload needs {end - pos} bytes, only {got} present", pos)
    return array.reshape(dims)


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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise TensorFormatError(f"parameter index is not valid UTF-8 JSON: {exc}", 0)
    if not isinstance(index, dict) or "container" not in index or "tensors" not in index:
        raise TensorFormatError("parameter index missing container/tensors keys", 0)
    container = index["container"]
    if (not isinstance(container, str) or "\0" in container
            or not isinstance(index["tensors"], dict)):
        raise TensorFormatError(
            "parameter index needs a container file name and a name->offset object", 0
        )
    if Path(container).name != container or container in ("", ".."):
        raise TensorFormatError(
            f"container {container!r} must be a file name in the index's directory", 0
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

"""QTNS binary tensor files, the named-parameter container, and the JSON reader.

Record layout, all integers little-endian:

    magic "QTNS" | version u32 = 1 | dtype u8 = 1 (float32)
    | ndim u32 | ndim x dim u32 | payload float32 row-major

Compute happens in double precision; files always store float32.  Parse
errors raise ``ConfigurationError``, the message ending with the byte offset
at which the file stopped making sense; the header writer refuses what the
parser rejects.  ``_read_records`` reads every QTNS file (a tensor file, a
container): a given number of records front to back, header first, payload
straight into the array, no byte left over.  ``data.generate_dataset``
writes a tensor file in row chunks.

A parameter set is one container, the records of its sorted names back to
back; the file holds no names, the loader brings them.  ``read_json_object``
reads every JSON input (config, manifest), refuses a repeated key and raises
``ConfigurationError`` for every refusal.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

MAGIC = b"QTNS"
VERSION = 1
DTYPE_FLOAT32 = 1
_MAX_NDIM = 8
_MAX_HEADER = 13 + 4 * _MAX_NDIM  # magic, version, dtype, ndim, dims


def read_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file ``path``; anything else, or a repeated
    key, raises ``ConfigurationError``, the message naming the file as ``what``."""
    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigurationError(f"{what} repeats the key {key!r}")
            doc[key] = value
        return doc

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"{what} is not valid UTF-8 JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    return doc


def _at(message: str, offset: int) -> str:
    """A parse error's message, naming the byte offset where the file went wrong."""
    return f"{message} (byte offset {offset})"


def _parse_header(head: bytes, offset: int, size: int) -> tuple[tuple[int, ...], int, int]:
    """Check the header bytes ``head`` read at ``offset`` of a ``size``-byte
    file; return (dims, payload start, end) as file offsets, which errors carry."""
    if head[:4] != MAGIC:
        raise ConfigurationError(_at("bad magic, expected b'QTNS'", offset))
    pos = 4
    if len(head) < pos + 5:
        raise ConfigurationError(_at("truncated header", offset + pos))
    version, dtype = struct.unpack_from("<IB", head, pos)
    if version != VERSION:
        raise ConfigurationError(_at(f"unsupported version {version}", offset + pos))
    if dtype != DTYPE_FLOAT32:
        raise ConfigurationError(_at(f"unsupported dtype code {dtype}", offset + pos + 4))
    pos += 5
    if len(head) < pos + 4:
        raise ConfigurationError(_at("truncated ndim field", offset + pos))
    (ndim,) = struct.unpack_from("<I", head, pos)
    if ndim > _MAX_NDIM:
        raise ConfigurationError(_at(f"ndim {ndim} exceeds limit {_MAX_NDIM}", offset + pos))
    pos += 4
    if len(head) < pos + 4 * ndim:
        raise ConfigurationError(_at("truncated dimension list", offset + pos))
    dims = struct.unpack_from(f"<{ndim}I", head, pos)
    for i, d in enumerate(dims):
        if d == 0:
            raise ConfigurationError(_at("zero-length dimension", offset + pos + 4 * i))
    start = offset + pos + 4 * ndim
    need = 4 * math.prod(dims)
    if size < start + need:
        raise ConfigurationError(_at(f"payload needs {need} bytes, only {size - start} present",
                                     start))
    return dims, start, start + need


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


def _read_records(path, count: int) -> list[np.ndarray]:
    """The ``count`` records that fill the file ``path`` front to back."""
    arrays = []
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        end = 0
        for _ in range(count):
            dims, pos, end = _parse_header(f.read(_MAX_HEADER), end, size)
            f.seek(pos)
            array = np.fromfile(f, dtype="<f4", count=(end - pos) // 4)
            if (got := 4 * array.size) != end - pos:  # the file shrank after fstat
                raise ConfigurationError(_at(f"payload needs {end - pos} bytes, only {got} present",
                                             pos))
            arrays.append(array.reshape(dims))
    if end != size:
        raise ConfigurationError(_at(f"{size - end} trailing bytes after record", end))
    return arrays


def save_tensor_file(path, array) -> None:
    Path(path).write_bytes(tensor_record_bytes(array))


def load_tensor_file(path) -> np.ndarray:
    """Read a single-tensor file; payload round-trips bit-exactly."""
    return _read_records(path, 1)[0]


def save_params(path, named: dict[str, np.ndarray]) -> None:
    """Write the records of ``named`` to ``path`` in sorted-name order; all are
    built first, so a shape the reader would reject leaves no file."""
    blob = b"".join(tensor_record_bytes(named[name]) for name in sorted(named))
    Path(path).write_bytes(blob)


def load_params(path, names) -> dict[str, np.ndarray]:
    """The parameters ``names`` from the file save_params wrote, as float64."""
    names = sorted(names)
    if len(set(names)) != len(names):
        raise ConfigurationError(f"parameter names repeat: {names}")
    arrays = _read_records(path, len(names))
    with np.errstate(invalid="ignore"):  # a signaling NaN widens to NaN, no warning
        return {name: array.astype(np.float64) for name, array in zip(names, arrays)}

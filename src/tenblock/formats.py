"""Binary containers: GST holds a raw gappy 4-D field, GSA a compressed
archive.  Both start with a 4-byte magic, a little-endian uint32 version
and uint64 header length, then a JSON header padded with spaces so that
the payload starts on an 8-byte boundary, and a payload of little-endian
32-bit floats.  Every array is flattened in C order (last index fastest),
the order the field and the archive have in memory, so neither writing
nor reading transposes: the writers hand float32 array buffers to the file,
and ``read_gsa`` returns the leftover store as a view of the file's bytes
and every factor array as a view of one float64 copy of the factor
section.  Only version 2 is read; a version 1 file (first index fastest)
is rejected.

The readers only decode: every header claim that slicing the payload rests
on is validated before the payload is touched, and a header value must have
its JSON type (an integer is ``type(v) is int``: ``true`` and ``2.0`` compare
equal to ints but are not).  The types built check the rest (each
factorization its arrays, ``CompressedArchive`` the archive), and the reader
raises their ``ValueError`` as ``FormatError``.  Writes go to a temporary
file renamed into place.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .partition import BlockIndex
from .pipeline import KINDS, METHODS, BlockRecord, CompressedArchive
from .tensor_core import GappyTensor4

GST_MAGIC = b"GSTT"
GSA_MAGIC = b"GSAR"
FORMAT_VERSION = 2
_PREFIX = struct.Struct("<4sIQ")


class FormatError(ValueError):
    """A malformed GST or GSA file: the readers decode, the types they build
    check the values, and any ``ValueError`` of theirs is raised as this."""


def _atomic_write(path: str, magic: bytes, header: dict, payload: list[np.ndarray]) -> None:
    """Write the file of ``magic``, ``header`` and the C-contiguous
    ``payload`` arrays in turn, whose buffers are written as they are,
    without a bytes copy or a concatenation."""
    hb = json.dumps(header, allow_nan=False).encode()
    hb += b" " * (-(_PREFIX.size + len(hb)) % 8)  # the payload starts 8-byte aligned
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tenblock-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_PREFIX.pack(magic, FORMAT_VERSION, len(hb)))
            f.write(hb)
            for a in payload:
                f.write(a)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_file(path: str) -> memoryview:
    # the file's bytes in a NumPy buffer, not a bytes object: NumPy asks for
    # huge pages for large buffers, so a read does not fault in a fresh
    # file-sized run of 4 KB pages whenever the allocator maps it anew
    return memoryview(np.fromfile(path, dtype=np.uint8))


def _split_file(blob: memoryview, magic: bytes, what: str) -> tuple[dict, memoryview]:
    """The header and, as a view of ``blob``, the payload of a file."""
    if len(blob) < _PREFIX.size:
        raise FormatError(f"truncated {what} file")
    got, version, hlen = _PREFIX.unpack_from(blob)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, not a {what} file")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported {what} version {version}, "
                          f"this reader reads version {FORMAT_VERSION}")
    if len(blob) < _PREFIX.size + hlen:
        raise FormatError(f"truncated {what} header")
    try:
        header = json.loads(bytes(blob[_PREFIX.size:_PREFIX.size + hlen]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"unparseable {what} header: {e}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{what} header is not an object")
    return header, blob[_PREFIX.size + hlen:]


def _check_dims(value) -> tuple[int, int, int, int]:
    if (not isinstance(value, list) or len(value) != 4
            or any(type(n) is not int or n < 1 for n in value)):
        raise FormatError(f"bad dims {value!r}")
    return tuple(value)


def write_gst(data: GappyTensor4, path: str) -> None:
    """Write ``data`` as float32.  A defined value beyond float32 range
    raises ``ValueError`` before any file is made: it would be stored as
    infinite, and ``read_gst`` rejects that."""
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(data.values, dtype="<f4")
    if np.isinf(payload).any():
        raise ValueError("a defined value lies beyond float32 range")
    header = {
        "dims": list(data.dims),
        "dtype": "float32",
        "missing": "nan",
        "order": "C",
    }
    _atomic_write(path, GST_MAGIC, header, [payload])


def read_gst(path: str) -> GappyTensor4:
    header, payload = _split_file(_read_file(path), GST_MAGIC, "GST")
    dims = _check_dims(header.get("dims"))
    for key, want in (("dtype", "float32"), ("missing", "nan"), ("order", "C")):
        if header.get(key) != want:
            raise FormatError(f"unsupported {key} {header.get(key)!r}")
    expected = 4 * math.prod(dims)
    if len(payload) != expected:
        raise FormatError(f"payload is {len(payload)} bytes, header implies {expected}")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)
    mask = ~np.isnan(values[:, :, 0, 0])
    try:
        return GappyTensor4(values, mask)
    except ValueError as e:
        raise FormatError(str(e)) from None


def _encode_rle(mask: np.ndarray) -> list[int]:
    # alternating run lengths over the C-order flattening, starting with
    # the (possibly zero) undefined run
    flat = mask.ravel()
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate([[0], change, [flat.size]])
    runs = np.diff(bounds).tolist()
    return [0] + runs if flat[0] else runs


def _decode_rle(runs, shape) -> np.ndarray:
    if not isinstance(runs, list) or any(type(r) is not int or r < 0 for r in runs):
        raise FormatError("bad mask run-length data")
    total = math.prod(shape)
    if sum(runs) != total:
        raise FormatError("mask run lengths do not cover the grid")
    flat = np.zeros(total, dtype=bool)
    pos = 0
    value = False
    for r in runs:
        flat[pos:pos + r] = value
        pos += r
        value = not value
    return flat.reshape(shape)


def write_gsa(archive: CompressedArchive, path: str, metrics: dict | None = None) -> None:
    """Write ``archive`` with ``metrics`` in its header: the block records'
    arrays, then the leftover store, each flattened in C order.  A payload
    value that is not finite in float32 raises ``ValueError`` before any
    file is made: ``decompress_dataset`` of the archive read back would
    reject it."""
    arrays = []
    blocks = []
    offset = 0
    for rec in archive.blocks:
        entries = []
        for a in rec.fac.arrays():
            entries.append({"shape": list(a.shape), "offset": offset})
            arrays.append(a)
            offset += a.size
        blocks.append({"rect": list(rec.rect), "interval": rec.interval,
                       "kind": rec.fac.kind, "arrays": entries, **rec.fac.header_fields()})
    with np.errstate(over="ignore"):
        # the record arrays, raveled in C order, in one small float32 buffer;
        # the leftover store as compress made it (C-contiguous float32), uncopied
        factors = (np.concatenate(arrays, axis=None, dtype="<f4", casting="same_kind")
                   if arrays else np.empty(0, dtype="<f4"))
        leftover = np.ascontiguousarray(archive.leftover_values, dtype="<f4")
    if not (np.isfinite(factors).all() and np.isfinite(leftover).all()):
        raise ValueError("a payload value is not finite in float32")
    header = {
        "method": archive.method,
        "eps_max": archive.eps_max,
        "dims": list(archive.dims),
        "mask_rle": _encode_rle(archive.domain_mask),
        "splits": [list(s) for s in archive.splits],
        "blocks": blocks,
        "leftover": {"offset": offset, "cells": int(leftover.shape[0])},
        "counts": {
            "block_elements": offset,
            "leftover_values": int(leftover.size),
            "payload_elements": offset + int(leftover.size),
        },
        "metrics": metrics or {},
    }
    _atomic_write(path, GSA_MAGIC, header, [factors, leftover])


def _check_block_entry(entry, expected_offset: int):
    """Validate one manifest block as far as reading its arrays needs, and
    return (rect, interval, factorization class, array shapes, next
    offset).  That the record's arrays are consistent is its class's to
    check, and where it lies ``CompressedArchive``'s."""
    if not isinstance(entry, dict):
        raise FormatError(f"block entry {entry!r} is not an object")
    rect = entry.get("rect")
    if (not isinstance(rect, list) or len(rect) != 4
            or any(type(c) is not int for c in rect)):
        raise FormatError(f"bad block rect {rect!r}")
    iv = entry.get("interval")
    if type(iv) is not int:
        raise FormatError(f"bad interval id {iv!r}")
    kind = entry.get("kind")
    if kind not in METHODS:  # a tuple, so an unhashable kind is simply not in it
        raise FormatError(f"unknown block kind {kind!r}")
    arrays = entry.get("arrays")
    if not isinstance(arrays, list) or not arrays:
        raise FormatError("block without arrays")
    shapes = []
    for a in arrays:
        shape = a.get("shape") if isinstance(a, dict) else None
        if (not isinstance(shape, list) or not shape
                or any(type(n) is not int or n < 1 for n in shape)):
            raise FormatError(f"bad array shape {shape!r}")
        if type(a.get("offset")) is not int or a["offset"] != expected_offset:
            raise FormatError(f"array offset {a.get('offset')!r}, expected {expected_offset}")
        shapes.append(tuple(shape))
        expected_offset += math.prod(shape)
    return BlockIndex(*rect), iv, KINDS[kind], shapes, expected_offset


def read_gsa(path: str) -> tuple[CompressedArchive, dict]:
    """Load an archive; returns it with the manifest's metrics dict."""
    header, payload = _split_file(_read_file(path), GSA_MAGIC, "GSA")

    eps_max = header.get("eps_max")
    if type(eps_max) not in (int, float):
        raise FormatError(f"bad eps_max {eps_max!r}")
    dims = _check_dims(header.get("dims"))
    nx, ny, nl, nt = dims
    mask = _decode_rle(header.get("mask_rle"), (nx, ny))

    splits = header.get("splits")
    if (not isinstance(splits, list)
            or any(not isinstance(s, list) or len(s) != 2 or any(type(t) is not int for t in s)
                   for s in splits)):
        raise FormatError(f"bad time splits {splits!r}")
    splits = tuple(tuple(s) for s in splits)

    entries = header.get("blocks")
    if not isinstance(entries, list):
        raise FormatError("missing block list")
    parsed = []
    offset = 0
    for entry in entries:
        rect, iv, cls, shapes, offset = _check_block_entry(entry, offset)
        parsed.append((rect, iv, cls, shapes, entry))

    lo = header.get("leftover")
    if not isinstance(lo, dict) or type(lo.get("offset")) is not int or lo["offset"] != offset:
        raise FormatError("bad leftover descriptor")
    n_cells = lo.get("cells")
    if type(n_cells) is not int or n_cells < 0:
        raise FormatError(f"bad leftover cell count {n_cells!r}")
    total_elements = offset + n_cells * nl * nt
    counts = header.get("counts")
    if counts != {"block_elements": offset, "leftover_values": n_cells * nl * nt,
                  "payload_elements": total_elements}:
        raise FormatError("manifest element counts do not match block list")
    if len(payload) != 4 * total_elements:
        raise FormatError(f"payload is {len(payload)} bytes, manifest implies "
                          f"{4 * total_elements}")

    flat = np.frombuffer(payload, dtype="<f4")
    # one float64 copy of the factor section, every array a C view of it;
    # the leftover store is a view of the file's bytes, not copied
    factors = flat[:offset].astype(np.float64)
    leftover = flat[offset:].reshape(n_cells, nl, nt)
    records = []
    pos = 0
    try:
        for rect, iv, cls, shapes, entry in parsed:
            arrays = []
            for shape in shapes:
                size = math.prod(shape)
                arrays.append(factors[pos:pos + size].reshape(shape))
                pos += size
            records.append(BlockRecord(rect, iv, cls.from_arrays(arrays, entry)))
        archive = CompressedArchive(header.get("method"), eps_max, dims, mask, splits,
                                    tuple(records), leftover)
    except ValueError as e:
        raise FormatError(str(e)) from None
    metrics = header.get("metrics")
    return archive, metrics if isinstance(metrics, dict) else {}

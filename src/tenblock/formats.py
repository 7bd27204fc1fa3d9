"""Binary containers: GST holds a raw gappy 4-D field, GSA a compressed
archive.  Both start with a 4-byte magic, a little-endian uint32 version
and uint64 header length, then a JSON header padded with spaces so that
the payload starts on an 8-byte boundary, and a payload of little-endian
32-bit floats.  Every array is flattened in C order (last index fastest),
the order the field and the archive have in memory, so neither writing
nor reading transposes.  A GSA header lists the records, each with its
region (a rectangle, or null for the leftover), time span, kind and array
shapes, and the payload holds their arrays in that order.  A record
holds its arrays as the file stores them, float32 and C-contiguous, so the
writer casts them into one buffer and ``read_gsa`` returns every array as
a view of the file's bytes, whatever the record's kind.  Only GST version
2 and GSA version 3 are read.

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
from .pipeline import KINDS, BlockRecord, CompressedArchive
from .tensor_core import GappyTensor4

GST_MAGIC = b"GSTT"
GSA_MAGIC = b"GSAR"
GST_VERSION = 2
GSA_VERSION = 3
_PREFIX = struct.Struct("<4sIQ")


class FormatError(ValueError):
    """A malformed GST or GSA file: the readers decode, the types they build
    check the values, and any ``ValueError`` of theirs is raised as this."""


def _atomic_write(path: str, magic: bytes, version: int, header: dict,
                  payload: np.ndarray) -> None:
    """Write the file of ``magic``, ``header`` and the C-contiguous
    ``payload``, whose buffer is written as it is, without a bytes copy."""
    hb = json.dumps(header, allow_nan=False).encode()
    hb += b" " * (-(_PREFIX.size + len(hb)) % 8)  # the payload starts 8-byte aligned
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tenblock-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_PREFIX.pack(magic, version, len(hb)))
            f.write(hb)
            f.write(payload)
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


def _split_file(blob: memoryview, magic: bytes, version: int,
                what: str) -> tuple[dict, memoryview]:
    """The header and, as a view of ``blob``, the payload of a file."""
    if len(blob) < _PREFIX.size:
        raise FormatError(f"truncated {what} file")
    got, got_version, hlen = _PREFIX.unpack_from(blob)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, not a {what} file")
    if got_version != version:
        raise FormatError(f"unsupported {what} version {got_version}, "
                          f"this reader reads version {version}")
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
    _atomic_write(path, GST_MAGIC, GST_VERSION, header, payload)


def read_gst(path: str) -> GappyTensor4:
    header, payload = _split_file(_read_file(path), GST_MAGIC, GST_VERSION, "GST")
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
    """Write ``archive`` with ``metrics`` in its header: every record's
    arrays in turn, flattened in C order, cast into one float32 buffer (a
    compressed record's arrays are float32 already; a hand-built one's may
    be float64).  A payload value not finite in float32 raises
    ``ValueError`` before any file is made: ``decompress_dataset`` of the
    archive read back would reject it."""
    arrays = [a for rec in archive.blocks for a in rec.fac.arrays()]
    with np.errstate(over="ignore"):
        # an all-land grid's archive has no records, and concatenate no arrays
        payload = (np.concatenate(arrays, axis=None, dtype="<f4", casting="same_kind")
                   if arrays else np.empty(0, "<f4"))
    if not np.isfinite(payload).all():
        raise ValueError("a payload value is not finite in float32")
    header = {
        "method": archive.method,
        "eps_max": archive.eps_max,
        "dims": list(archive.dims),
        "mask_rle": _encode_rle(archive.domain_mask),
        "records": [{"rect": None if rec.rect is None else list(rec.rect),
                     "span": list(rec.span), "kind": rec.fac.kind,
                     "shapes": [list(a.shape) for a in rec.fac.arrays()],
                     **rec.fac.header_fields()} for rec in archive.blocks],
        "payload_elements": payload.size,
        "metrics": metrics or {},
    }
    _atomic_write(path, GSA_MAGIC, GSA_VERSION, header, payload)


def _check_record_entry(entry):
    """Validate one manifest record as far as reading its arrays needs, and
    return (rect or None, span, factorization class, array shapes).  That
    the record's arrays are consistent is its class's to check, and where
    it lies ``CompressedArchive``'s."""
    if not isinstance(entry, dict):
        raise FormatError(f"block entry {entry!r} is not an object")
    rect = entry.get("rect", ())  # null is the leftover; a missing rect is no rect
    if rect is not None and (not isinstance(rect, list) or len(rect) != 4
                             or any(type(c) is not int for c in rect)):
        raise FormatError(f"bad block rect {rect!r}")
    span = entry.get("span")
    if not isinstance(span, list) or len(span) != 2 or any(type(t) is not int for t in span):
        raise FormatError(f"bad time span {span!r}")
    kind = entry.get("kind")
    if kind not in tuple(KINDS):  # a tuple, so an unhashable kind is simply not in it
        raise FormatError(f"unknown block kind {kind!r}")
    shapes = entry.get("shapes")
    if not isinstance(shapes, list) or not shapes:
        raise FormatError("block without arrays")
    for shape in shapes:
        if (not isinstance(shape, list) or not shape
                or any(type(n) is not int or n < 1 for n in shape)):
            raise FormatError(f"bad array shape {shape!r}")
    return (None if rect is None else BlockIndex(*rect), tuple(span), KINDS[kind],
            [tuple(shape) for shape in shapes])


def read_gsa(path: str) -> tuple[CompressedArchive, dict]:
    """Load an archive; returns it with the manifest's metrics dict.  Every
    record's arrays are float32 C views of the file's bytes, none copied."""
    header, payload = _split_file(_read_file(path), GSA_MAGIC, GSA_VERSION, "GSA")

    eps_max = header.get("eps_max")
    if type(eps_max) not in (int, float):
        raise FormatError(f"bad eps_max {eps_max!r}")
    dims = _check_dims(header.get("dims"))
    mask = _decode_rle(header.get("mask_rle"), dims[:2])

    entries = header.get("records")
    if not isinstance(entries, list):
        raise FormatError("missing record list")
    parsed = [(*_check_record_entry(entry), entry) for entry in entries]
    total_elements = sum(math.prod(shape) for *_, shapes, _ in parsed for shape in shapes)
    count = header.get("payload_elements")
    if type(count) is not int or count != total_elements:
        raise FormatError("manifest element count does not match the record list")
    if len(payload) != 4 * total_elements:
        raise FormatError(f"payload is {len(payload)} bytes, manifest implies "
                          f"{4 * total_elements}")

    flat = np.frombuffer(payload, dtype="<f4")
    records = []
    try:
        for rect, span, cls, shapes, entry in parsed:
            arrays = []
            for shape in shapes:
                arrays.append(flat[:math.prod(shape)].reshape(shape))
                flat = flat[math.prod(shape):]
            records.append(BlockRecord(rect, span, cls.from_arrays(arrays, entry)))
        archive = CompressedArchive(header.get("method"), eps_max, dims, mask, tuple(records))
    except ValueError as e:
        raise FormatError(str(e)) from None
    metrics = header.get("metrics")
    return archive, metrics if isinstance(metrics, dict) else {}

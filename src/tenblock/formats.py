"""Binary containers: GST holds a raw gappy 4-D field, GSA a compressed
archive.  Both start with a 4-byte magic, a little-endian uint32 version
and uint64 header length, then a JSON header and a payload of
little-endian 32-bit floats raveled first-index-fastest.

Every structural claim in a header is validated before the payload is
touched; writes go to a temporary file renamed into place.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .partition import BlockIndex
from .pipeline import KINDS, BlockRecord, CompressedArchive, leftover_cells
from .tensor_core import FormatError, GappyTensor4

GST_MAGIC = b"GSTT"
GSA_MAGIC = b"GSAR"
FORMAT_VERSION = 1
_PREFIX = struct.Struct("<4sIQ")


def _atomic_write(path: str, blob: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tenblock-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _split_file(blob: bytes, magic: bytes, what: str) -> tuple[dict, bytes]:
    if len(blob) < _PREFIX.size:
        raise FormatError(f"truncated {what} file")
    got, version, hlen = _PREFIX.unpack_from(blob)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, not a {what} file")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported {what} version {version}")
    if len(blob) < _PREFIX.size + hlen:
        raise FormatError(f"truncated {what} header")
    try:
        header = json.loads(blob[_PREFIX.size:_PREFIX.size + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"unparseable {what} header: {e}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{what} header is not an object")
    return header, blob[_PREFIX.size + hlen:]


def _assemble(magic: bytes, header: dict, payload: bytes) -> bytes:
    hb = json.dumps(header).encode()
    return _PREFIX.pack(magic, FORMAT_VERSION, len(hb)) + hb + payload


def _check_dims(dims) -> tuple[int, int, int, int]:
    if (not isinstance(dims, list) or len(dims) != 4
            or any(not isinstance(n, int) or n < 1 for n in dims)):
        raise FormatError(f"bad dims {dims!r}")
    return tuple(dims)


def write_gst(data: GappyTensor4, path: str) -> None:
    header = {
        "dims": list(data.dims),
        "dtype": "float32",
        "missing": "nan",
        "order": "i1-fastest",
    }
    payload = np.asarray(data.values, dtype="<f4").ravel(order="F").tobytes()
    _atomic_write(path, _assemble(GST_MAGIC, header, payload))


def read_gst(path: str) -> GappyTensor4:
    with open(path, "rb") as f:
        blob = f.read()
    header, payload = _split_file(blob, GST_MAGIC, "GST")
    dims = _check_dims(header.get("dims"))
    for key, want in (("dtype", "float32"), ("missing", "nan"), ("order", "i1-fastest")):
        if header.get(key) != want:
            raise FormatError(f"unsupported {key} {header.get(key)!r}")
    expected = 4 * int(np.prod(dims, dtype=np.int64))
    if len(payload) != expected:
        raise FormatError(f"payload is {len(payload)} bytes, header implies {expected}")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    values = values.reshape(dims, order="F")
    mask = ~np.isnan(values[:, :, 0, 0])
    try:
        return GappyTensor4(values, mask)
    except ValueError as e:
        raise FormatError(str(e)) from None


def _encode_rle(mask: np.ndarray) -> list[int]:
    # alternating run lengths over the first-index-fastest flattening,
    # starting with the (possibly zero) undefined run
    flat = mask.ravel(order="F")
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate([[0], change, [flat.size]])
    runs = np.diff(bounds).tolist()
    return [0] + runs if flat[0] else runs


def _decode_rle(runs, shape) -> np.ndarray:
    if not isinstance(runs, list) or any(not isinstance(r, int) or r < 0 for r in runs):
        raise FormatError("bad mask run-length data")
    total = int(np.prod(shape, dtype=np.int64))
    if sum(runs) != total:
        raise FormatError("mask run lengths do not cover the grid")
    flat = np.zeros(total, dtype=bool)
    pos = 0
    value = False
    for r in runs:
        flat[pos:pos + r] = value
        pos += r
        value = not value
    return flat.reshape(shape, order="F")


def write_gsa(archive: CompressedArchive, path: str, metrics: dict | None = None) -> None:
    chunks = []
    blocks = []
    offset = 0
    for rec in archive.blocks:
        arrays = []
        for a in rec.fac.arrays():
            arrays.append({"shape": list(a.shape), "offset": offset})
            chunks.append(np.asarray(a, dtype="<f4").ravel(order="F"))
            offset += a.size
        blocks.append({"rect": list(rec.rect), "interval": rec.interval,
                       "kind": rec.fac.kind, "arrays": arrays, **rec.fac.header_fields()})
    leftover = archive.leftover_values
    chunks.append(np.asarray(leftover, dtype="<f4").ravel(order="F"))
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
    payload = (np.concatenate(chunks) if chunks else np.zeros(0, "<f4")).tobytes()
    _atomic_write(path, _assemble(GSA_MAGIC, header, payload))


def _check_block_entry(entry, cls, mask, dims, splits, expected_offset: int):
    """Validate one manifest block of kind ``cls`` and return (rect,
    interval, block dims, array shapes, next offset)."""
    nx, ny, nl, nt = dims
    rect = entry.get("rect")
    if (not isinstance(rect, list) or len(rect) != 4
            or any(not isinstance(c, int) for c in rect)):
        raise FormatError(f"bad block rect {rect!r}")
    x0, x1, y0, y1 = rect
    if not (0 <= x0 < x1 <= nx and 0 <= y0 < y1 <= ny):
        raise FormatError(f"block rect {rect} out of bounds")
    if not mask[x0:x1, y0:y1].all():
        raise FormatError(f"block rect {rect} covers undefined cells")
    iv = entry.get("interval")
    if not isinstance(iv, int) or not 0 <= iv < len(splits):
        raise FormatError(f"bad interval id {iv!r}")
    t0, t1 = splits[iv]
    block_dims = (x1 - x0, y1 - y0, nl, t1 - t0)

    if entry.get("kind") != cls.kind:
        raise FormatError(f"block kind {entry.get('kind')!r} in a {cls.kind} archive")
    arrays = entry.get("arrays")
    if not isinstance(arrays, list) or not arrays:
        raise FormatError("block without arrays")
    shapes = []
    for a in arrays:
        shape = a.get("shape") if isinstance(a, dict) else None
        if (not isinstance(shape, list) or not shape
                or any(not isinstance(n, int) or n < 1 for n in shape)):
            raise FormatError(f"bad array shape {shape!r}")
        if a.get("offset") != expected_offset:
            raise FormatError(f"array offset {a.get('offset')!r}, expected {expected_offset}")
        shapes.append(tuple(shape))
        expected_offset += int(np.prod(shape, dtype=np.int64))

    cls.check_header(shapes, block_dims, entry)
    return BlockIndex(*rect), iv, block_dims, shapes, expected_offset


def read_gsa(path: str) -> tuple[CompressedArchive, dict]:
    """Load an archive; returns it with the manifest's metrics dict."""
    with open(path, "rb") as f:
        blob = f.read()
    header, payload = _split_file(blob, GSA_MAGIC, "GSA")

    method = header.get("method")
    cls = KINDS.get(method) if isinstance(method, str) else None
    if cls is None:
        raise FormatError(f"unknown method {method!r}")
    eps_max = header.get("eps_max")
    if not isinstance(eps_max, (int, float)) or eps_max <= 0:
        raise FormatError(f"bad eps_max {eps_max!r}")
    dims = _check_dims(header.get("dims"))
    nx, ny, nl, nt = dims
    mask = _decode_rle(header.get("mask_rle"), (nx, ny))

    splits = header.get("splits")
    if not isinstance(splits, list) or not splits:
        raise FormatError("missing time splits")
    pos = 0
    clean_splits = []
    for s in splits:
        if (not isinstance(s, list) or len(s) != 2
                or any(not isinstance(t, int) for t in s) or s[0] != pos or s[1] <= s[0]):
            raise FormatError(f"bad time split {s!r}")
        clean_splits.append((s[0], s[1]))
        pos = s[1]
    if pos != nt:
        raise FormatError(f"splits cover [0, {pos}), expected [0, {nt})")

    entries = header.get("blocks")
    if not isinstance(entries, list):
        raise FormatError("missing block list")
    parsed = []
    offset = 0
    rects = []
    seen = set()
    for entry in entries:
        rect, iv, block_dims, shapes, offset = _check_block_entry(
            entry, cls, mask, dims, clean_splits, offset)
        if (rect, iv) in seen:
            raise FormatError(f"duplicate block {rect} interval {iv}")
        seen.add((rect, iv))
        parsed.append((rect, iv, block_dims, shapes, entry))
        if rect not in rects:
            rects.append(rect)
    if len(parsed) != len(rects) * len(clean_splits):
        raise FormatError("block list does not cover every rectangle x interval")

    lo = header.get("leftover")
    if not isinstance(lo, dict) or lo.get("offset") != offset:
        raise FormatError("bad leftover descriptor")
    n_cells = lo.get("cells")
    derived = leftover_cells(mask, rects).shape[0]
    if n_cells != derived:
        raise FormatError(f"{n_cells!r} leftover cells recorded, mask implies {derived}")
    total_elements = offset + n_cells * nl * nt
    counts = header.get("counts")
    if counts != {"block_elements": offset, "leftover_values": n_cells * nl * nt,
                  "payload_elements": total_elements}:
        raise FormatError("manifest element counts do not match block list")
    if len(payload) != 4 * total_elements:
        raise FormatError(f"payload is {len(payload)} bytes, manifest implies "
                          f"{4 * total_elements}")

    flat = np.frombuffer(payload, dtype="<f4")
    records = []
    pos = 0
    for rect, iv, block_dims, shapes, entry in parsed:
        arrays = []
        for shape in shapes:
            size = int(np.prod(shape, dtype=np.int64))
            arrays.append(flat[pos:pos + size].astype(np.float64).reshape(shape, order="F"))
            pos += size
        records.append(BlockRecord(rect, iv, cls.from_arrays(arrays, block_dims, entry)))
    leftover = flat[pos:].reshape((n_cells, nl, nt), order="F").copy()

    archive = CompressedArchive(
        method, float(eps_max), dims, mask, tuple(clean_splits),
        tuple(records), leftover,
    )
    metrics = header.get("metrics")
    return archive, metrics if isinstance(metrics, dict) else {}

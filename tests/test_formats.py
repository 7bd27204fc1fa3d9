import dataclasses
import functools
import json
import math
import operator
import os
import struct
import tempfile
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MISFIT_RECORDS
from tenblock.formats import (
    GSA_MAGIC,
    GSA_VERSION,
    GST_MAGIC,
    GST_VERSION,
    FormatError,
    _decode_rle,
    _encode_rle,
    read_gsa,
    read_gst,
    write_gsa,
    write_gst,
)
from tenblock.partition import BlockIndex
from tenblock.pipeline import (KINDS, METHODS, BlockRecord, CompressedArchive, RawFactorization,
                               compress_dataset, decompress_dataset)
from tenblock.synth import SynthSpec, synth
from tenblock.tensor_core import GappyTensor4, budgeted_search, chebyshev_norm
from tenblock.tucker import TuckerFactorization

PREFIX = struct.Struct("<4sIQ")


def split_blob(blob):
    magic, version, hlen = PREFIX.unpack_from(blob)
    header = json.loads(blob[PREFIX.size:PREFIX.size + hlen])
    payload = blob[PREFIX.size + hlen:]
    return magic, version, header, payload


def join_blob(magic, version, header, payload):
    raw = json.dumps(header).encode()
    return PREFIX.pack(magic, version, len(raw)) + raw + payload


def small_field(seed=7):
    return synth(SynthSpec(dims=(24, 20, 3, 12), seed=seed))


def test_gst_roundtrip_bit_exact(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    back = read_gst(str(path))
    assert back.dims == g.dims
    np.testing.assert_array_equal(back.domain_mask, g.domain_mask)
    np.testing.assert_array_equal(back.values, g.values)


def test_gst_write_is_deterministic(tmp_path):
    g = small_field()
    p1, p2 = tmp_path / "a.gst", tmp_path / "b.gst"
    write_gst(g, str(p1))
    write_gst(g, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_gst_write_rejects_values_beyond_float32(tmp_path):
    # float32 would store 1e39 as inf, which read_gst rejects
    mask = np.ones((2, 2), dtype=bool)
    values = np.ones((2, 2, 1, 1))
    values[1, 0] = -float(np.finfo(np.float32).max)
    path = tmp_path / "field.gst"
    write_gst(GappyTensor4(values, mask), str(path))
    np.testing.assert_array_equal(read_gst(str(path)).values, values)
    path.unlink()
    values[0, 1] = 1e39
    with pytest.raises(ValueError, match="float32 range"):
        write_gst(GappyTensor4(values, mask), str(path))
    assert os.listdir(tmp_path) == []


def leftover_values(archive):
    # the values of the leftover record, the last one compress makes
    rec = archive.blocks[-1]
    assert rec.rect is None and rec.fac.kind == "raw"
    return rec.fac.values


def with_leftover(archive, values):
    *records, rec = archive.blocks
    return dataclasses.replace(
        archive, blocks=(*records, BlockRecord(None, rec.span, RawFactorization(values))))


def overflowing_leftover(archive):
    return with_leftover(archive, leftover_values(archive).astype(np.float64) * 1e300)


def nan_leftover(archive):
    values = leftover_values(archive).copy()
    values[-1, 0, 0] = np.nan
    return with_leftover(archive, values)


def overflowing_core(archive):
    rec = archive.blocks[0]
    # a float64 copy, which holds 1e39; the writer's float32 cast overflows
    core = rec.fac.core.astype(np.float64)
    core.flat[0] = 1e39
    fac = TuckerFactorization(core, rec.fac.factors)
    return dataclasses.replace(
        archive, blocks=(BlockRecord(rec.rect, rec.span, fac),) + archive.blocks[1:])


@pytest.mark.parametrize("tamper", [overflowing_leftover, overflowing_core, nan_leftover])
def test_gsa_write_rejects_a_non_finite_payload(tmp_path, tamper):
    # float32 would store the value as inf or NaN, which only decompress
    # would reject; the cast's overflow warning is suppressed
    archive, _ = compress_dataset(small_field(), "tucker", 0.5, s_min=4)
    assert leftover_values(archive).size
    archive = tamper(archive)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite in float32"):
            write_gsa(archive, str(tmp_path / "arch.gsa"))
    assert os.listdir(tmp_path) == []


def test_gst_rejects_wrong_magic(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        read_gst(str(path))


def test_gst_rejects_unknown_version(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    magic, version, header, payload = split_blob(path.read_bytes())
    path.write_bytes(join_blob(magic, 99, header, payload))
    with pytest.raises(FormatError):
        read_gst(str(path))


def test_gst_rejects_truncated_payload(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(FormatError):
        read_gst(str(path))


def test_gst_rejects_dims_payload_mismatch(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    magic, version, header, payload = split_blob(path.read_bytes())
    header["dims"] = [1, 2, 3, 4]
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gst(str(path))


def test_huge_dims_are_rejected_without_allocating(tmp_path):
    # 65536**4 and 2**32 * 2**32 are 0 in int64 arithmetic, which matched
    # an empty payload or mask; the exact sizes match neither
    gst = tmp_path / "field.gst"
    header = {"dims": [65536] * 4, "dtype": "float32", "missing": "nan", "order": "C"}
    gst.write_bytes(join_blob(GST_MAGIC, GST_VERSION, header, b""))
    gsa, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["dims"] = [2**32, 2**32, 1, 1]
    header["mask_rle"] = []
    gsa.write_bytes(join_blob(magic, version, header, payload))
    for read, path, message in ((read_gst, gst, "header implies 73786976294838206464"),
                                (read_gsa, gsa, "do not cover the grid")):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=message):
                read(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_gst_rejects_partial_nan_column(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    magic, version, header, payload = split_blob(path.read_bytes())
    vals = np.frombuffer(payload, dtype="<f4").copy()
    i, j = np.argwhere(g.domain_mask)[0]
    # poison one level of one defined column: NaN at (i, j, 0, 1) only
    flat = np.ravel_multi_index((i, j, 0, 1), g.dims)
    vals[flat] = np.nan
    path.write_bytes(join_blob(magic, version, header, vals.tobytes()))
    with pytest.raises(FormatError):
        read_gst(str(path))


def test_gst_missing_file():
    with pytest.raises(OSError):
        read_gst("/nonexistent/field.gst")


def test_rle_roundtrip_random_masks():
    rng = np.random.default_rng(0)
    for trial in range(20):
        mask = rng.random((rng.integers(1, 30), rng.integers(1, 30))) < rng.random()
        runs = _encode_rle(mask)
        assert all(r >= 0 for r in runs)
        back = _decode_rle(runs, mask.shape)
        np.testing.assert_array_equal(back, mask)


def test_rle_edge_cases():
    ones = np.ones((3, 4), dtype=bool)
    runs = _encode_rle(ones)
    assert runs[0] == 0  # leading False-count is zero
    np.testing.assert_array_equal(_decode_rle(runs, (3, 4)), ones)
    zeros = np.zeros((2, 5), dtype=bool)
    np.testing.assert_array_equal(_decode_rle(_encode_rle(zeros), (2, 5)), zeros)


def test_rle_rejects_wrong_total():
    with pytest.raises(FormatError):
        _decode_rle([3, 2], (2, 5))
    with pytest.raises(FormatError):
        _decode_rle([-1, 11], (2, 5))


@pytest.mark.parametrize("method,splits", [("tucker", 1), ("tt", 2), ("qtt", 1)])
def test_gsa_roundtrip(tmp_path, method, splits):
    g = small_field()
    archive, report = compress_dataset(g, method, 0.5, s_min=4, n_splits=splits)
    path = tmp_path / "arch.gsa"
    metrics = {"cr_all": report.cr_all, "max_cheb_error": report.max_cheb_error}
    write_gsa(archive, str(path), metrics=metrics)
    back, got_metrics = read_gsa(str(path))

    assert back.method == archive.method
    assert back.eps_max == archive.eps_max
    assert back.dims == archive.dims
    np.testing.assert_array_equal(back.domain_mask, archive.domain_mask)
    np.testing.assert_array_equal(leftover_values(back), leftover_values(archive))
    assert len(back.blocks) == len(archive.blocks)
    for a, b in zip(archive.blocks, back.blocks):
        assert a.rect == b.rect and a.span == b.span and a.fac.kind == b.fac.kind
        # float32 on both sides, so the arrays read back are those compressed
        for x, y in zip(a.fac.arrays(), b.fac.arrays(), strict=True):
            assert x.dtype == y.dtype == "<f4"
            np.testing.assert_array_equal(x, y)
    assert got_metrics == pytest.approx(metrics)

    # the restored archive still meets the budget
    restored = decompress_dataset(back)
    err = chebyshev_norm(
        np.nan_to_num(restored.values - g.values), g.domain_mask[:, :, None, None])
    assert err <= 0.5


def test_gsa_rewrite_byte_identical(tmp_path):
    g = small_field()
    archive, _ = compress_dataset(g, "tt", 0.5, s_min=4)
    p1, p2 = tmp_path / "a.gsa", tmp_path / "b.gsa"
    write_gsa(archive, str(p1))
    back, _ = read_gsa(str(p1))
    write_gsa(back, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("method", METHODS)
def test_gsa_payload_is_c_order_and_aligned(tmp_path, method):
    # version 3: every record's arrays in turn, the leftover's last, each
    # as its little-endian float32 bytes in C order, from an 8-byte aligned
    # offset; the header holds no offsets
    archive, _ = compress_dataset(small_field(), method, 0.5, s_min=4, n_splits=2)
    path = tmp_path / "arch.gsa"
    write_gsa(archive, str(path))
    blob = path.read_bytes()
    _, version, header, payload = split_blob(blob)
    assert version == GSA_VERSION == 3
    assert (len(blob) - len(payload)) % 8 == 0
    assert archive.blocks[-1].rect is None
    assert payload == b"".join(a.astype("<f4").tobytes()
                               for rec in archive.blocks for a in rec.fac.arrays())
    assert set(header) == {"method", "eps_max", "dims", "mask_rle", "records",
                           "payload_elements", "metrics"}
    assert [set(r) for r in header["records"]] == [
        {"rect", "span", "kind", "shapes"} | set(rec.fac.header_fields())
        for rec in archive.blocks]


def test_gst_payload_is_c_order_and_aligned(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    blob = path.read_bytes()
    _, _, header, payload = split_blob(blob)
    assert header["order"] == "C"
    assert (len(blob) - len(payload)) % 8 == 0
    assert payload == g.values.astype("<f4").tobytes()


def _buffer(a):
    # the object that holds the memory of ndarray a
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a if a.base is None else a.base


@pytest.mark.parametrize("method", METHODS)
def test_read_gsa_copies_nothing(tmp_path, method):
    # a record holds its arrays as the file stores them, so every array of
    # every record, whatever its kind, is a float32 C view of the file's
    # bytes, and a read holds the file and little else; the field leaves
    # more leftover than the 1 MiB slack, so a copy of the raw record would
    # show
    g = synth(SynthSpec(dims=(32, 24, 4, 256), seed=7))
    archive, _ = compress_dataset(g, method, 0.5)
    path = tmp_path / "arch.gsa"
    write_gsa(archive, str(path))
    assert leftover_values(archive).nbytes > 2**20
    tracemalloc.start()
    try:
        back, _ = read_gsa(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size + 2**20
    arrays = [a for rec in back.blocks for a in rec.fac.arrays()]
    assert all(a.dtype == "<f4" and a.flags.c_contiguous and not a.flags.owndata
               for a in arrays)
    assert len({id(_buffer(a)) for a in arrays}) == 1  # one buffer under all, the file's


def test_gsa_of_no_records_roundtrips(tmp_path):
    # an all-land grid leaves no rectangle and no leftover: no arrays at all
    archive = CompressedArchive("tucker", 0.5, (2, 3, 1, 4), np.zeros((2, 3), bool), ())
    path = tmp_path / "arch.gsa"
    write_gsa(archive, str(path))
    back, _ = read_gsa(str(path))
    assert back.blocks == () and back.dims == archive.dims
    assert split_blob(path.read_bytes())[2]["payload_elements"] == 0


def as_version(path, version):
    # the file with its version field set to another version's
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])


def test_version_1_files_are_rejected(tmp_path):
    # version 1 is the first-index-fastest layout
    g = small_field()
    gst, gsa = tmp_path / "field.gst", tmp_path / "arch.gsa"
    write_gst(g, str(gst))
    write_gsa(compress_dataset(g, "tucker", 0.5, s_min=4)[0], str(gsa))
    for read, path, what, version in ((read_gst, gst, "GST", 2), (read_gsa, gsa, "GSA", 3)):
        as_version(path, 1)
        with pytest.raises(FormatError, match=f"unsupported {what} version 1, "
                                              f"this reader reads version {version}"):
            read(str(path))


def test_each_container_reads_its_own_version(tmp_path):
    # GSA version 2 kept the leftover in a section of its own and is
    # rejected like version 1; the GST layout is still version 2's
    g = small_field()
    gst, gsa = tmp_path / "field.gst", tmp_path / "arch.gsa"
    write_gst(g, str(gst))
    write_gsa(compress_dataset(g, "tucker", 0.5, s_min=4)[0], str(gsa))
    assert (split_blob(gst.read_bytes())[1], split_blob(gsa.read_bytes())[1]) == (2, 3)
    np.testing.assert_array_equal(read_gst(str(gst)).values, g.values)
    as_version(gsa, 2)
    with pytest.raises(FormatError, match="unsupported GSA version 2, this reader reads version 3"):
        read_gsa(str(gsa))
    as_version(gst, 3)
    with pytest.raises(FormatError, match="unsupported GST version 3, this reader reads version 2"):
        read_gst(str(gst))


def gsa_blob_parts(tmp_path, method="tucker", n_splits=1):
    g = small_field()
    archive, _ = compress_dataset(g, method, 0.5, s_min=4, n_splits=n_splits)
    path = tmp_path / "arch.gsa"
    write_gsa(archive, str(path))
    return path, split_blob(path.read_bytes())


def test_gsa_rejects_truncated_payload(tmp_path):
    path, _ = gsa_blob_parts(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_tampered_offsets(tmp_path):
    # offsets follow from the shapes in order: swapping two arrays' shapes
    # keeps the payload's length and moves the arrays between them
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    shapes = header["records"][0]["shapes"]
    assert shapes[0] != shapes[1]
    shapes[0], shapes[1] = shapes[1], shapes[0]
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_bad_interval(tmp_path):
    # a span of the record's length past the end of time
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    t0, t1 = header["records"][0]["span"]
    header["records"][0]["span"] = [t0 + 5, t1 + 5]
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError, match="do not tile"):
        read_gsa(str(path))


def test_gsa_rejects_block_outside_mask(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["records"][0]["rect"] = [0, 5000, 0, 5000]
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_leftover_count_mismatch(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    assert header["records"][-1]["rect"] is None
    header["records"][-1]["shapes"][0][0] += 1
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_counts_mismatch(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["payload_elements"] += 3
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_unknown_method(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["method"] = "zip"
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_duplicate_block(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["records"][1] = header["records"][0]
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_gst_file_and_vice_versa(tmp_path):
    g = small_field()
    gst = tmp_path / "x.gst"
    write_gst(g, str(gst))
    with pytest.raises(FormatError):
        read_gsa(str(gst))
    archive, _ = compress_dataset(g, "tucker", 0.5, s_min=4)
    gsa = tmp_path / "x.gsa"
    write_gsa(archive, str(gsa))
    with pytest.raises(FormatError):
        read_gst(str(gsa))


def test_writes_are_atomic_no_temp_litter(tmp_path):
    g = small_field()
    write_gst(g, str(tmp_path / "a.gst"))
    archive, _ = compress_dataset(g, "tucker", 0.5, s_min=4)
    write_gsa(archive, str(tmp_path / "a.gsa"))
    assert sorted(os.listdir(tmp_path)) == ["a.gsa", "a.gst"]


def test_gsa_rejects_blocks_of_another_kind(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path, "tt")
    header["method"] = "tucker"
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError, match="has a record of kind 'tt' in a tucker archive"):
        read_gsa(str(path))


def test_gst_rejects_bool_dims(tmp_path):
    # a one-cell field, so that [true, true, true, true] matches the payload
    path = tmp_path / "cell.gst"
    write_gst(GappyTensor4(np.ones((1, 1, 1, 1)), np.ones((1, 1), dtype=bool)), str(path))
    magic, version, header, payload = split_blob(path.read_bytes())
    for dims in ([True] * 4, [1.0] * 4):
        header["dims"] = dims
        path.write_bytes(join_blob(magic, version, header, payload))
        with pytest.raises(FormatError, match="bad dims"):
            read_gst(str(path))


# every integer a GSA header holds, by its path in the header of a
# two-interval archive (record 1 is the first rectangle's interval 1, the
# last record the leftover's).  Each is labelled by the version 2 header
# field it replaces, so that a test id names the same check across the
# format change; the payload elements and the leftover's span are new.
GSA_INT_FIELDS = {
    "dims.2": ("tucker", ("dims", 2)),
    "mask_rle.1": ("tucker", ("mask_rle", 1)),
    "splits.1.0": ("tucker", ("records", 1, "span", 0)),
    "blocks.1.rect.1": ("tucker", ("records", 1, "rect", 1)),
    "blocks.1.interval": ("tucker", ("records", 1, "span", 1)),
    "blocks.1.arrays.0.shape.0": ("tucker", ("records", 1, "shapes", 0, 0)),
    "leftover.cells": ("tucker", ("records", -1, "shapes", 0, 0)),
    "records.-1.span.1": ("tucker", ("records", -1, "span", 1)),
    "payload_elements": ("tucker", ("payload_elements",)),
    "blocks.1.mode_factors.0.0": ("qtt", ("records", 1, "mode_factors", 0, 0)),
}


@pytest.mark.parametrize("as_type", [bool, float])
@pytest.mark.parametrize("method,field", GSA_INT_FIELDS.values(), ids=GSA_INT_FIELDS)
def test_gsa_rejects_ill_typed_integers(tmp_path, method, field, as_type):
    # true and a float both compare equal to an int, so only the reader's
    # integer check stops them before a reshape or a rewrite
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path, method, n_splits=2)
    *outer, key = field
    node = functools.reduce(operator.getitem, outer, header)
    node[key] = True if as_type is bool else float(node[key])
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


@pytest.mark.parametrize("eps_max", [True, float("nan"), float("inf"),
                                     pytest.param(10**400, id="int_past_float_range")])
def test_gsa_rejects_bad_eps_max(tmp_path, eps_max):
    # json writes inf as the token Infinity and reads it back
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["eps_max"] = eps_max
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError, match="bad eps_max"):
        read_gsa(str(path))


def set_shapes(header, payload, shapes):
    """Give the first record new array shapes, and its part of the payload,
    at the start, their sizes (cut, or padded with zeros), with the payload
    element count moved to match; returns the new payload."""
    old = sum(math.prod(shape) for shape in header["records"][0]["shapes"])
    new = sum(math.prod(shape) for shape in shapes)
    header["records"][0]["shapes"] = [list(shape) for shape in shapes]
    header["payload_elements"] += new - old
    record = payload[:4 * old] + bytes(4 * max(new - old, 0))
    return record[:4 * new] + payload[4 * old:]


def shapes_of(header):
    return [list(shape) for shape in header["records"][0]["shapes"]]


def unknown_kind(header, payload):
    header["records"][0]["kind"] = "zip"
    return payload


def tucker_factor_extent(header, payload):
    # every array still reads and the record is consistent in itself, but
    # its factor 0 is one row longer than its rectangle
    shapes = shapes_of(header)
    shapes[1][0] += 1
    return set_shapes(header, payload, shapes)


def tt_boundary_rank(header, payload):
    shapes = shapes_of(header)
    shapes[0][0] = 2
    return set_shapes(header, payload, shapes)


def tt_rank_mismatch(header, payload):
    shapes = shapes_of(header)
    shapes[1][0] += 1
    return set_shapes(header, payload, shapes)


def qtt_mode_factor_product(header, payload):
    header["records"][0]["mode_factors"][0].append(2)
    return payload


def non_object_entry(header, payload):
    header["records"][0] = 1
    return payload


@pytest.mark.parametrize("method,tamper,message", [
    ("tucker", unknown_kind, "block kind 'zip'"),
    ("tucker", tucker_factor_extent, "record of shape"),
    ("tt", tt_boundary_rank, "boundary carriage ranks must be 1"),
    ("tt", tt_rank_mismatch, "carriage 1 rank mismatch"),
    ("qtt", qtt_mode_factor_product, "carriage extents"),
    ("tt", non_object_entry, "block entry 1 is not an object"),
])
def test_gsa_rejects_bad_block_record(tmp_path, method, tamper, message):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path, method)
    payload = tamper(header, payload)
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError, match=message):
        read_gsa(str(path))


# archive layouts that every array of the file can still be read from, so
# only the layout rule of CompressedArchive rejects them; each tamper gets
# the header and payload of a two-interval tucker archive


def splits_overlap(header, payload):
    # the first rectangle's intervals of the right lengths, overlapping, so
    # its last step is never written
    first, second = header["records"][:2]
    (t0, t1), (_, t2) = first["span"], second["span"]
    second["span"] = [t1 - 1, t2 - 1]
    return payload


def rect_over_undefined(header, payload):
    # the leftover cells stay the same: a covered cell is never one
    mask = _decode_rle(header["mask_rle"], tuple(header["dims"][:2]))
    x0, _, y0, _ = header["records"][0]["rect"]
    mask[x0, y0] = False
    header["mask_rle"] = _encode_rle(mask)
    return payload


def rect_at_negative_x(header, payload):
    # the same extents, so the arrays still match; a negative start would
    # slice the mask from its far end
    rect = header["records"][0]["rect"]
    rect[0] -= header["dims"][0]
    rect[1] -= header["dims"][0]
    return payload


def missing_record(header, payload):
    # drop the first rectangle's interval 1 record and its arrays' payload,
    # with the payload element count fixed up
    records = header["records"]
    assert records[1]["rect"] == records[0]["rect"] and records[1]["span"][0] > 0
    start = sum(math.prod(shape) for shape in records[0]["shapes"])
    size = sum(math.prod(shape) for shape in records.pop(1)["shapes"])
    header["payload_elements"] -= size
    return payload[:4 * start] + payload[4 * (start + size):]


@pytest.mark.parametrize("tamper,message", [
    (splits_overlap, "do not tile"),
    (rect_over_undefined, "covers undefined cells"),
    (rect_at_negative_x, "lies outside"),
    (missing_record, r"has records for time spans \[\(0, 6\)\], which do not tile"),
])
def test_gsa_rejects_bad_layout(tmp_path, tamper, message):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path, n_splits=2)
    payload = tamper(header, payload)
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError, match=message):
        read_gsa(str(path))


def test_gsa_rejects_overlapping_rectangles(tmp_path):
    # a one-cell rectangle inside the first, factorized on its own: every
    # array of the file reads, and only the layout rule rejects it.  The
    # constructor refuses such an archive, so it is written from a copy
    # of the fields.
    g = small_field()
    archive, _ = compress_dataset(g, "tucker", 0.5, s_min=4)
    r = archive.blocks[0].rect
    inner = BlockIndex(r.x_start, r.x_start + 1, r.y_start, r.y_start + 1)
    cell = g.values[inner.x_start:inner.x_end, inner.y_start:inner.y_end]
    fac = budgeted_search(TuckerFactorization, [cell], 0.5)[0][0]
    fields = {**vars(archive), "blocks": archive.blocks + (BlockRecord(inner, (0, 12), fac),)}
    path = tmp_path / "arch.gsa"
    write_gsa(SimpleNamespace(**fields), str(path))
    with pytest.raises(FormatError, match="overlap"):
        read_gsa(str(path))


@pytest.mark.parametrize("name", MISFIT_RECORDS)
def test_gsa_rejects_a_record_of_another_shape(tmp_path, name):
    # every array of the file reads and the record is consistent in
    # itself, so only the archive's record-shape rule rejects it; the
    # archive is written from a copy of the fields, as above
    method, misfit = MISFIT_RECORDS[name]
    archive, _ = compress_dataset(small_field(), method, 0.5, s_min=4)
    rec = archive.blocks[0]
    blocks = (BlockRecord(rec.rect, rec.span, misfit(rec.fac)),) + archive.blocks[1:]
    path = tmp_path / "arch.gsa"
    write_gsa(SimpleNamespace(**{**vars(archive), "blocks": blocks}), str(path))
    with pytest.raises(FormatError, match="has a record of shape"):
        read_gsa(str(path))


# archives that break one placement rule of CompressedArchive, by name: each
# takes a method and returns a compressed archive and the records to put in
# its place, and the rule's message for that method


def two_interval_parts(method):
    # a two-interval archive with a leftover: its rectangle records, rect-
    # major and interval-minor, and the leftover's, the last
    archive, _ = compress_dataset(small_field(), method, 0.5, s_min=4, n_splits=2)
    *records, leftover = archive.blocks
    assert leftover.rect is None and records[0].rect == records[1].rect
    return archive, records, leftover


def no_leftover_record(method):
    archive, records, _ = two_interval_parts(method)
    return archive, records


def leftover_record_over_full_cover(method):
    # the rectangles cover every cell of an all-defined grid
    values = np.random.default_rng(0).random((8, 8, 3, 12))
    archive, _ = compress_dataset(GappyTensor4(values, np.ones((8, 8), dtype=bool)), method,
                                  0.5, s_min=4, n_splits=2)
    assert all(rec.rect is not None for rec in archive.blocks)
    cell = RawFactorization(np.zeros((1, 3, 12), dtype=np.float32))
    return archive, [*archive.blocks, BlockRecord(None, (0, 12), cell)]


def raw_record_on_a_rectangle(method):
    archive, (rec, *records), leftover = two_interval_parts(method)
    raw = RawFactorization(np.zeros(rec.fac.dims, dtype=np.float32))
    return archive, [BlockRecord(rec.rect, rec.span, raw), *records, leftover]


def factorized_leftover(method):
    archive, records, leftover = two_interval_parts(method)
    x = leftover.fac.values.astype(np.float64)
    fac = budgeted_search(KINDS[method], [x], 0.5)[0][0]
    return archive, [*records, BlockRecord(None, leftover.span, fac)]


def spans_with_a_gap(method):
    # the first rectangle without its second interval's record
    archive, (first, _, *records), leftover = two_interval_parts(method)
    return archive, [first, *records, leftover]


def spans_overlapping(method):
    archive, (first, second, *records), leftover = two_interval_parts(method)
    (t0, t1), (_, t2) = first.span, second.span
    moved = dataclasses.replace(second, span=(t1 - 1, t2 - 1))
    return archive, [first, moved, *records, leftover]


def leftover_of_another_cell_count(method):
    archive, records, leftover = two_interval_parts(method)
    fewer = RawFactorization(leftover.fac.values[1:])
    return archive, [*records, BlockRecord(None, leftover.span, fewer)]


PLACEMENTS = {
    no_leftover_record: "defined cells are uncovered, and there are no leftover records",
    leftover_record_over_full_cover: "0 defined cells are uncovered, and there are leftover",
    raw_record_on_a_rectangle: "has a record of kind 'raw' in a {m} archive, expected '{m}'",
    factorized_leftover: "the leftover has a record of kind '{m}' in a {m} archive, "
                         "expected 'raw'",
    spans_with_a_gap: "has records for time spans \\[\\(0, 6\\)\\], which do not tile",
    spans_overlapping: "has records for time spans .*, which do not tile",
    leftover_of_another_cell_count: "the leftover span \\(0, 12\\) has a record of shape",
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", PLACEMENTS, ids=lambda f: f.__name__)
def test_archive_and_reader_reject_a_bad_placement(tmp_path, case, method):
    # the constructor refuses the records, and a file written from a copy
    # of the fields, whose every array reads, is refused on reading
    archive, records = case(method)
    message = PLACEMENTS[case].format(m=method)
    fields = {**vars(archive), "blocks": tuple(records)}
    with pytest.raises(ValueError, match=message):
        CompressedArchive(**fields)
    path = tmp_path / "arch.gsa"
    write_gsa(SimpleNamespace(**fields), str(path))
    with pytest.raises(FormatError, match=message):
        read_gsa(str(path))


# values a fuzzed header field is replaced with: every JSON type, integers
# of the wrong size, NaN and the kind names
FUZZ_VALUES = [None, True, False, 0, 1, -1, 2, 3, 2**40, 1.5, float("nan"), "tucker", "tt",
               "qtt", "raw", "", [], [0], [2, 2], [[2, 2]], [[0, 1], [1, 2]], {"shape": [1]}]


def header_paths(node, path=()):
    # the path of every value in the JSON tree, containers included
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from header_paths(child, path + (key,))


@functools.lru_cache(maxsize=None)
def fuzz_archive(method):
    """The header text, payload and fuzzed paths of a small two-interval
    archive, which holds a raw leftover record and two spans per rectangle.
    ``dims`` and ``mask_rle`` are left alone: the mask is allocated at the
    grid size they claim before the payload is checked."""
    archive, _ = compress_dataset(synth(SynthSpec(dims=(12, 10, 2, 8), seed=7)), method, 0.5,
                                  s_min=4, n_splits=2)
    spans = {}
    for rec in archive.blocks:
        spans.setdefault(rec.rect, []).append(rec.span)
    assert spans.pop(None) == [(0, 8)] and archive.blocks[-1].fac.kind == "raw"
    assert spans and all(len(s) == 2 for s in spans.values())
    with tempfile.TemporaryDirectory() as work:
        write_gsa(archive, os.path.join(work, "arch.gsa"))
        with open(os.path.join(work, "arch.gsa"), "rb") as f:
            _, _, header, payload = split_blob(f.read())
    paths = [p for p in header_paths(header) if p[0] not in ("dims", "mask_rle")]
    return json.dumps(header), payload, paths


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(METHODS), st.data())
def test_gsa_reader_raises_only_format_error(method, data):
    text, payload, paths = fuzz_archive(method)
    header = json.loads(text)
    *outer, key = data.draw(st.sampled_from(paths), label="path")
    functools.reduce(operator.getitem, outer, header)[key] = data.draw(
        st.sampled_from(FUZZ_VALUES), label="value")
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "arch.gsa")
        with open(path, "wb") as f:
            f.write(join_blob(GSA_MAGIC, GSA_VERSION, header, payload))
        try:
            read_gsa(path)
        except FormatError:
            pass

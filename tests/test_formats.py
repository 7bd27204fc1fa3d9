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
    FORMAT_VERSION,
    GSA_MAGIC,
    GST_MAGIC,
    FormatError,
    _decode_rle,
    _encode_rle,
    read_gsa,
    read_gst,
    write_gsa,
    write_gst,
)
from tenblock.partition import BlockIndex
from tenblock.pipeline import METHODS, BlockRecord, compress_dataset, decompress_dataset
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


def overflowing_leftover(archive):
    values = archive.leftover_values.astype(np.float64) * 1e300
    return dataclasses.replace(archive, leftover_values=values)


def nan_leftover(archive):
    values = archive.leftover_values.copy()
    values[-1, 0, 0] = np.nan
    return dataclasses.replace(archive, leftover_values=values)


def overflowing_core(archive):
    rec = archive.blocks[0]
    core = rec.fac.core.copy()
    core.flat[0] = 1e39
    fac = TuckerFactorization(core, rec.fac.factors)
    return dataclasses.replace(
        archive, blocks=(BlockRecord(rec.rect, rec.interval, fac),) + archive.blocks[1:])


@pytest.mark.parametrize("tamper", [overflowing_leftover, overflowing_core, nan_leftover])
def test_gsa_write_rejects_a_non_finite_payload(tmp_path, tamper):
    # float32 would store the value as inf or NaN, which only decompress
    # would reject; the cast's overflow warning is suppressed
    archive, _ = compress_dataset(small_field(), "tucker", 0.5, s_min=4)
    assert archive.leftover_values.size
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
    gst.write_bytes(join_blob(GST_MAGIC, FORMAT_VERSION, header, b""))
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
    assert back.splits == archive.splits
    np.testing.assert_array_equal(back.domain_mask, archive.domain_mask)
    np.testing.assert_array_equal(back.leftover_values, archive.leftover_values)
    assert len(back.blocks) == len(archive.blocks)
    for a, b in zip(archive.blocks, back.blocks):
        assert a.rect == b.rect and a.interval == b.interval
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
    # version 2: every record's arrays in turn, then the leftover store,
    # each as its little-endian float32 bytes in C order, from an 8-byte
    # aligned offset
    archive, _ = compress_dataset(small_field(), method, 0.5, s_min=4, n_splits=2)
    path = tmp_path / "arch.gsa"
    write_gsa(archive, str(path))
    blob = path.read_bytes()
    _, version, _, payload = split_blob(blob)
    assert version == FORMAT_VERSION == 2
    assert (len(blob) - len(payload)) % 8 == 0
    records = b"".join(a.astype("<f4").tobytes()
                       for rec in archive.blocks for a in rec.fac.arrays())
    assert payload == records + archive.leftover_values.astype("<f4").tobytes()


def test_gst_payload_is_c_order_and_aligned(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    blob = path.read_bytes()
    _, _, header, payload = split_blob(blob)
    assert header["order"] == "C"
    assert (len(blob) - len(payload)) % 8 == 0
    assert payload == g.values.astype("<f4").tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_read_gsa_copies_only_the_factor_section(tmp_path, method):
    # the leftover store is a view of the file's bytes and every factor
    # array a C view of one float64 copy of the factor section, so a read
    # holds the file, that copy and little else; the field leaves more
    # leftover than the 1 MiB slack, so a copy of the store would show
    g = synth(SynthSpec(dims=(32, 24, 4, 256), seed=7))
    archive, _ = compress_dataset(g, method, 0.5)
    path = tmp_path / "arch.gsa"
    write_gsa(archive, str(path))
    factor_bytes = 4 * split_blob(path.read_bytes())[2]["leftover"]["offset"]
    assert archive.leftover_values.nbytes > 2**20 + 2 * factor_bytes
    tracemalloc.start()
    try:
        back, _ = read_gsa(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size + 2 * factor_bytes + 2**20
    assert all(a.flags.c_contiguous for rec in back.blocks for a in rec.fac.arrays())


def as_version_1(path):
    # the file with its version field set to 1, the first-index-fastest layout
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])


def test_version_1_files_are_rejected(tmp_path):
    g = small_field()
    gst, gsa = tmp_path / "field.gst", tmp_path / "arch.gsa"
    write_gst(g, str(gst))
    write_gsa(compress_dataset(g, "tucker", 0.5, s_min=4)[0], str(gsa))
    for read, path, what in ((read_gst, gst, "GST"), (read_gsa, gsa, "GSA")):
        as_version_1(path)
        with pytest.raises(FormatError, match=f"unsupported {what} version 1, "
                                              f"this reader reads version 2"):
            read(str(path))


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
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["blocks"][0]["arrays"][0]["offset"] += 1
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_bad_interval(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["blocks"][0]["interval"] = 5
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_block_outside_mask(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["blocks"][0]["rect"] = [0, 5000, 0, 5000]
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_leftover_count_mismatch(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["leftover"]["cells"] += 1
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_counts_mismatch(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["counts"]["payload_elements"] += 3
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
    header["blocks"][1] = header["blocks"][0]
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
    with pytest.raises(FormatError, match="block kind 'tt' in a tucker archive"):
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
# two-interval archive (block 1 is in interval 1)
GSA_INT_FIELDS = [
    ("tucker", ("dims", 2)),
    ("tucker", ("mask_rle", 1)),
    ("tucker", ("splits", 1, 0)),
    ("tucker", ("blocks", 1, "rect", 1)),
    ("tucker", ("blocks", 1, "interval")),
    ("tucker", ("blocks", 1, "arrays", 0, "shape", 0)),
    ("tucker", ("blocks", 1, "arrays", 1, "offset")),
    ("tucker", ("leftover", "offset")),
    ("tucker", ("leftover", "cells")),
    ("qtt", ("blocks", 1, "mode_factors", 0, 0)),
]


@pytest.mark.parametrize("as_type", [bool, float])
@pytest.mark.parametrize("method,field", GSA_INT_FIELDS,
                         ids=[".".join(map(str, f)) for _, f in GSA_INT_FIELDS])
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
    """Give the first block record new array shapes, and its part of the
    payload their sizes (cut, or padded with zeros), with every later offset
    and count moved to match; returns the new payload."""
    blocks = header["blocks"]
    start = blocks[0]["arrays"][0]["offset"]
    old = sum(math.prod(a["shape"]) for a in blocks[0]["arrays"])
    blocks[0]["arrays"] = []
    offset = start
    for shape in shapes:
        blocks[0]["arrays"].append({"shape": list(shape), "offset": offset})
        offset += math.prod(shape)
    grown = offset - start - old
    for block in blocks[1:]:
        for a in block["arrays"]:
            a["offset"] += grown
    header["leftover"]["offset"] += grown
    header["counts"]["block_elements"] += grown
    header["counts"]["payload_elements"] += grown
    record = payload[4 * start:4 * (start + old)] + bytes(4 * max(grown, 0))
    return payload[:4 * start] + record[:4 * (offset - start)] + payload[4 * (start + old):]


def shapes_of(header):
    return [list(a["shape"]) for a in header["blocks"][0]["arrays"]]


def unknown_kind(header, payload):
    header["blocks"][0]["kind"] = "zip"
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
    header["blocks"][0]["mode_factors"][0].append(2)
    return payload


def non_object_entry(header, payload):
    header["blocks"][0] = 1
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
    # intervals of the right lengths, overlapping, so the last step is
    # never written
    (t0, t1), (_, t2) = header["splits"]
    header["splits"] = [[t0, t1], [t1 - 1, t2 - 1]]
    return payload


def rect_over_undefined(header, payload):
    # the leftover cells stay the same: a covered cell is never one
    mask = _decode_rle(header["mask_rle"], tuple(header["dims"][:2]))
    x0, _, y0, _ = header["blocks"][0]["rect"]
    mask[x0, y0] = False
    header["mask_rle"] = _encode_rle(mask)
    return payload


def rect_at_negative_x(header, payload):
    # the same extents, so the arrays still match; a negative start would
    # slice the mask from its far end
    rect = header["blocks"][0]["rect"]
    rect[0] -= header["dims"][0]
    rect[1] -= header["dims"][0]
    return payload


def missing_record(header, payload):
    # drop the first rectangle's interval 1 record, its arrays and their
    # payload, with every later offset and count fixed up
    blocks = header["blocks"]
    assert blocks[1]["rect"] == blocks[0]["rect"] and blocks[1]["interval"] == 1
    dropped = blocks.pop(1)
    start = dropped["arrays"][0]["offset"]
    size = sum(int(np.prod(a["shape"])) for a in dropped["arrays"])
    for block in blocks[1:]:
        for a in block["arrays"]:
            a["offset"] -= size
    header["leftover"]["offset"] -= size
    header["counts"]["block_elements"] -= size
    header["counts"]["payload_elements"] -= size
    return payload[:4 * start] + payload[4 * (start + size):]


@pytest.mark.parametrize("tamper,message", [
    (splits_overlap, "do not tile"),
    (rect_over_undefined, "covers undefined cells"),
    (rect_at_negative_x, "lies outside"),
    (missing_record, r"has records for intervals \[0\]"),
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
    fields = {**vars(archive), "blocks": archive.blocks + (BlockRecord(inner, 0, fac),)}
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
    blocks = (BlockRecord(rec.rect, rec.interval, misfit(rec.fac)),) + archive.blocks[1:]
    path = tmp_path / "arch.gsa"
    write_gsa(SimpleNamespace(**{**vars(archive), "blocks": blocks}), str(path))
    with pytest.raises(FormatError, match="has a record of shape"):
        read_gsa(str(path))


# values a fuzzed header field is replaced with: every JSON type, integers
# of the wrong size, NaN and the kind names
FUZZ_VALUES = [None, True, False, 0, 1, -1, 2, 3, 2**40, 1.5, float("nan"), "tucker", "tt",
               "qtt", "", [], [0], [2, 2], [[2, 2]], [[0, 1], [1, 2]], {"shape": [1]}]


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
    archive.  ``dims`` and ``mask_rle`` are left alone: the mask is
    allocated at the grid size they claim before the payload is checked."""
    archive, _ = compress_dataset(synth(SynthSpec(dims=(12, 10, 2, 8), seed=7)), method, 0.5,
                                  s_min=4, n_splits=2)
    assert archive.blocks
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
            f.write(join_blob(GSA_MAGIC, FORMAT_VERSION, header, payload))
        try:
            read_gsa(path)
        except FormatError:
            pass
